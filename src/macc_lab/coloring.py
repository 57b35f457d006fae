"""Interference-aware colorings of index coding nodes.

Node ``v`` *interferes* with node ``u`` when ``v``'s wanted message is neither
known to ``u`` nor equal to ``u``'s own wanted message. A coloring is *proper*
when no node shares a color with any of its interferers, and its *local count*
is the largest number of distinct colors seen by any closed set
``{u} + interferers(u)``. The local count, not the palette size, is what a
properly colored instance pays in transmissions.

Two structured constructions cover the union descriptors:

* :func:`divisor_coloring` - palette size ``t`` with ``t | K``; column one of
  row ``k`` gets ``mod1(k, t)``, column two ``mod1(k + a1 + 1, t)``.
* :func:`fractional_coloring` - split every message into ``m = K // (a1+a2+2)``
  parts and color the ``2m``-column grid with all ``K`` colors so the palette
  advances by ``a1+a2+2`` every column pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .icp import IcpInstance, UnionIcpDesc
from .macc import mod1


@dataclass(frozen=True)
class Coloring:
    """Color per node, aligned to the instance's node order; colors are 1-based
    and every color in ``[1, n_colors]`` occurs at least once."""

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if self.colors:
            used = set(self.colors)
            top = max(used)
            if min(used) < 1 or len(used) != top:
                raise ParameterError("colors must form a contiguous range from 1")

    @property
    def n_colors(self) -> int:
        return max(self.colors) if self.colors else 0

    def to_json(self) -> str:
        return json.dumps(list(self.colors))

    @classmethod
    def from_json(cls, text: str) -> "Coloring":
        return cls(tuple(json.loads(text)))


def _check_len(icp: IcpInstance, coloring: Coloring) -> None:
    if len(coloring.colors) != icp.n_nodes:
        raise ParameterError(
            f"coloring covers {len(coloring.colors)} nodes, instance has {icp.n_nodes}"
        )


def interferers(icp: IcpInstance, node: int) -> set[int]:
    """Node indices whose wanted message node ``node`` cannot account for."""
    if not (1 <= node <= icp.n_nodes):
        raise ParameterError(f"node must lie in [1, {icp.n_nodes}], got {node}")
    out = np.flatnonzero(~icp.visible(node - 1)) + 1
    return set(int(v) for v in out)


def is_proper(icp: IcpInstance, coloring: Coloring) -> bool:
    """True iff no node shares its color with one of its interferers.

    Checked color class by color class: within a class, every node's message
    must be visible (known or identical) to every other member.
    """
    _check_len(icp, coloring)
    cols = np.asarray(coloring.colors, dtype=np.int32)
    for c in range(1, (coloring.n_colors if coloring.colors else 0) + 1):
        members = np.flatnonzero(cols == c)
        if len(members) < 2:
            continue
        msgs = icp.node_msg[members]
        vis = icp.known_rows[np.ix_(icp.node_row[members], msgs)]
        vis |= msgs[None, :] == msgs[:, None]
        if not vis.all():
            return False
    return True


def local_count(icp: IcpInstance, coloring: Coloring) -> int:
    """Max distinct colors over closed sets {u} + interferers(u)."""
    _check_len(icp, coloring)
    if not coloring.colors:
        return 0
    cols = np.asarray(coloring.colors, dtype=np.int32)
    counts = np.zeros(icp.n_nodes, dtype=np.int32)
    own_seen = np.zeros(icp.n_nodes, dtype=bool)
    for c in range(1, coloring.n_colors + 1):
        members = np.flatnonzero(cols == c)
        msgs = icp.node_msg[members]
        vis = icp.known_rows[:, msgs][icp.node_row]
        vis |= msgs[None, :] == icp.node_msg[:, None]
        sees = ~vis.all(axis=1)
        counts += sees
        own_seen |= sees & (cols == c)
    # a node's own color might not appear among its interferers
    counts += ~own_seen
    return int(counts.max())


def divisor_coloring(desc: UnionIcpDesc, n_colors: int) -> Coloring:
    """Residue coloring of the 2-column union grid with ``n_colors | K``.

    Proper whenever ``n_colors >= a1 + a2 + 2``: within a column, interferer
    offsets stay below ``n_colors``; across columns, the ``a1 + 1`` shift
    clears the ``[-a1, a2]`` interference window.
    """
    k = desc.k
    if n_colors < desc.a1 + desc.a2 + 2:
        raise ParameterError(
            f"need at least a1+a2+2 = {desc.a1 + desc.a2 + 2} colors, got {n_colors}"
        )
    if k % n_colors != 0:
        raise ParameterError(f"{n_colors} does not divide K = {k}")
    colors = []
    for row in range(1, k + 1):
        colors.append(mod1(row, n_colors))
        colors.append(mod1(row + desc.a1 + 1, n_colors))
    return Coloring(tuple(colors))


def fractional_split(desc: UnionIcpDesc) -> int:
    """Parts per message used by :func:`fractional_coloring`: K // (a1+a2+2)."""
    s = desc.a1 + desc.a2 + 2
    if s > desc.k:
        raise ParameterError("descriptor admits no split (a1+a2+2 > K)")
    return desc.k // s


def fractional_coloring(desc: UnionIcpDesc) -> tuple[Coloring, int]:
    """Color the ``2m``-column split grid with all ``K`` colors.

    Column pair ``j`` (columns ``2j-1``, ``2j``) is shifted by ``(j-1)*s``
    with ``s = a1 + a2 + 2``; within a pair the even column adds ``a1 + 1``,
    the same clearance as :func:`divisor_coloring`. Every closed set then
    sees one run of ``s + a2`` consecutive colors per pair, overlapping by
    ``a2``, for ``min(m*s + a2, K)`` distinct colors in total.

    Returns the coloring over :func:`realize_union_split`'s node order and
    the split factor ``m``.
    """
    k = desc.k
    s = desc.a1 + desc.a2 + 2
    m = fractional_split(desc)
    colors = []
    for row in range(1, k + 1):
        for p in range(1, 2 * m + 1):
            j = (p + 1) // 2
            base = (j - 1) * s
            if p % 2 == 1:
                colors.append(mod1(row + base, k))
            else:
                colors.append(mod1(row + base + desc.a1 + 1, k))
    return Coloring(tuple(colors)), m


def greedy_coloring(icp: IcpInstance) -> Coloring:
    """First-fit over nodes in index order.

    A node avoids the colors of everything it interferes with, in both
    directions, and of any node wanting the same message (two same-message
    nodes on one color would cancel each other out of every linear
    combination built from the coloring).
    """
    msg = icp.node_msg
    colors = [0] * icp.n_nodes
    for u in range(icp.n_nodes):
        knows_u = icp.known_rows[icp.node_row, msg[u]]
        conflict = ~(icp.visible(u) & knows_u) | (msg == msg[u])
        conflict[u] = False
        taken = {colors[v] for v in np.flatnonzero(conflict[:u])}
        c = 1
        while c in taken:
            c += 1
        colors[u] = c
    return Coloring(tuple(colors))


def closed_color_sets(icp: IcpInstance, coloring: Coloring) -> list[set[int]]:
    """Per node: the distinct colors over {node} + interferers(node).

    Small-instance helper for reports and tests; quadratic in node count.
    """
    _check_len(icp, coloring)
    out = []
    for u in range(icp.n_nodes):
        seen = {coloring.colors[u]}
        seen.update(coloring.colors[v] for v in np.flatnonzero(~icp.visible(u)))
        out.append(seen)
    return out


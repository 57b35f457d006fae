"""Interference-aware colorings of index coding nodes.

Node ``v`` *interferes* with node ``u`` when ``v``'s wanted message is neither
known to ``u`` nor equal to ``u``'s own wanted message. A coloring is *proper*
when no node shares a color with any of its interferers, and its *local count*
is the largest number of distinct colors seen by any closed set
``{u} + interferers(u)``. The local count, not the palette size, is what a
properly colored instance pays in transmissions.

The union descriptors have one structured rule, a shifted window on the
``K x 2m`` grid: node ``(k, p)``, with 0-based column ``p``, gets
``mod1(k + (p // 2) * s + (p % 2) * (a1 + 1), t)`` for ``s = a1 + a2 + 2``.

* :func:`divisor_coloring` - ``m = 1`` and a palette ``t`` with ``t | K``.
* :func:`fractional_coloring` - every message split into ``m = K // s`` parts
  and all ``t = K`` colors, so the palette advances by ``s`` every column pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .icp import IcpInstance, UnionIcpDesc


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
    """True iff no node shares its color with one of its interferers: every
    node knows or wants the message of every member of its color class."""
    _check_len(icp, coloring)
    cols = np.asarray(coloring.colors, dtype=np.intp)
    return not any(
        (~vis & (cols[u][:, None] == cols[v])).any() for u, v, vis in _visibility(icp, cols, own=True)
    )


def local_count(icp: IcpInstance, coloring: Coloring) -> int:
    """Max distinct colors over closed sets {u} + interferers(u)."""
    _check_len(icp, coloring)
    cols = np.asarray(coloring.colors, dtype=np.intp)
    best = 0
    for u, v, vis in _visibility(icp, cols, own=False):
        # per node, the colors of the members it cannot see, and its own
        seen = np.logical_or.reduceat(~vis, np.flatnonzero(np.diff(cols[v], prepend=0)), axis=1)
        seen[np.arange(len(u)), cols[u] - 1] = True
        best = max(best, int(seen.sum(axis=1).max()))
    return best


# node x member cells per block of :func:`_visibility`; its boolean
# temporaries stay near 1 MB whatever the instance size
_BLOCK_CELLS = 1 << 18


def _visibility(icp: IcpInstance, cols: np.ndarray, own: bool):
    """Per block of nodes ``u``, taken in color order: the members ``v``, in
    color order, of every color class (of only the classes of ``u`` when
    ``own``), and ``vis[i, j]``, whether node ``u[i]`` knows or wants the
    message of node ``v[j]``."""
    order = np.argsort(cols, kind="stable")
    ordered = cols[order]
    step = max(1, _BLOCK_CELLS // max(1, len(cols), icp.n_messages))
    for lo in range(0, len(cols), step):
        u = order[lo : lo + step]
        a = np.searchsorted(ordered, ordered[lo]) if own else 0
        b = np.searchsorted(ordered, ordered[lo + len(u) - 1], side="right") if own else len(cols)
        v = order[a:b]
        msg = icp.node_msg[v]
        yield u, v, icp.known_rows[icp.node_row[u]][:, msg] | (icp.node_msg[u][:, None] == msg)


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
    return _window_coloring(desc, 1, n_colors)


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
    m = fractional_split(desc)
    return _window_coloring(desc, m, desc.k), m


def _window_coloring(desc: UnionIcpDesc, m: int, t: int) -> Coloring:
    """The shifted-window coloring of the ``K x 2m`` grid with ``t`` colors,
    row-major as :func:`realize_union_split` lays out its nodes."""
    s = desc.a1 + desc.a2 + 2
    # per column; a list, as numpy's fixed cost would dominate on small grids
    shift = [p // 2 * s + p % 2 * (desc.a1 + 1) for p in range(2 * m)]
    colors = (np.arange(desc.k)[:, None] + shift) % t + 1
    return Coloring(tuple(colors.ravel().tolist()))


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


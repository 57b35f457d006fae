"""Interference-aware colorings of index coding nodes.

Node ``v`` *interferes* with node ``u`` when ``v``'s wanted message is neither
known to ``u`` nor equal to ``u``'s own wanted message. A coloring is *proper*
when no node shares a color with any of its interferers, and its *local count*
is the largest number of distinct colors seen by any closed set
``{u} + interferers(u)``. The local count, not the palette size, is what a
properly colored instance pays in transmissions.

Both read one table, ``lack[s, c]``: how many distinct messages of color
``c`` known set ``s`` lacks. A set never knows its own node's message, so a
coloring is proper iff no node's own color shows two lacked messages to its
set. First-fit lets ``u`` and ``v`` share a color only when each one's set
knows the other's message.

The union descriptors have one structured rule, a shifted window on the
``K x 2m`` grid: node ``(k, p)``, with 0-based column ``p``, gets
``mod1(k + (p // 2) * s + (p % 2) * (a1 + 1), t)`` for ``s = a1 + a2 + 2``.

* :func:`divisor_coloring` - ``m = 1`` and a palette ``t`` with ``t | K``.
* :func:`fractional_coloring` - every message split into ``m = K // s`` parts
  and all ``t = K`` colors, so the palette advances by ``s`` every column pair.
"""

from __future__ import annotations

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
    return _verdicts(icp, coloring)[0]


def local_count(icp: IcpInstance, coloring: Coloring) -> int:
    """Max distinct colors over closed sets {u} + interferers(u)."""
    return _verdicts(icp, coloring)[1]


def _verdicts(icp: IcpInstance, coloring: Coloring) -> tuple[bool, int]:
    """Whether ``coloring`` is proper, and its local count, both read off one
    :func:`_lack` table; a set never knows the message its own node wants."""
    _check_len(icp, coloring)
    if not icp.n_nodes:
        return True, 0
    cols, row, msg = np.asarray(coloring.colors, dtype=np.intp) - 1, icp.node_row, icp.node_msg
    # the distinct (color, message) pairs in color order, every color present;
    # sorted here, as np.unique's first call imports numpy.ma (1 MB)
    key = np.sort(cols * icp.n_messages + msg, kind="stable")
    pair_col, pair_msg = np.divmod(key[np.concatenate(([True], key[1:] != key[:-1]))], icp.n_messages)
    lack = _lack(icp.known_rows, pair_msg, np.searchsorted(pair_col, np.arange(coloring.n_colors)))
    own, seen = lack[row, cols], np.count_nonzero(lack, axis=1)[row]
    if np.bincount(pair_msg).max() > 1:
        # a node does not see another color whose only lacked message is its own
        holds = np.zeros((icp.n_messages, lack.shape[1]), dtype=bool)
        holds[pair_msg, pair_col] = True
        seen -= np.count_nonzero(holds[msg] & (lack[row] == 1), axis=1) - (own == 1)
    return not (own > 1).any(), int(seen.max())


# known set x pair cells per block of :func:`_lack`, node x node cells per
# block of :func:`greedy_coloring`; their temporaries stay near 1 MB
_BLOCK_CELLS = 1 << 18


def _lack(known_rows: np.ndarray, msg: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``lack[s, c]``: how many of the messages ``msg``, grouped into colors
    that begin at ``starts``, known set ``s`` lacks in color ``c``."""
    step, dtype = max(1, _BLOCK_CELLS // len(msg)), np.min_scalar_type(len(msg))
    return np.concatenate([np.add.reduceat(~known_rows[lo : lo + step, msg], starts, axis=1, dtype=dtype)
                           for lo in range(0, len(known_rows), step)])


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

    Nodes ``u`` and ``v`` conflict unless each one's known set holds the
    other's message, so two nodes wanting one message always conflict (on one
    color they would cancel each other out of every linear combination built
    from the coloring). A node takes the first color no earlier conflicting
    node holds.
    """
    row, msg = icp.node_row, icp.node_msg
    classes = [0]  # per color, a bit mask of its nodes; the last one is empty
    colors: list[int] = []
    step = max(1, _BLOCK_CELLS // max(1, icp.n_nodes))
    for lo in range(0, icp.n_nodes, step):
        u = slice(lo, lo + step)
        conflict = ~(icp.known_rows[row[u, None], msg] & icp.known_rows[row, msg[u, None]])
        for bits in np.packbits(conflict, axis=1, bitorder="little"):
            mask = int.from_bytes(bits.tobytes(), "little")
            c = next(c for c, members in enumerate(classes) if not members & mask)
            if c == len(classes) - 1:
                classes.append(0)
            classes[c] |= 1 << len(colors)
            colors.append(c + 1)
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


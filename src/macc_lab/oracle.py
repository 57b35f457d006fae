"""Exact small-instance oracles: local chromatic search, largest acyclic
induced subgraph, and binary min-rank.

These are deliberately independent of the constructive machinery, and of one
another, so they can certify it: ``mais <= min_rank_gf2 <= transmissions``
says nothing once one search is seeded by the other. All three work on
single-unicast instances (one wanted message per node). ``exhaustive_chi_l``
is a branch and bound over canonical colorings, ``mais`` a subset dynamic
program run one popcount layer at a time in numpy, and ``min_rank_gf2`` an
iterative-deepening search over subspaces of GF(2)^n. The size caps keep
worst cases tractable and are arguments, not constants.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .coloring import Coloring
from .errors import ParameterError, SizeCapError
from .icp import IcpInstance


def _interference_masks(icp: IcpInstance) -> tuple[list[int], list[int]]:
    """Per node: interferer mask I_u, and symmetric conflict mask X_u."""
    n = icp.n_nodes
    inter = []
    for u in range(n):
        mask = 0
        for v in np.flatnonzero(~icp.visible(u)):
            mask |= 1 << int(v)
        inter.append(mask)
    sym = list(inter)
    for u in range(n):
        m = inter[u]
        while m:
            v = (m & -m).bit_length() - 1
            sym[v] |= 1 << u
            m &= m - 1
    return inter, sym


def exhaustive_chi_l(
    icp: IcpInstance,
    max_colors: int | None = None,
    node_cap: int = 20,
) -> tuple[int, Coloring]:
    """Exact local chromatic number with an optimal witness coloring.

    Minimizes, over proper colorings with at most ``max_colors`` colors
    (default: one per node, which is never restrictive), the largest number
    of distinct colors in any closed set {node} + interferers(node).

    Branch and bound over canonical colorings: node order is by conflict
    degree, a new color index may only follow all smaller ones, and a branch
    dies as soon as some node's closed set already sees ``best`` colors.
    """
    node_cap_check(icp, node_cap)
    n = icp.n_nodes
    if n == 0:
        return 0, Coloring(())
    if max_colors is None:
        max_colors = n
    if max_colors < 1:
        raise ParameterError("need at least one color")
    inter, sym = _interference_masks(icp)
    closed = [inter[u] | (1 << u) for u in range(n)]

    order = sorted(range(n), key=lambda u: (-sym[u].bit_count(), u))
    touch = [[u for u in range(n) if closed[u] >> v & 1] for v in range(n)]

    max_closed = max(c.bit_count() for c in closed)
    if max_colors >= n:
        # rainbow is a proper witness; search only for strict improvements
        best = max_closed
        best_colors: list[int] | None = list(range(1, n + 1))
    else:
        best = max_closed + 1
        best_colors = None

    colors = [0] * n
    class_mask = [0] * (max_colors + 1)
    cnt = [0] * n

    def dfs(pos: int, used: int) -> None:
        nonlocal best, best_colors
        if pos == n:
            reached = max(cnt)
            if reached < best:
                best = reached
                best_colors = colors.copy()
            return
        v = order[pos]
        limit = min(used + 1, max_colors)
        for c in range(1, limit + 1):
            if class_mask[c] & sym[v]:
                continue
            bumped = []
            ok = True
            for u in touch[v]:
                if class_mask[c] & closed[u]:
                    continue
                cnt[u] += 1
                bumped.append(u)
                if cnt[u] >= best:
                    ok = False
                    break
            if ok:
                class_mask[c] |= 1 << v
                colors[v] = c
                dfs(pos + 1, max(used, c))
                colors[v] = 0
                class_mask[c] &= ~(1 << v)
            for u in bumped:
                cnt[u] -= 1

    dfs(0, 0)
    if best_colors is None:
        raise ParameterError(f"no proper coloring with at most {max_colors} colors")
    relabel = _canonical(best_colors)
    return best, Coloring(tuple(relabel))


def _canonical(colors: list[int]) -> list[int]:
    seen: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in seen:
            seen[c] = len(seen) + 1
        out.append(seen[c])
    return out


_LOW_BITS = 16  # mais: set bits below this come from the cached layer lists


def mais(icp: IcpInstance, node_cap: int = 24) -> int:
    """Largest acyclic induced subgraph of the side-information digraph.

    Arc u -> v when u's user knows v's message, so an acyclic subset can be
    decoded sequentially and lower-bounds the transmission count.

    Dynamic program over subsets: a set is acyclic iff it has a source (a
    vertex with no arc from inside the set) whose removal leaves an acyclic
    set; the lowest source is tried. Sets are visited one popcount layer at a
    time, as numpy arrays: a set is its high bits (above the low 16) plus a
    precomputed list of low parts of the right popcount, and the vertices its
    members point to are the OR of a low-part and a high-part table. Acyclic
    sets are closed under subsets, so the first layer without one ends the
    search. Memory is the ``2**n`` boolean table plus chunks of at most
    C(16, 8) sets.
    """
    node_cap_check(icp, node_cap)
    n = icp.n_nodes
    succ = [0] * n  # succ[u]: nodes whose message u's user knows
    for u in range(n):
        knows = icp.known_rows[icp.node_row[u], icp.node_msg]
        knows = knows & (np.arange(n) != u)
        for v in np.flatnonzero(knows):
            succ[u] |= 1 << int(v)
    # int32 set indices halve the tables and fit every n <= 31
    word = np.int32 if n < 32 else np.int64
    low = min(n, _LOW_BITS)
    low_reach = _or_table(succ[:low], word)
    high_reach = _or_table(succ[low:], word)
    layers = [x[: np.searchsorted(x, 1 << low)] for x in _low_layers()[: low + 1]]
    acyclic = np.zeros(1 << n, dtype=bool)
    acyclic[0] = True
    for k in range(1, n + 1):
        found = False
        for high, reach in enumerate(high_reach.tolist()):
            j = k - high.bit_count()
            if not 0 <= j <= low:
                continue
            s = layers[j] | word(high << low)
            sources = low_reach[layers[j]]
            sources |= reach
            np.invert(sources, out=sources)
            sources &= s
            ok = acyclic[s ^ (sources & -sources)]
            ok &= sources != 0
            acyclic[s] = ok
            found = found or bool(ok.any())
        if not found:
            return k - 1
    return n


@cache
def _low_layers() -> tuple[np.ndarray, ...]:
    """Every 16-bit integer as int32, grouped by popcount, each group
    ascending, so a prefix of a group is the group for fewer bits."""
    x = np.arange(1 << _LOW_BITS, dtype=np.int32)
    pc = np.zeros(1 << _LOW_BITS, dtype=np.uint8)
    for b in range(_LOW_BITS):
        pc += (x >> b & 1).astype(np.uint8)
    return tuple(np.flatnonzero(pc == j).astype(np.int32) for j in range(_LOW_BITS + 1))


def _or_table(masks: list[int], dtype) -> np.ndarray:
    """Entry s: the OR of ``masks[b]`` over the set bits b of s."""
    table = np.zeros(1 << len(masks), dtype=dtype)
    for b, m in enumerate(masks):
        table[1 << b : 2 << b] = table[: 1 << b] | m
    return table


def node_cap_check(icp: IcpInstance, node_cap: int) -> IcpInstance:
    if icp.n_nodes > node_cap:
        raise SizeCapError(f"instance has {icp.n_nodes} nodes, cap is {node_cap}")
    return icp


def min_rank_gf2(icp: IcpInstance, node_cap: int = 10) -> int:
    """Optimal scalar-linear binary code length: the minimum rank over GF(2)
    of a matrix with ones on the diagonal and support otherwise confined to
    each row's known set.

    Equivalently, the least dimension of a subspace T of GF(2)^n that serves
    every row, where row v is served when T holds a vector with bit v set and
    support inside {v} + known(v); the matrix rows are only witnesses. T is
    searched by iterative deepening on its dimension. T is kept as a fully
    reduced echelon basis, and each unserved row as its reduced options in
    the quotient by T: the coset ``a + span(W)`` of reduced e_v plus the span
    of its reduced known unit vectors. Every option with the same reduced
    form gives the same larger T, so a row has ``2**len(W)`` distinct
    branches. The search branches on the unserved row with the fewest; rows
    already served need no vector and are never branched on, which is exact
    because f(T) <= 1 + f(T + x) for any x. With one vector left, the
    unserved rows' cosets are intersected instead. A basis and the largest
    budget that failed from it are memoized.

    The branched row's options are tried in ascending order of how many
    other rows each leaves unserved (ties in coset order), so a witness is
    usually met early. The order decides only how soon a success is met: a
    budget fails from a basis only after every option has failed, so the
    search stays complete, each memo entry records a true failure and the
    value is the same in any order. A child's rows are the quotient by one
    more vector y, which keeps every leading bit of W but the one y leads,
    so each W is updated in O(len(W)) steps (:func:`_quotient`) rather than
    re-echelonised. For single-unicast instances nodes and messages coincide.
    """
    node_cap_check(icp, node_cap)
    n = icp.n_nodes
    if n == 0:
        return 0
    if any(icp.node_msg[v] != v for v in range(n)):
        raise ParameterError("min-rank needs one node per message, in order")
    rows = [
        (1 << v, [1 << int(b) for b in np.flatnonzero(icp.known_rows[icp.node_row[v]])[::-1]])
        for v in range(n)
    ]
    failed: dict[tuple[int, ...], int] = {}
    for r in range(n + 1):
        if _search((), rows, r, n, failed):
            return r
    raise AssertionError("unreachable: identity always fits")


def _search(basis: tuple[int, ...], rows: list, budget: int, n: int, failed: dict) -> bool:
    """Can ``budget`` more vectors extend span(basis) to serve every row?

    ``rows`` holds (a, W) per unserved row, reduced by ``basis``, with W an
    echelon basis from :func:`_echelon`; ``failed`` maps a basis to the
    largest budget that failed from it. (Not nested in the caller: a
    recursive closure is a reference cycle that keeps each call's memo
    alive until the garbage collector's oldest generation runs.)
    """
    if not rows:
        return True
    if budget == 0 or failed.get(basis, -1) >= budget:
        return False
    if budget == 1:
        # one vector y must serve every row: y in every row's coset
        met = rows[0]
        for row in rows[1:]:
            met = _meet(*met, *row, n)
            if met is None:
                break
        else:
            return True
        failed[basis] = budget
        return False
    i = min(range(len(rows)), key=lambda j: len(rows[j][1]))
    a, w = rows[i]
    others = rows[:i] + rows[i + 1 :]
    # each option with the rows it leaves unserved, fewest first; the sort
    # is stable, so ties keep _coset order
    options = sorted(
        ((y, [row for row in others if not _in_coset(y, *row)]) for y in _coset(a, w)),
        key=lambda option: len(option[1]),
    )
    for y, unserved in options:
        p = 1 << (y.bit_length() - 1)
        child = tuple(sorted([b ^ y if b & p else b for b in basis] + [y], reverse=True))
        rest = [(a2 ^ y if a2 & p else a2, _quotient(w2, y)) for a2, w2 in unserved]
        if _search(child, rest, budget - 1, n, failed):
            return True
    failed[basis] = budget
    return False


def _reduce(x: int, w: list[int]) -> int:
    """``x`` with the leading bit of every vector of echelon basis ``w``
    cleared, zero iff ``x`` lies in span(w)."""
    for b in w:
        if x & (1 << (b.bit_length() - 1)):
            x ^= b
    return x


def _echelon(vectors) -> list[int]:
    """An echelon basis of the vectors' span, leading bits descending."""
    basis: list[int] = []
    for x in vectors:
        x = _reduce(x, basis)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
    return basis


def _quotient(w: list[int], y: int) -> list[int]:
    """An echelon basis of span(w) reduced by ``y``, the span of ``x ^ y if
    x & p else x`` over ``x`` in ``w`` for ``p`` the leading bit of ``y``.

    The XOR keeps every leading bit but that of the one vector led by ``p``;
    only that vector is reduced against the rest and put back in order, so
    this takes O(|w|) steps where re-echelonising takes O(|w|^2)."""
    p = 1 << (y.bit_length() - 1)
    out = []
    z = 0
    for x in w:
        if x & p:
            x ^= y
            if x < p:  # x was led by p
                z = x
                continue
        out.append(x)
    z = _reduce(z, out)
    if z:
        out.insert(next((k for k, x in enumerate(out) if x < z), len(out)), z)
    return out


def _in_coset(y: int, a: int, w: list[int]) -> bool:
    """Is ``y`` in ``a + span(w)``, for ``w`` an echelon basis?"""
    return _reduce(y ^ a, w) == 0


def _meet(a: int, w: list[int], a2: int, w2: list[int], n: int):
    """The intersection of cosets ``a + span(w)`` and ``a2 + span(w2)`` of
    GF(2)^n as a coset (point, echelon basis), or None if empty.

    Zassenhaus: in the doubled space, rows (x, x) for x in w and (x, 0) for
    x in w2. Reducing (a + a2, 0) clears the high half iff a + a2 lies in
    span(w) + span(w2), and leaves in the low half the span(w) part to move
    a by; the rows with a zero high half span the intersection."""
    rows = _echelon([(x << n) | x for x in w] + [x << n for x in w2])
    r = _reduce((a ^ a2) << n, rows)
    if r >> n:
        return None
    return a ^ r, [x for x in rows if not x >> n]


def _coset(a: int, w: list[int]) -> list[int]:
    """The distinct elements of ``a + span(w)``."""
    out = [a]
    for b in w:
        out += [x ^ b for x in out]
    return out

"""Exact small-instance oracles: local chromatic search, largest acyclic
induced subgraph, and binary min-rank.

These are deliberately independent of the constructive machinery so they can
certify it. All three work on single-unicast instances (one wanted message
per node) and use bitmask searches; the size caps keep worst cases tractable
and are arguments, not constants.
"""

from __future__ import annotations

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


def mais(icp: IcpInstance, node_cap: int = 24) -> int:
    """Largest acyclic induced subgraph of the side-information digraph.

    Arc u -> v when u's user knows v's message, so an acyclic subset can be
    decoded sequentially and lower-bounds the transmission count. Dynamic
    program over subsets: a set is acyclic iff removing one in-degree-0
    vertex leaves an acyclic set.
    """
    node_cap_check(icp, node_cap)
    n = icp.n_nodes
    preds = [0] * n  # preds[v]: users that know v's message
    for u in range(n):
        knows = icp.known_rows[icp.node_row[u], icp.node_msg]
        knows = knows & (np.arange(n) != u)
        for v in np.flatnonzero(knows):
            preds[int(v)] |= 1 << u
    acyclic = bytearray(1 << n)
    acyclic[0] = 1
    out = 0
    for s in range(1, 1 << n):
        m = s
        while m:
            v = (m & -m).bit_length() - 1
            if preds[v] & s == 0:
                if acyclic[s & ~(1 << v)]:
                    acyclic[s] = 1
                    pc = s.bit_count()
                    if pc > out:
                        out = pc
                break
            m &= m - 1
    return out


def node_cap_check(icp: IcpInstance, node_cap: int) -> IcpInstance:
    if icp.n_nodes > node_cap:
        raise SizeCapError(f"instance has {icp.n_nodes} nodes, cap is {node_cap}")
    return icp


def min_rank_gf2(icp: IcpInstance, node_cap: int = 10) -> int:
    """Optimal scalar-linear binary code length: the minimum rank over GF(2)
    of a matrix with ones on the diagonal and support otherwise confined to
    each row's known set.

    Backtracking over row choices (row v is e_v plus any subset of its known
    coordinates) under a rank budget, increasing the budget until a fitting
    matrix exists. For single-unicast instances nodes and messages coincide.
    """
    node_cap_check(icp, node_cap)
    n = icp.n_nodes
    if n == 0:
        return 0
    if any(icp.node_msg[v] != v for v in range(n)):
        raise ParameterError("min-rank needs one node per message, in order")
    known_bits = []
    for v in range(n):
        row = icp.known_rows[icp.node_row[v]]
        bits = [int(b) for b in np.flatnonzero(row)]
        known_bits.append(bits)
    order = sorted(range(n), key=lambda v: len(known_bits[v]))

    def options(v: int):
        base = 1 << v
        bits = known_bits[v]
        for pick in range(1 << len(bits)):
            x = base
            p = pick
            idx = 0
            while p:
                if p & 1:
                    x |= 1 << bits[idx]
                p >>= 1
                idx += 1
            yield x

    def reduce(x: int, basis: list[int]) -> int:
        for b in basis:
            top = 1 << (b.bit_length() - 1)
            if x & top:
                x ^= b
        return x

    def search(pos: int, basis: list[int], budget: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for x in options(v):
            r = reduce(x, basis)
            if r == 0:
                if search(pos + 1, basis, budget):
                    return True
            elif budget > 0:
                # keep basis sorted by leading bit, descending
                nb = sorted(basis + [r], key=lambda y: -y.bit_length())
                if search(pos + 1, nb, budget - 1):
                    return True
        return False

    for r in range(0, n + 1):
        if search(0, [], r):
            return r
    raise AssertionError("unreachable: identity always fits")

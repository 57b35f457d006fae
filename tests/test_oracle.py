"""Oracle tests: each exact solver is checked against a slower reference
implementation written directly from the definitions."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc_lab import (
    IcpInstance,
    IcpUser,
    ParameterError,
    SizeCapError,
    StructuredIcpDesc,
    UnionIcpDesc,
    divisor_coloring,
    encode,
    exhaustive_chi_l,
    greedy_coloring,
    is_proper,
    local_count,
    mais,
    min_rank_gf2,
    realize_single,
    realize_union_split,
)


def _msg(users, v):
    return next(iter(users[v].want))


def naive_chi_l(icp: IcpInstance) -> int:
    """Minimum local count over all proper partitions, by direct enumeration.

    Builds restricted-growth assignments block by block, discarding a branch
    as soon as two mutually invisible nodes land in one block.
    """
    users = icp.users
    n = len(users)
    msg = [_msg(users, v) for v in range(n)]

    def visible(a, b):
        return msg[b] == msg[a] or msg[b] in users[a].known

    compatible = [
        [visible(a, b) and visible(b, a) for b in range(n)] for a in range(n)
    ]
    closed = [
        [u] + [v for v in range(n) if v != u and not visible(u, v)]
        for u in range(n)
    ]
    best = n + 1
    blocks: list[list[int]] = []
    assign = [0] * n

    def rec(u):
        nonlocal best
        if u == n:
            lc = max(len({assign[v] for v in cs}) for cs in closed)
            best = min(best, lc)
            return
        for b, members in enumerate(blocks):
            if all(compatible[u][v] for v in members):
                members.append(u)
                assign[u] = b
                rec(u + 1)
                members.pop()
        blocks.append([u])
        assign[u] = len(blocks) - 1
        rec(u + 1)
        blocks.pop()

    rec(0)
    return best


def naive_mais(icp: IcpInstance) -> int:
    """Largest subset whose induced knows-digraph passes Kahn's algorithm."""
    users = icp.users
    n = len(users)
    msg = [_msg(users, v) for v in range(n)]
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and msg[v] in users[u].known
    ]
    best = 0
    for s in range(1 << n):
        nodes = [v for v in range(n) if s >> v & 1]
        if len(nodes) <= best:
            continue
        indeg = {v: 0 for v in nodes}
        sub = [(u, v) for (u, v) in arcs if s >> u & 1 and s >> v & 1]
        for _, v in sub:
            indeg[v] += 1
        queue = [v for v in nodes if indeg[v] == 0]
        seen = 0
        while queue:
            x = queue.pop()
            seen += 1
            for u, v in sub:
                if u == x:
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        queue.append(v)
        if seen == len(nodes):
            best = len(nodes)
    return best


def gf2_rank(rows: list[int]) -> int:
    r = 0
    rows = list(rows)
    for bit in range(max((x.bit_length() for x in rows), default=0) - 1, -1, -1):
        pivot = next((i for i in range(r, len(rows)) if rows[i] >> bit & 1), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> bit & 1:
                rows[i] ^= rows[r]
        r += 1
    return r


def naive_min_rank(icp: IcpInstance) -> int:
    """Minimum GF(2) rank over every fitting matrix, fully enumerated."""
    users = icp.users
    n = len(users)
    options = []
    for v in range(n):
        bits = sorted(m - 1 for m in users[v].known)
        opts = []
        for pick in range(1 << len(bits)):
            x = 1 << (_msg(users, v) - 1)
            for i, b in enumerate(bits):
                if pick >> i & 1:
                    x |= 1 << b
            opts.append(x)
        options.append(opts)
    return min(gf2_rank(list(combo)) for combo in product(*options))


@st.composite
def small_instances(draw, max_nodes=7):
    n = draw(st.integers(1, max_nodes))
    users = []
    for m in range(1, n + 1):
        known = draw(st.sets(st.integers(1, n), max_size=n)) - {m}
        users.append(IcpUser(want=frozenset({m}), known=frozenset(known)))
    return IcpInstance(n_messages=n, users=tuple(users))


class TestExhaustiveChiL:
    @given(small_instances())
    @settings(max_examples=50, deadline=None)
    def test_matches_partition_enumeration(self, icp):
        value, witness = exhaustive_chi_l(icp)
        assert value == naive_chi_l(icp)
        assert is_proper(icp, witness)
        assert local_count(icp, witness) == value

    def test_ten_node_self_check(self):
        icp = realize_single(StructuredIcpDesc(3, 2, 4))
        value, witness = exhaustive_chi_l(icp)
        assert value == naive_chi_l(icp) == 5
        assert is_proper(icp, witness)
        assert local_count(icp, witness) == 5

    def test_frozen_values(self):
        assert exhaustive_chi_l(realize_single(StructuredIcpDesc(0, 0, 3)))[0] == 1
        assert exhaustive_chi_l(realize_single(StructuredIcpDesc(1, 0, 2)))[0] == 2
        assert exhaustive_chi_l(realize_union_split(UnionIcpDesc(0, 0, 1), 1))[0] == 2
        assert exhaustive_chi_l(realize_union_split(UnionIcpDesc(1, 0, 1), 1))[0] == 3

    def test_no_side_information_needs_all_colors(self):
        users = tuple(
            IcpUser(want=frozenset({m}), known=frozenset()) for m in range(1, 5)
        )
        icp = IcpInstance(n_messages=4, users=users)
        assert exhaustive_chi_l(icp)[0] == 4

    def test_empty_instance(self):
        value, witness = exhaustive_chi_l(IcpInstance(n_messages=0, users=()))
        assert value == 0
        assert witness.colors == ()

    def test_palette_cap_too_small(self):
        users = tuple(
            IcpUser(want=frozenset({m}), known=frozenset()) for m in range(1, 4)
        )
        icp = IcpInstance(n_messages=3, users=users)
        with pytest.raises(ParameterError):
            exhaustive_chi_l(icp, max_colors=2)

    def test_node_cap(self):
        icp = realize_union_split(UnionIcpDesc(2, 1, 2), 1)
        with pytest.raises(SizeCapError):
            exhaustive_chi_l(icp, node_cap=icp.n_nodes - 1)


class TestMais:
    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_enumeration(self, icp):
        assert mais(icp) == naive_mais(icp)

    def test_frozen_values(self):
        assert mais(realize_single(StructuredIcpDesc(1, 0, 2))) == 2
        assert mais(realize_single(StructuredIcpDesc(0, 0, 3))) == 1
        assert mais(realize_union_split(UnionIcpDesc(0, 0, 1), 1)) == 2

    def test_no_arcs_means_everything(self):
        users = tuple(
            IcpUser(want=frozenset({m}), known=frozenset()) for m in range(1, 6)
        )
        assert mais(IcpInstance(n_messages=5, users=users)) == 5

    def test_node_cap(self):
        icp = realize_union_split(UnionIcpDesc(2, 1, 2), 1)
        with pytest.raises(SizeCapError):
            mais(icp, node_cap=5)


class TestMinRank:
    @given(small_instances(max_nodes=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_matrix_enumeration(self, icp):
        assert min_rank_gf2(icp) == naive_min_rank(icp)

    def test_frozen_values(self):
        assert min_rank_gf2(realize_union_split(UnionIcpDesc(0, 0, 1), 1)) == 2
        assert min_rank_gf2(realize_single(StructuredIcpDesc(0, 0, 3))) == 1
        assert min_rank_gf2(realize_single(StructuredIcpDesc(1, 0, 2))) == 2

    def test_requires_aligned_messages(self):
        users = (
            IcpUser(want=frozenset({2}), known=frozenset({1})),
            IcpUser(want=frozenset({1}), known=frozenset({2})),
        )
        with pytest.raises(ParameterError):
            min_rank_gf2(IcpInstance(n_messages=2, users=users))

    def test_node_cap(self):
        icp = realize_union_split(UnionIcpDesc(2, 2, 2), 1)
        with pytest.raises(SizeCapError):
            min_rank_gf2(icp)


@st.composite
def union_descs(draw):
    a1 = draw(st.integers(0, 3))
    a2 = draw(st.integers(0, a1))
    z = draw(st.integers(1, 2))
    return UnionIcpDesc(a1, a2, z)


class TestChainOfBounds:
    @given(union_descs())
    @settings(max_examples=25, deadline=None)
    def test_mais_min_rank_transmissions(self, icp_desc):
        icp = realize_union_split(icp_desc, 1)
        lower = mais(icp)
        scheme = encode(icp, divisor_coloring(icp_desc, icp_desc.k))
        assert lower <= scheme.n_transmissions
        if icp.n_nodes <= 10:
            mr = min_rank_gf2(icp)
            assert lower <= mr <= scheme.n_transmissions

    @given(union_descs())
    @settings(max_examples=25, deadline=None)
    def test_chi_l_lower_bounds_constructions(self, desc):
        icp = realize_union_split(desc, 1)
        if icp.n_nodes > 14:
            return
        value, _ = exhaustive_chi_l(icp)
        assert value <= local_count(icp, divisor_coloring(desc, desc.k))
        assert value <= local_count(icp, greedy_coloring(icp))

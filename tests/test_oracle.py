"""Oracle tests: each exact solver is checked against a slower reference
implementation written directly from the definitions, and the two searches
the package replaced are kept here as references for mid-sized instances."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc_lab import (
    IcpInstance,
    IcpUser,
    MaccInstance,
    ParameterError,
    SizeCapError,
    StructuredIcpDesc,
    UnionIcpDesc,
    as_icp,
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
    reduce_macc,
)
from macc_lab import oracle


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


def rref(vectors) -> tuple[int, ...]:
    """The reduced row echelon basis of the vectors' span: one canonical
    form per subspace, unlike an echelon basis."""
    basis: list[int] = []
    for x in vectors:
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis = [min(b, b ^ x) for b in basis] + [x]
    return tuple(sorted(basis, reverse=True))


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


def reference_mais(icp: IcpInstance) -> int:
    """Pure-Python subset DP: a set is acyclic iff removing its lowest
    in-degree-0 vertex leaves an acyclic set; sets in numeric order."""
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
                    out = max(out, s.bit_count())
                break
            m &= m - 1
    return out


def reference_min_rank(icp: IcpInstance) -> int:
    """Backtracking over row choices (row v is e_v plus any subset of its
    known coordinates) under a rank budget, raised until a matrix fits."""
    n = icp.n_nodes
    known_bits = [
        [int(b) for b in np.flatnonzero(icp.known_rows[icp.node_row[v]])]
        for v in range(n)
    ]
    order = sorted(range(n), key=lambda v: len(known_bits[v]))

    def options(v):
        bits = known_bits[v]
        for pick in range(1 << len(bits)):
            yield (1 << v) | sum(1 << b for i, b in enumerate(bits) if pick >> i & 1)

    def reduce(x, basis):
        for b in basis:
            if x & (1 << (b.bit_length() - 1)):
                x ^= b
        return x

    def search(pos, basis, budget):
        if pos == n:
            return True
        for x in options(order[pos]):
            r = reduce(x, basis)
            if r == 0:
                if search(pos + 1, basis, budget):
                    return True
            elif budget > 0:
                nb = sorted(basis + [r], key=lambda y: -y.bit_length())
                if search(pos + 1, nb, budget - 1):
                    return True
        return False

    return next(r for r in range(n + 1) if search(0, [], r))


def renamed(icp: IcpInstance, perm: list[int]) -> IcpInstance:
    """The same single-unicast instance with message m renamed perm[m - 1],
    users reordered so that node v still wants message v + 1."""
    users = sorted(
        (
            IcpUser(
                want=frozenset(perm[m - 1] for m in u.want),
                known=frozenset(perm[m - 1] for m in u.known),
            )
            for u in icp.users
        ),
        key=lambda u: min(u.want),
    )
    return IcpInstance(n_messages=icp.n_messages, users=tuple(users))


@st.composite
def small_instances(draw, max_nodes=7, min_nodes=1, max_known=None):
    n = draw(st.integers(min_nodes, max_nodes))
    users = []
    for m in range(1, n + 1):
        known = draw(st.sets(st.integers(1, n), max_size=max_known or n)) - {m}
        users.append(IcpUser(want=frozenset({m}), known=frozenset(known)))
    return IcpInstance(n_messages=n, users=tuple(users))


def reference_interference_masks(icp: IcpInstance) -> tuple[list[int], list[int]]:
    """Per node, the interferer and symmetric conflict masks, one node and
    one bit at a time."""
    n = icp.n_nodes
    inter = []
    for u in range(n):
        mask = 0
        for v in np.flatnonzero(~icp.visible(u)):
            mask |= 1 << int(v)
        inter.append(mask)
    sym = list(inter)
    for u in range(n):
        for v in range(n):
            if inter[u] >> v & 1:
                sym[v] |= 1 << u
    return inter, sym


@st.composite
def repeated_demand_tables(draw):
    """Reductions whose demands repeat, so several nodes want one message."""
    k = draw(st.integers(2, 8))
    l = draw(st.integers(1, k - 1))
    i = draw(st.integers(1, (k - 1) // l))
    demands = draw(st.lists(st.integers(1, draw(st.integers(1, k))), min_size=k, max_size=k))
    return as_icp(reduce_macc(MaccInstance(k, k, l, i), demands))


def reduction(k: int, l: int, i: int) -> IcpInstance:
    return as_icp(reduce_macc(MaccInstance(k, k, l, i)))


# Every K <= 6 corner of criterion 7: nodes, mais (n <= 24), min_rank_gf2
# (n <= 10) and exhaustive_chi_l (n <= 20), None above a cap. Recorded from
# the reference searches above (mais at n = 24 has no other record).
REDUCTION_VALUES = {
    (2, 1, 1): (2, 1, 1, 1),
    (3, 1, 1): (6, 3, 3, 3),
    (3, 1, 2): (3, 1, 1, 1),
    (3, 2, 1): (3, 1, 1, 1),
    (4, 1, 1): (12, 6, None, 6),
    (4, 1, 2): (8, 3, 3, 3),
    (4, 1, 3): (4, 1, 1, 1),
    (4, 2, 1): (8, 3, 3, 3),
    (4, 3, 1): (4, 1, 1, 1),
    (5, 1, 1): (20, 10, None, 10),
    (5, 1, 2): (15, 6, None, 7),
    (5, 1, 3): (10, 3, 3, 3),
    (5, 1, 4): (5, 1, 1, 1),
    (5, 2, 1): (15, 6, None, 7),
    (5, 2, 2): (5, 1, 1, 1),
    (5, 3, 1): (10, 3, 3, 3),
    (5, 4, 1): (5, 1, 1, 1),
    (6, 1, 1): (30, None, None, None),
    (6, 1, 2): (24, 10, None, None),
    (6, 1, 3): (18, 6, None, 6),
    (6, 1, 4): (12, 3, None, 3),
    (6, 1, 5): (6, 1, 1, 1),
    (6, 2, 1): (24, 10, None, None),
    (6, 2, 2): (12, 3, None, 3),
    (6, 3, 1): (18, 6, None, 6),
    (6, 4, 1): (12, 3, None, 3),
    (6, 5, 1): (6, 1, 1, 1),
}


@pytest.mark.parametrize("corner", sorted(REDUCTION_VALUES), ids=lambda c: "K{}-L{}-i{}".format(*c))
def test_reduction_frozen_values(corner):
    n, lower, min_rank, chi = REDUCTION_VALUES[corner]
    icp = reduction(*corner)
    assert icp.n_nodes == n
    assert (mais(icp) if n <= 24 else None) == lower
    assert (min_rank_gf2(icp) if n <= 10 else None) == min_rank
    assert (exhaustive_chi_l(icp)[0] if n <= 20 else None) == chi


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

    @given(small_instances(max_nodes=14, min_nodes=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_dp(self, icp):
        assert mais(icp) == reference_mais(icp)

    def test_node_cap(self):
        icp = realize_union_split(UnionIcpDesc(2, 1, 2), 1)
        with pytest.raises(SizeCapError):
            mais(icp, node_cap=5)


class TestMinRank:
    @given(small_instances(max_nodes=5))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_matrix_enumeration(self, icp):
        assert min_rank_gf2(icp) == naive_min_rank(icp)

    # At most 4 known messages a row, and a fixed sample: the reference's
    # time on one 9-node instance ranges from milliseconds to minutes.
    @given(small_instances(max_nodes=9, min_nodes=6, max_known=4))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_reference_backtracking(self, icp):
        assert min_rank_gf2(icp) == reference_min_rank(icp)

    def test_never_calls_mais(self, monkeypatch):
        # mais <= min_rank is a check only while the two searches are apart
        def forbidden(*args, **kwargs):
            raise AssertionError("min_rank_gf2 called mais")

        monkeypatch.setattr(oracle, "mais", forbidden)
        for corner, (n, _, value, _) in REDUCTION_VALUES.items():
            if n <= 10:
                assert min_rank_gf2(reduction(*corner)) == value, corner

    def test_branches_are_distinct(self, monkeypatch):
        # equal reduced options give equal subspaces; without the dedup the
        # values stay right and the n = 10 corners take about 40x longer
        coset = oracle._coset
        calls = []

        def distinct_coset(a, w):
            out = coset(a, w)
            assert len(set(out)) == len(out)
            calls.append(len(out))
            return out

        monkeypatch.setattr(oracle, "_coset", distinct_coset)
        for corner, (n, _, value, _) in REDUCTION_VALUES.items():
            if n <= 10:
                assert min_rank_gf2(reduction(*corner)) == value, corner
        assert calls

    @staticmethod
    def count_searches(monkeypatch) -> list:
        calls = []
        search = oracle._search

        def counted(*args):
            calls.append(1)
            return search(*args)

        monkeypatch.setattr(oracle, "_search", counted)
        return calls

    def test_densest_first_meets_the_witness_sooner(self, monkeypatch):
        # ties broken in coset order instead: 937, 103, 34,618 and 12,332 calls
        calls = self.count_searches(monkeypatch)
        for icp, node_cap, value, bound in [
            (reduction(5, 1, 3), 10, 3, 400),
            (reduction(4, 1, 2), 10, 3, 60),
            (realize_union_split(UnionIcpDesc(2, 0, 3), 1), 12, 4, 8000),
            (realize_union_split(UnionIcpDesc(1, 0, 5), 1), 14, 3, 2000),
        ]:
            calls.clear()
            assert min_rank_gf2(icp, node_cap=node_cap) == value
            assert len(calls) < bound

    def test_fewest_unserved_first_bounds_the_search(self, monkeypatch):
        # before branching fewest-unserved first: 1,977 and 54,767 calls
        calls = self.count_searches(monkeypatch)
        assert min_rank_gf2(reduction(5, 1, 3)) == 3
        assert len(calls) < 1200
        calls.clear()
        assert min_rank_gf2(realize_union_split(UnionIcpDesc(1, 1, 3), 1), node_cap=12) == 4
        assert len(calls) < 10000

    @given(
        st.lists(st.integers(1, (1 << 10) - 1), max_size=8),
        st.integers(1, (1 << 10) - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_quotient_matches_echelon(self, vectors, y):
        w = oracle._echelon(vectors)
        p = 1 << (y.bit_length() - 1)
        out = oracle._quotient(w, y)
        leads = [x.bit_length() for x in out]
        assert leads == sorted(set(leads), reverse=True) and 0 not in leads
        assert rref(out) == rref(oracle._echelon(x ^ y if x & p else x for x in w))

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


@given(small_instances(max_nodes=9), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_values_survive_renaming(icp, rng):
    perm = list(range(1, icp.n_messages + 1))
    rng.shuffle(perm)
    other = renamed(icp, perm)
    assert mais(other) == mais(icp)
    assert min_rank_gf2(other) == min_rank_gf2(icp)


@st.composite
def union_descs(draw):
    a1 = draw(st.integers(0, 3))
    a2 = draw(st.integers(0, a1))
    z = draw(st.integers(1, 2))
    return UnionIcpDesc(a1, a2, z)


class TestInterferenceMasks:
    @given(
        st.one_of(
            small_instances(),
            repeated_demand_tables(),
            st.builds(realize_union_split, union_descs(), st.integers(1, 2)),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_match_reference_loops(self, icp):
        assert oracle._interference_masks(icp) == reference_interference_masks(icp)

    def test_masks_span_many_bytes(self):
        icp = realize_union_split(UnionIcpDesc(3, 1, 2), 6)
        assert icp.n_nodes == 84
        assert oracle._interference_masks(icp) == reference_interference_masks(icp)


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


# Every union instance with K = 6 (n = 12) and K = 7, (1,0,5) (n = 14): mais,
# min_rank_gf2 and the transmissions of the divisor coloring at d = K, as
# recorded before the search branched fewest-unserved first. Two gaps: at
# (1,1,3) min-rank 4 is below the 5 transmissions, and at (2,1,2) mais 5 is
# below min-rank 6.
UNION_VALUES = {
    (0, 0, 5): (2, 2, 2),
    (1, 0, 4): (3, 3, 3),
    (1, 1, 3): (4, 4, 5),
    (2, 0, 3): (4, 4, 4),
    (2, 1, 2): (5, 6, 6),
    (2, 2, 1): (6, 6, 6),
    (3, 0, 2): (5, 5, 5),
    (3, 1, 1): (6, 6, 6),
    (4, 0, 1): (6, 6, 6),
    (1, 0, 5): (3, 3, 3),
}


@pytest.mark.parametrize("desc", sorted(UNION_VALUES), ids=lambda d: "U{}-{}-{}".format(*d))
def test_union_frozen_values(desc):
    d = UnionIcpDesc(*desc)
    icp = realize_union_split(d, 1)
    n = icp.n_nodes
    assert n == 2 * d.k
    lower, min_rank, tx = UNION_VALUES[desc]
    assert mais(icp) == lower
    assert min_rank_gf2(icp, node_cap=n) == min_rank
    assert encode(icp, divisor_coloring(d, d.k)).n_transmissions == tx
    assert lower <= min_rank <= tx

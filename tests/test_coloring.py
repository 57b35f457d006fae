"""Tests for colorings of structured union instances and their local counts."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc_lab import coloring as coloring_module
from macc_lab import (
    Coloring,
    IcpInstance,
    IcpUser,
    ParameterError,
    StructuredIcpDesc,
    UnionIcpDesc,
    closed_color_sets,
    divisor_coloring,
    fractional_coloring,
    fractional_split,
    greedy_coloring,
    interferers,
    is_proper,
    local_count,
    realize_single,
    realize_union_split,
)
from macc_lab.macc import mod1


@st.composite
def union_descs(draw):
    a1 = draw(st.integers(0, 6))
    a2 = draw(st.integers(0, a1))
    z = draw(st.integers(1, 4))
    return UnionIcpDesc(a1, a2, z)


@st.composite
def random_instances(draw):
    n = draw(st.integers(1, 8))
    users = []
    for _ in range(draw(st.integers(1, 10))):
        want = draw(st.integers(1, n))
        known = draw(st.sets(st.integers(1, n), max_size=n)) - {want}
        users.append(IcpUser(want=frozenset({want}), known=frozenset(known)))
    return IcpInstance(n_messages=n, users=tuple(users))


class TestColoring:
    def test_rejects_gaps(self):
        with pytest.raises(ParameterError):
            Coloring((1, 3))
        with pytest.raises(ParameterError):
            Coloring((0, 1))

    def test_empty_coloring(self):
        assert Coloring(()).n_colors == 0

    def test_json_round_trip(self):
        c = Coloring((2, 1, 2, 3))
        assert Coloring.from_json(c.to_json()) == c


class TestInterferers:
    def test_clique_has_none(self):
        icp = realize_single(StructuredIcpDesc(0, 0, 3))
        for u in range(1, 5):
            assert interferers(icp, u) == set()

    def test_no_side_information_interferes_with_every_other_message(self):
        users = tuple(
            IcpUser(want=frozenset({m}), known=frozenset()) for m in range(1, 4)
        )
        icp = IcpInstance(n_messages=3, users=users)
        assert interferers(icp, 1) == {2, 3}

    def test_same_message_nodes_do_not_interfere(self):
        users = (
            IcpUser(want=frozenset({1}), known=frozenset()),
            IcpUser(want=frozenset({1}), known=frozenset()),
        )
        icp = IcpInstance(n_messages=1, users=users)
        assert interferers(icp, 1) == set()

    def test_node_out_of_range(self):
        icp = realize_single(StructuredIcpDesc(0, 0, 1))
        with pytest.raises(ParameterError):
            interferers(icp, 3)


class TestIsProper:
    def test_clique_monochrome(self):
        icp = realize_single(StructuredIcpDesc(0, 0, 3))
        assert is_proper(icp, Coloring((1, 1, 1, 1)))

    def test_mutually_blind_pair_must_differ(self):
        users = (
            IcpUser(want=frozenset({1}), known=frozenset()),
            IcpUser(want=frozenset({2}), known=frozenset()),
        )
        icp = IcpInstance(n_messages=2, users=users)
        assert not is_proper(icp, Coloring((1, 1)))
        assert is_proper(icp, Coloring((1, 2)))

    def test_one_sided_knowledge_still_conflicts(self):
        # properness needs visibility in both directions inside a class
        users = (
            IcpUser(want=frozenset({1}), known=frozenset({2})),
            IcpUser(want=frozenset({2}), known=frozenset()),
        )
        icp = IcpInstance(n_messages=2, users=users)
        assert not is_proper(icp, Coloring((1, 1)))

    def test_length_mismatch(self):
        icp = realize_single(StructuredIcpDesc(0, 0, 1))
        with pytest.raises(ParameterError):
            is_proper(icp, Coloring((1,)))


class TestLocalCount:
    @given(random_instances())
    @settings(max_examples=60)
    def test_matches_closed_sets(self, icp):
        coloring = greedy_coloring(icp)
        sets = closed_color_sets(icp, coloring)
        assert local_count(icp, coloring) == max(len(s) for s in sets)

    @given(random_instances())
    @settings(max_examples=40)
    def test_bounded_by_palette(self, icp):
        coloring = greedy_coloring(icp)
        assert 1 <= local_count(icp, coloring) <= coloring.n_colors

    def test_clique_monochrome_counts_one(self):
        icp = realize_single(StructuredIcpDesc(0, 0, 3))
        assert local_count(icp, Coloring((1, 1, 1, 1))) == 1


class TestColorBlocks:
    # any coloring, proper or not, in one node block or one node per block
    @given(random_instances(), st.data(), st.sampled_from([coloring_module._BLOCK_CELLS, 1]))
    @settings(max_examples=60)
    def test_match_closed_sets(self, icp, data, block_cells):
        raw = data.draw(st.lists(st.integers(1, 4), min_size=icp.n_nodes, max_size=icp.n_nodes))
        coloring = Coloring(tuple(sorted(set(raw)).index(c) + 1 for c in raw))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coloring_module, "_BLOCK_CELLS", block_cells)
            proper, count = is_proper(icp, coloring), local_count(icp, coloring)
        colors = coloring.colors
        assert proper == all(
            colors[v - 1] != colors[u - 1] for u in range(1, icp.n_nodes + 1) for v in interferers(icp, u)
        )
        assert count == max(len(s) for s in closed_color_sets(icp, coloring))


class TestDivisorColoring:
    @given(union_descs())
    @settings(max_examples=80)
    def test_whole_cycle_palette(self, desc):
        # n_colors = K always divides K
        coloring = divisor_coloring(desc, desc.k)
        icp = realize_union_split(desc, 1)
        assert is_proper(icp, coloring)
        assert local_count(icp, coloring) == min(desc.a1 + 2 * desc.a2 + 2, desc.k)

    @given(union_descs())
    @settings(max_examples=80)
    def test_every_valid_divisor(self, desc):
        k, s = desc.k, desc.a1 + desc.a2 + 2
        icp = realize_union_split(desc, 1)
        for t in range(s, k + 1):
            if k % t:
                continue
            coloring = divisor_coloring(desc, t)
            assert coloring.n_colors == t
            assert is_proper(icp, coloring)
            assert local_count(icp, coloring) == min(desc.a1 + 2 * desc.a2 + 2, t)

    def test_rejects_small_or_non_divisor_palette(self):
        desc = UnionIcpDesc(2, 1, 2)  # K = 6, needs >= 5 colors
        with pytest.raises(ParameterError):
            divisor_coloring(desc, 4)
        with pytest.raises(ParameterError):
            divisor_coloring(desc, 5)

    def test_frozen_example(self):
        # K = 4, second column shifted by a1 + 1 = 2
        desc = UnionIcpDesc(1, 0, 2)
        coloring = divisor_coloring(desc, 4)
        assert coloring.colors == (1, 3, 2, 4, 3, 1, 4, 2)


class TestFractionalColoring:
    @given(union_descs())
    @settings(max_examples=80)
    def test_proper_on_split_grid(self, desc):
        coloring, m = fractional_coloring(desc)
        assert m == fractional_split(desc) == desc.k // (desc.a1 + desc.a2 + 2)
        icp = realize_union_split(desc, m)
        assert len(coloring.colors) == icp.n_nodes
        assert is_proper(icp, coloring)

    @given(union_descs())
    @settings(max_examples=80)
    def test_local_count_value(self, desc):
        coloring, m = fractional_coloring(desc)
        icp = realize_union_split(desc, m)
        s = desc.a1 + desc.a2 + 2
        assert coloring.n_colors == desc.k
        assert local_count(icp, coloring) == min(m * s + desc.a2, desc.k)

    def test_split_is_at_least_one(self):
        # a1+a2+2 <= K holds for every descriptor since z >= 1
        assert fractional_split(UnionIcpDesc(3, 3, 1)) == 1
        assert fractional_split(UnionIcpDesc(1, 0, 5)) == 2


def reference_divisor_colors(desc, n_colors):
    """The residue coloring as a loop over the 2-column grid's rows."""
    colors = []
    for row in range(1, desc.k + 1):
        colors.append(mod1(row, n_colors))
        colors.append(mod1(row + desc.a1 + 1, n_colors))
    return tuple(colors)


def reference_fractional_colors(desc):
    """The split coloring as a double loop over the ``2m``-column grid, and
    its split ``m``."""
    k = desc.k
    s = desc.a1 + desc.a2 + 2
    m = k // s
    colors = []
    for row in range(1, k + 1):
        for p in range(1, 2 * m + 1):
            j = (p + 1) // 2
            base = (j - 1) * s
            if p % 2 == 1:
                colors.append(mod1(row + base, k))
            else:
                colors.append(mod1(row + base + desc.a1 + 1, k))
    return tuple(colors), m


class TestWindowRule:
    """Both structured colorings are one shifted-window array expression; the
    loops above are the rule cell by cell."""

    @given(union_descs())
    @settings(max_examples=80)
    def test_divisor_coloring_matches_loop(self, desc):
        for t in range(desc.a1 + desc.a2 + 2, desc.k + 1):
            if desc.k % t == 0:
                assert divisor_coloring(desc, t).colors == reference_divisor_colors(desc, t)

    @given(union_descs())
    @settings(max_examples=80)
    def test_fractional_coloring_matches_loop(self, desc):
        coloring, m = fractional_coloring(desc)
        assert (coloring.colors, m) == reference_fractional_colors(desc)


class TestGreedyColoring:
    @given(random_instances())
    @settings(max_examples=60)
    def test_proper(self, icp):
        assert is_proper(icp, greedy_coloring(icp))

    @given(union_descs())
    @settings(max_examples=40)
    def test_proper_on_unions(self, desc):
        icp = realize_union_split(desc, 1)
        assert is_proper(icp, greedy_coloring(icp))

    def test_same_message_nodes_get_distinct_colors(self):
        users = (
            IcpUser(want=frozenset({1}), known=frozenset()),
            IcpUser(want=frozenset({1}), known=frozenset()),
        )
        icp = IcpInstance(n_messages=1, users=users)
        assert greedy_coloring(icp).colors == (1, 2)

    def test_clique_collapses_to_one_color(self):
        icp = realize_single(StructuredIcpDesc(0, 0, 4))
        assert greedy_coloring(icp).n_colors == 1


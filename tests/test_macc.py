"""Cyclic index arithmetic, problem parameters, and placement."""

import pytest
from hypothesis import given, strategies as st

from macc_lab import (
    DemandProfile,
    MaccInstance,
    ParameterError,
    accessible_subfiles,
    as_demand_profile,
    circ_interval,
    interval_contains,
    mod1,
    needed_subfiles,
    place,
)


@given(st.integers(-200, 200), st.integers(1, 40))
def test_mod1_range_and_congruence(n, m):
    v = mod1(n, m)
    assert 1 <= v <= m
    assert (v - n) % m == 0


def test_mod1_identity_on_range():
    assert [mod1(n, 5) for n in range(1, 11)] == [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]
    assert mod1(0, 5) == 5
    assert mod1(-1, 5) == 4


@given(st.integers(1, 20), st.integers(1, 20))
def test_circ_interval_walks_forward(k, start):
    start = mod1(start, k)
    end = mod1(start + 2, k)
    run = circ_interval(start, end, k)
    assert run[0] == start
    assert run[-1] == end
    for a, b in zip(run, run[1:]):
        assert mod1(a + 1, k) == b


@given(st.integers(2, 30), st.integers(1, 30), st.integers(0, 30), st.integers(1, 30))
def test_interval_contains_matches_walk(k, start, length, j):
    start = mod1(start, k)
    j = mod1(j, k)
    length = min(length, k)
    members = {mod1(start + t, k) for t in range(length)}
    assert interval_contains(start, length, j, k) == (j in members)


class TestMaccInstance:
    def test_valid_corner_indices(self):
        # ceil(8/3) = 3 is the last corner; 0 is the empty-cache corner
        for i in range(0, 4):
            MaccInstance(n_files=8, n_caches=8, access_degree=3, memory_index=i)
        with pytest.raises(ParameterError):
            MaccInstance(n_files=8, n_caches=8, access_degree=3, memory_index=4)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            MaccInstance(n_files=0, n_caches=4, access_degree=1, memory_index=1)
        with pytest.raises(ParameterError):
            MaccInstance(n_files=4, n_caches=4, access_degree=5, memory_index=1)
        with pytest.raises(ParameterError):
            MaccInstance(n_files=4, n_caches=4, access_degree=0, memory_index=1)

    def test_memory_and_coverage(self):
        inst = MaccInstance(n_files=8, n_caches=8, access_degree=2, memory_index=3)
        assert inst.coverage == 6
        assert inst.memory_per_cache == 3
        assert inst.n_users == 8


class TestDemands:
    def test_worst_case_is_distinct_when_enough_files(self):
        inst = MaccInstance(n_files=8, n_caches=8, access_degree=2, memory_index=1)
        prof = DemandProfile.worst_case(inst)
        assert prof.demands == tuple(range(1, 9))

    def test_worst_case_wraps_with_few_files(self):
        inst = MaccInstance(n_files=3, n_caches=5, access_degree=1, memory_index=1)
        assert DemandProfile.worst_case(inst).demands == (1, 2, 3, 1, 2)

    def test_as_demand_profile_validates(self):
        inst = MaccInstance(n_files=4, n_caches=4, access_degree=1, memory_index=1)
        assert as_demand_profile(inst, None).demands == (1, 2, 3, 4)
        assert as_demand_profile(inst, (2, 2, 1, 4)).demands == (2, 2, 1, 4)
        with pytest.raises(ParameterError):
            as_demand_profile(inst, (1, 2, 3))
        with pytest.raises(ParameterError):
            as_demand_profile(inst, (1, 2, 3, 5))


@st.composite
def corners(draw, max_k=16, min_i=1):
    k = draw(st.integers(2, max_k))
    l = draw(st.integers(1, k))
    top = -(-k // l)
    i = draw(st.integers(min_i, top))
    return k, l, i


class TestPlacement:
    def test_appendix_layout(self):
        # K=8, L=2, i=3: subfile m sits in caches m, m-2, m-4 (cyclically)
        inst = MaccInstance(n_files=8, n_caches=8, access_degree=2, memory_index=3)
        pm = place(inst)
        assert pm.cache_contents[0] == frozenset({1, 7, 5})
        assert pm.cache_contents[3] == frozenset({4, 2, 8})
        # subfile 1 is read by the iL = 6 consecutive users starting at 1 - L + 1 = 8
        assert pm.subfile_users[0] == (8, 1, 2, 3, 4, 5)

    @given(corners())
    def test_each_cache_stores_i_subfiles(self, klt):
        k, l, i = klt
        inst = MaccInstance(n_files=k, n_caches=k, access_degree=l, memory_index=i)
        pm = place(inst)
        assert all(len(c) == i for c in pm.cache_contents)

    @given(corners())
    def test_subfile_reader_runs_are_consecutive(self, klt):
        k, l, i = klt
        inst = MaccInstance(n_files=k, n_caches=k, access_degree=l, memory_index=i)
        pm = place(inst)
        span = min(i * l, k)
        for users in pm.subfile_users:
            assert len(users) == span
            for a, b in zip(users, users[1:]):
                assert mod1(a + 1, k) == b

    @given(corners())
    def test_accessible_matches_placement(self, klt):
        k, l, i = klt
        inst = MaccInstance(n_files=k, n_caches=k, access_degree=l, memory_index=i)
        pm = place(inst)
        for user in range(1, k + 1):
            from_place = {
                m + 1 for m in range(k) if user in pm.subfile_users[m]
            }
            assert accessible_subfiles(inst, user) == frozenset(from_place)

    @given(corners())
    def test_needed_plus_accessible_covers_everything(self, klt):
        k, l, i = klt
        inst = MaccInstance(n_files=k, n_caches=k, access_degree=l, memory_index=i)
        for user in range(1, k + 1):
            need = set(needed_subfiles(inst, user))
            have = accessible_subfiles(inst, user)
            assert not (need & have)
            assert need | have == set(range(1, k + 1))
            assert len(need) == k - min(i * l, k)

    def test_full_coverage_corner_needs_nothing(self):
        inst = MaccInstance(n_files=6, n_caches=6, access_degree=4, memory_index=2)
        assert all(needed_subfiles(inst, u) == () for u in range(1, 7))

    @pytest.mark.parametrize("fn", [accessible_subfiles, needed_subfiles])
    def test_subfile_sets_reject_bad_user_and_zero_index(self, fn):
        inst = MaccInstance(n_files=8, n_caches=8, access_degree=2, memory_index=2)
        for user in (0, 9, 99):
            with pytest.raises(ParameterError):
                fn(inst, user)
        with pytest.raises(ParameterError):
            fn(MaccInstance(n_files=8, n_caches=8, access_degree=2, memory_index=0), 1)

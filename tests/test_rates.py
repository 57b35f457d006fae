"""Tests for the closed-form rate calculators, bounds, and the memory curve."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc_lab import (
    ParameterError,
    StructuredIcpDesc,
    UnionIcpDesc,
    compare,
    corner_points,
    memory_share,
    rate_divisor,
    rate_linear,
    rate_prior_general,
    rate_prior_restricted,
    rate_quadratic,
    single_icp_bound,
    smallest_valid_divisor,
    union_bounds,
)


@st.composite
def corners(draw):
    k = draw(st.integers(1, 40))
    l = draw(st.integers(1, k))
    i = draw(st.integers(0, -(-k // l)))
    return k, l, i


@st.composite
def union_descs(draw):
    a1 = draw(st.integers(0, 10))
    a2 = draw(st.integers(0, a1))
    z = draw(st.integers(1, 8))
    return UnionIcpDesc(a1, a2, z)


class TestHelpers:
    def test_single_bound(self):
        assert single_icp_bound(StructuredIcpDesc(3, 2, 4)) == 6

    def test_smallest_valid_divisor(self):
        assert smallest_valid_divisor(14, 6) == 7
        assert smallest_valid_divisor(8, 3) == 4
        assert smallest_valid_divisor(9, 9) == 9
        assert smallest_valid_divisor(10, 1) == 1

    def test_smallest_valid_divisor_errors(self):
        with pytest.raises(ParameterError):
            smallest_valid_divisor(8, 9)
        with pytest.raises(ParameterError):
            smallest_valid_divisor(0, 1)


class TestUnionBounds:
    def test_frozen_wide(self):
        b = union_bounds(UnionIcpDesc(2, 2, 9))
        assert (b.lower, b.scalar, b.divisor) == (6, 8, 7)
        assert b.fractional == Fraction(7)

    def test_frozen_prime_cycle(self):
        b = union_bounds(UnionIcpDesc(10, 10, 1000))
        assert b.lower == 22
        assert b.scalar == 32
        assert b.divisor == 1021
        assert b.fractional == Fraction(1021, 46)

    def test_divisible_cycle_collapses(self):
        # K = 8 divisible by s = 4: every bound meets the lower bound
        b = union_bounds(UnionIcpDesc(1, 1, 5))
        assert b == (4, 4, 4, Fraction(4))

    @given(union_descs())
    @settings(max_examples=100)
    def test_lower_bound_holds(self, desc):
        b = union_bounds(desc)
        assert b.lower == desc.a1 + desc.a2 + 2
        assert b.lower <= b.scalar <= desc.k
        assert b.lower <= b.divisor <= desc.k
        assert b.lower <= b.fractional <= desc.k

    @given(union_descs())
    @settings(max_examples=100)
    def test_fractional_never_worse_than_scalar(self, desc):
        b = union_bounds(desc)
        assert b.fractional <= b.scalar


class TestCalculatorsFrozen:
    def test_wide_example(self):
        reports = compare(100, 4, 20)
        assert not reports["prior_restricted"].applicable
        assert reports["prior_general"].rate == Fraction(5, 2)
        assert reports["prior_general"].subpacketization == 800
        assert reports["divisor"].rate == Fraction(5, 2)
        assert reports["divisor"].note == "X=25"
        assert reports["linear"].rate == Fraction(51, 20)
        assert reports["quadratic"].rate == Fraction(177, 80)
        assert reports["quadratic"].subpacketization == 400

    def test_eight_cache_example(self):
        reports = compare(8, 2, 3)
        assert reports["prior_general"].rate == Fraction(2, 5)
        assert reports["prior_general"].subpacketization == 40
        assert reports["divisor"].rate == Fraction(1, 2)
        assert reports["divisor"].subpacketization == 8
        assert reports["linear"].rate == Fraction(3, 8)
        assert reports["linear"].subpacketization == 8
        assert reports["quadratic"].rate == Fraction(3, 8)
        assert reports["quadratic"].subpacketization == 16

    def test_restricted_family_member(self):
        rep = rate_prior_restricted(6, 1, 2)
        assert rep.applicable
        assert rep.rate == Fraction(2)

    def test_single_deficit_column(self):
        # K - iL = 1: one clique column, half a subfile per file
        for rep in (rate_prior_general(9, 2, 4), rate_linear(9, 2, 4),
                    rate_quadratic(9, 2, 4)):
            assert rep.rate == Fraction(1, 9)
            assert rep.subpacketization == 9
        assert rate_divisor(9, 2, 4).rate == Fraction(1, 6)

    def test_full_coverage_costs_nothing(self):
        for rep in (rate_prior_general(6, 2, 3), rate_divisor(6, 2, 3),
                    rate_linear(6, 2, 3), rate_quadratic(6, 2, 3)):
            assert rep.applicable
            assert rep.rate == 0
            assert rep.subpacketization == 6

    def test_zero_memory_not_priced(self):
        # an integer divisor is not held to a range at a corner with no table
        for rep in (*compare(8, 2, 0).values(), rate_divisor(8, 2, 0, divisor=3)):
            assert not rep.applicable
            assert rep.rate is None

    def test_subpacketization_parity(self):
        # odd deficit halves one subfile: K+1 parts
        assert rate_linear(9, 2, 3).subpacketization == 10
        assert rate_quadratic(9, 2, 3).subpacketization == 20
        assert rate_divisor(9, 2, 3).subpacketization == 10


class TestCalculatorsGeneric:
    @given(corners())
    @settings(max_examples=120)
    def test_validity_and_ranges(self, corner):
        k, l, i = corner
        for rep in compare(k, l, i).values():
            if rep.applicable:
                assert 0 <= rep.rate <= k
                if rep.subpacketization is not None:
                    assert rep.subpacketization >= 1

    @given(corners())
    @settings(max_examples=120)
    def test_quadratic_is_best(self, corner):
        k, l, i = corner
        reports = compare(k, l, i)
        q = reports["quadratic"]
        if not q.applicable:
            return
        assert q.rate <= reports["linear"].rate
        assert q.rate <= reports["prior_general"].rate

    @given(corners())
    @settings(max_examples=120)
    def test_divisor_recovers_restricted_scheme(self, corner):
        k, l, i = corner
        rep = rate_prior_restricted(k, l, i)
        if not rep.applicable:
            return
        via_divisor = rate_divisor(k, l, i, divisor=k - i * l + i)
        assert via_divisor.rate == rep.rate

    def test_corner_validation(self):
        with pytest.raises(ParameterError):
            rate_quadratic(0, 1, 1)
        with pytest.raises(ParameterError):
            rate_quadratic(4, 5, 1)
        with pytest.raises(ParameterError):
            rate_quadratic(4, 1, 5)
        with pytest.raises(ParameterError):
            rate_quadratic(4, 1, -1)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", None, np.float64(2)])
    def test_corner_must_be_integers(self, bad):
        for at in range(3):
            corner = [8, 2, 1]
            corner[at] = bad
            with pytest.raises(ParameterError, match="must be an integer"):
                compare(*corner)
            if at < 2:
                with pytest.raises(ParameterError, match="must be an integer"):
                    corner_points(*corner[:2])
        if bad is not None:  # None asks for the smallest valid divisor
            for i in (0, 1):  # the zero-memory corner checks it too
                with pytest.raises(ParameterError, match="divisor must be an integer"):
                    rate_divisor(8, 2, i, divisor=bad)
                with pytest.raises(ParameterError, match="divisor must be an integer"):
                    compare(8, 2, i, divisor=bad)
        # numpy integers price exactly as Python ints
        corner = np.int64(8), np.int32(2), np.uint8(1)
        assert compare(*corner) == compare(8, 2, 1)
        assert corner_points(*corner[:2]) == corner_points(8, 2)

    def test_explicit_divisor_validation(self):
        with pytest.raises(ParameterError):
            rate_divisor(8, 2, 3, divisor=3)  # does not divide 8
        with pytest.raises(ParameterError):
            rate_divisor(8, 2, 3, divisor=2)  # below K-iL+1
        with pytest.raises(ParameterError):
            rate_divisor(8, 2, 3, divisor=16)  # beyond K
        with pytest.raises(ParameterError):
            rate_divisor(5, 2, 3, divisor=4)  # iL > K: checked before the early return


class TestMemoryCurve:
    def test_corner_points_include_anchors(self):
        pts = dict(corner_points(8, 2))
        assert pts[Fraction(0)] == 8
        assert pts[Fraction(1)] == 0
        assert pts[Fraction(3, 8)] == Fraction(3, 8)
        assert pts[Fraction(1, 2)] == 0

    def test_corner_points_drop_inapplicable(self):
        pts = corner_points(8, 2, rate_prior_restricted)
        assert pts == (
            (Fraction(0), Fraction(8)),
            (Fraction(1, 2), Fraction(0)),
            (Fraction(1), Fraction(0)),
        )

    def test_interpolation(self):
        pts = corner_points(8, 2)
        assert memory_share(pts, Fraction(3, 8)) == Fraction(3, 8)
        assert memory_share(pts, Fraction(3, 10)) == Fraction(39, 40)
        assert memory_share(pts, "3/10") == Fraction(39, 40)
        assert memory_share(pts, 0) == 8
        assert memory_share(pts, 1) == 0

    def test_envelope_skips_dominated_points(self):
        pts = [(0, 4), (Fraction(1, 2), 10), (1, 0)]
        assert memory_share(pts, Fraction(1, 2)) == 2

    def test_duplicate_memory_keeps_cheaper_rate(self):
        pts = [(0, 4), (Fraction(1, 2), 3), (Fraction(1, 2), 1), (1, 0)]
        assert memory_share(pts, Fraction(1, 2)) == 1

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=60)
    def test_envelope_below_corners(self, k, data):
        l = data.draw(st.integers(1, k))
        pts = corner_points(k, l)
        for x, y in pts:
            assert memory_share(pts, x) <= y

    def test_validation(self):
        pts = corner_points(4, 1)
        with pytest.raises(ParameterError):
            memory_share(pts, Fraction(3, 2))
        with pytest.raises(ParameterError):
            memory_share([(0, 4)], Fraction(1, 2))
        with pytest.raises(ParameterError):
            memory_share([(Fraction(1, 4), 4), (1, 0)], Fraction(1, 2))

"""Tests for GF(2^w) arithmetic, MDS generators, and scheme verification."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc_lab import (
    FieldSpec,
    IcpInstance,
    IcpUser,
    ParameterError,
    StructuredIcpDesc,
    TransmissionScheme,
    UnionIcpDesc,
    can_decode,
    divisor_coloring,
    encode,
    field_for,
    greedy_coloring,
    mds_generator,
    rank,
    realize_single,
    realize_union_split,
    verify_scheme,
)
from macc_lab.linalg_ff import _Rref


def ref_mul(a: int, b: int, w: int, poly: int) -> int:
    """Carryless multiply with polynomial reduction, no lookup tables."""
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a >> w:
            a ^= poly
    return res


def gf2_rank(rows: list[int]) -> int:
    """Bitmask Gaussian elimination over GF(2)."""
    r = 0
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


small_fields = st.sampled_from([FieldSpec(1), FieldSpec(2), FieldSpec(4), FieldSpec(8)])


@st.composite
def field_elements(draw, n=2):
    spec = draw(small_fields)
    vals = [draw(st.integers(0, spec.size - 1)) for _ in range(n)]
    return (spec, *vals)


class TestFieldSpec:
    def test_degree_bounds(self):
        with pytest.raises(ParameterError):
            FieldSpec(0)
        with pytest.raises(ParameterError):
            FieldSpec(17)

    def test_default_polynomials_all_define_fields(self):
        for w in range(1, 17):
            spec = FieldSpec(w)
            gf = spec.tables()
            assert gf.mul(1, spec.size - 1) == spec.size - 1

    def test_wrong_degree_polynomial(self):
        with pytest.raises(ParameterError):
            FieldSpec(4, poly=0x11B)

    def test_reducible_polynomial_has_no_generator(self):
        # x^4 + x^3 factors, so the multiplicative group never materializes
        with pytest.raises(ParameterError):
            FieldSpec(4, poly=0x18).tables()

    def test_field_for_palette(self):
        assert field_for(255).w == 8
        assert field_for(256).w == 16
        with pytest.raises(ParameterError):
            field_for(65536)


class TestArithmetic:
    @given(field_elements(2))
    def test_matches_polynomial_multiply(self, args):
        spec, a, b = args
        assert int(spec.tables().mul(a, b)) == ref_mul(a, b, spec.w, spec.poly)

    @given(field_elements(3))
    def test_ring_axioms(self, args):
        spec, a, b, c = args
        gf = spec.tables()
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(a, gf.mul(b, c)) == gf.mul(gf.mul(a, b), c)
        assert gf.mul(a, b ^ c) == int(gf.mul(a, b)) ^ int(gf.mul(a, c))
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0

    @given(field_elements(1))
    def test_inverse(self, args):
        spec, a = args
        gf = spec.tables()
        if a == 0:
            with pytest.raises(ZeroDivisionError):
                gf.inv(0)
        else:
            assert gf.mul(a, gf.inv(a)) == 1

    @given(field_elements(1), st.integers(0, 10))
    def test_pow_is_repeated_multiply(self, args, e):
        spec, a = args
        gf = spec.tables()
        acc = 1
        for _ in range(e):
            acc = int(gf.mul(acc, a))
        assert gf.pow(a, e) == acc

    def test_known_product(self):
        # x^8 reduces to 0x1D under the degree-8 default polynomial 0x11D
        assert FieldSpec(8).poly == 0x11D
        assert int(FieldSpec(8).tables().mul(0x80, 2)) == 0x1D


class TestMdsGenerator:
    def test_vandermonde_rows(self):
        spec = FieldSpec(3)
        gen = mds_generator(3, 7, spec)
        gf = spec.tables()
        assert gen.shape == (3, 7)
        assert (gen[0] == 1).all()
        for c in range(7):
            assert gen[1, c] == c
            assert gen[2, c] == int(gf.mul(c, c))

    def test_every_square_submatrix_invertible(self):
        spec = FieldSpec(3)
        gen = mds_generator(3, 7, spec)
        for cols in combinations(range(7), 3):
            assert rank(gen[:, cols], spec) == 3

    def test_dimension_checks(self):
        spec = FieldSpec(2)
        with pytest.raises(ParameterError):
            mds_generator(0, 3, spec)
        with pytest.raises(ParameterError):
            mds_generator(4, 3, spec)
        with pytest.raises(ParameterError):
            mds_generator(2, 5, spec)


class TestRank:
    def test_frozen_ranks(self):
        spec = FieldSpec(8)
        assert rank(np.eye(4, dtype=np.uint32), spec) == 4
        assert rank(np.zeros((3, 5), dtype=np.uint32), spec) == 0
        assert rank(np.array([[1, 2], [1, 2], [2, 4]], dtype=np.uint32), spec) >= 1

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    @settings(max_examples=60)
    def test_gf2_agrees_with_bitmask_elimination(self, m, n, data):
        cells = data.draw(
            st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n)
        )
        mat = np.array(cells, dtype=np.uint32).reshape(m, n)
        ints = [int("".join(map(str, row)), 2) if n else 0 for row in mat.tolist()]
        assert rank(mat, FieldSpec(1)) == gf2_rank(ints)

    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=40)
    def test_unit_membership_matches_residual(self, m, n, data):
        spec = FieldSpec(4)
        cells = data.draw(
            st.lists(st.integers(0, 15), min_size=m * n, max_size=m * n)
        )
        rr = _Rref(np.array(cells, dtype=np.uint32).reshape(m, n), spec)
        for j in range(n):
            unit = np.zeros(n, dtype=np.uint32)
            unit[j] = 1
            assert rr.contains_unit(j) == rr.contains(unit)


class TestTransmissionScheme:
    def round_trip(self, spec):
        coeff = np.arange(6, dtype=np.uint32).reshape(2, 3) % spec.size
        scheme = TransmissionScheme(
            field=spec, message_order=(3, 1, 2), coefficients=coeff, split_factor=2
        )
        back = TransmissionScheme.from_json(scheme.to_json())
        assert back.field == scheme.field
        assert back.message_order == scheme.message_order
        assert back.split_factor == 2
        assert (back.coefficients == scheme.coefficients).all()

    def test_json_round_trip_w8(self):
        self.round_trip(FieldSpec(8))

    def test_json_round_trip_w16(self):
        # wide field uses four hex digits per coefficient
        self.round_trip(FieldSpec(16))

    def test_n_transmissions(self):
        scheme = TransmissionScheme(
            field=FieldSpec(8),
            message_order=(1,),
            coefficients=np.ones((3, 1), dtype=np.uint32),
        )
        assert scheme.n_transmissions == 3


@st.composite
def union_descs(draw):
    a1 = draw(st.integers(0, 5))
    a2 = draw(st.integers(0, a1))
    z = draw(st.integers(1, 3))
    return UnionIcpDesc(a1, a2, z)


class TestEncode:
    def test_clique_single_transmission(self):
        icp = realize_single(StructuredIcpDesc(0, 0, 3))
        coloring = greedy_coloring(icp)
        scheme = encode(icp, coloring)
        assert scheme.n_transmissions == 1
        assert (scheme.coefficients == 1).all()
        assert all(verify_scheme(scheme, icp))

    def test_rejects_improper_coloring(self):
        from macc_lab import Coloring

        users = (
            IcpUser(want=frozenset({1}), known=frozenset()),
            IcpUser(want=frozenset({2}), known=frozenset()),
        )
        icp = IcpInstance(n_messages=2, users=users)
        with pytest.raises(ParameterError):
            encode(icp, Coloring((1, 1)))

    def test_row_count_bounds(self):
        # a1 + 2*a2 + 2 = 3 < K = 4, so the local count is exactly 3
        desc = UnionIcpDesc(1, 0, 2)
        icp = realize_union_split(desc, 1)
        coloring = divisor_coloring(desc, desc.k)
        with pytest.raises(ParameterError):
            encode(icp, coloring, n_rows=2)
        with pytest.raises(ParameterError):
            encode(icp, coloring, n_rows=desc.k + 1)

    def test_padded_rows_still_decode(self):
        desc = UnionIcpDesc(2, 1, 2)
        icp = realize_union_split(desc, 1)
        coloring = divisor_coloring(desc, desc.k)
        scheme = encode(icp, coloring, n_rows=desc.k)
        assert scheme.n_transmissions == desc.k
        assert all(verify_scheme(scheme, icp))

    def test_field_must_fit_palette(self):
        desc = UnionIcpDesc(2, 1, 2)
        icp = realize_union_split(desc, 1)
        coloring = divisor_coloring(desc, desc.k)
        with pytest.raises(ParameterError):
            encode(icp, coloring, field=FieldSpec(2))

    @given(union_descs())
    @settings(max_examples=40, deadline=None)
    def test_structured_colorings_decode_everywhere(self, desc):
        icp = realize_union_split(desc, 1)
        scheme = encode(icp, divisor_coloring(desc, desc.k))
        results = verify_scheme(scheme, icp)
        assert all(results)
        assert results == tuple(
            can_decode(scheme, icp, u) for u in range(1, len(icp.users) + 1)
        )

    @pytest.mark.parametrize("desc", [UnionIcpDesc(1, 0, 2), UnionIcpDesc(2, 1, 2)])
    def test_dropped_row_splits_users(self, desc):
        icp = realize_union_split(desc, 1)
        scheme = encode(icp, divisor_coloring(desc, desc.k))
        short = TransmissionScheme(
            field=scheme.field,
            message_order=scheme.message_order,
            coefficients=scheme.coefficients[1:],
        )
        results = verify_scheme(short, icp)
        assert set(results) == {True, False}
        assert results == tuple(
            can_decode(short, icp, u) for u in range(1, len(icp.users) + 1)
        )

    def test_zeroed_coefficients_fail_everywhere(self):
        desc = UnionIcpDesc(1, 0, 2)
        icp = realize_union_split(desc, 1)
        scheme = encode(icp, divisor_coloring(desc, desc.k))
        dead = TransmissionScheme(
            field=scheme.field,
            message_order=scheme.message_order,
            coefficients=np.zeros_like(scheme.coefficients),
        )
        assert not any(verify_scheme(dead, icp))

    def test_user_index_validated(self):
        icp = realize_single(StructuredIcpDesc(0, 0, 1))
        scheme = encode(icp, greedy_coloring(icp))
        with pytest.raises(ParameterError):
            can_decode(scheme, icp, 0)

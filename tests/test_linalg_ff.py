"""Tests for GF(2^w) arithmetic, MDS generators, and scheme verification."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc_lab import (
    FieldSpec,
    IcpInstance,
    IcpUser,
    MaccInstance,
    ParameterError,
    SizeCapError,
    StructuredIcpDesc,
    TransmissionScheme,
    UnionIcpDesc,
    assemble,
    can_decode,
    divisor_coloring,
    encode,
    field_for,
    greedy_coloring,
    local_count,
    mds_generator,
    rank,
    realize_single,
    realize_union_split,
    verify_scheme,
)
from macc_lab import linalg_ff
from macc_lab.linalg_ff import _DEFAULT_POLY


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


class _Rref:
    """Reduced row echelon form over GF(2^w), one pivot at a time, with
    span-membership queries: the reference the batched elimination is
    checked against."""

    def __init__(self, matrix: np.ndarray, field: FieldSpec):
        gf = field.tables()
        m = np.asarray(matrix).astype(gf.dtype)
        n_rows, n_cols = m.shape
        pivots: list[int] = []
        r = 0
        for c in range(n_cols):
            if r >= n_rows:
                break
            nz = np.flatnonzero(m[r:, c])
            if len(nz) == 0:
                continue
            p = int(nz[0]) + r
            if p != r:
                m[[r, p]] = m[[p, r]]
            m[r] = gf.mul(m[r], gf.inv(m[r, c]))
            others = np.flatnonzero(m[:, c])
            others = others[others != r]
            if len(others):
                m[others] ^= gf.mul(m[others, c][:, None], m[r][None, :])
            pivots.append(c)
            r += 1
        self.gf = gf
        self.rows = m[:r]
        self.pivots = pivots
        self.rank = r

    def residual(self, v: np.ndarray) -> np.ndarray:
        v = np.array(v, dtype=self.gf.dtype)
        for r, c in enumerate(self.pivots):
            if v[c]:
                v ^= self.gf.mul(v[c], self.rows[r])
        return v

    def contains(self, v: np.ndarray) -> bool:
        return not self.residual(v).any()


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
        for args in [("x",), (8.0,), (True,), (8, "x"), (8, 285.0)]:
            with pytest.raises(ParameterError, match="must be an integer"):
                FieldSpec(*args)
        assert FieldSpec(np.int64(8)) == FieldSpec(8) and type(FieldSpec(np.int64(8)).w) is int

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
        # x^10 + x^9 = x^9 (x + 1), a width that uses log tables
        with pytest.raises(ParameterError):
            FieldSpec(10, poly=0x600).tables()

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

    @pytest.mark.parametrize("w", range(1, 17))
    def test_matches_row_by_row_powers(self, w):
        # the reference: row r + 1 is row r times the points, one multiply a row
        spec = FieldSpec(w)
        gf = spec.tables()
        n = spec.size
        for rows, cols in [(1, 1), (1, n), (2, n), (min(5, n), min(40, n)), (min(n, 300), min(n, 300))]:
            points = np.arange(cols, dtype=np.uint32)
            want = np.empty((rows, cols), dtype=np.uint32)
            want[0] = 1
            for r in range(1, rows):
                want[r] = gf.mul(want[r - 1], points)
            got = mds_generator(rows, cols, spec)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

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

    def test_entries_outside_field(self):
        # a narrow dtype would wrap 300 to 44 and -1 to 255 without the check
        for bad in ([[300, 1]], [[1, -1]], np.array([[1, 256]], dtype=np.uint32)):
            with pytest.raises(ParameterError):
                rank(bad, FieldSpec(8))
        with pytest.raises(ParameterError):
            rank([[0, 65536]], FieldSpec(16))
        assert rank([[255, 1]], FieldSpec(8)) == 1

    def test_non_matrix_refused(self):
        for bad in (np.array([1, 2, 3]), np.ones((2, 2, 2), dtype=np.uint32)):
            with pytest.raises(ParameterError):
                rank(bad, FieldSpec(8))

    @given(st.sampled_from([2, 4, 8, 16]), st.integers(0, 6), st.integers(0, 6), st.data())
    @settings(max_examples=60)
    def test_matches_reference_elimination(self, w, m, n, data):
        spec = FieldSpec(w)
        cells = data.draw(st.lists(st.integers(0, spec.size - 1), min_size=m * n, max_size=m * n))
        mat = np.array(cells, dtype=np.int64).reshape(m, n)
        assert rank(mat, spec) == _Rref(mat, spec).rank


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

    @staticmethod
    def stdlib_json(scheme: TransmissionScheme) -> str:
        """The scheme's payload dict, written by ``json.dumps(indent=2)``."""
        coeff = scheme.coefficients.astype(">u1" if scheme.field.w <= 8 else ">u2")
        return json.dumps({
            "field": {"w": scheme.field.w, "poly": scheme.field.poly},
            "message_order": list(scheme.message_order),
            "split_factor": scheme.split_factor,
            "rows": [row.tobytes().hex() for row in coeff],
        }, indent=2)

    @given(st.sampled_from([1, 4, 8, 9, 16]), st.integers(0, 4), st.integers(0, 5),
           st.integers(1, 3), st.data())
    @settings(max_examples=100)
    def test_json_matches_stdlib_rendering(self, w, n_rows, n_cols, split, data):
        spec = FieldSpec(w)
        order = data.draw(st.lists(st.integers(1, 10**6), min_size=n_cols, max_size=n_cols))
        size = n_rows * n_cols
        cells = data.draw(st.lists(st.integers(0, spec.size - 1), min_size=size, max_size=size))
        coeff = np.array(cells, dtype=np.int64).reshape(n_rows, n_cols)
        scheme = TransmissionScheme(spec, tuple(order), coeff, split)
        assert scheme.to_json() == self.stdlib_json(scheme)

    @pytest.mark.parametrize("w", [8, 16])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0), (1, 1)])
    def test_json_matches_stdlib_rendering_when_empty(self, w, shape):
        order = tuple(range(1, shape[1] + 1))
        scheme = TransmissionScheme(FieldSpec(w), order, np.ones(shape, dtype=np.int64))
        assert scheme.to_json() == self.stdlib_json(scheme)

    def test_n_transmissions(self):
        scheme = TransmissionScheme(
            field=FieldSpec(8),
            message_order=(1,),
            coefficients=np.ones((3, 1), dtype=np.uint32),
            split_factor=np.int64(2),
        )
        assert scheme.n_transmissions == 3
        # a numpy integer split factor is kept as a Python int
        assert type(scheme.split_factor) is int and scheme.split_factor == 2

    def test_coefficient_outside_field(self):
        with pytest.raises(ParameterError):
            TransmissionScheme(
                field=FieldSpec(8),
                message_order=(1, 2),
                coefficients=np.array([[1, 300]], dtype=np.uint32),
            )
        with pytest.raises(ParameterError):
            TransmissionScheme(
                field=FieldSpec(8),
                message_order=(1,),
                coefficients=np.array([[-1]], dtype=np.int64),
            )
        # two hex digits per coefficient up to w = 8, so GF(2^4) can read 0xff
        text = json.dumps(
            {"field": {"w": 4, "poly": 0x13}, "message_order": [1, 2],
             "split_factor": 1, "rows": ["0aff"]}
        )
        with pytest.raises(ParameterError):
            TransmissionScheme.from_json(text)
        with pytest.raises(ParameterError):
            TransmissionScheme.from_json(text.replace("0aff", "0a-1"))

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 3)])
    def test_coefficients_must_be_a_matrix(self, shape):
        with pytest.raises(ParameterError):
            TransmissionScheme(
                field=FieldSpec(8),
                message_order=(1, 2, 3),
                coefficients=np.ones(shape, dtype=np.uint32),
            )

    def test_column_count_must_match_order(self):
        with pytest.raises(ParameterError):
            TransmissionScheme(
                field=FieldSpec(8),
                message_order=(1, 2, 3),
                coefficients=np.ones((2, 2), dtype=np.uint32),
            )
        text = json.dumps(
            {"field": {"w": 8, "poly": 0x11D}, "message_order": [1, 2],
             "split_factor": 1, "rows": ["0102", "01"]}
        )
        with pytest.raises(ParameterError):
            TransmissionScheme.from_json(text)

    @pytest.mark.parametrize("row", ["0af", "0g0a", "0a", "0a0b0c", " 0a "])
    def test_malformed_hex_row(self, row):
        # odd length, a non-hex digit, too few or too many coefficients, and
        # whitespace, which bytes.fromhex alone would skip
        text = json.dumps(
            {"field": {"w": 8, "poly": 0x11D}, "message_order": [1, 2],
             "split_factor": 1, "rows": ["0102", row]}
        )
        with pytest.raises(ParameterError):
            TransmissionScheme.from_json(text)

    @pytest.mark.parametrize(
        "change, named",
        [
            (lambda d: {}, "field"),
            (lambda d: {k: v for k, v in d.items() if k != "rows"}, "rows"),
            (lambda d: {**d, "field": {"w": 8}}, "poly"),
            (lambda d: [d], "JSON object"),
            (lambda d: {**d, "field": 8}, "JSON object"),
            (lambda d: {**d, "split_factor": "x"}, "split_factor"),
            (lambda d: {**d, "split_factor": 0}, "split_factor"),
            (lambda d: {**d, "split_factor": True}, "split_factor"),
            (lambda d: {**d, "split_factor": 1.0}, "split_factor"),
            (lambda d: {**d, "field": {"w": "x", "poly": 0x11D}}, "'w' must be an integer"),
            (lambda d: {**d, "field": {"w": 8, "poly": True}}, "'poly' must be an integer"),
            (lambda d: {**d, "message_order": 5}, "'message_order' must be a list"),
            (lambda d: {**d, "message_order": [1, "2"]}, "message_order entry"),
            (lambda d: {**d, "rows": "0102"}, "'rows' must be a list"),
        ],
    )
    def test_bad_document_is_a_parameter_error(self, change, named):
        good = {"field": {"w": 8, "poly": 0x11D}, "message_order": [1, 2],
                "split_factor": 2, "rows": ["0102"]}
        assert TransmissionScheme.from_json(json.dumps(good)).split_factor == 2
        with pytest.raises(ParameterError, match=named):
            TransmissionScheme.from_json(json.dumps(change(good)))


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

    def test_every_entry_point_refuses_past_the_budget(self, monkeypatch):
        def no_elimination(*args, **kwargs):
            raise AssertionError("eliminated before the budget check")

        icp = realize_union_split(UnionIcpDesc(2, 1, 2), 1)
        scheme = encode(icp, greedy_coloring(icp))
        monkeypatch.setattr(linalg_ff, "VERIFY_CELL_BUDGET", 0)
        monkeypatch.setattr(linalg_ff, "_eliminate", no_elimination)
        text = (r"verifying this plan takes about \S+ cells of exact elimination, "
                r"above the budget of 0e\+00")
        for check in (lambda: linalg_ff.verify_schemes([(scheme, icp)]),
                      lambda: verify_scheme(scheme, icp),
                      lambda: can_decode(scheme, icp, 1)):
            with pytest.raises(SizeCapError) as info:
                check()
            assert re.fullmatch(text, str(info.value))


def reference_verdicts(scheme: TransmissionScheme, icp: IcpInstance) -> tuple[bool, ...]:
    """One ``_Rref`` per user over its unknown columns, and a residual test of
    each wanted unit vector (the last column of a repeated message id)."""
    order = scheme.message_order
    out = []
    for u in icp.users:
        unknown = [c for c, m in enumerate(order) if m not in u.known]
        rr = _Rref(scheme.coefficients[:, unknown], scheme.field)
        pos = {order[c]: j for j, c in enumerate(unknown)}
        ok = True
        for m in u.want:
            unit = np.zeros(len(unknown), dtype=np.uint32)
            if m in pos:
                unit[pos[m]] = 1
            ok = ok and m in pos and rr.contains(unit)
        out.append(ok)
    return tuple(out)


def force_path(patch: pytest.MonkeyPatch, path: str) -> None:
    """Make every component of a verification take one path: the tree
    halving every range, each set on its own at once, or systematic form."""
    if path == "reduce":
        patch.setattr(linalg_ff, "_splits", lambda *args: True)
        patch.setattr(linalg_ff, "_reduces", lambda *args: True)
    else:
        patch.setattr(linalg_ff, "_DEPTH_CELLS", -np.inf if path == "halve" else np.inf)


def assert_matches_reference(scheme: TransmissionScheme, icp: IcpInstance) -> tuple[bool, ...]:
    expected = reference_verdicts(scheme, icp)
    assert verify_scheme(scheme, icp) == expected
    # every component on each path, whatever the model picks
    for path in ("halve", "flat", "reduce"):
        with pytest.MonkeyPatch.context() as patch:
            force_path(patch, path)
            assert verify_scheme(scheme, icp) == expected
    assert tuple(can_decode(scheme, icp, u) for u in range(1, len(icp.users) + 1)) == expected
    return expected


@st.composite
def random_schemes(draw, w=None):
    """A general instance (multi-message wants, known sets of unequal sizes)
    and a scheme over a permuted, partial message order that may also list
    ids outside the instance, with zero to eight rows; in GF(2^w) when ``w``
    is given."""
    spec = FieldSpec(draw(st.sampled_from([1, 4, 8, 16])) if w is None else w)
    n = draw(st.integers(1, 8))
    users = []
    for _ in range(draw(st.integers(1, 6))):
        want = draw(st.sets(st.integers(1, n), min_size=1, max_size=3))
        rest = [m for m in range(1, n + 1) if m not in want]
        known = draw(st.sets(st.sampled_from(rest))) if rest else set()
        users.append(IcpUser(want=frozenset(want), known=frozenset(known)))
    icp = IcpInstance(n_messages=n, users=tuple(users))
    order = draw(st.permutations(range(1, n + 3)))
    order = tuple(order[: draw(st.integers(0, len(order)) | st.just(len(order)))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeff = rng.integers(0, spec.size, size=(draw(st.integers(0, 8)), len(order)))
    # sparse rows give both verdicts in every field
    coeff[rng.random(coeff.shape) < draw(st.sampled_from([0.0, 0.5, 0.8]))] = 0
    return icp, TransmissionScheme(field=spec, message_order=order, coefficients=coeff)


def windows_instance(k: int, d: int, w: int) -> IcpInstance:
    """``k`` known sets that are cyclic windows, as in a structured
    component: ``d`` messages per position, and user ``s`` knows the ``w``
    positions after its own and wants its own."""

    def at(p):
        return range(p % k * d + 1, p % k * d + d + 1)

    users = tuple(
        IcpUser(want=frozenset(at(s)), known=frozenset(m for t in range(1, w + 1) for m in at(s + t)))
        for s in range(k)
    )
    return IcpInstance(n_messages=k * d, users=users)


@st.composite
def cyclic_windows(draw, field_w=None):
    """A :func:`windows_instance` with 8 to 24 sets. The scheme encodes a
    greedy coloring, in GF(2^field_w) when that is given, and may lose a
    row, so both verdicts occur."""
    k = draw(st.integers(8, 24))
    d = draw(st.integers(1, 3))
    w = draw(st.integers(1, k - 1))
    icp = windows_instance(k, d, w)
    spec = FieldSpec(draw(st.sampled_from([8, 16])) if field_w is None else field_w)
    scheme = encode(icp, greedy_coloring(icp), field=spec)
    drop = draw(st.none() | st.integers(0, scheme.n_transmissions - 1))
    if drop is not None:
        scheme = TransmissionScheme(
            field=scheme.field,
            message_order=scheme.message_order,
            coefficients=np.delete(scheme.coefficients, drop, axis=0),
        )
    return icp, scheme


@st.composite
def coloring_schemes(draw, w=None):
    """A general instance or cyclic windows, and a scheme shaped as
    :func:`encode` shapes one: column ``m`` is the generator column of the
    color of message ``m``, so colors repeat columns. The colors come from a
    proper greedy coloring (each message takes the color of a node wanting
    it) or from any map of messages to colors; the generator is random, with
    zero to ``t + 1`` rows, and some columns may be zeroed. In GF(2^w), any
    ``w`` from 1 to 16 unless given."""
    spec = FieldSpec(draw(st.integers(1, 16)) if w is None else w)
    if draw(st.booleans()):
        k = draw(st.integers(3, 12))
        icp = windows_instance(k, draw(st.integers(1, 2)), draw(st.integers(1, k - 1)))
    else:
        icp = draw(random_schemes(spec.w))[0]
    if draw(st.booleans()):
        color = np.zeros(icp.n_messages, dtype=np.intp)
        color[icp.node_msg] = np.array(greedy_coloring(icp).colors) - 1
    else:
        color = np.array(draw(st.lists(st.integers(0, 4), min_size=icp.n_messages, max_size=icp.n_messages)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gen = rng.integers(0, spec.size, size=(draw(st.integers(0, color.max() + 2)), color.max() + 1))
    coeff = gen[:, color]
    coeff[:, rng.random(icp.n_messages) < draw(st.sampled_from([0.0, 0.3]))] = 0
    return icp, TransmissionScheme(spec, tuple(range(1, icp.n_messages + 1)), coeff)


@st.composite
def scheme_batches(draw):
    """One to five components over one field, each a general instance,
    cyclic windows or a coloring-shaped scheme, so they differ in row, column
    and set counts; zero-row schemes and lost rows both occur."""
    w = draw(st.sampled_from([8, 16]))
    return draw(st.lists(random_schemes(w) | cyclic_windows(w) | coloring_schemes(w), min_size=1, max_size=5))


@st.composite
def class_stacks(draw):
    """Arguments of :func:`linalg_ff._tree_ranks` as :func:`_tree_spans`
    builds them, in GF(2^8) or GF(2^16): one to four pairs of distinct
    columns by rows, padded with zero rows and with zero columns, the last
    one for all, that no row lacks. Each pair's columns come from a random
    product of rank up to its row count, with some zeroed, so matrices may
    be rank deficient; a pair may have no rows and no known sets. Each set
    lacks an arbitrary mask of columns, and some sets are followed, as in
    the exact test, by that mask without each column it lacks in turn."""
    spec = FieldSpec(draw(st.sampled_from([8, 16])))
    gf = spec.tables()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pairs, n_cols, n_rows = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(0, 8))
    a = np.zeros((n_pairs, n_cols + 1, n_rows), dtype=gf.dtype)
    n_tx, masks = [], []
    for p in range(n_pairs):
        r = int(rng.integers(0, n_rows + 1))
        k = int(rng.integers(0, r + 1))
        basis = rng.integers(0, gf.size, (k, r))
        for j in range(k):
            a[p, :n_cols, :r] ^= gf.mul(rng.integers(0, gf.size, (n_cols, 1)), basis[j])
        a[p, rng.random(n_cols + 1) < draw(st.sampled_from([0.0, 0.3])), :] = 0
        n_tx.append(r)
        lacked = rng.random((int(rng.integers(0, 7)), n_cols)) < draw(st.sampled_from([0.2, 0.5, 0.9]))
        rows = []
        for mask in lacked:
            rows.append(mask)
            if rng.random() < 0.5:
                for c in np.flatnonzero(mask):
                    rows.append(mask.copy())
                    rows[-1][c] = False
        masks.append(np.zeros((len(rows), n_cols + 1), dtype=bool))
        masks[-1][:, :n_cols] = np.array(rows).reshape(len(rows), n_cols)
    offset = np.cumsum([0] + [len(m) for m in masks]).tolist()
    return spec, a, np.concatenate(masks), offset, n_tx


class TestSystematicForm:
    @given(class_stacks(), st.sampled_from(["halve", "flat", "reduce", None]))
    @settings(max_examples=200, deadline=None)
    def test_ranks_match_every_path_and_rank(self, case, path):
        spec, a, lacked, offset, n_tx = case
        owner = np.repeat(np.arange(len(n_tx)), np.diff(offset))
        expected = [rank(a[p][mask].T, spec) for p, mask in zip(owner, lacked)]
        with pytest.MonkeyPatch.context() as patch:
            if path:
                force_path(patch, path)
            got = linalg_ff._tree_ranks(spec.tables(), a.copy(), lacked, offset, n_tx)
        assert got.tolist() == expected

    @pytest.mark.parametrize("w", [8, 16])
    def test_dependent_columns_in_systematic_form(self, w):
        # columns 0 and 1 span column 2, column 3 is zero and column 4 is
        # outside their span: a row lacking 0, 1 and 2 has rank 2, and the
        # same row without column 2 keeps it, so column 2 is not decoded
        spec = FieldSpec(w)
        c0, c1, c4 = np.array([1, 0, 3]), np.array([5, 7, 0]), np.array([0, 0, 9])
        cols = np.stack([c0, c1, c0 ^ c1, 0 * c0, c4, 0 * c0])[None]
        lacked = np.array([
            [1, 1, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0],
            [0, 0, 1, 1, 1, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0],
        ], dtype=bool)
        with pytest.MonkeyPatch.context() as patch:
            force_path(patch, "reduce")
            got = linalg_ff._tree_ranks(spec.tables(), cols.astype(spec.tables().dtype), lacked, [0, 6], [3])
        assert got.tolist() == [2, 2, 2, 2, 0, 0]


def record_trees(monkeypatch) -> list:
    """Record, per :func:`linalg_ff._tree_ranks` call, the number of matrices
    in each stack it eliminates."""
    trees = []
    real_ranks, real_eliminate = linalg_ff._tree_ranks, linalg_ff._eliminate

    def ranks(*args):
        trees.append([])
        return real_ranks(*args)

    def eliminate(gf, a, *args):
        trees[-1].append(len(a))
        return real_eliminate(gf, a, *args)

    monkeypatch.setattr(linalg_ff, "_tree_ranks", ranks)
    monkeypatch.setattr(linalg_ff, "_eliminate", eliminate)
    return trees


def count_splits(monkeypatch) -> list:
    """Record, per component verified, whether its elimination tree splits."""
    split = []
    real = linalg_ff._splits

    def recorded(*args):
        result = real(*args)
        split.append(bool(result))
        return result

    monkeypatch.setattr(linalg_ff, "_splits", recorded)
    return split


class TestBatchedVerifier:
    @given(random_schemes())
    @settings(max_examples=300, deadline=None)
    def test_random_schemes_match_reference(self, case):
        assert_matches_reference(case[1], case[0])

    @given(cyclic_windows())
    @settings(max_examples=100, deadline=None)
    def test_cyclic_windows_match_reference(self, case):
        assert_matches_reference(case[1], case[0])

    @given(coloring_schemes())
    @settings(max_examples=200, deadline=None)
    def test_coloring_schemes_match_reference(self, case):
        assert_matches_reference(case[1], case[0])

    def test_identical_columns(self):
        # messages 1 and 2 share a column, message 4's is zero
        coeff = np.array([[1, 1, 0, 0], [2, 2, 1, 0]], dtype=np.uint32)
        scheme = TransmissionScheme(FieldSpec(8), (1, 2, 3, 4), coeff)
        users = (
            IcpUser(want=frozenset({1}), known=frozenset({3, 4})),  # lacks both copies
            IcpUser(want=frozenset({1}), known=frozenset({2, 4})),  # knows the other copy
            IcpUser(want=frozenset({4}), known=frozenset({1, 2, 3})),  # wants the zero column
            IcpUser(want=frozenset({3}), known=frozenset({1})),  # lacks one copy, wants neither
        )
        icp = IcpInstance(n_messages=4, users=users)
        assert assert_matches_reference(scheme, icp) == (False, True, False, True)
        # a message listed twice is read at its last column: the first
        # copy lacked with it fails the user if equal, not if distinct
        twice = TransmissionScheme(FieldSpec(8), (1, 2, 1), coeff[:, [0, 2, 0]])
        assert assert_matches_reference(twice, icp) == (False,) * 4
        distinct = TransmissionScheme(FieldSpec(8), (1, 2, 1), coeff[:, [2, 3, 0]])
        assert assert_matches_reference(distinct, icp) == (True, True, False, False)
        # no rows, and no columns, decode nothing
        for empty in (
            TransmissionScheme(FieldSpec(8), (1, 2, 3, 4), coeff[:0]),
            TransmissionScheme(FieldSpec(8), (), np.zeros((2, 0), dtype=np.uint32)),
        ):
            assert assert_matches_reference(empty, icp) == (False,) * 4

    def test_elimination_takes_distinct_columns(self, monkeypatch):
        # at (60, 2, 7) every pair's 120 columns hold 60 distinct ones, so
        # no matrix the tree eliminates uses more than 60 columns; over the
        # four plan_large corners the tree takes 7,615,156 products. Every
        # component of them ranks in systematic form unless made to halve
        monkeypatch.setattr(linalg_ff, "_reduces", lambda *args: False)
        gf = FieldSpec(8).tables()
        products = [0]
        used, stacks = [], []
        real_mul, real_eliminate = gf.mul, linalg_ff._eliminate

        def counted(a, b):
            out = real_mul(a, b)
            products[0] += out.size
            return out

        def recorded(gf, a, counts, *args):
            # a stack holds (columns, rows) matrices; row operations keep a
            # nonzero column nonzero, so this counts the columns each uses
            used.append((a != 0).any(axis=2).sum(axis=1).max(initial=0))
            stacks.append((*a.shape, counts.max(initial=0)))
            gf.mul = counted
            try:
                return real_eliminate(gf, a, counts, *args)
            finally:
                del gf.mul

        monkeypatch.setattr(linalg_ff, "_eliminate", recorded)
        for corner in [(60, 2, 7), (40, 2, 6), (48, 2, 14), (60, 4, 12)]:
            used.clear()
            stacks.clear()
            plan = assemble(MaccInstance(corner[0], *corner), mode="quadratic")
            # each range's columns are left-justified together, so a stack
            # is at most the zero column wider than its widest matrix
            assert stacks and all(shape[1] <= u + 1 for shape, u in zip(stacks, used))
            if corner == (60, 2, 7):
                distinct = max(np.unique(p.scheme.coefficients, axis=1).shape[1] for p in plan.pairs)
                assert distinct == 60 and max(used) <= distinct
                assert stacks[0][1] == 61
                # a range that hands on no column stops, so every stack
                # eliminates some column
                assert all(shape[3] > 0 for shape in stacks)
        assert products[0] <= 8 * 10**6

    def test_systematic_form_takes_distinct_columns(self, monkeypatch):
        # the same corners in systematic form: one Gauss-Jordan stack over
        # each component's distinct columns, then one block per known set
        # lacking a column outside the pivots, on those columns only. A
        # correct plan's rank is its row count, so no block is wider than
        # columns less rows. The four corners take 4,943,925 products
        # against the tree's 7,615,156
        gf = FieldSpec(8).tables()
        products = [0]
        stacks = []
        real_mul, real_eliminate = gf.mul, linalg_ff._eliminate

        def counted(a, b):
            out = real_mul(a, b)
            products[0] += out.size
            return out

        def recorded(gf, a, counts, *args):
            used = (a != 0).any(axis=2).sum(axis=1).max(initial=0)
            stacks.append((*a.shape, counts.max(initial=0), used, *args[1:]))
            gf.mul = counted
            try:
                return real_eliminate(gf, a, counts, *args)
            finally:
                del gf.mul

        monkeypatch.setattr(linalg_ff, "_eliminate", recorded)
        for corner in [(60, 2, 7), (40, 2, 6), (48, 2, 14), (60, 4, 12)]:
            stacks.clear()
            plan = assemble(MaccInstance(corner[0], *corner), mode="quadratic")
            distinct = [np.unique(p.scheme.coefficients, axis=1).shape[1] for p in plan.pairs]
            rows = [p.scheme.n_transmissions for p in plan.pairs]
            (n, width, _, count, used, jordan), block = stacks
            assert jordan and n == len(plan.pairs) and width == count == used == max(distinct)
            assert block[1] == block[3] <= max(d - r for d, r in zip(distinct, rows)) and block[4] <= block[1]
            assert block[2] <= max(rows) and len(block) == 5
            if corner == (60, 2, 7):
                assert width == 60 and (block[1], block[2]) == (13, 13)
        assert products[0] == 4_943_925

    # every component halving every range, never splitting, in systematic
    # form, and as the model picks, which at the default mixes components
    # that split with ones that do not; all components in one tree, or each
    # in its own
    @given(
        scheme_batches(),
        st.sampled_from(["halve", "flat", "reduce", None]),
        st.sampled_from([linalg_ff._BATCH_CELLS, 1]),
    )
    @settings(max_examples=100, deadline=None)
    def test_batches_match_reference(self, batch, path, batch_cells):
        with pytest.MonkeyPatch.context() as patch:
            if path:
                force_path(patch, path)
            patch.setattr(linalg_ff, "_BATCH_CELLS", batch_cells)
            got = linalg_ff.verify_schemes([(scheme, icp) for icp, scheme in batch])
        assert got == [reference_verdicts(scheme, icp) for icp, scheme in batch]

    @staticmethod
    def mixed_batch() -> list:
        """Five pairs: one on each set at once, two that halve, an empty
        scheme, and one that lost a row, so some of its sets take the exact
        test."""
        windows = windows_instance(24, 3, 4)
        full = encode(windows, greedy_coloring(windows), field=FieldSpec(8))
        short = TransmissionScheme(full.field, full.message_order, full.coefficients[1:])
        union = realize_union_split(UnionIcpDesc(2, 1, 2), 1)
        small = encode(union, divisor_coloring(UnionIcpDesc(2, 1, 2), 6), field=FieldSpec(8))
        empty = TransmissionScheme(FieldSpec(8), small.message_order, small.coefficients[:0])
        narrow = windows_instance(16, 2, 2)
        other = encode(narrow, greedy_coloring(narrow), field=FieldSpec(8))
        return [(small, union), (other, narrow), (full, windows), (empty, union), (short, windows)]

    def test_batch_mixes_split_flat_and_empty_components(self, monkeypatch):
        # the components that halve would rank in systematic form unless made not to
        monkeypatch.setattr(linalg_ff, "_reduces", lambda *args: False)
        batch = self.mixed_batch()
        trees = record_trees(monkeypatch)
        alone = []
        for pair in batch:
            trees.clear()
            linalg_ff.verify_schemes([pair])
            alone.append(list(trees))
        trees.clear()
        split = count_splits(monkeypatch)
        got = linalg_ff.verify_schemes(batch)
        assert split[: len(batch)] == [False, True, True, False, True]
        assert got == [reference_verdicts(scheme, icp) for scheme, icp in batch]
        assert all(got[0] + got[1] + got[2]) and not any(got[3]) and not all(got[4])
        # the rank tree, then the exact tree over the short pair's dependent
        # sets; the empty scheme's columns are one class, which no node's set
        # lacks alone, so its sets need no exact test
        assert len(trees) == 2
        assert [len(tree) for tree in alone] == [1, 1, 1, 1, 2]
        # one tree: each depth's stack holds every pair's ranges at that depth
        for stacks, t in zip(trees, (0, 1)):
            each = [tree[t] for tree in alone if t < len(tree)]
            depths = max(map(len, each))
            assert stacks == [sum(s[d] for s in each if d < len(s)) for d in range(depths)]

    def test_batch_mixes_systematic_form_flat_and_empty_components(self, monkeypatch):
        # the same batch at the default: the components that would halve
        # rank in systematic form, so one Gauss-Jordan stack holds a matrix
        # per such component, one block stack each one's blocks, and the one
        # depth of the flat components follows
        batch = self.mixed_batch()
        trees = record_trees(monkeypatch)
        alone = []
        for pair in batch:
            trees.clear()
            linalg_ff.verify_schemes([pair])
            alone.append(list(trees))
        trees.clear()
        reduced = []
        real = linalg_ff._reduces

        def reduces(*args):
            reduced.append(real(*args))
            return reduced[-1]

        monkeypatch.setattr(linalg_ff, "_reduces", reduces)
        split = count_splits(monkeypatch)
        got = linalg_ff.verify_schemes(batch)
        assert split[: len(batch)] == [False, True, True, False, True] and reduced[:3] == [True] * 3
        assert got == [reference_verdicts(scheme, icp) for scheme, icp in batch]
        assert all(got[0] + got[1] + got[2]) and not any(got[3]) and not all(got[4])
        assert len(trees) == 2 and [len(tree) for tree in alone] == [1, 1, 1, 1, 2]
        (flat,), (gj, blocks), (gj_full, blocks_full), (empty,), (gj_short, blocks_short) = (
            tree[0] for tree in alone
        )
        assert gj == gj_full == gj_short == 1
        assert trees[0] == [3, blocks + blocks_full + blocks_short, flat + empty]
        # the exact test over the short pair's dependent sets alone
        assert trees[1] == alone[4][1]

    @pytest.mark.parametrize("wanted_dependent", [False, True])
    def test_dependent_columns_take_the_exact_test(self, wanted_dependent, monkeypatch):
        # user 1 lacks all four columns, and column 4 or its wanted column 1
        # is the sum of columns 2 and 3: it decodes iff the sum is column 4.
        # User 2 knows the sum and wants the other column, so it lacks three
        # independent columns and decodes without the exact test
        c2, c3 = np.array([0, 5, 7]), np.array([0, 9, 3])
        other, summed = (4, 1) if wanted_dependent else (1, 4)
        cols = {2: c2, 3: c3, other: np.array([1, 2, 4]), summed: c2 ^ c3}
        coeff = np.stack([cols[m] for m in (1, 2, 3, 4)], axis=1)
        scheme = TransmissionScheme(FieldSpec(8), (1, 2, 3, 4), coeff)
        users = (
            IcpUser(want=frozenset({1}), known=frozenset()),
            IcpUser(want=frozenset({other}), known=frozenset({summed})),
        )
        icp = IcpInstance(n_messages=4, users=users)
        trees = record_trees(monkeypatch)
        got = verify_scheme(scheme, icp)
        assert len(trees) == 2
        assert got == reference_verdicts(scheme, icp) == (not wanted_dependent, True)
        monkeypatch.undo()
        assert assert_matches_reference(scheme, icp) == got

    def test_exact_test_ranks_one_row_per_wanted_class(self, monkeypatch):
        # (12, 2, 2) with every component's last row dropped, so some sets'
        # lacked classes are dependent: the exact tree ranks each such set
        # once per class it wants, without that class, and reads the rank
        # with it from the first tree
        plan = assemble(MaccInstance(12, 12, 2, 2), mode="quadratic")
        pairs = [(replace(p.scheme, coefficients=p.scheme.coefficients[:-1]), p.icp) for p in plan.pairs]
        calls = []
        real = linalg_ff._tree_ranks

        def ranks(gf, a, lacked, offset, n_tx):
            calls.append((lacked.copy(), offset, real(gf, a, lacked, offset, n_tx)))
            return calls[-1][2]

        monkeypatch.setattr(linalg_ff, "_tree_ranks", ranks)
        got = linalg_ff.verify_schemes(pairs)
        assert got == [reference_verdicts(scheme, icp) for scheme, icp in pairs]
        (lacked, offset, rank), (exact, start, _) = calls
        # per pair, its (dependent set, wanted class) pairs: a class of
        # identical columns is wanted where a node's message is its only
        # member the set lacks
        wanted = []
        for (scheme, icp), lo in zip(pairs, offset):
            _, cls = np.unique(scheme.coefficients, axis=1, return_inverse=True)
            order = np.array(scheme.message_order) - 1
            col = {m: c for c, m in enumerate(order.tolist())}
            lacks = ~icp.known_rows[:, order]
            found = set()
            for row, msg in zip(icp.node_row.tolist(), icp.node_msg.tolist()):
                s = lo + row
                if rank[s] < lacked[s].sum() and msg in col:
                    c = cls.ravel()[col[msg]]
                    if lacks[row, cls.ravel() == c].sum() == 1:
                        found.add((row, c))
            wanted.append(len(found))
        assert np.diff(start).tolist() == wanted
        assert len(exact) == sum(wanted) == 96
        # each row is some set's lacked classes less one
        inside = ~(exact[:, None] & ~lacked[None]).any(axis=2)
        one_less = lacked.sum(axis=1)[None] - exact.sum(axis=1)[:, None] == 1
        assert (inside & one_less).any(axis=1).all()

    def test_batch_over_two_fields_refused(self):
        icp = realize_single(StructuredIcpDesc(1, 1, 2))
        schemes = [encode(icp, greedy_coloring(icp), field=FieldSpec(w)) for w in (8, 16)]
        with pytest.raises(ParameterError):
            linalg_ff.verify_schemes([(scheme, icp) for scheme in schemes])
        assert linalg_ff.verify_schemes([]) == []

    def test_padding_unequal_known_sets(self):
        # known sets of sizes 0, 1 and 3 leave 4, 3 and 1 unknown columns
        users = (
            IcpUser(want=frozenset({1}), known=frozenset()),
            IcpUser(want=frozenset({2}), known=frozenset({1})),
            IcpUser(want=frozenset({4}), known=frozenset({1, 2, 3})),
            IcpUser(want=frozenset({2, 3}), known=frozenset({4})),
        )
        icp = IcpInstance(n_messages=4, users=users)
        coeff = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 7]], dtype=np.uint32)
        scheme = TransmissionScheme(
            field=FieldSpec(4), message_order=(1, 2, 3, 4), coefficients=coeff
        )
        assert assert_matches_reference(scheme, icp) == (False, True, True, False)

    def test_wants_outside_order_repeats_and_zero_rows(self):
        users = (
            IcpUser(want=frozenset({1}), known=frozenset({2})),
            IcpUser(want=frozenset({3}), known=frozenset({1})),
        )
        icp = IcpInstance(n_messages=3, users=users)
        scheme = TransmissionScheme(
            field=FieldSpec(8),
            message_order=(2, 5, 1),
            coefficients=np.array([[3, 0, 4]], dtype=np.uint32),
        )
        assert assert_matches_reference(scheme, icp) == (True, False)
        empty = TransmissionScheme(
            field=FieldSpec(8),
            message_order=(2, 5, 1),
            coefficients=np.zeros((0, 3), dtype=np.uint32),
        )
        assert assert_matches_reference(empty, icp) == (False, False)
        # a message listed twice is read at its last column
        twice = TransmissionScheme(
            field=FieldSpec(8),
            message_order=(1, 2, 1),
            coefficients=np.array([[0, 0, 5]], dtype=np.uint32),
        )
        assert assert_matches_reference(twice, icp) == (True, False)

    @pytest.mark.parametrize("w", [4, 8, 16])
    @pytest.mark.parametrize("desc", [UnionIcpDesc(2, 1, 2), UnionIcpDesc(4, 2, 3)])
    def test_union_minus_one_row(self, desc, w):
        icp = realize_union_split(desc, 1)
        scheme = encode(icp, divisor_coloring(desc, desc.k), field=FieldSpec(w))
        assert all(assert_matches_reference(scheme, icp))
        seen = set()
        for drop in range(scheme.n_transmissions):
            short = TransmissionScheme(
                field=scheme.field,
                message_order=scheme.message_order,
                coefficients=np.delete(scheme.coefficients, drop, axis=0),
            )
            # the reference helper also runs the primal and the dual side alone
            seen.update(assert_matches_reference(short, icp))
        assert False in seen

    def test_pivot_counts_diverge(self):
        # unit rows e1, e2 zero the kernel basis at messages 1 and 2, so the
        # first set's first two known columns take no pivot while the second
        # set's do: the sets reach later columns at different pivot counts
        users = (
            IcpUser(want=frozenset({9}), known=frozenset({1, 2, 3, 4, 5})),
            IcpUser(want=frozenset({10}), known=frozenset({3, 4, 6, 7, 8})),
        )
        icp = IcpInstance(n_messages=10, users=users)
        seen = set()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rest = rng.integers(0, 256, size=(int(rng.integers(1, 6)), 10))
            coeff = np.vstack([np.eye(10, dtype=np.int64)[:2], rest])
            scheme = TransmissionScheme(FieldSpec(8), tuple(range(1, 11)), coeff)
            seen.update(assert_matches_reference(scheme, icp))
        assert seen == {False, True}

    @pytest.mark.parametrize("w", [1, 8, 16])
    def test_unequal_pivot_counts_in_one_stack(self, w, monkeypatch):
        # the components' ranges share different numbers of columns, so in one
        # stack a matrix hands on columns at positions where another takes
        # pivots; the last scheme lacks a row, so some users fail. The tree
        # is kept where a component would rank in systematic form
        monkeypatch.setattr(linalg_ff, "_reduces", lambda *args: False)
        rng = np.random.default_rng(w)
        batch = []
        for icp, short in [
            (windows_instance(24, 3, 4), 0),
            (realize_union_split(UnionIcpDesc(4, 2, 3), 1), 0),
            (windows_instance(16, 2, 9), 1),
        ]:
            coloring = greedy_coloring(icp)
            color = np.zeros(icp.n_messages, dtype=np.intp)
            color[icp.node_msg] = np.array(coloring.colors) - 1
            gen = rng.integers(0, 1 << w, size=(local_count(icp, coloring) - short, coloring.n_colors))
            order = tuple(range(1, icp.n_messages + 1))
            batch.append((TransmissionScheme(FieldSpec(w), order, gen[:, color]), icp))
        crossed = []
        real = linalg_ff._eliminate

        def recorded(gf, a, counts, top):
            # a column is nonzero if it is on a row the matrix still has free
            free = np.arange(a.shape[2]) >= top[:, None]
            nonzero = ((a != 0) & free[:, None, :]).any(axis=2)
            took = real(gf, a, counts, top)
            for e, f in combinations(range(len(a)), 2):
                lo, hi = sorted((counts[e], counts[f]))
                fewer = e if counts[e] == lo else f
                pivots = took[e + f - fewer, lo:hi]
                crossed.append(bool((nonzero[fewer, lo:hi] & pivots).any()))
            return took

        monkeypatch.setattr(linalg_ff, "_eliminate", recorded)
        got = linalg_ff.verify_schemes(batch)
        assert any(crossed)
        assert got == [reference_verdicts(scheme, icp) for scheme, icp in batch]
        assert True in sum(got, ()) and False in sum(got, ())

    @pytest.mark.parametrize("w", sorted(_DEFAULT_POLY))
    def test_narrow_tables_match_mul(self, w):
        assert_tables_match_reference(FieldSpec(w))

    # both irreducible, but x generates neither multiplicative group (in
    # GF(2^9) under 0x203 it has order 73), so the log tables need another
    @pytest.mark.parametrize("spec", [FieldSpec(8, 0x11B), FieldSpec(9, 0x203)])
    def test_tables_where_x_is_not_a_generator(self, spec):
        assert_tables_match_reference(spec)


def assert_tables_match_reference(spec: FieldSpec) -> None:
    """The product table (w <= 8) and ``mul`` against ``ref_mul`` on every
    pair, or on 4000 sampled pairs with zeros above w = 8, and every inverse."""
    gf = spec.tables()
    if spec.w <= 8:
        a, b = np.meshgrid(np.arange(gf.size), np.arange(gf.size), indexing="ij")
    else:
        rng = np.random.default_rng(spec.w)
        a = np.concatenate([[0, 0, 1], rng.integers(0, gf.size, 4000)])
        b = np.concatenate([[0, 5, 0], rng.integers(0, gf.size, 4000)])
    want = np.array(
        [ref_mul(int(x), int(y), spec.w, spec.poly) for x, y in zip(a.flat, b.flat)]
    ).reshape(a.shape)
    if spec.w <= 8:
        assert gf.product.dtype == np.uint8
        assert (gf.product == want).all()
    got = gf.mul(a, b)
    assert got.dtype == gf.dtype
    assert (got == want).all()
    nonzero = np.arange(1, gf.size)
    inverse = gf.inv(nonzero)
    assert all(ref_mul(int(x), int(y), spec.w, spec.poly) == 1 for x, y in zip(nonzero, inverse))
    assert gf.vinv[0] == 0
    with pytest.raises(ZeroDivisionError):
        gf.inv([1, 0])

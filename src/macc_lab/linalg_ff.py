"""GF(2^w) arithmetic, MDS precoding, and decodability checks.

Fields are described by a :class:`FieldSpec` (extension degree ``w`` and the
reduction polynomial). Arithmetic runs on numpy arrays through log/antilog
tables built around a multiplicative generator; the generator is searched for
and verified at table-build time, so a non-primitive polynomial fails fast
instead of corrupting results. Addition is XOR throughout (characteristic 2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .coloring import Coloring, is_proper, local_count
from .errors import ParameterError
from .icp import IcpInstance, node_data

# x^w + ... + 1, one commonly used irreducible polynomial per degree
_DEFAULT_POLY = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}


@dataclass(frozen=True)
class FieldSpec:
    """A binary extension field GF(2^w), 1 <= w <= 16."""

    w: int = 8
    poly: int = dc_field(default=0)

    def __post_init__(self) -> None:
        if not (1 <= self.w <= 16):
            raise ParameterError(f"field degree must lie in [1, 16], got {self.w}")
        if self.poly == 0:
            object.__setattr__(self, "poly", _DEFAULT_POLY[self.w])
        if self.poly >> self.w != 1 or self.poly.bit_length() != self.w + 1:
            raise ParameterError(
                f"reduction polynomial 0x{self.poly:X} has wrong degree for w={self.w}"
            )

    @property
    def size(self) -> int:
        return 1 << self.w

    def tables(self) -> "_GF":
        return _tables(self.w, self.poly)


def field_for(n_symbols: int) -> FieldSpec:
    """Smallest default field whose size strictly exceeds ``n_symbols``."""
    if n_symbols < 256:
        return FieldSpec(8)
    if n_symbols < 65536:
        return FieldSpec(16)
    raise ParameterError(f"no default field fits {n_symbols} symbols")


class _GF:
    """Log/antilog tables plus vectorized multiply over GF(2^w)."""

    def __init__(self, w: int, poly: int):
        self.w = w
        self.poly = poly
        self.size = 1 << w
        self.order = self.size - 1
        exp, log = self._build_tables()
        self.exp = exp
        self.log = log

    def _poly_mul(self, a: int, b: int) -> int:
        res = 0
        while b:
            if b & 1:
                res ^= a
            b >>= 1
            a <<= 1
            if a >> self.w:
                a ^= self.poly
        return res

    def _build_tables(self):
        candidates = range(2, self.size) if self.size > 2 else (1,)
        for g in candidates:
            seen = bytearray(self.size)
            exp = np.zeros(2 * self.order, dtype=np.uint32)
            x = 1
            ok = True
            for e in range(self.order):
                if seen[x]:
                    ok = False
                    break
                seen[x] = 1
                exp[e] = x
                x = self._poly_mul(x, g)
            if ok and x == 1:
                exp[self.order : 2 * self.order] = exp[: self.order]
                log = np.zeros(self.size, dtype=np.int64)
                log[exp[: self.order]] = np.arange(self.order)
                return exp, log
        raise ParameterError(
            f"0x{self.poly:X} does not define GF(2^{self.w}); no generator found"
        )

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.uint32)
        b = np.asarray(b, dtype=np.uint32)
        out = self.exp[self.log[a] + self.log[b]]
        zero = (a == 0) | (b == 0)
        if zero.ndim == 0:
            return np.uint32(0) if zero else out
        return np.where(zero, np.uint32(0), out)

    def inv(self, a):
        a = np.asarray(a, dtype=np.uint32)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self.exp[self.order - self.log[a]]

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return int(self.exp[(int(self.log[a]) * e) % self.order])


@lru_cache(maxsize=8)
def _tables(w: int, poly: int) -> _GF:
    return _GF(w, poly)


def mds_generator(rows: int, cols: int, field: FieldSpec) -> np.ndarray:
    """Vandermonde generator: entry (r, c) is alpha_c^r with distinct points.

    Every square submatrix formed from ``rows`` of its columns is itself a
    Vandermonde matrix in distinct points, hence invertible, which is the MDS
    property the decoding argument needs. Requires ``rows <= cols`` and a
    field with at least ``cols`` elements.
    """
    if rows < 1 or cols < 1:
        raise ParameterError("generator dimensions must be positive")
    if rows > cols:
        raise ParameterError(f"rows ({rows}) must not exceed cols ({cols})")
    if cols > field.size:
        raise ParameterError(
            f"GF(2^{field.w}) has only {field.size} elements, need {cols} distinct points"
        )
    gf = field.tables()
    points = np.arange(cols, dtype=np.uint32)
    out = np.empty((rows, cols), dtype=np.uint32)
    out[0] = 1
    for r in range(1, rows):
        out[r] = gf.mul(out[r - 1], points)
    return out


def rank(matrix: np.ndarray, field: FieldSpec) -> int:
    """Rank of an integer matrix over GF(2^w)."""
    rr = _Rref(np.asarray(matrix, dtype=np.uint32), field)
    return rr.rank


class _Rref:
    """Reduced row echelon form over GF(2^w) with span-membership queries."""

    def __init__(self, matrix: np.ndarray, field: FieldSpec):
        gf = field.tables()
        m = np.array(matrix, dtype=np.uint32, copy=True)
        n_rows, n_cols = m.shape if m.ndim == 2 else (0, 0)
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
        self._pivot_row = {c: i for i, c in enumerate(pivots)}
        self.rank = r

    def residual(self, v: np.ndarray) -> np.ndarray:
        v = np.array(v, dtype=np.uint32, copy=True)
        for r, c in enumerate(self.pivots):
            if v[c]:
                v ^= self.gf.mul(v[c], self.rows[r])
        return v

    def contains(self, v: np.ndarray) -> bool:
        return not self.residual(v).any()

    def contains_unit(self, j: int) -> bool:
        """Span membership of the j-th unit vector.

        In the fully reduced form the only candidate combination is the
        pivot row of column j, so membership means that row is e_j itself.
        """
        r = self._pivot_row.get(j)
        if r is None:
            return False
        return int(np.count_nonzero(self.rows[r])) == 1


@dataclass(frozen=True, eq=False)
class TransmissionScheme:
    """A batch of coded transmissions over one instance.

    ``coefficients[r, c]`` multiplies the message at ``message_order[c]`` in
    transmission ``r``. ``split_factor`` records how many equal parts each
    message was cut into before coding (the scheme's symbols are that
    fraction of a message).
    """

    field: FieldSpec
    message_order: tuple[int, ...]
    coefficients: np.ndarray
    split_factor: int = 1

    @property
    def n_transmissions(self) -> int:
        return int(self.coefficients.shape[0])

    def to_json(self) -> str:
        width = 2 if self.field.w <= 8 else 4
        rows = [
            "".join(format(int(v), f"0{width}x") for v in row)
            for row in self.coefficients
        ]
        return json.dumps(
            {
                "field": {"w": self.field.w, "poly": self.field.poly},
                "message_order": list(self.message_order),
                "split_factor": self.split_factor,
                "rows": rows,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "TransmissionScheme":
        data = json.loads(text)
        spec = FieldSpec(w=data["field"]["w"], poly=data["field"]["poly"])
        width = 2 if spec.w <= 8 else 4
        order = tuple(data["message_order"])
        rows = data["rows"]
        coeff = np.zeros((len(rows), len(order)), dtype=np.uint32)
        for r, row in enumerate(rows):
            coeff[r] = [int(row[i : i + width], 16) for i in range(0, len(row), width)]
        return cls(
            field=spec,
            message_order=order,
            coefficients=coeff,
            split_factor=data["split_factor"],
        )


def encode(
    icp: IcpInstance,
    coloring: Coloring,
    field: FieldSpec | None = None,
    n_rows: int | None = None,
) -> TransmissionScheme:
    """Turn a proper coloring into MDS-precoded transmissions.

    Each color class aggregates the messages its nodes want; the generator
    mixes the ``t`` aggregates into ``local_count`` rows (or ``n_rows`` when a
    fixed row count is requested, e.g. to realize a stated rate exactly).
    Column ``c`` of the result carries, for each message, the XOR of the
    generator entries of every node wanting it.
    """
    if not is_proper(icp, coloring):
        raise ParameterError("refusing to encode an improper coloring")
    lc = local_count(icp, coloring)
    if n_rows is None:
        n_rows = lc
    elif n_rows < lc:
        raise ParameterError(
            f"{n_rows} rows cannot cover closed sets seeing {lc} colors"
        )
    t = coloring.n_colors
    if n_rows > t:
        raise ParameterError(f"row count {n_rows} exceeds palette size {t}")
    if field is None:
        field = field_for(t)
    gen = mds_generator(n_rows, t, field)
    nd = node_data(icp)
    coeff = np.zeros((n_rows, icp.n_messages), dtype=np.uint32)
    cols = np.asarray(coloring.colors, dtype=np.int64) - 1
    for v in range(nd.n_nodes):
        coeff[:, nd.node_msg[v]] ^= gen[:, cols[v]]
    # read-only, so a verdict checked against these coefficients stays true
    coeff.setflags(write=False)
    return TransmissionScheme(
        field=field,
        message_order=tuple(range(1, icp.n_messages + 1)),
        coefficients=coeff,
    )


def can_decode(scheme: TransmissionScheme, icp: IcpInstance, user: int) -> bool:
    """True iff ``user`` can recover every message it wants.

    Equivalent to: after zeroing the user's known coordinates in every
    transmission, each wanted unit vector lies in the row span. Implemented
    on the unknown coordinates only, which is the same span test.
    """
    if not (1 <= user <= len(icp.users)):
        raise ParameterError(f"user must lie in [1, {len(icp.users)}], got {user}")
    u = icp.users[user - 1]
    return _decodable(scheme, u.known, [u.want])[0]


def _decodable(
    scheme: TransmissionScheme, known: frozenset, wants: list[frozenset]
) -> list[bool]:
    """One elimination over the columns outside ``known``; per want set,
    whether every wanted message's unit vector lies in the row span."""
    order = scheme.message_order
    unknown = [c for c, m in enumerate(order) if m not in known]
    rr = _Rref(scheme.coefficients[:, unknown], scheme.field)
    pos = {order[c]: j for j, c in enumerate(unknown)}
    return [all(m in pos and rr.contains_unit(pos[m]) for m in want) for want in wants]


def verify_scheme(scheme: TransmissionScheme, icp: IcpInstance) -> tuple[bool, ...]:
    """Per-user decodability, sharing elimination work between users with the
    same known set (structured instances have few distinct ones)."""
    wants: dict[frozenset, list[frozenset]] = {}
    for u in icp.users:
        wants.setdefault(u.known, []).append(u.want)
    verdicts = {known: iter(_decodable(scheme, known, w)) for known, w in wants.items()}
    return tuple(next(verdicts[u.known]) for u in icp.users)

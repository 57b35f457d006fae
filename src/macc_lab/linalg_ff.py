"""GF(2^w) arithmetic, MDS precoding, and decodability checks.

Fields are described by a :class:`FieldSpec` (extension degree ``w`` and the
reduction polynomial); building its tables rejects a reducible polynomial, so
it fails fast instead of corrupting results. Every multiply and inverse reads
one table family per width, after Plank, Greenan & Miller (FAST 2013): a full
``2^w x 2^w`` ``uint8`` product table for ``w <= 8``, and above that
``uint16`` antilogs at sums of ``int32`` logs, where the log of 0 points into
a run of zeros. Addition is XOR throughout (characteristic 2).

Decodability is one batched elimination per scheme and instance, over every
distinct known set at once, stacked into one 3-D array of field elements. It
runs on one of two exactly equivalent sides of the rank-nullity duality
(a row span is the annihilator of the kernel, over any field). The primal
side reduces the transmissions on a set's unknown columns and asks whether
each wanted unit vector is in their row span. The dual side takes a basis
``B`` of the kernel of the ``r x n`` coefficients from one :class:`_Rref`,
reduces ``B``'s rows at the known columns and asks whether each wanted
column's row of ``B`` is in their span. :func:`verify_cells` models each
side's work in table cells, and :func:`verify_scheme` takes the cheaper one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .coloring import Coloring, is_proper, local_count
from .errors import ParameterError
from .icp import IcpInstance

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
    """Lookup tables over GF(2^w) and the one multiply and inverse that read
    them; elements are ``dtype`` integers and ``vinv`` holds every inverse,
    with 0 at 0.

    For ``w <= 8`` every product sits in a ``2^w x 2^w`` table. Above that a
    product is the antilog of a sum of two logs, and the log of 0 points into
    a run of zeros past every sum of two nonzero logs, so a product with 0
    reads 0 without a mask.
    """

    def __init__(self, w: int, poly: int):
        if not _irreducible(w, poly):
            raise ParameterError(f"0x{poly:X} is reducible, so it does not define GF(2^{w})")
        self.w = w
        self.size = 1 << w
        order = self.size - 1
        elements = np.arange(self.size, dtype=np.uint32)
        if w <= 8:
            self.dtype = np.uint8
            product = _products(elements[:, None], elements[None, :], w, poly)
            self.product = product.astype(np.uint8)
            self.vinv = np.argmax(self.product == 1, axis=1).astype(np.uint8)
            return
        self.dtype = np.uint16
        for g in range(2, self.size):
            # g^0 .. g^order, doubling the run each step: the next run is the
            # last one times g^n, read from a multiply-by-g^n table that squares
            times = _products(elements, np.uint32(g), w, poly)
            exp = np.ones(1, dtype=np.uint32)
            while len(exp) < self.size:
                exp = np.concatenate([exp, times[exp]])
                times = times[times]
            if np.count_nonzero(exp[:order] == 1) == 1:
                break
        self.zlog = np.full(self.size, 2 * order - 1, dtype=np.int32)
        self.zlog[exp[:order]] = np.arange(order)
        self.zexp = np.zeros(4 * order - 1, dtype=np.uint16)
        self.zexp[: 2 * order - 1] = exp[np.arange(2 * order - 1) % order]
        self.vinv = np.zeros(self.size, dtype=np.uint16)
        self.vinv[exp[:order]] = exp[order:0:-1]

    def mul(self, a, b) -> np.ndarray:
        """Broadcast product of two integer arrays or scalars of field elements."""
        a = np.asarray(a, self.dtype)
        b = np.asarray(b, self.dtype)
        if self.w <= 8:
            # one flat gather is about twice as fast as indexing by two arrays
            return self.product.ravel().take((a.astype(np.uint16) << self.w) | b)
        return self.zexp[self.zlog[a] + self.zlog[b]]

    def inv(self, a) -> np.ndarray:
        a = np.asarray(a, self.dtype)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self.vinv[a]


def _products(a: np.ndarray, b: np.ndarray, w: int, poly: int) -> np.ndarray:
    """Broadcast products of ``uint32`` arrays without tables: shift-and-add
    over the bits of ``b``, reducing ``a * x^k`` by the polynomial as it grows."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint32)
    for k in range(w):
        out ^= ((b >> k) & 1) * a
        a = a << 1
        a ^= (a >> w) * np.uint32(poly)
    return out


def _irreducible(w: int, poly: int) -> bool:
    """Whether no polynomial of degree 1 to ``w // 2`` divides ``poly``: long
    division by all of them at once, top bit first."""
    div = np.arange(2, 2 << w // 2, dtype=np.int64)
    deg = np.frexp(div)[1] - 1
    rem = np.full(len(div), poly, dtype=np.int64)
    for k in range(w, 0, -1):
        lead = ((rem >> k) & 1) * (deg <= k)
        rem ^= lead * (div << np.maximum(k - deg, 0))
    return bool(rem.all())


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
    """Rank of an integer matrix over GF(2^w); an entry outside the field
    raises :class:`ParameterError`."""
    return _Rref(matrix, field).rank


def _check_entries(values: np.ndarray, field: FieldSpec, what: str) -> None:
    """:class:`ParameterError` unless ``values`` are integers in ``[0, field.size)``."""
    if not np.issubdtype(values.dtype, np.integer):
        raise ParameterError(f"{what} must be integers, got {values.dtype}")
    if values.size and not (0 <= values.min() and values.max() < field.size):
        raise ParameterError(
            f"{what} must lie in [0, {field.size}) for GF(2^{field.w}), "
            f"got [{values.min()}, {values.max()}]"
        )


class _Rref:
    """Reduced row echelon form over GF(2^w) with span-membership queries and
    a kernel basis."""

    def __init__(self, matrix: np.ndarray, field: FieldSpec):
        gf = field.tables()
        m = np.asarray(matrix)
        _check_entries(m, field, "matrix entries")
        m = m.astype(gf.dtype)
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
        self.rank = r

    def residual(self, v: np.ndarray) -> np.ndarray:
        v = np.array(v, dtype=self.gf.dtype)
        for r, c in enumerate(self.pivots):
            if v[c]:
                v ^= self.gf.mul(v[c], self.rows[r])
        return v

    def contains(self, v: np.ndarray) -> bool:
        return not self.residual(v).any()

    def kernel(self) -> np.ndarray:
        """An ``n x (n - rank)`` basis of the null space: per free column
        ``f``, a 1 at ``f`` and, on the pivot columns, the pivot rows' entries
        at ``f`` (their own negatives in characteristic 2)."""
        pivots = np.array(self.pivots, dtype=np.intp)
        is_free = np.ones(self.rows.shape[1], dtype=bool)
        is_free[pivots] = False
        free = np.flatnonzero(is_free)
        basis = np.zeros((len(is_free), len(free)), dtype=self.gf.dtype)
        basis[free, np.arange(len(free))] = 1
        basis[pivots] = self.rows[:, free]
        return basis


@dataclass(frozen=True, eq=False)
class TransmissionScheme:
    """A batch of coded transmissions over one instance.

    ``coefficients[r, c]`` multiplies the message at ``message_order[c]`` in
    transmission ``r``. ``split_factor`` records how many equal parts each
    message was cut into before coding (the scheme's symbols are that
    fraction of a message). Coefficients outside ``[0, field.size)``, a
    non-integer or non-2-D array, or a column count other than
    ``len(message_order)`` raise :class:`ParameterError`.
    """

    field: FieldSpec
    message_order: tuple[int, ...]
    coefficients: np.ndarray
    split_factor: int = 1

    def __post_init__(self) -> None:
        coeff = np.asarray(self.coefficients)
        if coeff.ndim != 2 or coeff.shape[1] != len(self.message_order):
            raise ParameterError(
                f"coefficients must be a matrix with one column per message "
                f"({len(self.message_order)}), got shape {coeff.shape}"
            )
        _check_entries(coeff, self.field, "coefficients")

    @property
    def n_transmissions(self) -> int:
        return int(self.coefficients.shape[0])

    def to_json(self) -> str:
        # big-endian bytes: two hex digits per coefficient up to w = 8, four above
        coeff = self.coefficients.astype(">u1" if self.field.w <= 8 else ">u2")
        rows = [row.tobytes().hex() for row in coeff]
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
        for row in rows:
            if not (isinstance(row, str) and re.fullmatch(f"[0-9a-fA-F]{{{width * len(order)}}}", row)):
                raise ParameterError(
                    f"every row needs {len(order)} coefficients of {width} hex digits, got {row!r}"
                )
        coeff = np.frombuffer(bytes.fromhex("".join(rows)), dtype=f">u{width // 2}")
        return cls(
            field=spec,
            message_order=order,
            coefficients=coeff.astype(np.int64).reshape(len(rows), len(order)),
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
    coeff = np.zeros((n_rows, icp.n_messages), dtype=np.uint32)
    cols = np.asarray(coloring.colors, dtype=np.int64) - 1
    for v in range(icp.n_nodes):
        coeff[:, icp.node_msg[v]] ^= gen[:, cols[v]]
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
    on the unknown coordinates only, which is the same span test, as
    :func:`verify_scheme` on the user alone.
    """
    if not (1 <= user <= len(icp.users)):
        raise ParameterError(f"user must lie in [1, {len(icp.users)}], got {user}")
    alone = IcpInstance(n_messages=icp.n_messages, users=(icp.users[user - 1],))
    return verify_scheme(scheme, alone)[0]


def verify_scheme(scheme: TransmissionScheme, icp: IcpInstance) -> tuple[bool, ...]:
    """Per-user decodability: one batched elimination over the instance's
    distinct known sets (structured instances have few), on the side of the
    rank-nullity duality that :func:`verify_cells` models as cheaper."""
    known, wanted, cols = _columns(scheme, icp)
    primal_cost, dual_cost = _side_cells(scheme.n_transmissions, known, wanted, _STEP_CELLS)
    spans = _dual_spans if dual_cost < primal_cost else _unit_spans
    return _user_verdicts(icp, cols, spans(scheme, known, wanted))


def verify_cells(scheme: TransmissionScheme, icp: IcpInstance) -> tuple[int, int]:
    """Modelled work of :func:`verify_scheme` on ``icp``, in table cells, on
    the primal and on the dual side.

    Per distinct known set with ``k`` known, ``u`` unknown and ``h`` wanted
    columns, the primal side eliminates ``r`` rows over the unknown columns,
    ``r * u * min(r, u)`` cells. The dual side eliminates ``nu = n - r`` kernel
    rows (the kernel's dimension when the ``r x n`` coefficients have full row
    rank, as MDS-precoded rows do) over the known and wanted columns,
    ``nu * (k + h) * min(nu, k)`` cells, after one ``r x n`` elimination for
    the kernel basis. To pick its side, :func:`verify_scheme` also charges
    each side :data:`_STEP_CELLS` per elimination step, so a tiny component
    stays primal.
    """
    known, wanted, _ = _columns(scheme, icp)
    return _side_cells(scheme.n_transmissions, known, wanted, 0)


def _columns(scheme: TransmissionScheme, icp: IcpInstance):
    """``known[s, c]`` and ``wanted[s, c]``: whether known set ``s`` holds the
    message at column ``c`` and whether one of its nodes wants it; and each
    node's column, -1 for a message the scheme does not list. A message listed
    twice is read at its last column."""
    order = np.array(scheme.message_order, dtype=np.int64)
    inside = (order >= 1) & (order <= icp.n_messages)
    known = np.zeros((len(icp.known_rows), len(order)), dtype=bool)
    known[:, inside] = icp.known_rows[:, order[inside] - 1]
    col_of = np.full(icp.n_messages, -1, dtype=np.intp)
    np.maximum.at(col_of, order[inside] - 1, np.flatnonzero(inside))
    cols = col_of[icp.node_msg]
    listed = cols >= 0
    wanted = np.zeros_like(known)
    wanted[icp.node_row[listed], cols[listed]] = True
    return known, wanted, cols


# fixed cost of one elimination step (a dozen numpy calls) in cells of table
# arithmetic. Timing both sides on every component of `sweep --K-range 3:14`
# in all three modes, this value leaves on the primal side nearly every
# component the dual side would slow, and moves most of those it speeds up.
_STEP_CELLS = 1 << 12


def _side_cells(n_rows: int, known: np.ndarray, wanted: np.ndarray, step: int) -> tuple[int, int]:
    n_cols = known.shape[1]
    full = min(n_rows, n_cols)  # the rank of coefficients with full row rank
    nu = n_cols - full
    ks = known.sum(axis=1).tolist()
    hs = wanted.sum(axis=1).tolist()
    primal = sum(n_rows * (n_cols - k) * min(n_rows, n_cols - k) for k in ks)
    dual = sum(nu * (k + h) * min(nu, k) for k, h in zip(ks, hs)) + n_rows * n_cols * full
    return (
        primal + step * (n_cols - min(ks, default=n_cols)),
        dual + step * (n_cols + max(ks, default=0)),
    )


def _user_verdicts(icp: IcpInstance, cols: np.ndarray, spans: np.ndarray) -> tuple[bool, ...]:
    """Fold a side's ``spans[s, c]`` to users: a user decodes iff every node
    of it wants a listed message whose column its known set spans."""
    listed = cols >= 0
    ok = np.zeros(icp.n_nodes, dtype=bool)
    ok[listed] = spans[icp.node_row[listed], cols[listed]]
    failed = np.bincount(icp.node_user[~ok], minlength=len(icp.users))
    return tuple((failed == 0).tolist())


# cells one elimination step updates at once: a table lookup holds 11 to 14
# bytes per cell while it runs (index, numpy's intp copy of it, result), so
# this bounds the temporaries near 1 MB whatever the batch size
_UPDATE_CELLS = 1 << 16


def _eliminate(gf: _GF, a: np.ndarray, n_pivot_cols: int, reduced: bool = True) -> np.ndarray:
    """Gauss-Jordan in place on every ``(rows, width)`` matrix of the stack
    ``a`` at once, taking pivots only in the first ``n_pivot_cols`` columns;
    returns each matrix's pivot row per such column, -1 where none. With
    ``reduced`` False each step clears its column only from the lowest new
    pivot row of the batch down, which covers every row below each pivot:
    the result is an echelon form, not a reduced one.

    A pivot row is zero left of its column, so each step touches only the
    columns from there on. Zero padding columns never take a pivot.
    """
    n_sets, n_rows, width = a.shape
    n_pivots = np.zeros(n_sets, dtype=np.intp)
    pivot_row = np.full((n_sets, n_pivot_cols), -1, dtype=np.intp)
    row_ids = np.arange(n_rows)
    for c in range(n_pivot_cols):
        cand = (a[:, :, c] != 0) & (row_ids >= n_pivots[:, None])
        hit = np.flatnonzero(cand.any(axis=1))
        if len(hit) == 0:
            continue
        p = cand[hit].argmax(axis=1)
        r = n_pivots[hit]
        piv = a[hit, p, c:]
        piv = gf.mul(piv, gf.vinv[piv[:, :1]])
        a[hit, p, c:] = a[hit, r, c:]
        a[hit, r, c:] = piv
        # rows from here on hold every row below some pivot (and a few above)
        top = 0 if reduced else int(r.min())
        factor = a[hit, top:, c]
        factor[np.arange(len(hit)), r - top] = 0
        # a few sets at a time, so the temporaries stay small
        step = max(1, _UPDATE_CELLS // ((n_rows - top) * (width - c)))
        every = len(hit) == n_sets
        for lo in range(0, len(hit), step):
            part = slice(lo, lo + step)
            rows = part if every else hit[part]
            a[rows, top:, c:] ^= gf.mul(factor[part, :, None], piv[part, None, :])
        pivot_row[hit, c] = r
        n_pivots[hit] += 1
        if n_pivots.min() == n_rows:
            break
    return pivot_row


def _left_justify(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``mask``, the columns it holds in order, padded to the
    longest row with other columns, and which entries are real."""
    width = int(mask.sum(axis=1).max(initial=0))
    cols = np.argsort(~mask, axis=1, kind="stable")[:, :width]
    return cols, np.take_along_axis(mask, cols, axis=1)


def _stack(matrix: np.ndarray, cols: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """``out[s] = matrix[:, cols[s]]`` with the padding columns zeroed."""
    return np.where(valid[:, None, :], matrix[:, cols].transpose(1, 0, 2), matrix.dtype.type(0))


def _unit_spans(scheme: TransmissionScheme, known: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Primal side. ``out[s, c]`` for each ``wanted`` column ``c`` of set
    ``s`` (False elsewhere): whether the unit vector of column ``c`` lies in
    the row span of the transmissions restricted to the columns ``known[s]``
    leaves out.

    Each set's unknown columns sit left-justified in message order, all sets
    in one ``(sets, rows, width)`` stack. In the reduced form the unit vector
    of a pivot column is in the span iff its pivot row has no other nonzero
    entry, and a column without a pivot is never in it.
    """
    gf = scheme.field.tables()
    out = np.zeros(known.shape, dtype=bool)
    cols, valid = _left_justify(~known)
    if scheme.n_transmissions == 0 or cols.shape[1] == 0:
        return out
    a = _stack(scheme.coefficients.astype(gf.dtype), cols, valid)
    pivot_row = _eliminate(gf, a, cols.shape[1])
    alone = np.count_nonzero(a, axis=2) == 1
    unit = (pivot_row >= 0) & np.take_along_axis(alone, np.maximum(pivot_row, 0), axis=1)
    np.put_along_axis(out, cols, unit & valid, axis=1)
    return out & wanted


def _dual_spans(scheme: TransmissionScheme, known: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Dual side of :func:`_unit_spans`, with the same result.

    With ``B`` a basis of the kernel of the coefficients ``C``, the unit
    vector of an unknown column ``c`` lies in the row span of ``C``'s unknown
    columns iff row ``c`` of ``B`` lies in the row span of ``B``'s known rows:
    over any field a row span is the annihilator of the kernel, and the
    kernel of ``C`` on the unknown columns is ``{Bz : B[known] z = 0}``.

    Each set stacks ``B``'s known rows left-justified, then its wanted rows,
    as columns of one ``(sets, nu, width)`` stack. Pivots are taken in the
    known columns only; a wanted column is then in their span iff it is zero
    below the set's pivots.
    """
    gf = scheme.field.tables()
    out = np.zeros(known.shape, dtype=bool)
    wcols, wvalid = _left_justify(wanted)
    if wcols.shape[1] == 0:
        return out
    basis = _Rref(scheme.coefficients, scheme.field).kernel().T
    kcols, kvalid = _left_justify(known)
    n_known = kcols.shape[1]
    a = _stack(basis, np.hstack([kcols, wcols]), np.hstack([kvalid, wvalid]))
    n_pivots = (_eliminate(gf, a, n_known, reduced=False) >= 0).sum(axis=1)
    below = np.arange(basis.shape[0]) >= n_pivots[:, None]
    spanned = ~((a[:, :, n_known:] != 0) & below[:, :, None]).any(axis=1)
    np.put_along_axis(out, wcols, spanned & wvalid, axis=1)
    return out

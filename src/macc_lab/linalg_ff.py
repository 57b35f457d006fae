"""GF(2^w) arithmetic, MDS precoding, and decodability checks.

Fields are described by a :class:`FieldSpec` (extension degree ``w`` and the
reduction polynomial); building its tables rejects a reducible polynomial, so
it fails fast instead of corrupting results. Every multiply and inverse reads
one table family per width, after Plank, Greenan & Miller (FAST 2013): a full
``2^w x 2^w`` ``uint8`` product table for ``w <= 8``, and above that
``uint16`` antilogs at sums of ``int32`` logs, where the log of 0 points into
a run of zeros. Addition is XOR throughout (characteristic 2).

Decodability asks, per distinct known set, whether each wanted unit vector
lies in the row span of the transmissions on the set's unknown columns.
:func:`encode` gives every node of one color the same generator column, so a
scheme's columns repeat, and the test runs on its distinct columns: for any
matrix, the unit vector of column ``m`` lies in the row span of the unknown
columns ``U`` iff ``m`` is the only column in ``U`` equal to it and the unit
vector of that column lies in the row span of the distinct columns in ``U``.
Structured known sets are cyclic windows that share most of those columns, so
:func:`verify_schemes` reduces them as a tree over ranges of consecutive sets:
each range eliminates once the columns all its sets lack and hands the result
to its halves, or to each of its sets where they would take few cells apiece.
One tree covers all schemes of a batch (a plan's components), and each depth
is one batched Gauss-Jordan over all its ranges: a stack of column-major
matrices, each holding the columns it eliminates, then those it hands on, then
a shared zero column, and each taking pivots only in its own first columns.
Pivot rows stay where they are found and are never normalised, since the span
test reads only which row is each column's pivot and which entries are zero.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from . import jsontext
from .coloring import Coloring, is_proper, local_count
from .errors import ParameterError, SizeCapError, as_int
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
        object.__setattr__(self, "w", as_int(self.w, "field degree w"))
        object.__setattr__(self, "poly", as_int(self.poly, "reduction polynomial poly"))
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
    """Rank of an integer matrix over GF(2^w); an entry outside the field, or
    an array that is not 2-D, raises :class:`ParameterError`."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ParameterError(f"rank needs a matrix, got shape {m.shape}")
    _check_entries(m, field, "matrix entries")
    gf = field.tables()
    free = np.ones((1, m.shape[0]), dtype=bool)
    _eliminate(gf, np.ascontiguousarray(m.T, dtype=gf.dtype)[None], np.array([m.shape[1]]), free)
    return int((~free).sum())


def _check_entries(values: np.ndarray, field: FieldSpec, what: str) -> None:
    """:class:`ParameterError` unless ``values`` are integers in ``[0, field.size)``."""
    if not np.issubdtype(values.dtype, np.integer):
        raise ParameterError(f"{what} must be integers, got {values.dtype}")
    if values.size and not (0 <= values.min() and values.max() < field.size):
        raise ParameterError(
            f"{what} must lie in [0, {field.size}) for GF(2^{field.w}), "
            f"got [{values.min()}, {values.max()}]"
        )


@dataclass(frozen=True, eq=False)
class TransmissionScheme:
    """A batch of coded transmissions over one instance.

    ``coefficients[r, c]`` multiplies the message at ``message_order[c]`` in
    transmission ``r``. ``split_factor`` records how many equal parts each
    message was cut into before coding (the scheme's symbols are that
    fraction of a message); it is stored as a Python ``int``. Coefficients
    outside ``[0, field.size)``, a non-integer or non-2-D array, a column
    count other than ``len(message_order)``, or a ``split_factor`` that is
    not a positive integer (numpy integers count, ``bool`` does not) raise
    :class:`ParameterError`, as does :meth:`from_json` for a document that
    lacks a key or holds a value of the wrong type.
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
        split = as_int(self.split_factor, "split_factor")
        if split < 1:
            raise ParameterError(f"split_factor must be a positive integer, got {split!r}")
        object.__setattr__(self, "split_factor", split)

    @property
    def n_transmissions(self) -> int:
        return int(self.coefficients.shape[0])

    def to_json(self) -> str:
        """The scheme as ``json.dumps(..., indent=2)`` text: its field, message
        order, split factor, and one hex string per transmission."""
        # big-endian bytes: two hex digits per coefficient up to w = 8, four above
        coeff = self.coefficients.astype(">u1" if self.field.w <= 8 else ">u2")
        return json.dumps({
            "field": {"w": self.field.w, "poly": self.field.poly},
            "message_order": list(self.message_order),
            "split_factor": self.split_factor,
            "rows": [row.tobytes().hex() for row in coeff],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TransmissionScheme":
        spec, order, split, rows = jsontext.fields(
            json.loads(text), "a scheme", field=dict, message_order=list, split_factor=int, rows=list
        )
        spec = FieldSpec(*jsontext.fields(spec, "a scheme's field", w=int, poly=int))
        width = 2 if spec.w <= 8 else 4
        order = tuple(as_int(m, "a scheme's message_order entry") for m in order)
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
            split_factor=split,
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
    # one row per message, XORed into by every node that wants it
    coeff = np.zeros((icp.n_messages, n_rows), dtype=np.uint32)
    np.bitwise_xor.at(coeff, icp.node_msg, gen.T[np.asarray(coloring.colors, dtype=np.intp) - 1])
    coeff = coeff.T
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
    if not (1 <= user <= icp.n_users):
        raise ParameterError(f"user must lie in [1, {icp.n_users}], got {user}")
    alone = IcpInstance(n_messages=icp.n_messages, users=(icp.users[user - 1],))
    return verify_scheme(scheme, alone)[0]


def verify_scheme(scheme: TransmissionScheme, icp: IcpInstance) -> tuple[bool, ...]:
    """Per-user decodability of one scheme: :func:`verify_schemes` on it alone."""
    return verify_schemes([(scheme, icp)])[0]


# the most exact-rank work one batch may need, in cells of the shape bound
# that ``verify_cells`` sums over its pairs; a batch above it is refused before
# its first elimination. At the limit a plan verifies in about 6 to 12 s on a
# 2-vCPU VM: (250, 250, 2, 6) and (300, 300, 100, 2) both sit at 9.3e11.
VERIFY_CELL_BUDGET = 10**12


def verify_schemes(pairs: list) -> list[tuple[bool, ...]]:
    """Per-user decodability of each ``(scheme, icp)`` pair, in order: one
    elimination tree over all pairs' distinct known sets (:func:`_tree_spans`),
    or consecutive trees of about :data:`_BATCH_CELLS` each for a larger
    batch. Schemes over two fields raise :class:`ParameterError`, and a batch
    whose summed :func:`verify_cells` exceed :data:`VERIFY_CELL_BUDGET`
    raises :class:`~.errors.SizeCapError` before any elimination."""
    if len({scheme.field for scheme, _ in pairs}) > 1:
        raise ParameterError("a batch of schemes must share one field")
    cells = sum(verify_cells(scheme, icp) for scheme, icp in pairs)
    if cells > VERIFY_CELL_BUDGET:
        raise SizeCapError(
            f"verifying this plan takes about {cells:.2e} cells of exact "
            f"elimination, above the budget of {VERIFY_CELL_BUDGET:.0e}"
        )
    # consecutive pairs share a tree while their running cells stay in one multiple
    ends = np.cumsum([len(icp.known_rows) * scheme.coefficients.size for scheme, icp in pairs])
    spans = []
    for run in np.split(np.arange(len(pairs)), np.flatnonzero(np.diff(ends // _BATCH_CELLS)) + 1):
        spans += _tree_spans([pairs[p] for p in run])
    return [_user_verdicts(icp, ok) for (_, icp), ok in zip(pairs, spans)]


def verify_cells(scheme: TransmissionScheme, icp: IcpInstance) -> int:
    """An upper bound, in table cells, on the exact verification work of
    ``scheme`` on ``icp``: ``r * n * min(r, n)`` per distinct known set, for
    ``r`` transmissions over ``n`` columns, as if each set eliminated every
    column on its own. :func:`verify_scheme` does less, on distinct columns,
    in a tree that shares elimination between overlapping sets."""
    r, n = scheme.coefficients.shape
    return len(icp.known_rows) * r * n * min(r, n)


def _columns(scheme: TransmissionScheme, icp: IcpInstance):
    """``known[s, c]``, whether known set ``s`` holds the message at column
    ``c``; and each node's column, -1 for a message the scheme does not list.
    A message listed twice is read at its last column."""
    order = np.array(scheme.message_order, dtype=np.int64)
    inside = (order >= 1) & (order <= icp.n_messages)
    known = np.zeros((len(icp.known_rows), len(order)), dtype=bool)
    known[:, inside] = icp.known_rows[:, order[inside] - 1]
    col_of = np.full(icp.n_messages, -1, dtype=np.intp)
    np.maximum.at(col_of, order[inside] - 1, np.flatnonzero(inside))
    return known, col_of[icp.node_msg]


def _user_verdicts(icp: IcpInstance, ok: np.ndarray) -> tuple[bool, ...]:
    """Fold node verdicts ``ok`` to users: a user decodes iff all its nodes do."""
    failed = np.bincount(icp.node_user[~ok], minlength=icp.n_users)
    return tuple((failed == 0).tolist())


# cells (known sets x rows x columns, summed over pairs) one elimination tree
# takes on, so its widest stacks stay near 1 MB; a step's fixed cost is small
# well before this, and one tree over (100, 2, 12)'s 38 pairs peaked 6 MB
# higher under tracemalloc (7.5 against 1.6 MiB)
_BATCH_CELLS = 1 << 23

# cells one elimination step updates at once, each a trailing block of a
# matrix's columns from the pivot column on: a table lookup holds 11 to 14
# bytes per cell while it runs (index, numpy's intp copy of it, result), so
# this bounds the temporaries near 1 MB whatever the batch size
_UPDATE_CELLS = 1 << 16


def _eliminate(gf: _GF, a: np.ndarray, counts: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Gauss-Jordan in place on every ``(columns, rows)`` matrix of the stack
    ``a`` at once, each taking pivots only in its first ``counts`` columns
    and only in the rows ``free`` marks, which it then clears from ``free``;
    returns each matrix's pivot row per column below ``counts.max()``, -1
    where none, as at or past its own count.

    A pivot row stays where it is found and is not normalised: column ``c``
    is cleared by ``a[:, c]`` times the inverse of the pivot entry. A free
    row is zero on every column already eliminated, so each step touches only
    the columns from ``c`` on. Zero padding columns never take a pivot.
    """
    n_sets, width, n_rows = a.shape
    pivot_row = np.full((n_sets, counts.max(initial=0)), -1, dtype=np.intp)
    for c in range(pivot_row.shape[1]):
        if not free.any():
            break
        cand = (a[:, c] != 0) & free & (counts > c)[:, None]
        hit = np.flatnonzero(cand.any(axis=1))
        if len(hit) == 0:
            continue
        p = cand[hit].argmax(axis=1)
        piv = a[hit, c:, p]
        factor = gf.mul(a[hit, c], gf.vinv[piv[:, :1]])
        factor[np.arange(len(hit)), p] = 0
        # a few sets at a time, so the temporaries stay small
        step = max(1, _UPDATE_CELLS // (n_rows * (width - c)))
        every = len(hit) == n_sets
        for lo in range(0, len(hit), step):
            part = slice(lo, lo + step)
            sets = part if every else hit[part]
            a[sets, c:] ^= gf.mul(piv[part, :, None], factor[part, None, :])
        pivot_row[hit, c] = p
        free[hit, p] = False
    return pivot_row


def _left_justify(mask: np.ndarray) -> np.ndarray:
    """Per row of ``mask``, the columns it holds in order, padded to the
    longest row with the last column."""
    counts = mask.sum(axis=1)
    e, c = np.nonzero(mask)
    cols = np.full((len(mask), counts.max(initial=0)), mask.shape[1] - 1, dtype=np.intp)
    cols[e, np.arange(len(e)) - np.repeat(np.cumsum(counts) - counts, counts)] = c
    return cols


# the fixed cost of one more depth of the elimination tree, in cells of
# table arithmetic: its gather, and a dozen numpy calls per elimination step.
# A component's tree halves every range iff eliminating each known set on its
# own would take more cells than this. Over the 1731 components of
# `sweep --K-range 3:14` in all three modes none does, and every component of
# the plan_large corners does.
_DEPTH_CELLS = 1 << 17


def _splits(n_rows: int, seen: np.ndarray) -> bool:
    """Whether :func:`_tree_spans` halves these known sets, and every range
    below, rather than hand each set on at once: iff there are two or more
    and eliminating each set's ``u`` lacked columns on its own, ``n_rows *
    min(n_rows, u) * u`` cells, would take more than :data:`_DEPTH_CELLS`.
    ``seen`` counts lacking sets as in :func:`_tree_spans`, over these sets.
    """
    u = np.diff(seen.sum(axis=1, dtype=np.intp))  # lacked columns per set
    return len(u) >= 2 and int((n_rows * np.minimum(n_rows, u) * u).sum()) > _DEPTH_CELLS


def _tree_spans(pairs: list) -> list[np.ndarray]:
    """Per ``(scheme, icp)`` pair, whether each node's wanted unit vector lies
    in the row span of the transmissions on the columns its set does not know.

    The test runs on each scheme's distinct columns. One sort of all pairs'
    columns, tagged with their pair, groups each pair's columns into classes
    of identical coefficient vectors, and a set lacks a class iff it lacks a
    member of it. For any matrix ``A`` and lacked columns ``U``, the unit
    vector of ``m`` lies in the row span of ``A[:, U]`` iff ``m`` is the only
    member of its class in ``U`` and the class's unit vector lies in the row
    span of the distinct columns present in ``U``: identical columns take
    equal entries in every combination of rows, and the rest is the same
    span test on fewer columns.

    That span test is a divide and conquer over ranges of consecutive sets,
    one root per pair. Each range runs Gauss-Jordan once on the columns all
    its sets lack that its parent left, and hands the reduced rows, on the
    columns some of its sets still lack, to its halves where :func:`_splits`
    halves the root, else to each of its sets. All ranges at one depth are one
    :func:`_eliminate` stack of ``(columns, rows)`` matrices, each gathered
    from its parent's by whole columns and left-justified: the columns it
    eliminates, those it hands on, then the zero column, which also pads it to
    the widest range plus one. Each range takes pivots only in its own
    eliminated columns, so where its handed-on columns sit another range may
    take pivots. Pairs are padded with zero rows and with columns every set
    knows (the last one for all), which take no pivot. An eliminated column
    never changes again, and rows never move, so a column's unit vector is in
    a set's span iff it has a pivot row that no pivot-free column on the
    set's path is nonzero in.
    """
    if not pairs:
        return []
    gf = pairs[0][0].field.tables()
    n_rows = max(scheme.n_transmissions for scheme, _ in pairs)
    col_off = np.cumsum([0] + [len(scheme.message_order) for scheme, _ in pairs])
    offset = np.cumsum([0] + [len(icp.known_rows) for _, icp in pairs]).tolist()
    n_sets = offset[-1]
    # every column of the batch as bytes behind its big-endian pair tag, so
    # sorting them keeps each pair's columns in its own block, class by class
    col = np.zeros((col_off[-1], n_rows), dtype=gf.dtype)
    for (scheme, _), lo, hi in zip(pairs, col_off, col_off[1:]):
        col[lo:hi, : scheme.n_transmissions] = scheme.coefficients.T
    pair = np.repeat(np.arange(len(pairs)), np.diff(col_off))
    keys = np.concatenate([pair.astype(">u4").view(np.uint8).reshape(-1, 4), col.view(np.uint8)], axis=1)
    by_class = np.argsort(keys.view(np.dtype((np.void, keys.shape[1]))).ravel())
    keys = keys[by_class]
    first = np.ones(len(keys), dtype=bool)  # whether a sorted column starts a class
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    before = np.concatenate([[0], np.cumsum(first)])  # classes before each sorted column
    # a pair's block is the same slice of the sorted and the unsorted columns
    local = before[1:] - 1 - before[col_off[pair]]
    class_of = np.empty_like(local)
    class_of[by_class] = local
    n_cols = int(local.max(initial=-1)) + 2
    # the distinct columns, then the one every set knows
    a = np.zeros((len(pairs), n_cols, n_rows), dtype=gf.dtype)
    reps = np.flatnonzero(first)
    a[pair[reps], local[reps]] = col[by_class[reps]]
    # the classes each set lacks; every set is a leaf once, and its row is
    # then overwritten with its spans
    out = np.zeros((n_sets, n_cols), dtype=bool)
    fold = []
    for p, (scheme, icp) in enumerate(pairs):
        lo, hi = col_off[p], col_off[p + 1]
        known, cols = _columns(scheme, icp)
        lacking = np.add.reduceat(
            ~known[:, by_class[lo:hi] - lo], np.flatnonzero(first[lo:hi]), axis=1, dtype=np.intp
        )
        out[offset[p] : offset[p + 1], : lacking.shape[1]] = lacking > 0
        listed = cols >= 0
        at = icp.node_row[listed], class_of[lo + cols[listed]]
        # a set never knows a message it wants, so a node's column is lacked,
        # and it must be the only lacked member of its class
        fold.append((listed, at, lacking[at] == 1))
    # seen[hi] - seen[lo]: how many of the sets lo..hi-1 lack each column
    seen = np.zeros((n_sets + 1, n_cols), dtype=np.min_scalar_type(n_sets))
    np.cumsum(out, axis=0, dtype=seen.dtype, out=seen[1:])
    halve = [_splits(scheme.n_transmissions, seen[lo : hi + 1])
             for (scheme, _), lo, hi in zip(pairs, offset, offset[1:])]
    # per range of the last depth: `a` its reduced rows, column by column: the
    # columns it eliminated, those it hands on, then the zero column; `hand`
    # their global columns and `done` which it eliminated; `free` the rows
    # holding no pivot; `path` each global column's pivot row, n_rows or -1
    # where it has none (yet); and `marks` the rows a pivot-free column is
    # nonzero in, plus row n_rows, so neither of those path entries reads
    # spanned. `keep` the entries of `ranges`, the ranges left to split
    ranges = list(zip(offset, offset[1:]))
    hand = np.broadcast_to(np.arange(n_cols, dtype=np.min_scalar_type(n_cols)), (len(pairs), n_cols))
    done = np.zeros((len(pairs), n_cols), dtype=bool)
    free = np.ones((len(pairs), n_rows), dtype=bool)
    path = np.full((len(pairs), n_cols), -1, dtype=np.min_scalar_type(-1 - n_rows))
    marks = np.zeros((len(pairs), n_rows + 1), dtype=bool)
    marks[:, n_rows] = True
    keep = np.arange(len(pairs))
    while ranges and n_sets:
        children = []
        for e, ((lo, hi), h) in enumerate(zip(ranges, halve)):
            cuts = (lo, (lo + hi) // 2, hi) if h else range(lo, hi + 1)
            children += [(e, x, y) for x, y in zip(cuts, cuts[1:])]
        parent, lo, hi = np.array(children).T
        parent = keep[parent]
        hand, free, path, marks = hand[parent], free[parent], path[parent], marks[parent]
        lack = np.where(done[parent], 0, seen[hi[:, None], hand] - seen[lo[:, None], hand])
        shared = lack == (hi - lo)[:, None]
        rest = (lack > 0) & ~shared
        rest[:, -1] = True  # the zero column, which also pads every range
        at = _left_justify(np.concatenate([shared, rest], axis=1)) % hand.shape[1]
        a, hand = a[parent[:, None], at], np.take_along_axis(hand, at, axis=1)
        counts = shared.sum(axis=1)
        prow = _eliminate(gf, a, counts, free)
        done = np.arange(a.shape[1]) < counts[:, None]
        width = prow.shape[1]
        pivot_free = (done[:, :width] & (prow < 0))[:, :, None]
        marks[:, :n_rows] |= np.bitwise_or.reduce(a[:, :width], axis=1, where=pivot_free) != 0
        np.put_along_axis(path, hand[:, :width], np.where(prow < 0, n_rows, prow), axis=1)
        leaf = hi - lo == 1
        out[lo[leaf]] = ~np.take_along_axis(marks[leaf], path[leaf], axis=1)
        keep = np.flatnonzero(~leaf)
        ranges = list(zip(lo[keep].tolist(), hi[keep].tolist()))
        halve = [True] * len(ranges)  # every range left lies below a halved root
    spans = []
    for (listed, (row, cls), alone), lo in zip(fold, offset):
        ok = np.zeros(len(listed), dtype=bool)
        ok[listed] = alone & out[lo + row, cls]
        spans.append(ok)
    return spans

"""GF(2^w) arithmetic, MDS precoding, and decodability checks.

A :class:`FieldSpec` names a field by its extension degree ``w`` alone: each
width has one reduction polynomial, :data:`_DEFAULT_POLY`, a primitive one,
so ``x`` generates the nonzero elements and its powers are the antilogs.
Every multiply reads one table family per width, after Plank, Greenan &
Miller (FAST 2013): a full ``2^w x 2^w`` ``uint8`` product table for ``w <=
8``, and above that ``uint16`` antilogs at sums of ``int32`` logs, where the
log of 0 points into a run of zeros. Every width has the logs, so a
Vandermonde generator is one antilog gather. Addition is XOR throughout
(characteristic 2).

Decodability asks, per distinct known set, whether each wanted unit vector
lies in the row span of the transmissions on the set's unknown columns.
:func:`encode` gives every node of one color the same generator column, so a
scheme's columns repeat, and the test runs on its distinct columns, found by
one sort per scheme: for any matrix, the unit vector of column ``m`` lies in
the row span of the unknown columns ``U`` iff ``m`` is the only column in
``U`` equal to it and the unit vector of that column lies in the row span of
the distinct columns in ``U``. On distinct columns it is a column-rank test
first: if they are linearly independent, as the MDS precoder makes them in a
correct plan, every unit vector on them lies in the row span.
:func:`verify_schemes` takes the ranks on one path, over runs of a batch (a
plan's components) cut by known sets x transmissions x distinct columns. One
Gauss–Jordan stack brings each scheme to systematic form, where a set's rank
is the count of pivot columns it lacks plus the rank of its block: the pivot
rows it knows, on its other lacked columns. A component hands each set its
block at once, or, where that would take many cells, ranks the blocks as a
tree over ranges of consecutive sets. Structured known sets are cyclic windows
that share most of their blocks, and each range eliminates once what all its
sets share. Each depth is one batched forward elimination over all its ranges.
Only a set whose unknown columns are dependent takes the exact test: a wanted
column is spanned iff the rank of the set's unknown columns drops without it.
The first tree has that rank, so a second tree, on the same systematic form,
takes only the rank without each wanted column.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jsontext
# is_proper and local_count go unused here; perfbench/tracer.py hooks both bindings
from .coloring import Coloring, _verdicts, is_proper, local_count
from .errors import ParameterError, SizeCapError, as_int
from .icp import IcpInstance

# x^w + ... + 1, one commonly used primitive polynomial per degree: x
# generates the nonzero elements of each field it defines
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
    """A binary extension field GF(2^w), 1 <= w <= 16, reduced by the one
    polynomial of its width, ``poly``."""

    w: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", as_int(self.w, "field degree w"))
        if not (1 <= self.w <= 16):
            raise ParameterError(f"field degree must lie in [1, 16], got {self.w}")

    @property
    def poly(self) -> int:
        return _DEFAULT_POLY[self.w]

    @property
    def size(self) -> int:
        return 1 << self.w

    def tables(self) -> "_GF":
        return _tables(self.w)


def field_for(n_symbols: int) -> FieldSpec:
    """Smallest default field whose size strictly exceeds ``n_symbols``."""
    if n_symbols < 256:
        return FieldSpec(8)
    if n_symbols < 65536:
        return FieldSpec(16)
    raise ParameterError(f"no default field fits {n_symbols} symbols")


class _GF:
    """Lookup tables over GF(2^w), reduced by :data:`_DEFAULT_POLY`, and the
    one multiply that reads them; elements are ``dtype`` integers and
    ``vinv`` holds every inverse, with 0 at 0.

    Every width has ``zlog`` and ``zexp``: a product is the antilog of a sum
    of two logs, and the log of 0 points into a run of zeros past every sum of
    two nonzero logs, so a product with 0 reads 0 without a mask. ``mul``
    reads them above ``w = 8``; up to it every product sits in a ``2^w x
    2^w`` table built from them.
    """

    def __init__(self, w: int):
        self.w = w
        self.size = 1 << w
        order = self.size - 1
        # x^0 .. x^order, doubling the run each step: the next run is the last
        # one times x^n, read from a multiply-by-x^n table that squares
        elements = np.arange(self.size, dtype=np.uint32)
        times = (elements << 1) ^ (elements >> (w - 1)) * np.uint32(_DEFAULT_POLY[w])
        exp = np.ones(1, dtype=np.uint32)
        while len(exp) < self.size:
            exp = np.concatenate([exp, times[exp]])
            times = times[times]
        self.zlog = np.full(self.size, 2 * order - 1, dtype=np.int32)
        self.zlog[exp[:order]] = np.arange(order)
        self.zexp = np.zeros(4 * order - 1, dtype=np.uint16)
        self.zexp[: 2 * order - 1] = exp[np.arange(2 * order - 1) % order]
        self.dtype = np.uint8 if w <= 8 else np.uint16
        self.vinv = np.zeros(self.size, dtype=self.dtype)
        self.vinv[exp[:order]] = exp[order:0:-1]
        if w <= 8:
            self.product = self.zexp[self.zlog[:, None] + self.zlog].astype(np.uint8)

    def mul(self, a, b) -> np.ndarray:
        """Broadcast product of two integer arrays or scalars of field elements."""
        a = np.asarray(a, self.dtype)
        b = np.asarray(b, self.dtype)
        if self.w <= 8:
            # one flat gather is about twice as fast as indexing by two arrays
            return self.product.ravel().take((a.astype(np.uint16) << self.w) | b)
        return self.zexp[self.zlog[a] + self.zlog[b]]


@lru_cache(maxsize=8)
def _tables(w: int) -> _GF:
    return _GF(w)


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
    # alpha_c^r is the antilog of r log(alpha_c); the point 0 gives 0^0 = 1
    # in row 0 and 0 below it
    logs = gf.zlog[1:cols].astype(np.int64)
    out = np.zeros((rows, cols), dtype=np.uint32)
    out[:, 1:] = gf.zexp[np.multiply.outer(np.arange(rows), logs) % (field.size - 1)]
    out[0, 0] = 1
    return out


def rank(matrix: np.ndarray, field: FieldSpec) -> int:
    """Rank of an integer matrix over GF(2^w); an entry outside the field, or
    an array that is not 2-D, raises :class:`ParameterError`."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ParameterError(f"rank needs a matrix, got shape {m.shape}")
    _check_entries(m, field, "matrix entries")
    gf = field.tables()
    a = np.ascontiguousarray(m.T, dtype=gf.dtype)[None]
    return int(_eliminate(gf, a, np.array([m.shape[1]]), np.array([m.shape[0]])).sum())


def _check_entries(values: np.ndarray, field: FieldSpec, what: str) -> None:
    """:class:`ParameterError` unless ``values`` are integers in ``[0, field.size)``."""
    if not np.issubdtype(values.dtype, np.integer):
        raise ParameterError(f"{what} must be integers, got {values.dtype}")
    if values.size and not (0 <= values.min() and values.max() < field.size):
        raise ParameterError(
            f"{what} must lie in [0, {field.size}) for GF(2^{field.w}), "
            f"got [{values.min()}, {values.max()}]"
        )


# What json.dumps(payload, indent=2) writes for a scheme's payload dict;
# TestTransmissionScheme in tests/test_linalg_ff.py checks it against the
# stdlib writer
_SCHEME = """{
  "field": {
    "w": %d,
    "poly": %d
  },
  "message_order": %s,
  "split_factor": %d,
  "rows": %s
}"""


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
    lacks a key, holds a value of the wrong type, or names a ``poly`` other
    than its width's.
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
        # hexed at once, a space after each row's bytes (r x 0: r empty rows)
        rows = coeff.tobytes().hex(" ", coeff[:1].nbytes).split(" ") if coeff.size else [""] * len(coeff)
        return _SCHEME % (
            self.field.w, self.field.poly, jsontext.json_list(map(str, self.message_order)),
            self.split_factor, jsontext.json_list(['"%s"' % '",\n    "'.join(rows)] if rows else []),
        )

    @classmethod
    def from_json(cls, text: str) -> "TransmissionScheme":
        spec, order, split, rows = jsontext.fields(
            json.loads(text), "a scheme", field=dict, message_order=list, split_factor=int, rows=list
        )
        w, poly = jsontext.fields(spec, "a scheme's field", w=int, poly=int)
        spec = FieldSpec(w)
        if poly != spec.poly:
            raise ParameterError(f"GF(2^{spec.w}) is reduced by 0x{spec.poly:X}, got poly 0x{poly:X}")
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
    split_factor: int = 1,
) -> TransmissionScheme:
    """Turn a proper coloring into MDS-precoded transmissions.

    Each color class aggregates the messages its nodes want; the generator
    mixes the ``t`` aggregates into ``local_count`` rows (or ``n_rows`` when a
    fixed row count is requested, e.g. to realize a stated rate exactly).
    Column ``c`` of the result carries, for each message, the XOR of the
    generator entries of every node wanting it. ``split_factor`` is stored on
    the scheme as the parts each of ``icp``'s messages stands for.
    """
    proper, lc = _verdicts(icp, coloring)
    if not proper:
        raise ParameterError("refusing to encode an improper coloring")
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
        split_factor=split_factor,
    )


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
    elimination tree (:func:`_tree_spans`) per run of consecutive pairs whose
    known sets x transmissions x classes (:func:`_classes`) fit one multiple
    of :data:`_BATCH_CELLS`. Schemes over two fields raise :class:`ParameterError`,
    and a batch whose summed :func:`verify_cells` exceed :data:`VERIFY_CELL_BUDGET`
    raises :class:`~.errors.SizeCapError` before any elimination."""
    if len({scheme.field for scheme, _ in pairs}) > 1:
        raise ParameterError("a batch of schemes must share one field")
    cells = sum(verify_cells(scheme, icp) for scheme, icp in pairs)
    if cells > VERIFY_CELL_BUDGET:
        raise SizeCapError(
            f"verifying this plan takes about {cells:.2e} cells of exact "
            f"elimination, above the budget of {VERIFY_CELL_BUDGET:.0e}"
        )
    classes = [_classes(scheme) for scheme, _ in pairs]
    ends = np.cumsum([len(icp.known_rows) * s.n_transmissions * c[0] for (s, icp), c in zip(pairs, classes)])
    spans = []
    for run in np.split(np.arange(len(pairs)), np.flatnonzero(np.diff(ends // _BATCH_CELLS)) + 1):
        spans += _tree_spans([pairs[p] for p in run], [classes[p] for p in run])
    return [_user_verdicts(icp, ok) for (_, icp), ok in zip(pairs, spans)]


def verify_cells(scheme: TransmissionScheme, icp: IcpInstance) -> int:
    """An upper bound, in table cells, on the rank work of verifying
    ``scheme`` on ``icp``: ``r * n * min(r, n)`` per distinct known set, for
    ``r`` transmissions over ``n`` columns, as if each set eliminated every
    column on its own. :func:`verify_scheme` does less: one Gauss–Jordan
    pass over the distinct columns, about one set's cells, then each set's
    block of systematic form, at once or in a tree shared by overlapping
    sets. A set whose lacked columns are dependent, which no correct plan
    has, also takes the exact test: a second tree on the same systematic
    form, bounded the same way per row, with one row per class the set
    wants, so a failing scheme may take a small multiple of this bound."""
    r, n = scheme.coefficients.shape
    return len(icp.known_rows) * r * n * min(r, n)


def _classes(scheme: TransmissionScheme) -> tuple:
    """Sort the coefficient columns of ``scheme``, as bytes of field elements,
    into classes of equal columns: their count, the sort order, where each
    class starts in it, and each column's class."""
    cols = np.ascontiguousarray(scheme.coefficients.T, dtype=scheme.field.tables().dtype)
    # zero rows leave no bytes to sort, and every column in one class
    order = np.argsort(cols.view(f"V{cols[0].nbytes}").ravel()) if cols.size else np.arange(len(cols))
    cols = cols[order]
    first = np.ones(len(cols), dtype=bool)  # whether a sorted column starts a class
    first[1:] = (cols[1:] != cols[:-1]).any(axis=1)
    class_of = np.empty(len(cols), dtype=np.intp)
    class_of[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    return len(starts), order, starts, class_of


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


# cells (known sets x transmissions x classes, summed over pairs) one
# elimination tree takes on, so its widest stacks stay near 1 MB (0.17 MiB
# over (100, 2, 12)'s 5 trees); a step's fixed cost is small well before
# this, and one tree over its 38 pairs peaked 6 MB higher under tracemalloc
_BATCH_CELLS = 1 << 23

# cells one elimination step updates at once, each a trailing block of a
# matrix's columns from the pivot column on: a table lookup holds 11 to 14
# bytes per cell while it runs (index, numpy's intp copy of it, result), so
# this bounds the temporaries near 1 MB whatever the batch size
_UPDATE_CELLS = 1 << 16


def _eliminate(gf: _GF, a: np.ndarray, counts: np.ndarray, ends: np.ndarray, jordan=False) -> np.ndarray:
    """Forward Gaussian elimination in place on every ``(columns, rows)``
    matrix of the stack ``a`` at once, each over its first ``counts`` columns
    with pivots taken only in its first ``ends`` rows; returns whether each
    column below ``counts.max()`` took a pivot, False at or past a matrix's
    own count.

    Each pivot row moves to the front of the candidate rows still free, so a
    matrix that takes ``k`` pivots ends with them in rows 0 to ``k - 1``, and
    every row after them is zero on each column that took a pivot. Pivot
    rows are not normalised: column ``c`` is cleared in every row below the
    pivot by ``a[:, c]`` times the inverse of the pivot entry, and with
    ``jordan`` in the pivot rows above it too (Gauss–Jordan). The pivot row,
    a free candidate row, is zero on every column before ``c``, so each step
    touches only the columns from ``c`` on. Zero padding columns never take a
    pivot.
    """
    n_sets, width, n_rows = a.shape
    took = np.zeros((n_sets, counts.max(initial=0)), dtype=bool)
    top = np.zeros(n_sets, dtype=np.intp)  # each matrix's first free row
    rows = np.arange(n_rows)
    free = rows < ends[:, None]  # the candidate rows not yet pivot rows
    for c in range(took.shape[1]):
        if (top >= ends).all():
            break
        cand = (a[:, c] != 0) & free & (counts > c)[:, None]
        hit = np.flatnonzero(cand.any(axis=1))
        if len(hit) == 0:
            continue
        p, first = cand[hit].argmax(axis=1), top[hit]
        moved = np.flatnonzero(p != first)
        if len(moved):
            e, x, y = hit[moved], p[moved], first[moved]
            a[e, c:, x], a[e, c:, y] = a[e, c:, y], a[e, c:, x]
        piv = a[hit, c:, first]
        # the rows below the highest pivot, factors above each pivot 0; or
        # with `jordan` every row but the pivot's own
        lo = 0 if jordan else first.min() + 1
        factor = gf.mul(a[hit, c, lo:], gf.vinv[piv[:, :1]])
        factor[(rows == first[:, None]) if jordan else (rows[lo:] <= first[:, None])] = 0
        # a few sets at a time, so the temporaries stay small
        step = max(1, _UPDATE_CELLS // max(1, (n_rows - lo) * (width - c)))
        every = len(hit) == n_sets
        for s in range(0, len(hit), step):
            part = slice(s, s + step)
            sets = part if every else hit[part]
            a[sets, c:, lo:] ^= gf.mul(piv[part, :, None], factor[part, None, :])
        took[hit, c] = True
        free[hit, first] = False
        top[hit] += 1
    return took


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
# A pair's tree halves its known sets iff handing each its block at once
# would take more cells than this (:func:`_halves`). Over the 1731
# components of `sweep --K-range 3:14` in all three modes and every
# plan_large component none halves; (100, 2, 12) halves 12 of its 38 and
# (300, 300, 100, 2) all 50.
_DEPTH_CELLS = 1 << 17


def _halves(known: np.ndarray, outside: np.ndarray, offset: list) -> np.ndarray:
    """Per pair, whether :func:`_tree_ranks` halves its rows (known sets),
    and every range below, rather than hand each row its block at once: iff
    there are two or more and the blocks, ``known`` rows by ``outside``
    columns for each row, would take more than :data:`_DEPTH_CELLS` cells,
    ``known * min(known, outside) * outside`` apiece."""
    size = np.diff(offset)
    cells = known * np.minimum(known, outside) * outside
    cells = np.bincount(np.repeat(np.arange(len(size)), size), cells, minlength=len(size))
    return (size > 1) & (cells > _DEPTH_CELLS)


def _tree_ranks(gf: _GF, a: np.ndarray, lacked: np.ndarray, offset: list, reduce: bool) -> np.ndarray:
    """The rank of each row's ``lacked`` columns in its pair's matrix: rows
    ``offset[p]`` to ``offset[p + 1] - 1`` read ``a[p]``, a ``(columns,
    rows)`` matrix whose last column is zero and lacked by no row.

    Each pair's root is its systematic form: with ``reduce``, one
    Gauss–Jordan stack brings every ``a[p]`` to it in place; without, ``a``
    already holds it from a call that did. Row operations keep the rank of
    every column set, and in that form each pivot row is zero before its
    pivot column, the pivot rows run in column order and the other rows are
    zero. For the pivot columns ``P``, a row lacking ``U`` has rank ``|U ∩
    P|`` plus that of its block: the pivot rows of the pivots it knows, on
    its lacked columns outside ``P``.

    A divide and conquer over ranges of consecutive rows ranks the blocks
    (:func:`_gather`). A pair's root hands each row its block at once, all
    in one stack, or halves its rows where :func:`_halves` says, and then so
    does every range below it, one stack per depth. A range that hands on no
    column holds its rows' ranks: ``|U ∩ P|`` plus the pivots it and the
    ranges above it took; a single row hands on none.
    """
    n_sets, n_cols = lacked.shape
    if reduce:
        _eliminate(gf, a[:, :-1], np.full(len(a), n_cols - 1), np.full(len(a), a.shape[2]), True)
    nonzero = a != 0
    free = nonzero.any(axis=1)  # the pivot rows
    rid = nonzero.argmax(axis=1)  # each pivot row's column
    pivot = np.zeros((len(a), n_cols), dtype=bool)
    p, r = np.nonzero(free)
    pivot[p, rid[p, r]] = True
    owner = np.repeat(np.arange(len(a)), np.diff(offset))
    piv = pivot[owner]
    rank = (lacked & piv).sum(axis=1)
    known, outside = (piv & ~lacked).sum(axis=1), (lacked & ~piv).sum(axis=1)
    halve = _halves(known, outside, offset)
    # seen[hi] - seen[lo]: how many of the rows lo..hi-1 lack each column
    seen = np.zeros((n_sets + 1, n_cols), dtype=np.min_scalar_type(n_sets))
    np.cumsum(lacked, axis=0, dtype=seen.dtype, out=seen[1:])
    root = (a, np.broadcast_to(np.arange(n_cols), (len(a), n_cols)), rid, free, ~pivot)
    # each row with a block, of a pair that does not halve
    sets = np.flatnonzero(~halve[owner] & (known > 0) & (outside > 0))
    if len(sets):
        blocks, _, _, counts, ends, _, _ = _gather(seen, root, owner[sets], sets, sets + 1)
        rank[sets] += _eliminate(gf, blocks, counts, ends).sum(axis=1)
    # per range of the last depth: its state, as :func:`_gather` reads it,
    # and the pivots it and the ranges above it took
    keep = np.flatnonzero(halve)
    lo, hi = np.array(offset[:-1])[keep], np.array(offset[1:])[keep]
    state, got = root, np.zeros(len(a), dtype=np.intp)
    while len(keep):
        mid = (lo + hi) // 2
        parent, lo, hi = keep.repeat(2), np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
        a, hand, rid, counts, ends, width, height = _gather(seen, state, parent, lo, hi)
        took = _eliminate(gf, a, counts, ends).sum(axis=1)
        got = got[parent] + took
        # a column is live if it took no pivot and is nonzero on a free row
        rows = np.arange(a.shape[2])
        free = (rows >= took[:, None]) & (rows < height[:, None])
        live = ((a != 0) & free[:, None, :]).any(axis=2) & (np.arange(a.shape[1]) < width[:, None])
        state = a, hand, rid, free, live
        last = ~live.any(axis=1)
        size = (hi - lo)[last]
        sets = np.repeat(lo[last] - np.cumsum(size) + size, size) + np.arange(size.sum())
        rank[sets] += np.repeat(got[last], size)
        keep = np.flatnonzero(~last)
        lo, hi = lo[keep], hi[keep]
    return rank


def _gather(seen: np.ndarray, state: tuple, parent: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """One depth's stack in :func:`_tree_ranks`: the ranges of rows ``lo``
    to ``hi - 1``, each below range ``parent`` of the depth above. The
    parents' ``state`` holds per range its matrix, the columns of the
    pair's matrix that its columns (``hand``) and its rows' pivots (``rid``)
    are, which rows are ``free`` (not its pivot rows) and which columns are
    ``live`` (handed on). Returns the same matrix, ``hand`` and ``rid`` for
    the ranges; then per range how many columns all its rows lack and rows
    all of them know, which take the pivots, and how many columns and rows
    it holds.

    A range holds its parent's free rows that some of its rows know and live
    columns that some of them lack, left-justified: the rows all of them
    know first, and the columns all of them lack. Clearing those columns in
    every row it holds is a row operation on each of its rows' blocks, or on
    a row outside one. Rows and columns past a range's own pad the stack.
    """
    a, hand, rid, free, live = state
    n = (hi - lo)[:, None]
    # how many of the range's rows lack each live column, and each free
    # row's pivot column
    hand, rid, lacking = hand[parent], rid[parent], seen[hi] - seen[lo]
    col = np.where(live[parent], np.take_along_axis(lacking, hand, axis=1), 0)
    row = np.where(free[parent], np.take_along_axis(lacking, rid, axis=1), n)
    shared, rest = col == n, (col > 0) & (col < n)
    common, some = row == 0, (row > 0) & (row < n)
    at = _left_justify(np.concatenate([shared, rest], axis=1)) % hand.shape[1]
    by = _left_justify(np.concatenate([common, some], axis=1)) % rid.shape[1]
    counts, ends = shared.sum(axis=1), common.sum(axis=1)
    return (
        a[parent[:, None, None], at[:, :, None], by[:, None, :]],
        np.take_along_axis(hand, at, axis=1),
        np.take_along_axis(rid, by, axis=1),
        counts,
        ends,
        counts + rest.sum(axis=1),
        ends + some.sum(axis=1),
    )


def _tree_spans(pairs: list, classes: list) -> list[np.ndarray]:
    """Per ``(scheme, icp)`` pair, whether each node's wanted unit vector lies
    in the row span of the transmissions on the columns its set does not know.

    The test runs on each scheme's distinct columns: its ``classes`` of
    identical coefficient vectors, as :func:`_classes` sorts them, and a set
    lacks a class iff it lacks a member of it. For any matrix ``A`` and
    lacked columns ``U``, the unit vector of ``m`` lies in the row span of
    ``A[:, U]`` iff ``m`` is the only member of its class in ``U`` and the
    class's unit vector lies in the row span of the distinct columns present
    in ``U``: identical columns take equal entries in every combination of
    rows, and the rest is the same span test on fewer columns.

    If a set's lacked classes are linearly independent, every unit vector on
    them lies in the row span, so the set decodes every class it lacks alone.
    :func:`_tree_ranks` takes that rank for every set. Only a set whose rank
    falls short takes the exact test: a wanted class is spanned iff the rank
    of the set's lacked classes drops without it. The first tree took the rank
    with it, so a second tree, on the systematic form the first left, ranks
    one row per (set, wanted class): the set's lacked classes without that
    one.
    """
    if not pairs:
        return []
    gf = pairs[0][0].field.tables()
    n_rows = max(scheme.n_transmissions for scheme, _ in pairs)
    n_cols = max(n for n, *_ in classes) + 1
    offset = np.cumsum([0] + [len(icp.known_rows) for _, icp in pairs]).tolist()
    n_sets = offset[-1]
    # each pair's distinct columns in class order, then the one every set knows
    a = np.zeros((len(pairs), n_cols, n_rows), dtype=gf.dtype)
    # the classes each set lacks, which it decodes unless they are dependent;
    # `want` the classes a node wants and lacks alone, the only ones read
    out = np.zeros((n_sets, n_cols), dtype=bool)
    want = np.zeros((n_sets, n_cols), dtype=bool)
    fold = []
    for p, ((scheme, icp), (n, order, starts, class_of)) in enumerate(zip(pairs, classes)):
        a[p, :n, : scheme.n_transmissions] = scheme.coefficients.T[order[starts]]
        known, cols = _columns(scheme, icp)
        lacking = np.add.reduceat(~known[:, order], starts, axis=1, dtype=np.intp)
        out[offset[p] : offset[p + 1], :n] = lacking > 0
        listed = cols >= 0
        row, cls = icp.node_row[listed], class_of[cols[listed]]
        # a set never knows a message it wants, so a node's column is lacked,
        # and it must be the only lacked member of its class
        alone = lacking[row, cls] == 1
        want[offset[p] + row[alone], cls[alone]] = True
        fold.append((listed, (row, cls), alone))
    rank = _tree_ranks(gf, a, out, offset, True)
    dep = np.flatnonzero((rank != out.sum(axis=1)) & want.any(axis=1))
    if len(dep):
        # per dependent set, its lacked classes without each one it wants,
        # against the rank of all of them, which the first tree took
        e, cls = np.nonzero(want[dep])
        owner = dep[e]
        mask = out[owner]
        mask[np.arange(len(owner)), cls] = False
        # each pair's rows start after those of the dependent sets before it
        less = _tree_ranks(gf, a, mask, np.searchsorted(owner, offset).tolist(), False)
        out[dep] = False
        out[owner, cls] = less < rank[owner]
    spans = []
    for (listed, (row, cls), alone), lo in zip(fold, offset):
        ok = np.zeros(len(listed), dtype=bool)
        ok[listed] = alone & out[lo + row, cls]
        spans.append(ok)
    return spans

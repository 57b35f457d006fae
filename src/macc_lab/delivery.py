"""Delivery assembly for cyclic multi-access caching.

``assemble`` reduces a demand round to the column table, routes every column
pair through a coloring strategy fitting the requested mode, precodes each
component with an MDS generator over one shared field, and returns the plan
only if every user can decode. That exact rank check runs once, when the
:class:`DeliveryPlan` is constructed, as one batched check of all components
(:func:`~.linalg_ff.verify_schemes`); ``verify_plan`` reads its verdict. The
plan derives its rate and subpacketization from the pairs it holds
(transmission counts over split factors, exact fractions), so they can be
checked against the closed-form calculators. The table's ``cells`` is a
read-only ``(K, K-iL)`` int32 array and each pair's ``part_map`` a read-only
``(n, 2)`` int32 array cut from it; :func:`plan_to_json` formats it at once.

Modes
-----
:func:`~.icp.pair_columns` hands out each component whole as its columns and
their union; the odd leftover (middle) column comes as its ``(c, c)`` union,
whose first half is the column itself. ``_component`` holds the whole mode
table: it colors each component, the middle column as that union at twice
the split except in the two plain-column cases it names, which code the
first half with whole cells.

``linear``
    Whole-subfile transmissions. Pairs use the residue coloring when
    ``K-iL+1`` divides ``K``, first-fit otherwise (improved by the exact
    search when the component is small enough); an odd leftover column is
    then treated as a plain single column.
``quadratic``
    Every subfile is cut into ``m = floor(K/(K-iL+1))`` parts and pairs use
    the shifted-window coloring; the leftover column rides at split ``2m``.
    The constructed rate equals the quadratic calculator exactly.
``divisor``
    Residue coloring with one divisor ``X | K`` (``X >= K-iL+1``) everywhere,
    padded to exactly ``X`` rows per component; the leftover column is
    halved. The constructed rate equals the divisor calculator exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .coloring import (
    Coloring,
    divisor_coloring,
    fractional_coloring,
    greedy_coloring,
    local_count,
)
from .errors import ParameterError, VerificationError
from .icp import (
    MESSAGE_LABEL,
    IcpInstance,
    IcpTable,
    UnionIcpDesc,
    by_content,
    pair_columns,
    realize_single,
    realize_union_split,
    reduce_macc,
)
from .linalg_ff import (
    VERIFY_CELL_BUDGET,
    FieldSpec,
    TransmissionScheme,
    encode,
    field_for,
    rank,
    verify_scheme,  # unused here; perfbench/tracer.py hooks this binding
    verify_schemes,
)
from .jsontext import json_list
from .macc import MaccInstance
from .oracle import exhaustive_chi_l
from .rates import (
    _require_divisor,
    rate_divisor,
    rate_linear,
    rate_quadratic,
    smallest_valid_divisor,
)

__all__ = [
    "VERIFY_CELL_BUDGET",
    "PairPlan",
    "DeliveryPlan",
    "PlanCheck",
    "assemble",
    "pair_instance",
    "verify_plan",
    "plan_to_json",
]

_MODES = ("quadratic", "linear", "divisor")


@by_content
@dataclass(frozen=True, eq=False)
class PairPlan:
    """One scheduled component of a delivery plan.

    ``columns`` are the table columns it covers. ``part_map`` is a read-only
    ``(n, 2)`` int32 array whose row ``m - 1`` gives the table message and part
    index carried by local message ``m``, row-major over (table row, column,
    part); a pair compares and hashes by its bytes.
    ``cell_split``, the scheme's ``split_factor``, is the number of parts each
    table cell is cut into here. ``kind``, derived from those two, says how
    table cells map onto the local messages: ``union`` covers two columns
    whole-cell (possibly split), ``middle`` covers one column with each cell
    halved into a two-sided instance, and ``column`` covers one column
    whole-cell. ``icp`` is the local instance ``scheme`` was coded for, as
    ``_component`` realized it; the plan's decode check runs on it.
    """

    columns: tuple[int, ...]
    tag: str
    coloring: Coloring
    scheme: TransmissionScheme
    part_map: np.ndarray
    icp: IcpInstance = dc_field(compare=False, repr=False)

    @property
    def cell_split(self) -> int:
        return self.scheme.split_factor

    @property
    def kind(self) -> str:
        return "union" if len(self.columns) == 2 else "middle" if self.cell_split > 1 else "column"

    @property
    def n_transmissions(self) -> int:
        return self.scheme.n_transmissions


@dataclass(frozen=True)
class DeliveryPlan:
    """Assembled delivery schedule for one demand round, checked on construction.

    It is built from what :func:`assemble` chose; ``notes`` carries non-fatal
    observations such as a best-effort component exceeding its closed-form
    bound. The rest follows from ``pairs`` in ``__post_init__`` and is never
    passed in, so a plan made by ``dataclasses.replace`` derives it again and
    ``replace`` cannot set it. ``rate`` is in file units; ``base_split`` is
    the union pairs' cell split (1 without one); ``subpacketization`` counts
    the parts each file ends up in (cells at ``base_split``, halved leftover
    cells at twice that). ``local_ok[n][j]`` says if local user ``j + 1`` of
    ``pairs[n]`` decodes, ``users_ok[k-1]`` if table user ``k``, who owns the
    ``k``-th block of each pair's local users, decodes every pair; a failing
    :func:`assemble` names its components from them. Both come from exact
    rank: one :func:`~.linalg_ff.verify_schemes` batch checks every pair's
    scheme on the pair's own ``icp``; the schemes must share one field, and
    the batch refuses a plan past :data:`VERIFY_CELL_BUDGET` before any
    elimination.
    """

    table: IcpTable
    mode: str
    divisor: int | None
    field: FieldSpec
    pairs: tuple[PairPlan, ...]
    notes: tuple[str, ...] = ()
    base_split: int = dc_field(init=False)
    rate: Fraction = dc_field(init=False)
    subpacketization: int = dc_field(init=False)
    users_ok: tuple[bool, ...] = dc_field(init=False, repr=False, compare=False)
    local_ok: tuple[tuple[bool, ...], ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = self.table.n_rows
        base = next((p.cell_split for p in self.pairs if p.kind == "union"), 1)
        halved = any(p.cell_split > base for p in self.pairs)
        local_ok = tuple(verify_schemes([(p.scheme, p.icp) for p in self.pairs]))
        folds = [_table_users(v, k) for v in local_ok if not all(v)]
        vars(self).update(
            base_split=base,
            rate=_rate(self.pairs, k),
            subpacketization=(k + 1 if halved else k) * base,
            local_ok=local_ok,
            users_ok=tuple(map(all, zip(*folds))) if folds else (True,) * k,
        )

    @property
    def n_transmissions(self) -> int:
        return sum(p.n_transmissions for p in self.pairs)


@dataclass(frozen=True)
class PlanCheck:
    """A plan's decode verdict together with its calculator comparison; the
    plan itself holds its rate and subpacketization."""

    ok: bool
    users_ok: tuple[bool, ...]
    calculator_rate: Fraction | None
    rate_equal: bool | None
    within_bound: bool | None


def _rate(pairs, k: int) -> Fraction:
    """Rate in file units of ``pairs`` over a ``k``-row table: each
    transmission carries one part of a cell, ``1 / (cell_split * k)`` file."""
    return sum((Fraction(p.n_transmissions, p.cell_split * k) for p in pairs), Fraction(0))


def pair_instance(pair: PairPlan) -> IcpInstance:
    """The local index coding instance a pair's scheme was coded for."""
    return pair.icp


def _maybe_oracle(
    inst: IcpInstance, coloring: Coloring, tag: str, cap: int
) -> tuple[Coloring, str]:
    """Swap in the exact-search witness when the component fits and it wins."""
    if 0 < inst.n_nodes <= cap:
        best, witness = exhaustive_chi_l(inst, node_cap=inst.n_nodes)
        if best < local_count(inst, coloring):
            return witness, "oracle"
    return coloring, tag


def _component(
    desc: UnionIcpDesc, middle: bool, mode: str, s: int, x: int | None, cap: int
) -> tuple[Coloring, IcpInstance, int, str]:
    """Coloring, instance, cell split and tag of one component.

    ``desc`` is a column pair's union. For the ``middle`` column it is that
    column's ``(c, c)`` union at twice the split, so each cell's two halves
    fill the union's two copies. Two cases code the column itself, the
    union's first half, with whole cells instead: the clique column, and
    linear mode's first-fit column when ``s = K-iL+1`` does not divide ``K``.
    """
    halves = 2 if middle else 1
    if mode == "divisor":
        return divisor_coloring(desc, x), realize_union_split(desc, 1), halves, "divisor"
    if middle and desc.a1 == 0:
        # everyone-knows-everyone column: one summed transmission
        inst = realize_single(desc.halves()[0])
        return greedy_coloring(inst), inst, 1, "clique"
    if desc.k % s == 0:
        return divisor_coloring(desc, s), realize_union_split(desc, 1), halves, "divisor"
    if mode == "quadratic":
        coloring, m = fractional_coloring(desc)
        return coloring, realize_union_split(desc, m), halves * m, "fractional"
    if middle:
        inst = realize_single(desc.halves()[0])
        coloring, tag = _maybe_oracle(inst, greedy_coloring(inst), "greedy", cap)
        return coloring, inst, 1, tag
    # modulus K always divides K; local count min(a1 + 2*a2 + 2, K)
    inst = realize_union_split(desc, 1)
    coloring, tag = divisor_coloring(desc, desc.k), "divisor"
    first_fit = greedy_coloring(inst)
    if local_count(inst, first_fit) < local_count(inst, coloring):
        coloring, tag = first_fit, "greedy"
    coloring, tag = _maybe_oracle(inst, coloring, tag, cap)
    return coloring, inst, 1, tag


def assemble(
    instance: MaccInstance,
    demands=None,
    *,
    mode: str = "quadratic",
    divisor: int | None = None,
    field: FieldSpec | None = None,
    oracle_node_cap: int = 20,
) -> DeliveryPlan:
    """Build a delivery plan for one demand round; the plan checks itself.

    Raises :class:`ParameterError` on invalid parameters;
    :class:`~.errors.SizeCapError`, before any elimination, if the shape bound
    on checking the plan exceeds :data:`VERIFY_CELL_BUDGET` cells; and
    :class:`~.errors.VerificationError` if the plan fails its own decode check
    (a construction bug), naming the failing components and users, and per
    component the first message a user cannot decode and its rank deficit.
    """
    if mode not in _MODES:
        raise ParameterError(f"mode must be one of {_MODES}, got {mode!r}")
    table = reduce_macc(instance, demands)
    k = table.n_rows
    d = table.n_cols
    s = d + 1
    if mode == "divisor":
        divisor = _require_divisor(k, s, divisor)
    elif divisor is not None:
        raise ParameterError("an explicit divisor only applies to divisor mode")
    # a fully covered corner (d = 0) has no components, so no divisor either
    x = (divisor or smallest_valid_divisor(k, s)) if mode == "divisor" and d else None

    # plan every component first so one field can serve the whole schedule
    built = [(cols, *_component(desc, len(cols) == 1, mode, s, x, oracle_node_cap))
             for cols, desc in pair_columns(table)]
    if field is None:
        field = field_for(max((coloring.n_colors for _, coloring, *_ in built), default=1))
    pairs = tuple(
        PairPlan(
            columns=cols,
            tag=tag,
            coloring=coloring,
            scheme=encode(inst, coloring, field=field, n_rows=x, split_factor=split),
            part_map=_part_map(table, cols, split),
            icp=inst,
        )
        for cols, coloring, inst, split, tag in built
    )

    notes: tuple[str, ...] = ()
    if mode == "linear":
        rate = _rate(pairs, k)
        bound = rate_linear(k, instance.access_degree, instance.memory_index)
        if rate > bound.rate:
            notes = (
                f"best-effort components cost {rate}, above the closed-form "
                f"linear value {bound.rate}",
            )

    plan = DeliveryPlan(
        table=table, mode=mode, divisor=x, field=field, pairs=pairs, notes=notes
    )
    if not all(plan.users_ok):  # failure path only: name the components that broke
        failing = (f"columns {list(p.columns)} ({p.tag}) table users {bad}"
                   f" ({_first_failure(p, v, table, bad[0])})"
                   for p, v in zip(plan.pairs, plan.local_ok)
                   if (bad := [u for u, ok in enumerate(_table_users(v, k), 1) if not ok]))
        raise VerificationError("users unable to decode: " + "; ".join(failing))
    return plan


def _part_map(table: IcpTable, cols: tuple[int, ...], split: int) -> np.ndarray:
    """``(table message, part)`` of each local message of the pair covering
    ``cols`` at ``split`` parts per cell: every part of each cell, row-major."""
    part_map = np.empty((table.n_rows * len(cols), split, 2), dtype=np.int32)
    part_map[..., 0] = table.cells[:, np.array(cols) - 1].reshape(-1, 1)
    part_map[..., 1] = np.arange(1, split + 1)
    part_map.setflags(write=False)
    return part_map.reshape(-1, 2)


def _table_users(local: tuple[bool, ...], k: int) -> list[bool]:
    """Per table user of ``k``: do all its local users in ``local`` decode?"""
    per = len(local) // k
    return [all(local[lo : lo + per]) for lo in range(0, len(local), per)]


def _first_failure(pair: PairPlan, local: tuple[bool, ...], table: IcpTable, user: int) -> str:
    """The message wanted by table user ``user``'s first local user whose
    verdict in ``local`` is False (in ``pair.icp`` local user ``j`` is node
    ``j``), and the user's rank deficit: how many of the dimensions it wants
    the transmissions on its unknown messages, known to all its local users
    alike, leave out."""
    per = len(local) // table.n_rows
    lo = (user - 1) * per
    icp, order = pair.icp, pair.scheme.message_order
    wants = (icp.node_msg[lo : lo + per] + 1).tolist()
    known = icp.known_rows[icp.node_row[lo]]
    lacked = [c for c, m in enumerate(order) if not known[m - 1]]
    full, rest = (rank(pair.scheme.coefficients[:, cols], pair.scheme.field)
                  for cols in (lacked, [c for c in lacked if order[c] not in wants]))
    g, part = pair.part_map[wants[local[lo : lo + per].index(False)] - 1].tolist()
    label = _part_label(table.message_label(g), part, pair.cell_split)
    return f"table user {user} cannot decode {label}, rank deficit {len(wants) - full + rest}"


def verify_plan(plan: DeliveryPlan) -> PlanCheck:
    """Compare a plan against its calculator; decodability is ``plan.users_ok``.

    The exact rank check ran once, when the plan was constructed. ``ok``
    also needs the pairs to cover every table column exactly once. For the
    ``quadratic`` and ``divisor`` modes the constructed rate and
    subpacketization must equal the closed-form values; ``linear`` only
    promises to stay at or below its bound when no best-effort component
    overshot (any overshoot is reported via ``within_bound``).
    """
    inst = plan.table.instance
    k, l, i = inst.n_caches, inst.access_degree, inst.memory_index
    if plan.mode == "quadratic":
        rep = rate_quadratic(k, l, i)
    elif plan.mode == "divisor":
        rep = rate_divisor(k, l, i, divisor=plan.divisor)
    else:
        rep = rate_linear(k, l, i)
    calc_rate, calc_f = rep.rate, rep.subpacketization
    rate_equal = None if calc_rate is None else plan.rate == calc_rate
    within = None if calc_rate is None else plan.rate <= calc_rate
    covered = sorted(c for p in plan.pairs for c in p.columns)
    ok = all(plan.users_ok) and covered == list(range(1, plan.table.n_cols + 1))
    if plan.mode in ("quadratic", "divisor"):
        ok = ok and bool(rate_equal) and calc_f == plan.subpacketization
    return PlanCheck(
        ok=ok,
        users_ok=plan.users_ok,
        calculator_rate=calc_rate,
        rate_equal=rate_equal,
        within_bound=within,
    )


def _part_label(label: str, part: int, split: int) -> str:
    return label if split == 1 else f"{label}#{part}"


# What json.dumps(payload, indent=2) writes for a plan's header, up to the
# "[" of its "pairs" list, and for one pair of that list, from the "," before
# it (none before the first) up to its scheme. They must keep that layout:
# TestPlanJson in tests/test_delivery.py checks them against the stdlib writer
# on a reference payload. The demands and every list in a pair are never empty.
_HEAD = """{
  "params": {
    "n_files": %d,
    "n_caches": %d,
    "access_degree": %d,
    "memory_index": %d
  },
  "demands": %s,
  "mode": %s,
  "divisor": %s,
  "field": {
    "w": %d,
    "poly": %d
  },
  "rate": {
    "num": %d,
    "den": %d,
    "decimal": "%.6f"
  },
  "subpacketization": %d,
  "base_split": %d,
  "n_transmissions": %d,
  "notes": %s,
  "pairs": ["""
_PAIR = """%s
    {
      "columns": [
        %s
      ],
      "kind": "%s",
      "tag": "%s",
      "cell_split": %d,
      "n_transmissions": %d,
      "colors": [
        %s
      ],
      "messages": [
        %s
      ],
      "scheme": """
# one message of a pair of split cells, from its table message, its part, the
# message's IcpTable.label_fields and its part again; a pair of whole cells
# drops the "#part" suffix
_MESSAGE = """{
          "table_message": %d,
          "part": %d,
          "label": "LABEL#%d"
        }""".replace("LABEL", MESSAGE_LABEL)
_WHOLE_MESSAGE = _MESSAGE.replace("#%d", "")


def plan_to_json(plan: DeliveryPlan) -> str:
    """Stable JSON rendering of a plan (schedule, colorings, coefficients):
    ``json.dumps(payload, indent=2)`` text, with the header written by the
    ``_HEAD`` template and each pair by the ``_PAIR`` one."""
    return "".join(_plan_chunks(plan))


def _plan_chunks(plan: DeliveryPlan):
    """The text of :func:`plan_to_json` in pieces, each made when asked for:
    the header, then per pair its ``_PAIR`` text, scheme and closing brace.
    Each pair's messages are one ``%`` format over a flat list of integers."""
    inst, table, rate = plan.table.instance, plan.table, plan.rate
    yield _HEAD % (
        inst.n_files, inst.n_caches, inst.access_degree, inst.memory_index,
        json_list(map(str, table.demands)), json.dumps(plan.mode),
        "null" if plan.divisor is None else plan.divisor, plan.field.w, plan.field.poly,
        rate.numerator, rate.denominator, float(rate), plan.subpacketization, plan.base_split,
        plan.n_transmissions, json_list(map(json.dumps, plan.notes)),
    )
    items, labels = ",\n        ".join, table.label_fields
    for n, pair in enumerate(plan.pairs):
        split, part_map = pair.cell_split, pair.part_map
        fill = (part_map, labels[part_map[:, 0] - 1]) + ((part_map[:, 1:],) if split > 1 else ())
        message = _MESSAGE if split > 1 else _WHOLE_MESSAGE
        messages = items([message] * len(part_map)) % tuple(np.hstack(fill).ravel().tolist())
        yield _PAIR % ("," if n else "", items(map(str, pair.columns)), pair.kind, pair.tag,
                       split, pair.n_transmissions, items(map(str, pair.coloring.colors)), messages)
        # the bulk of the text; split, it is freed before its indented copy is
        # made (.replace fragments the heap: 45 MB more at (300,300,100,2))
        yield "\n      ".join(pair.scheme.to_json().split("\n"))
        yield "\n    }"
    yield "\n  ]\n}" if plan.pairs else "]\n}"

"""Delivery assembly for cyclic multi-access caching.

``assemble`` reduces a demand round to the column table, routes every column
pair through a coloring strategy fitting the requested mode, precodes each
component with an MDS generator over one shared field, and returns the plan
only if every user can decode. That exact rank check runs once, when the
:class:`DeliveryPlan` is constructed, as one batched check of all components
(:func:`~.linalg_ff.verify_schemes`); ``verify_plan`` reads its verdict. Rates
come out of the construction itself (transmission counts over split factors,
exact fractions), so they can be checked against the closed-form calculators.

Modes
-----
``_component`` holds the whole mode table: it colors each column pair and
the odd leftover (middle) column, which runs as its ``(c, c)`` union at twice
the split except in the two plain-column cases it names.

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
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

from .coloring import (
    Coloring,
    divisor_coloring,
    fractional_coloring,
    greedy_coloring,
    local_count,
)
from .errors import ParameterError, VerificationError
from .icp import (
    IcpInstance,
    IcpTable,
    StructuredIcpDesc,
    UnionIcpDesc,
    pair_columns,
    paired_column_indices,
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

_MODES = ("linear", "quadratic", "divisor")


@dataclass(frozen=True)
class PairPlan:
    """One scheduled component of a delivery plan.

    ``kind`` says how table cells map onto the component's local messages:
    ``union`` covers two columns whole-cell (possibly split), ``middle``
    covers one column with each cell halved into a two-sided instance, and
    ``column`` covers one column whole-cell. ``part_map[m-1]`` gives the
    table message and part index carried by local message ``m``;
    ``cell_split``, the scheme's ``split_factor``, is the number of parts each
    table cell is cut into here.
    ``icp`` is the local instance ``scheme`` was coded for, as ``_component``
    realized it; the plan's decode check runs on it.
    """

    columns: tuple[int, ...]
    desc: UnionIcpDesc | StructuredIcpDesc
    kind: str
    tag: str
    coloring: Coloring
    scheme: TransmissionScheme
    part_map: tuple[tuple[int, int], ...]
    icp: IcpInstance = dc_field(compare=False, repr=False)

    @property
    def cell_split(self) -> int:
        return self.scheme.split_factor

    @property
    def n_transmissions(self) -> int:
        return self.scheme.n_transmissions


@dataclass(frozen=True)
class DeliveryPlan:
    """Assembled delivery schedule for one demand round, checked on construction.

    ``rate`` is in file units; ``subpacketization`` counts the parts each
    file ends up in (cells at ``base_split``, halved leftover cells at twice
    that). ``notes`` carries non-fatal observations such as a best-effort
    component exceeding its closed-form bound. ``users_ok[k-1]``, set by exact
    rank in ``__post_init__`` and never passed in, says if table user ``k``
    decodes every pair, so a plan made by ``dataclasses.replace`` checks itself.
    One :func:`~.linalg_ff.verify_schemes` batch checks every pair's scheme on
    the pair's own ``icp``; the schemes must share one field, and the batch
    refuses a plan past :data:`VERIFY_CELL_BUDGET` before any elimination.
    """

    table: IcpTable
    mode: str
    divisor: int | None
    field: FieldSpec
    base_split: int
    pairs: tuple[PairPlan, ...]
    rate: Fraction
    subpacketization: int
    notes: tuple[str, ...] = ()
    users_ok: tuple[bool, ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = self.table.n_rows
        verdicts = verify_schemes([(p.scheme, p.icp) for p in self.pairs])
        bad = {u for v in verdicts for u in _failed_users(v, k)}
        object.__setattr__(self, "users_ok", tuple(u not in bad for u in range(1, k + 1)))

    @property
    def instance(self) -> MaccInstance:
        return self.table.instance

    @property
    def n_transmissions(self) -> int:
        return sum(p.n_transmissions for p in self.pairs)


@dataclass(frozen=True)
class PlanCheck:
    """A plan's decode verdict together with its calculator comparison."""

    ok: bool
    users_ok: tuple[bool, ...]
    rate: Fraction
    subpacketization: int
    calculator_rate: Fraction | None
    calculator_subpacketization: int | None
    rate_equal: bool | None
    within_bound: bool | None


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
    desc: UnionIcpDesc,
    single: StructuredIcpDesc | None,
    mode: str,
    s: int,
    x: int | None,
    cap: int,
) -> tuple[Coloring, IcpInstance, int, int | None, str]:
    """Coloring, instance, cell split, fixed row count and tag of one component.

    ``desc`` is a column pair's union. For the middle column ``single`` is
    that column and ``desc`` its ``(c, c)`` union at twice the split, so each
    cell's two halves fill the union's two copies. Two cases code ``single``
    itself with whole cells instead: the clique column, and linear mode's
    first-fit column when ``s = K-iL+1`` does not divide ``K``.
    """
    halves = 1 if single is None else 2
    if mode == "divisor":
        return divisor_coloring(desc, x), realize_union_split(desc, 1), halves, x, "divisor"
    if single is not None and single.a1 == 0:
        # everyone-knows-everyone column: one summed transmission
        inst = realize_single(single)
        return greedy_coloring(inst), inst, 1, None, "clique"
    if desc.k % s == 0:
        return divisor_coloring(desc, s), realize_union_split(desc, 1), halves, None, "divisor"
    if mode == "quadratic":
        coloring, m = fractional_coloring(desc)
        return coloring, realize_union_split(desc, m), halves * m, None, "fractional"
    if single is not None:
        inst = realize_single(single)
        coloring, tag = _maybe_oracle(inst, greedy_coloring(inst), "greedy", cap)
        return coloring, inst, 1, None, tag
    # modulus K always divides K; local count min(a1 + 2*a2 + 2, K)
    inst = realize_union_split(desc, 1)
    coloring, tag = divisor_coloring(desc, desc.k), "divisor"
    first_fit = greedy_coloring(inst)
    if local_count(inst, first_fit) < local_count(inst, coloring):
        coloring, tag = first_fit, "greedy"
    coloring, tag = _maybe_oracle(inst, coloring, tag, cap)
    return coloring, inst, 1, None, tag


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
    if instance.memory_index < 1:
        raise ParameterError(
            "zero-memory corner has no cached side information; "
            "delivery there is a plain broadcast"
        )
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

    unions, middle = pair_columns(table)
    # (columns, union descriptor, middle column or None) per component
    specs = [
        (cols, desc, None) for cols, desc in zip(paired_column_indices(table), unions)
    ]
    if middle is not None:
        specs.append((((d + 1) // 2,), UnionIcpDesc(middle.a1, middle.a1, middle.z), middle))
    # plan every component first so one field can serve the whole schedule
    built = [
        _component(desc, single, mode, s, x, oracle_node_cap)
        for _, desc, single in specs
    ]
    if field is None:
        field = field_for(max((coloring.n_colors for coloring, *_ in built), default=1))

    pairs = []
    for (cols, desc, single), (coloring, inst, cell_split, n_rows, tag) in zip(specs, built):
        # a lone column with halved cells rides on its union, whole cells on itself
        kind = "union" if single is None else "middle" if cell_split > 1 else "column"
        scheme = encode(inst, coloring, field=field, n_rows=n_rows)
        pairs.append(
            PairPlan(
                columns=cols,
                desc=single if kind == "column" else desc,
                kind=kind,
                tag=tag,
                coloring=coloring,
                scheme=replace(scheme, split_factor=cell_split),
                part_map=tuple(
                    (table.entry(r, c), j)
                    for r in range(1, k + 1)
                    for c in cols
                    for j in range(1, cell_split + 1)
                ),
                icp=inst,
            )
        )

    base_split = next((p.cell_split for p in pairs if p.kind == "union"), 1)
    rate = sum(
        (Fraction(p.n_transmissions, p.cell_split * k) for p in pairs), Fraction(0)
    )
    halved = any(p.cell_split > base_split for p in pairs)
    ktil = k + 1 if halved else k
    subpack = ktil * base_split

    notes: tuple[str, ...] = ()
    if mode == "linear":
        bound = rate_linear(k, instance.access_degree, instance.memory_index)
        if bound.applicable and bound.rate is not None and rate > bound.rate:
            notes = (
                f"best-effort components cost {rate}, above the closed-form "
                f"linear value {bound.rate}",
            )

    plan = DeliveryPlan(
        table=table,
        mode=mode,
        divisor=x,
        field=field,
        base_split=base_split,
        pairs=tuple(pairs),
        rate=rate,
        subpacketization=subpack,
        notes=notes,
    )
    if not all(plan.users_ok):  # failure path only: name the components that broke
        verdicts = verify_schemes([(p.scheme, p.icp) for p in plan.pairs])
        failing = (f"columns {list(p.columns)} ({p.tag}) table users {bad}"
                   f" ({_first_failure(p, table, bad[0])})"
                   for p, v in zip(plan.pairs, verdicts)
                   if (bad := _failed_users(v, k)))
        raise VerificationError("users unable to decode: " + "; ".join(failing))
    return plan


def _failed_users(verdicts: tuple[bool, ...], k: int) -> list[int]:
    """Table users (1-based) among whose local users a verdict is False."""
    per_user = len(verdicts) // k
    return sorted({idx // per_user + 1 for idx, good in enumerate(verdicts) if not good})


def _first_failure(pair: PairPlan, table: IcpTable, user: int) -> str:
    """The first message table user ``user`` cannot decode from ``pair`` and
    the user's rank deficit: how many of the dimensions it wants there the
    transmissions on its unknown messages leave out."""
    per_user = len(pair.icp.users) // table.n_rows
    local = pair.icp.users[(user - 1) * per_user : user * per_user]
    order = pair.scheme.message_order
    coeff = pair.scheme.coefficients
    known = local[0].known
    wants = [m for u in local for m in sorted(u.want)]

    def rank_without(drop) -> int:
        cols = [c for c, m in enumerate(order) if m not in known and m not in drop]
        return rank(coeff[:, cols], pair.scheme.field)

    full = rank_without(())
    missed = next(m for m in wants if rank_without({m}) == full)
    g, part = pair.part_map[missed - 1]
    label = _part_label(table.message_label(g), part, pair.cell_split)
    deficit = len(wants) - full + rank_without(set(wants))
    return f"table user {user} cannot decode {label}, rank deficit {deficit}"


def verify_plan(plan: DeliveryPlan) -> PlanCheck:
    """Compare a plan against its calculator; decodability is ``plan.users_ok``.

    The exact rank check ran once, when the plan was constructed. For the
    ``quadratic`` and ``divisor`` modes the constructed rate and
    subpacketization must equal the closed-form values; ``linear`` only
    promises to stay at or below its bound when no best-effort component
    overshot (any overshoot is reported via ``within_bound``).
    """
    inst = plan.table.instance
    k, l, i = inst.n_caches, inst.access_degree, inst.memory_index
    users_ok = plan.users_ok
    if plan.mode == "quadratic":
        rep = rate_quadratic(k, l, i)
    elif plan.mode == "divisor":
        rep = rate_divisor(k, l, i, divisor=plan.divisor)
    else:
        rep = rate_linear(k, l, i)
    calc_rate = rep.rate if rep.applicable else None
    calc_f = rep.subpacketization if rep.applicable else None
    rate_equal = None if calc_rate is None else plan.rate == calc_rate
    within = None if calc_rate is None else plan.rate <= calc_rate
    ok = all(users_ok)
    if plan.mode in ("quadratic", "divisor"):
        ok = ok and bool(rate_equal) and calc_f == plan.subpacketization
    return PlanCheck(
        ok=ok,
        users_ok=users_ok,
        rate=plan.rate,
        subpacketization=plan.subpacketization,
        calculator_rate=calc_rate,
        calculator_subpacketization=calc_f,
        rate_equal=rate_equal,
        within_bound=within,
    )


def _part_label(label: str, part: int, split: int) -> str:
    return label if split == 1 else f"{label}#{part}"


# What json.dumps(payload, indent=2) writes for one pair of the plan's "pairs"
# list, from the "," before it (none before the first) up to its scheme. It
# must keep that layout: TestPlanJson in tests/test_delivery.py checks it
# against the stdlib writer on a reference payload. No list in it is ever empty.
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
# one message of a pair; labels are ASCII that JSON writes as they are
_MESSAGE = """{
          "table_message": %d,
          "part": %d,
          "label": "%s"
        }"""


def plan_to_json(plan: DeliveryPlan) -> str:
    """Stable JSON rendering of a plan (schedule, colorings, coefficients):
    ``json.dumps(payload, indent=2)`` text, with the header written by
    :func:`json.dumps` and each pair by the ``_PAIR`` template."""
    return "".join(_plan_chunks(plan))


def _plan_chunks(plan: DeliveryPlan):
    """The text of :func:`plan_to_json` in pieces, each made when asked for:
    the header, then per pair its ``_PAIR`` text, scheme and closing brace."""
    inst = plan.table.instance
    head = json.dumps(
        {
            "params": {
                "n_files": inst.n_files,
                "n_caches": inst.n_caches,
                "access_degree": inst.access_degree,
                "memory_index": inst.memory_index,
            },
            "demands": list(plan.table.demands.demands),
            "mode": plan.mode,
            "divisor": plan.divisor,
            "field": {"w": plan.field.w, "poly": plan.field.poly},
            "rate": {
                "num": plan.rate.numerator,
                "den": plan.rate.denominator,
                "decimal": f"{float(plan.rate):.6f}",
            },
            "subpacketization": plan.subpacketization,
            "base_split": plan.base_split,
            "n_transmissions": plan.n_transmissions,
            "notes": list(plan.notes),
            "pairs": [],
        },
        indent=2,
    )
    items = ",\n        ".join
    labels = [plan.table.message_label(g) for g in range(1, plan.table.n_messages + 1)]
    yield head[: -len("]\n}")]
    for n, pair in enumerate(plan.pairs):
        split = pair.cell_split
        messages = (_MESSAGE % (g, part, _part_label(labels[g - 1], part, split)) for g, part in pair.part_map)
        yield _PAIR % ("," if n else "", items(map(str, pair.columns)), pair.kind, pair.tag,
                       split, pair.n_transmissions,
                       items(map(str, pair.coloring.colors)), items(messages))
        # the bulk of the text; split, it is freed before its indented copy is
        # made (.replace fragments the heap: 45 MB more at (300,300,100,2))
        yield "\n      ".join(pair.scheme.to_json().split("\n"))
        yield "\n    }"
    yield "\n  ]\n}" if plan.pairs else "]\n}"

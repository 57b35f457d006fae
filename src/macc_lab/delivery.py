"""Delivery assembly for cyclic multi-access caching.

``assemble`` reduces a demand round to the column table, routes every column
pair through a coloring strategy fitting the requested mode, precodes each
component with an MDS generator over one shared field, and returns the plan
only if every user can decode. That exact rank check runs once, when the
:class:`DeliveryPlan` is constructed; ``verify_plan`` reads its verdict. Rates
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
from dataclasses import InitVar, dataclass, field as dc_field, replace
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
    FieldSpec,
    TransmissionScheme,
    encode,
    field_for,
    verify_scheme,
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
    ``cell_split`` is the number of parts each table cell is cut into here.
    """

    columns: tuple[int, ...]
    desc: UnionIcpDesc | StructuredIcpDesc
    kind: str
    tag: str
    cell_split: int
    coloring: Coloring
    scheme: TransmissionScheme
    part_map: tuple[tuple[int, int], ...]

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
    The check runs on ``instances``, the pairs' local instances in order as
    :func:`pair_instance` rebuilds them; ``assemble`` passes the ones it coded
    for, and any other construction (``replace`` too) rebuilds them. They are
    not stored.
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
    instances: InitVar[tuple[IcpInstance, ...] | None] = None

    def __post_init__(self, instances: tuple[IcpInstance, ...] | None) -> None:
        if instances is None:
            instances = tuple(pair_instance(p) for p in self.pairs)
        elif len(instances) != len(self.pairs):
            raise ParameterError(f"{len(instances)} instances for {len(self.pairs)} pairs")
        object.__setattr__(self, "users_ok", _pair_users_ok(self, instances))

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
    """Rebuild the local index coding instance a pair's scheme was coded for."""
    if pair.kind == "column":
        return realize_single(pair.desc)
    halves = 2 if pair.kind == "middle" else 1
    return realize_union_split(pair.desc, pair.cell_split // halves)


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

    Raises :class:`ParameterError` on invalid parameters and
    :class:`~.errors.VerificationError`, naming the failing components and
    users, if the plan fails its own decode check (a construction bug).
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
    if mode == "divisor":
        _require_divisor(k, d + 1, divisor)
    elif divisor is not None:
        raise ParameterError("an explicit divisor only applies to divisor mode")

    if d == 0:
        return DeliveryPlan(
            table=table,
            mode=mode,
            divisor=None,
            field=field if field is not None else field_for(1),
            base_split=1,
            pairs=(),
            rate=Fraction(0),
            subpacketization=k,
        )

    s = d + 1
    x = smallest_valid_divisor(k, s) if mode == "divisor" and divisor is None else divisor

    if mode == "quadratic" and d > 1 and k % s != 0:
        base_split = k // s
    else:
        base_split = 1

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
        field = field_for(max(coloring.n_colors for coloring, *_ in built))

    pairs = []
    for (cols, desc, single), (coloring, inst, cell_split, n_rows, tag) in zip(specs, built):
        # a lone column with halved cells rides on its union, whole cells on itself
        kind = "union" if single is None else "middle" if cell_split > 1 else "column"
        scheme = encode(inst, coloring, field=field, n_rows=n_rows)
        scheme = replace(scheme, split_factor=cell_split)
        pairs.append(
            PairPlan(
                columns=cols,
                desc=single if kind == "column" else desc,
                kind=kind,
                tag=tag,
                cell_split=cell_split,
                coloring=coloring,
                scheme=scheme,
                part_map=tuple(
                    (table.entry(r, c), j)
                    for r in range(1, k + 1)
                    for c in cols
                    for j in range(1, cell_split + 1)
                ),
            )
        )

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

    # the instances just coded for; the plan checks them and keeps none
    instances = tuple(inst for _, inst, *_ in built)
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
        instances=instances,
    )
    if not all(plan.users_ok):  # failure path only: name the components that broke
        failing = (f"columns {list(p.columns)} ({p.tag}) table users {bad}"
                   for p, inst in zip(plan.pairs, instances)
                   if (bad := _failed_users(p, inst, k)))
        raise VerificationError("users unable to decode: " + "; ".join(failing))
    return plan


def _failed_users(pair: PairPlan, inst: IcpInstance, k: int) -> list[int]:
    """Table users (1-based) who cannot decode ``pair``, coded for ``inst``,
    by exact rank."""
    per_user = len(inst.users) // k
    verdicts = verify_scheme(pair.scheme, inst)
    return sorted({idx // per_user + 1 for idx, good in enumerate(verdicts) if not good})


def _pair_users_ok(
    plan: DeliveryPlan, instances: tuple[IcpInstance, ...]
) -> tuple[bool, ...]:
    """Fold per-component decode checks down to the K table users."""
    k = plan.table.n_rows
    bad = {u for pair, inst in zip(plan.pairs, instances) for u in _failed_users(pair, inst, k)}
    return tuple(u not in bad for u in range(1, plan.table.n_rows + 1))


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


def plan_to_json(plan: DeliveryPlan) -> str:
    """Stable JSON rendering of a plan (schedule, colorings, coefficients)."""
    inst = plan.table.instance
    pairs = []
    for pair in plan.pairs:
        pairs.append(
            {
                "columns": list(pair.columns),
                "kind": pair.kind,
                "tag": pair.tag,
                "cell_split": pair.cell_split,
                "n_transmissions": pair.n_transmissions,
                "colors": list(pair.coloring.colors),
                "messages": [
                    {
                        "table_message": g,
                        "part": part,
                        "label": plan.table.message_label(g)
                        + ("" if pair.cell_split == 1 else f"#{part}"),
                    }
                    for g, part in pair.part_map
                ],
                "scheme": json.loads(pair.scheme.to_json()),
            }
        )
    payload = {
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
        "pairs": pairs,
    }
    return json.dumps(payload, indent=2)

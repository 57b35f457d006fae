"""The benchmark's workloads: inputs made from a seed, the calls one item
times, and the exact checks on what the item returned.

Each item has a ``key`` that names its input without the seed. The seed only
draws demands (plan and sweep workloads) or renames messages (oracle
workload); neither changes the delivery components, the rates or the oracle
values, so every item has a seed-independent *canonical* output whose digest
is committed for all seeds. The full output bytes are committed for the
default seed only.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import macc_lab as mcl

DEFAULT_SEED = 0
MODES = ("quadratic", "linear", "divisor")


@dataclass(frozen=True)
class Item:
    key: str
    args: tuple


def canonical_plan(text: str) -> str:
    """Plan JSON without the demand-dependent fields: the demand vector and the
    table message id and label behind each local message."""
    data = json.loads(text)
    del data["demands"]
    for pair in data["pairs"]:
        for msg in pair["messages"]:
            del msg["table_message"], msg["label"]
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _demands(rng: random.Random, k: int) -> tuple[int, ...]:
    """One demand per user from K files, repeats allowed."""
    return tuple(rng.randint(1, k) for _ in range(k))


class PlanWorkload:
    """One item = ``assemble`` -> ``verify_plan`` -> ``plan_to_json`` in
    quadratic mode, the calls ``macc-lab plan`` makes."""

    def __init__(self, corners, field: mcl.FieldSpec | None = None):
        self.corners = corners
        self.field = field
        # no field given: these corners get the default GF(2^8)
        self.field_degrees = ((field or mcl.FieldSpec()).w,)

    def items(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        return [
            Item(f"K{k}-L{l}-i{i}", (mcl.MaccInstance(k, k, l, i), _demands(rng, k)))
            for k, l, i in self.corners
        ]

    def run(self, api, item: Item):
        instance, demands = item.args
        plan = api.assemble(instance, demands, mode="quadratic", field=self.field)
        check = api.verify_plan(plan)
        return plan, check, api.plan_to_json(plan)

    def check(self, item: Item, result) -> tuple[list[str], str, str]:
        plan, check, text = result
        inst = item.args[0]
        problems = []
        if not check.ok:
            problems.append("verify_plan(...).ok is false")
        calc = mcl.rate_quadratic(inst.n_caches, inst.access_degree, inst.memory_index)
        if (plan.rate, plan.subpacketization) != (calc.rate, calc.subpacketization):
            problems.append(
                f"rate {plan.rate}, F {plan.subpacketization} != calculator "
                f"{calc.rate}, F {calc.subpacketization}"
            )
        return problems, canonical_plan(text), text


class SweepWorkload:
    """Every corner K = 3..14, all L and i, in each mode, with the sweep's
    oracle cap 0. One item = ``compare`` + ``assemble`` + ``verify_plan`` +
    ``plan_to_json``."""

    field_degrees = (8,)

    def items(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        out = []
        for mode in MODES:
            for k in range(3, 15):
                for l in range(1, k + 1):
                    for i in range(1, -(-k // l) + 1):
                        inst = mcl.MaccInstance(k, k, l, i)
                        out.append(Item(f"{mode}/K{k}-L{l}-i{i}", (mode, inst, _demands(rng, k))))
        return out

    def run(self, api, item: Item):
        mode, inst, demands = item.args
        reports = api.compare(inst.n_caches, inst.access_degree, inst.memory_index)
        plan = api.assemble(inst, demands, mode=mode, oracle_node_cap=0)
        check = api.verify_plan(plan)
        return reports, plan, check, api.plan_to_json(plan)

    def check(self, item: Item, result) -> tuple[list[str], str, str]:
        reports, plan, check, text = result
        mode = item.args[0]
        problems = []
        if not check.ok:
            problems.append("verify_plan(...).ok is false")
        if mode in ("quadratic", "divisor"):
            rep = reports[mode]
            if not rep.applicable or (plan.rate, plan.subpacketization) != (
                rep.rate,
                rep.subpacketization,
            ):
                problems.append(
                    f"rate {plan.rate}, F {plan.subpacketization} != calculator "
                    f"{rep.rate}, F {rep.subpacketization}"
                )
        rates = json.dumps(
            {n: [r.applicable, str(r.rate), r.subpacketization, r.note] for n, r in reports.items()}
        )
        return problems, rates + canonical_plan(text), rates + text


def relabel(icp: mcl.IcpInstance, rng: random.Random) -> mcl.IcpInstance:
    """The same single-unicast instance with its messages renamed at random,
    users reordered so that node ``v`` still wants message ``v``. Users that
    shared a known-set object still share its renamed copy."""
    new = list(range(1, icp.n_messages + 1))
    rng.shuffle(new)
    renamed: dict[int, frozenset[int]] = {}

    def rename(s: frozenset[int]) -> frozenset[int]:
        out = renamed.get(id(s))
        if out is None:
            out = renamed[id(s)] = frozenset(new[m - 1] for m in s)
        return out

    users = sorted(
        (mcl.IcpUser(want=rename(u.want), known=rename(u.known)) for u in icp.users),
        key=lambda u: min(u.want),
    )
    return mcl.IcpInstance(n_messages=icp.n_messages, users=tuple(users))


def _capped(fn, icp, cap: int):
    """An oracle's answer, or None when the instance is above its node cap."""
    try:
        return fn(icp, node_cap=cap)
    except mcl.SizeCapError:
        return None


class OracleWorkload:
    """Criterion-7-style certification of ``as_icp(reduce_macc(...))`` for
    every K <= 6. Corners with the same K and iL reduce to the same table, so
    there is one item per distinct (K, iL)."""

    field_degrees = (8,)
    CHI_CAP = 20
    MAIS_CAP = 20  # the n = 24 instances take about 40 s each
    MIN_RANK_CAP = 10

    def items(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        out = []
        for k in range(2, 7):
            for cov in range(1, k):
                inst = mcl.MaccInstance(k, k, 1, cov)
                base = mcl.as_icp(mcl.reduce_macc(inst))
                out.append(Item(f"K{k}-iL{cov}", (inst, base, relabel(base, rng))))
        return out

    def run(self, api, item: Item) -> dict:
        # min-rank runs on the unrenamed instance: its backtracking time varies
        # 2.6x between namings, which would swamp the benchmark's spread.
        inst, base, icp = item.args
        n = icp.n_nodes
        chi = _capped(api.exhaustive_chi_l, icp, self.CHI_CAP)
        lower = _capped(api.mais, icp, self.MAIS_CAP)
        min_rank = _capped(api.min_rank_gf2, base, self.MIN_RANK_CAP)
        colorings = [api.greedy_coloring(icp), mcl.Coloring(tuple(range(1, n + 1)))]
        if chi is not None:
            colorings.append(chi[1])
        components = []
        for mode in MODES:
            plan = api.assemble(inst, mode=mode)
            for pair in plan.pairs:
                comp = api.pair_instance(pair)
                comp_chi = _capped(api.exhaustive_chi_l, comp, self.CHI_CAP)
                components.append(
                    {
                        "mode": mode,
                        "columns": list(pair.columns),
                        "nodes": comp.n_nodes,
                        "chi_l": None if comp_chi is None else comp_chi[0],
                        "mais": _capped(api.mais, comp, self.MAIS_CAP),
                        "local_count": api.local_count(comp, pair.coloring),
                        "transmissions": pair.n_transmissions,
                    }
                )
        return {
            "nodes": n,
            "chi_l": None if chi is None else chi[0],
            "mais": lower,
            "min_rank": min_rank,
            "components": components,
            # first-fit coloring depends on the node names, so these two are
            # outside the canonical output
            "transmissions": [api.encode(icp, c).n_transmissions for c in colorings],
            "local_counts": [api.local_count(icp, c) for c in colorings],
        }

    def check(self, item: Item, result: dict) -> tuple[list[str], str, str]:
        chi, lower, min_rank = result["chi_l"], result["mais"], result["min_rank"]
        problems = []
        if lower is not None and min_rank is not None and lower > min_rank:
            problems.append(f"mais {lower} > min_rank {min_rank}")
        for tx in result["transmissions"]:
            if lower is not None and lower > tx:
                problems.append(f"mais {lower} > {tx} transmissions")
            if min_rank is not None and min_rank > tx:
                problems.append(f"min_rank {min_rank} > {tx} transmissions")
        for lc in result["local_counts"]:
            if chi is not None and chi > lc:
                problems.append(f"chi_l {chi} > local count {lc}")
        for comp in result["components"]:
            if comp["chi_l"] is not None and comp["chi_l"] > comp["local_count"]:
                problems.append(f"component {comp['mode']} {comp['columns']}: chi_l above local count")
            if comp["mais"] is not None and comp["mais"] > comp["transmissions"]:
                problems.append(f"component {comp['mode']} {comp['columns']}: mais above transmissions")
        canonical = {k: result[k] for k in ("nodes", "chi_l", "mais", "min_rank", "components")}
        return problems, json.dumps(canonical, sort_keys=True), json.dumps(result, sort_keys=True)


WORKLOADS = {
    "plan_large": PlanWorkload(((40, 2, 6), (48, 2, 14), (60, 4, 12), (60, 2, 7))),
    "plan_w16": PlanWorkload(((40, 2, 6), (48, 2, 14)), mcl.FieldSpec(16)),
    "sweep_small": SweepWorkload(),
    "oracle_certify": OracleWorkload(),
}

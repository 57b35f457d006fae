"""Assemble, inspect, and verify complete delivery plans for one system.

Three modes cover the subpacketization/rate trade-off: linear keeps whole
subfiles, quadratic splits each subfile into m parts to shave the rate, and
divisor pins a single palette X | K everywhere. Every plan checks itself
when it is built: each user must recover its wanted parts by eliminating
what its caches already hold from the received linear combinations, and
`verify_plan` reports the verdicts that check took.
"""

import json

from macc_lab import MaccInstance, assemble, plan_to_json, verify_plan


def describe(plan) -> None:
    check = verify_plan(plan)
    print(f"mode {plan.mode}: rate {plan.rate} ({float(plan.rate):.4f}), "
          f"F = {plan.subpacketization}, {plan.n_transmissions} transmissions, "
          f"field GF(2^{plan.field.w})")
    for pair in plan.pairs:
        cols = "+".join(str(c) for c in pair.columns)
        print(f"  columns {cols}: {pair.kind} via {pair.tag}, "
              f"cells cut in {pair.cell_split}, "
              f"{pair.n_transmissions} transmissions")
    print(f"  decode checks: {sum(check.users_ok)}/{len(check.users_ok)} users, "
          f"calculator rate {check.calculator_rate} "
          f"({'matched' if check.rate_equal else 'bounded'})")
    print()


def main() -> None:
    inst = MaccInstance(n_files=8, n_caches=8, access_degree=2, memory_index=3)
    print(f"system: K = {inst.n_caches}, L = {inst.access_degree}, i = {inst.memory_index}\n")
    for mode in ("linear", "quadratic", "divisor"):
        describe(assemble(inst, mode=mode))

    odd = MaccInstance(n_files=9, n_caches=9, access_degree=2, memory_index=3)
    print(f"odd leftover column: K = {odd.n_caches}, L = {odd.access_degree}, "
          f"i = {odd.memory_index}\n")
    for mode in ("linear", "quadratic"):
        describe(assemble(odd, mode=mode))

    plan = assemble(inst, mode="quadratic")
    payload = json.loads(plan_to_json(plan))
    first = payload["pairs"][0]["messages"][0]
    print("plan JSON starts with message "
          f"{first['label']} (table message {first['table_message']}, "
          f"part {first['part']}); full schedule serializes to "
          f"{len(plan_to_json(plan))} bytes.")


if __name__ == "__main__":
    main()

"""Acceptance suite.

Each test covers one numbered criterion, prints a single pass/fail line with
its runtime, and enforces the criterion's runtime budget. Every expected
value is an exact integer or rational; no tolerances.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from macc_lab import (
    Coloring,
    FieldSpec,
    MaccInstance,
    UnionIcpDesc,
    as_icp,
    assemble,
    compare,
    divisor_coloring,
    encode,
    exhaustive_chi_l,
    fractional_coloring,
    greedy_coloring,
    is_proper,
    local_count,
    mais,
    min_rank_gf2,
    mod1,
    pair_instance,
    rate_divisor,
    rate_linear,
    rate_prior_general,
    rate_prior_restricted,
    realize_union_split,
    reduce_macc,
    smallest_valid_divisor,
    union_bounds,
    verify_plan,
    verify_scheme,
)


def report(num: int, failures: list[str], detail: str, t0: float, budget: float):
    elapsed = time.time() - t0
    ok = not failures and elapsed < budget
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail} ({elapsed:.2f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])
    assert elapsed < budget, f"criterion {num}: {elapsed:.2f}s over budget {budget}s"


def test_criterion_1_eight_cache_walkthrough():
    t0 = time.time()
    failures = []
    field = FieldSpec(8)

    plan = assemble(MaccInstance(8, 8, 2, 3), mode="quadratic", field=field)
    check = verify_plan(plan)
    if plan.rate != Fraction(3, 8):
        failures.append(f"plan rate {plan.rate} != 3/8")
    if plan.field != field:
        failures.append("plan not coded over GF(2^8)")
    if len(check.users_ok) != 8 or not all(check.users_ok):
        failures.append(f"users_ok {check.users_ok}")
    if not check.ok:
        failures.append("plan verification failed")

    icp = as_icp(reduce_macc(MaccInstance(8, 8, 2, 3)))
    if icp.n_nodes != 16:
        failures.append(f"reduced instance has {icp.n_nodes} nodes, expected 16")
    chi, witness = exhaustive_chi_l(icp)
    if chi != 3:
        failures.append(f"exhaustive chi_l {chi} != 3")
    if not is_proper(icp, witness):
        failures.append("witness coloring improper")
    if local_count(icp, witness) != 3:
        failures.append("witness local count != 3")
    scheme = encode(icp, witness, field=field)
    if scheme.n_transmissions != 3:
        failures.append(f"{scheme.n_transmissions} transmissions != 3")
    if not all(verify_scheme(scheme, icp)):
        failures.append("oracle-witness scheme does not decode everywhere")
    # three whole-subfile transmissions out of K = 8 parts per file
    if Fraction(scheme.n_transmissions, 8) != Fraction(3, 8):
        failures.append("whole-subfile rate mismatch at F=8")

    report(1, failures, "rate 3/8 over GF(2^8), chi_l 3 at F=8", t0, 60.0)


def test_criterion_2_hundred_cache_rates():
    t0 = time.time()
    failures = []
    reports = compare(100, 4, 20, divisor=25)
    if reports["prior_restricted"].applicable:
        failures.append("prior_restricted unexpectedly applicable")
    if reports["prior_general"].rate != Fraction(5, 2):
        failures.append(f"prior_general {reports['prior_general'].rate} != 5/2")
    if reports["prior_general"].subpacketization != 800:
        failures.append("prior_general F != 800")
    if reports["divisor"].rate != Fraction(5, 2):
        failures.append(f"divisor {reports['divisor'].rate} != 5/2")
    if reports["linear"].rate != Fraction(51, 20):
        failures.append(f"linear {reports['linear'].rate} != 51/20")
    if reports["quadratic"].subpacketization != 400:
        failures.append("quadratic F != 400")
    # exact value of the quadratic formula; the looser 2.14 figure that
    # sometimes circulates is recorded as a discrepancy, not a target
    if reports["quadratic"].rate != Fraction(177, 80):
        failures.append(f"quadratic {reports['quadratic'].rate} != 177/80")
    report(2, failures, "rates at (100, 4, 20) incl. 177/80 quadratic", t0, 1.0)


def test_criterion_3_scalar_union_bounds():
    t0 = time.time()
    failures = []
    desc = UnionIcpDesc(2, 2, 9)
    bounds = union_bounds(desc)
    if (bounds.lower, bounds.scalar, bounds.divisor) != (6, 8, 7):
        failures.append(f"bounds {bounds} != (6, 8, 7, _)")
    coloring = divisor_coloring(desc, 7)
    icp = realize_union_split(desc, 1)
    if not is_proper(icp, coloring):
        failures.append("7-color residue coloring improper")
    scheme = encode(icp, coloring)
    if scheme.n_transmissions != 7:
        failures.append(f"{scheme.n_transmissions} transmissions != 7")
    results = verify_scheme(scheme, icp)
    if len(results) != 28 or not all(results):
        failures.append("not every user decodes both wanted messages")
    report(3, failures, "union (2,2)_9: 7 colors, 7 transmissions, 14 users", t0, 5.0)


def test_criterion_4_fractional_union_bounds():
    t0 = time.time()
    failures = []
    bounds = union_bounds(UnionIcpDesc(10, 10, 1000))
    if bounds.scalar != 32:
        failures.append(f"scalar {bounds.scalar} != 32")
    if bounds.lower != 22:
        failures.append(f"lower {bounds.lower} != 22")
    # literal formula value; the rounded 22.2173 is the same number
    if bounds.fractional != Fraction(1021, 46):
        failures.append(f"fractional {bounds.fractional} != 1021/46")
    if bounds.divisor != 1021:
        failures.append("prime cycle should force the full palette")
    report(4, failures, "union (10,10)_1000 bounds incl. 1021/46", t0, 1.0)


def test_criterion_5_random_coloring_suite():
    t0 = time.time()
    failures = []
    rng = random.Random(20250811)
    checked = 0
    for trial in range(500):
        a1 = rng.randint(0, 8)
        a2 = rng.randint(0, a1)
        z = rng.randint(1, 60 - a1 - a2 - 1)
        desc = UnionIcpDesc(a1, a2, z)
        tag = f"trial {trial} (a1={a1}, a2={a2}, z={z})"

        palette = smallest_valid_divisor(desc.k, a1 + a2 + 2)
        coloring = divisor_coloring(desc, palette)
        icp = realize_union_split(desc, 1)
        if not is_proper(icp, coloring):
            failures.append(f"{tag}: residue coloring improper")
            continue
        scheme = encode(icp, coloring)
        if not all(verify_scheme(scheme, icp)):
            failures.append(f"{tag}: residue scheme fails decode")

        split_coloring, m = fractional_coloring(desc)
        split_icp = realize_union_split(desc, m)
        if not is_proper(split_icp, split_coloring):
            failures.append(f"{tag}: split coloring improper")
            continue
        split_scheme = encode(split_icp, split_coloring)
        if not all(verify_scheme(split_scheme, split_icp)):
            failures.append(f"{tag}: split scheme fails decode")
        checked += 1
    report(5, failures, f"{checked}/500 random descriptors, both colorings", t0, 180.0)


def test_criterion_6_recovery_and_strict_improvement():
    t0 = time.time()
    failures = []

    recovered = 0
    for k in range(1, 61):
        for l in range(1, k + 1):
            for i in range(1, -(-k // l) + 1):
                rep = rate_prior_restricted(k, l, i)
                if not rep.applicable:
                    continue
                via = rate_divisor(k, l, i, divisor=k - i * l + i)
                if via.rate != rep.rate:
                    failures.append(f"recovery mismatch at ({k},{l},{i})")
                recovered += 1

    compared = 0
    for k in range(3, 201):
        for l in range(1, k + 1):
            for i in range(1, -(-k // l) + 1):
                cov = i * l
                d = k - cov
                if d < 1 or not (3 * cov < k) or d % 2 != 0:
                    continue
                if mod1(k, d + 1) == d:
                    continue
                r2 = rate_prior_general(k, l, i).rate
                r4 = rate_linear(k, l, i).rate
                if r2 != Fraction(d, 2):
                    failures.append(f"r2 at ({k},{l},{i}) is {r2}, not {d}/2")
                if r4 != Fraction(d, 2) - Fraction(cov * (cov - 1), 2 * k):
                    failures.append(f"r4 closed form off at ({k},{l},{i})")
                if cov >= 2:
                    # the improvement term iL(iL-1)/2K is positive: strict win
                    if not r4 < r2:
                        failures.append(f"r4 !< r2 at ({k},{l},{i})")
                    compared += 1
                elif r4 != r2:
                    # single-cache coverage: the term vanishes, rates coincide
                    failures.append(f"boundary ({k},{l},{i}) should tie")

    report(
        6,
        failures,
        f"{recovered} recovery corners, {compared} strict comparisons",
        t0,
        60.0,
    )


def oracle_sandwich(inst: MaccInstance, failures: list[str]) -> tuple[int, int]:
    """Check mais <= min_rank <= transmissions and chi_l <= local count on
    the corner's reduction and on every component of its plans, below each
    oracle's cap; returns the schemes and colorings checked."""
    checked_schemes = 0
    checked_colorings = 0
    icp = as_icp(reduce_macc(inst))
    n = icp.n_nodes
    tag = f"({inst.n_caches},{inst.access_degree},{inst.memory_index})"

    colorings = [greedy_coloring(icp),
                 Coloring(tuple(range(1, n + 1)))]
    chi = None
    if n <= 20:
        chi, witness = exhaustive_chi_l(icp)
        colorings.append(witness)
    schemes = [encode(icp, c) for c in colorings]

    lower = mais(icp) if n <= 24 else None
    min_rank = min_rank_gf2(icp) if n <= 10 else None
    if lower is not None and min_rank is not None:
        if not lower <= min_rank:
            failures.append(f"{tag}: mais > min_rank")
    for scheme in schemes:
        tx = scheme.n_transmissions
        if lower is not None and not lower <= tx:
            failures.append(f"{tag}: mais {lower} > {tx} transmissions")
        if min_rank is not None and not min_rank <= tx:
            failures.append(f"{tag}: min_rank {min_rank} > {tx}")
        checked_schemes += 1
    if chi is not None:
        for c in colorings:
            if not chi <= local_count(icp, c):
                failures.append(f"{tag}: chi_l above a local count")
            checked_colorings += 1

    # component-level sandwich inside assembled plans
    for mode in ("linear", "quadratic", "divisor"):
        plan = assemble(inst, mode=mode)
        for pair in plan.pairs:
            comp = pair_instance(pair)
            cn = comp.n_nodes
            if cn <= 20:
                comp_chi = exhaustive_chi_l(comp)[0]
                if not comp_chi <= local_count(comp, pair.coloring):
                    failures.append(f"{tag} {mode}: component chi")
                checked_colorings += 1
            if cn <= 24:
                comp_lower = mais(comp)
                if not comp_lower <= pair.n_transmissions:
                    failures.append(f"{tag} {mode}: component mais")
                checked_schemes += 1
    return checked_schemes, checked_colorings


def sandwich_corners(k: int):
    """Every corner (K, L, i) with K - iL >= 1 at this K."""
    for l in range(1, k + 1):
        for i in range(1, -(-k // l) + 1):
            if k - i * l >= 1:
                yield MaccInstance(k, k, l, i)


def test_criterion_7_oracle_sandwich():
    t0 = time.time()
    failures = []
    checked_schemes = 0
    checked_colorings = 0

    for k in range(2, 7):
        for inst in sandwich_corners(k):
            schemes, colorings = oracle_sandwich(inst, failures)
            checked_schemes += schemes
            checked_colorings += colorings

    report(
        7,
        failures,
        f"{checked_schemes} schemes, {checked_colorings} colorings sandwiched",
        t0,
        300.0,
    )


def test_criterion_7_oracle_sandwich_k7():
    """The same sandwich on the K = 7 corners whose reductions fit the mais
    cap: a reduction has K(K - iL) nodes, here 21, 14 or 7."""
    t0 = time.time()
    failures = []
    checked_schemes = 0
    checked_colorings = 0
    for inst in sandwich_corners(7):
        if 7 * (7 - inst.memory_index * inst.access_degree) > 24:
            continue
        schemes, colorings = oracle_sandwich(inst, failures)
        checked_schemes += schemes
        checked_colorings += colorings
    report(
        7,
        failures,
        f"K=7: {checked_schemes} schemes, {checked_colorings} colorings sandwiched",
        t0,
        300.0,
    )


def test_criterion_8_end_to_end_sweep():
    t0 = time.time()
    failures = []
    plans = 0
    for k in range(3, 15):
        for l in range(1, k + 1):
            for i in range(1, -(-k // l) + 1):
                inst = MaccInstance(k, k, l, i)
                for mode in ("quadratic", "divisor"):
                    plan = assemble(inst, mode=mode)
                    check = verify_plan(plan)
                    tag = f"({k},{l},{i}) {mode}"
                    if not all(check.users_ok):
                        failures.append(f"{tag}: decode failure")
                    if check.rate_equal is not True:
                        failures.append(
                            f"{tag}: rate {plan.rate} != {check.calculator_rate}"
                        )
                    if not check.ok:
                        failures.append(f"{tag}: verification failed")
                    plans += 1
    report(8, failures, f"{plans} plans decode-verified with exact rates", t0, 300.0)

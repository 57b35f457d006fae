"""End-to-end tests for plan assembly, verification, and serialization."""

from __future__ import annotations

import json
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc_lab import delivery, linalg_ff
from macc_lab import (
    FieldSpec,
    IcpInstance,
    IcpUser,
    MaccInstance,
    ParameterError,
    SizeCapError,
    VerificationError,
    assemble,
    pair_instance,
    plan_to_json,
    rate_divisor,
    verify_plan,
    verify_scheme,
)


def plan_for(k, l, i, mode, **kw):
    return assemble(MaccInstance(k, k, l, i), mode=mode, **kw)


@st.composite
def corners(draw):
    k = draw(st.integers(2, 12))
    l = draw(st.integers(1, k))
    i = draw(st.integers(1, -(-k // l)))
    return k, l, i


class TestFrozenPlans:
    def test_quadratic_eight_caches(self):
        plan = plan_for(8, 2, 3, "quadratic")
        assert plan.rate == Fraction(3, 8)
        assert plan.subpacketization == 16
        assert plan.base_split == 2
        assert plan.n_transmissions == 6
        (pair,) = plan.pairs
        assert (pair.kind, pair.tag, pair.cell_split) == ("union", "fractional", 2)
        check = verify_plan(plan)
        assert check.ok and check.rate_equal and all(check.users_ok)

    def test_linear_eight_caches(self):
        plan = plan_for(8, 2, 3, "linear")
        assert plan.rate == Fraction(3, 8)
        assert plan.subpacketization == 8
        assert plan.n_transmissions == 3
        (pair,) = plan.pairs
        assert (pair.kind, pair.tag, pair.cell_split) == ("union", "divisor", 1)
        assert verify_plan(plan).ok

    def test_single_deficit_column_is_one_transmission(self):
        for mode in ("linear", "quadratic"):
            plan = plan_for(4, 1, 3, mode)
            assert plan.rate == Fraction(1, 4)
            assert plan.n_transmissions == 1
            (pair,) = plan.pairs
            assert (pair.kind, pair.tag) == ("column", "clique")
            assert verify_plan(plan).ok

    def test_full_coverage_plan_is_empty(self):
        plan = plan_for(6, 2, 3, "quadratic")
        assert plan.pairs == ()
        assert plan.rate == 0
        assert plan.subpacketization == 6
        assert verify_plan(plan).ok
        plan = plan_for(6, 2, 3, "divisor", divisor=3)
        assert plan.pairs == () and plan.divisor is None

    def test_divisor_mode_wide(self):
        plan = plan_for(100, 4, 20, "divisor", divisor=25)
        assert plan.rate == Fraction(5, 2)
        assert plan.subpacketization == 100
        assert plan.divisor == 25
        assert all(p.n_transmissions == 25 for p in plan.pairs)
        assert verify_plan(plan).ok

    def test_odd_deficit_quadratic(self):
        plan = plan_for(9, 2, 3, "quadratic")
        assert plan.rate == Fraction(25, 36)
        assert plan.subpacketization == 20
        kinds = [(p.kind, p.cell_split) for p in plan.pairs]
        assert kinds == [("union", 2), ("middle", 4)]
        assert verify_plan(plan).ok

    def test_odd_deficit_linear_beats_its_bound(self):
        plan = plan_for(9, 2, 3, "linear")
        assert plan.rate == Fraction(7, 9)
        check = verify_plan(plan)
        assert check.ok
        assert check.rate_equal is False
        assert check.within_bound is True
        assert check.calculator_rate == Fraction(5, 3)
        assert plan.notes == ()

    def test_odd_deficit_divisor(self):
        plan = plan_for(9, 2, 3, "divisor")
        assert plan.divisor == 9
        assert plan.rate == Fraction(3, 2)
        # halved leftover cells push subpacketization to K + 1
        assert plan.subpacketization == 10
        assert verify_plan(plan).ok


# (K, L, i), mode -> (kind, tag, cell_split, n_transmissions) per component;
# together these reach all 13 (mode, kind, tag) combinations seen for K <= 12
BRANCH_TABLE = [
    ((3, 1, 1), "quadratic", [("union", "divisor", 1, 3)]),
    ((3, 1, 1), "linear", [("union", "divisor", 1, 3)]),
    ((3, 1, 1), "divisor", [("union", "divisor", 1, 3)]),
    ((3, 1, 2), "quadratic", [("column", "clique", 1, 1)]),
    ((3, 1, 2), "linear", [("column", "clique", 1, 1)]),
    ((3, 1, 2), "divisor", [("middle", "divisor", 2, 3)]),
    ((4, 1, 1), "quadratic", [("union", "divisor", 1, 4), ("middle", "divisor", 2, 4)]),
    ((4, 1, 1), "linear", [("union", "divisor", 1, 4), ("middle", "divisor", 2, 4)]),
    ((4, 1, 2), "quadratic", [("union", "fractional", 1, 3)]),
    (
        (5, 1, 2),
        "quadratic",
        [("union", "fractional", 1, 4), ("middle", "fractional", 2, 5)],
    ),
    ((5, 1, 2), "linear", [("union", "divisor", 1, 4), ("column", "greedy", 1, 3)]),
    (
        (8, 1, 3),
        "linear",
        [("union", "divisor", 1, 6), ("union", "divisor", 1, 7), ("column", "oracle", 1, 4)],
    ),
    (
        (11, 1, 5),
        "linear",
        [("union", "divisor", 1, 7), ("union", "divisor", 1, 8), ("union", "greedy", 1, 8)],
    ),
]


class TestComponentBranches:
    @pytest.mark.parametrize(
        "corner, mode, expected",
        BRANCH_TABLE,
        ids=[f"K{k}-L{l}-i{i}-{mode}" for (k, l, i), mode, _ in BRANCH_TABLE],
    )
    def test_kind_tag_split_and_count(self, corner, mode, expected):
        plan = plan_for(*corner, mode)
        got = [(p.kind, p.tag, p.cell_split, p.n_transmissions) for p in plan.pairs]
        assert got == expected
        assert verify_plan(plan).ok


class TestAssembleValidation:
    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            plan_for(8, 2, 3, "cubic")

    def test_divisor_flag_requires_divisor_mode(self):
        with pytest.raises(ParameterError):
            plan_for(8, 2, 3, "quadratic", divisor=4)
        with pytest.raises(ParameterError):  # K-iL = 0: checked before the empty plan
            plan_for(6, 2, 3, "quadratic", divisor=4)

    def test_divisor_must_fit(self):
        with pytest.raises(ParameterError):
            plan_for(8, 2, 3, "divisor", divisor=3)
        with pytest.raises(ParameterError):
            plan_for(8, 2, 3, "divisor", divisor=2)
        with pytest.raises(ParameterError):  # K-iL = 0: checked before the empty plan
            plan_for(6, 2, 3, "divisor", divisor=5)
        for bad in (8.0, True):
            with pytest.raises(ParameterError, match="divisor must be an integer"):
                plan_for(8, 2, 2, "divisor", divisor=bad)
        # a numpy integer divisor is stored as a Python int and serializes alike
        plan = plan_for(8, 2, 2, "divisor", divisor=np.int64(8))
        assert type(plan.divisor) is int
        assert plan_to_json(plan) == plan_to_json(plan_for(8, 2, 2, "divisor", divisor=8))

    def test_zero_memory_rejected(self):
        with pytest.raises(ParameterError):
            plan_for(8, 2, 0, "quadratic")

    def test_explicit_field_too_small(self):
        with pytest.raises(ParameterError):
            plan_for(8, 2, 3, "divisor", field=FieldSpec(1))


class TestPlanInternals:
    @given(corners(), st.sampled_from(["linear", "quadratic", "divisor"]))
    @settings(max_examples=40, deadline=None)
    def test_accounting_identities(self, corner, mode):
        k, l, i = corner
        plan = plan_for(k, l, i, mode)
        assert plan.rate == sum(
            (Fraction(p.n_transmissions, p.cell_split * k) for p in plan.pairs),
            Fraction(0),
        )
        halved = any(p.cell_split > plan.base_split for p in plan.pairs)
        assert plan.subpacketization == (k + 1 if halved else k) * plan.base_split

    @given(corners(), st.sampled_from(["linear", "quadratic", "divisor"]))
    @settings(max_examples=40, deadline=None)
    def test_components_decode_and_bound_holds(self, corner, mode):
        k, l, i = corner
        plan = plan_for(k, l, i, mode)
        for pair in plan.pairs:
            inst = pair_instance(pair)
            assert len(pair.coloring.colors) == inst.n_nodes
            assert all(verify_scheme(pair.scheme, inst))
        check = verify_plan(plan)
        assert check.ok
        assert check.within_bound is True

    @given(corners())
    @settings(max_examples=30, deadline=None)
    def test_part_map_covers_every_cell_part(self, corner):
        k, l, i = corner
        plan = plan_for(k, l, i, "quadratic")
        table = plan.table
        seen: set[tuple[int, int]] = set()
        for pair in plan.pairs:
            rows = 2 * k if pair.kind == "union" else k
            assert len(pair.part_map) == rows * pair.cell_split
            assert len(set(pair.part_map)) == len(pair.part_map)
            for g, part in pair.part_map:
                assert 1 <= g <= table.n_messages
                assert 1 <= part <= pair.cell_split
            seen.update(pair.part_map)
        # distinct demands put each table message in exactly one component,
        # cut into that component's cell_split parts
        expected = 0
        for pair in plan.pairs:
            msgs = {
                table.entry(r, c) for c in pair.columns for r in range(1, k + 1)
            }
            expected += len(msgs) * pair.cell_split
        assert len(seen) == expected

    def test_duplicate_demands_still_verify(self):
        plan = assemble(
            MaccInstance(8, 8, 2, 3), demands=(1,) * 8, mode="quadratic"
        )
        check = verify_plan(plan)
        assert check.ok and check.rate_equal
        assert plan.rate == Fraction(3, 8)

    def test_divisor_default_matches_calculator(self):
        plan = plan_for(12, 2, 4, "divisor")
        rep = rate_divisor(12, 2, 4)
        assert plan.rate == rep.rate
        assert f"X={plan.divisor}" == rep.note


class TestVerifyOnce:
    def test_each_pair_is_rank_checked_once(self, monkeypatch):
        calls = []
        real = delivery.verify_schemes

        def counted(pairs):
            calls.append([scheme for scheme, _ in pairs])
            return real(pairs)

        # both bindings, so a check reached through either module (verify_scheme
        # included) is counted
        monkeypatch.setattr(delivery, "verify_schemes", counted)
        monkeypatch.setattr(linalg_ff, "verify_schemes", counted)
        plan = plan_for(12, 2, 2, "quadratic")
        check = verify_plan(plan)
        assert check.ok and check.users_ok == plan.users_ok
        assert len(plan.pairs) == 4
        # one batch for the plan, holding every pair's scheme exactly once
        assert len(calls) == 1
        assert sorted(map(id, calls[0])) == sorted(id(p.scheme) for p in plan.pairs)

    def test_replaced_plan_checks_its_own_pairs(self):
        plan = plan_for(8, 2, 3, "quadratic")
        first = plan.pairs[0]
        zeroed = replace(
            first.scheme, coefficients=np.zeros_like(first.scheme.coefficients)
        )
        broken = replace(plan, pairs=(replace(first, scheme=zeroed),) + plan.pairs[1:])
        check = verify_plan(broken)
        assert not check.ok
        assert not any(check.users_ok)
        assert verify_plan(plan).ok

    def test_verdict_cannot_be_passed_in(self):
        plan = plan_for(8, 2, 3, "quadratic")
        with pytest.raises(ValueError):
            replace(plan, users_ok=(True,) * 8)

    def test_coefficients_are_read_only(self):
        plan = plan_for(8, 2, 3, "quadratic")
        with pytest.raises(ValueError):
            plan.pairs[0].scheme.coefficients[0, 0] = 1

    @staticmethod
    def count_batches(monkeypatch) -> list:
        """Record each ``verify_schemes`` batch ``delivery`` runs."""
        batches = []
        real = delivery.verify_schemes

        def counted(pairs):
            batches.append(len(pairs))
            return real(pairs)

        monkeypatch.setattr(delivery, "verify_schemes", counted)
        return batches

    def test_failure_names_component_and_users(self, monkeypatch):
        batches = self.count_batches(monkeypatch)
        real = delivery.encode
        seen = []

        def zero_second(inst, coloring, **kw):
            scheme = real(inst, coloring, **kw)
            seen.append(scheme)
            if len(seen) != 2:
                return scheme
            return replace(scheme, coefficients=np.zeros_like(scheme.coefficients))

        monkeypatch.setattr(delivery, "encode", zero_second)
        with pytest.raises(VerificationError) as info:
            plan_for(12, 2, 2, "quadratic")
        assert len(seen) == 4
        # the plan's own check, then one batch to name the failing pairs
        assert len(batches) == 2
        # zero coefficients: user 1 decodes neither of its two messages there
        assert str(info.value) == (
            "users unable to decode: columns [2, 7] (fractional) table users "
            + str(list(range(1, 13)))
            + " (table user 1 cannot decode F[d1,[3:6]], rank deficit 2)"
        )

    def test_failure_names_message_and_rank_deficit(self, monkeypatch):
        batches = self.count_batches(monkeypatch)
        real = delivery.encode
        seen = []

        def zero_last_row(inst, coloring, **kw):
            scheme = real(inst, coloring, **kw)
            if len(seen) == 1:
                coeff = scheme.coefficients.copy()
                coeff[-1] = 0
                scheme = replace(scheme, coefficients=coeff)
            seen.append((scheme, inst))
            return scheme

        monkeypatch.setattr(delivery, "encode", zero_last_row)
        with pytest.raises(VerificationError) as info:
            plan_for(12, 2, 2, "quadratic")
        found = re.fullmatch(
            r"users unable to decode: columns \[2, 7\] \(fractional\) table users "
            r"(\[[0-9, ]+\]) \(table user (\d+) cannot decode (\S+), rank deficit (\d+)\)",
            str(info.value),
        )
        assert found
        users, user, label, deficit = json.loads(found[1]), int(found[2]), found[3], int(found[4])
        # one row fewer takes at most one dimension from any user
        assert users and user == users[0] and deficit == 1
        assert len(batches) == 2
        # the label is a message the user wants in this pair and cannot decode
        scheme, inst = seen[1]
        monkeypatch.undo()
        plan = plan_for(12, 2, 2, "quadratic")
        pair = plan.pairs[1]
        per_user = len(inst.users) // 12
        local = inst.users[(user - 1) * per_user : user * per_user]

        def part_label(m):
            g, part = pair.part_map[m - 1]
            return delivery._part_label(plan.table.message_label(g), part, pair.cell_split)

        labels = {part_label(m): m for u in local for m in u.want}
        alone = IcpInstance(
            n_messages=inst.n_messages,
            users=(IcpUser(want=frozenset({labels[label]}), known=local[0].known),),
        )
        assert verify_scheme(scheme, alone) == (False,)


class TestVerifierTree:
    @staticmethod
    def splits(monkeypatch) -> list:
        """Record, per verification, whether its elimination tree splits."""
        split = []
        real = linalg_ff._splits

        def recorded(*args):
            split.append(real(*args))
            return split[-1]

        monkeypatch.setattr(linalg_ff, "_splits", recorded)
        return split

    @pytest.mark.parametrize("corner", [(40, 2, 6), (60, 2, 7), (48, 2, 14), (60, 4, 12)])
    def test_large_corners_split(self, monkeypatch, corner):
        split = self.splits(monkeypatch)
        plan = plan_for(*corner, "quadratic")
        assert len(split) == len(plan.pairs) and all(split)

    def test_small_corners_stay_flat(self, monkeypatch):
        split = self.splits(monkeypatch)
        for mode in ("quadratic", "linear", "divisor"):
            for k in range(3, 7):
                for l in range(1, k + 1):
                    for i in range(1, -(-k // l) + 1):
                        plan_for(k, l, i, mode, oracle_node_cap=0)
        assert split and not any(split)


def count_products(monkeypatch) -> list:
    """Record the size of every product `linalg_ff._eliminate` takes, its
    pivot factors included."""
    products = []
    real_eliminate = linalg_ff._eliminate

    def counted(gf, *args):
        real_mul = gf.mul

        def mul(a, b):
            out = real_mul(a, b)
            products.append(out.size)
            return out

        gf.mul = mul
        try:
            return real_eliminate(gf, *args)
        finally:
            del gf.mul

    monkeypatch.setattr(linalg_ff, "_eliminate", counted)
    return products


class TestVerifyBudget:
    def test_oversized_corner_refused_before_elimination(self, monkeypatch):
        def no_elimination(*args, **kwargs):
            raise AssertionError("eliminated before the budget check")

        monkeypatch.setattr(linalg_ff, "_eliminate", no_elimination)
        with pytest.raises(SizeCapError) as info:
            assemble(MaccInstance(320, 320, 100, 2))
        found = re.fullmatch(
            r"verifying this plan takes about (\S+) cells of exact elimination, "
            r"above the budget of (\S+)",
            str(info.value),
        )
        assert found
        assert float(found[1]) > float(found[2]) == delivery.VERIFY_CELL_BUDGET

    def test_k100_fits_the_budget(self, monkeypatch):
        # the bound alone: the exact check after it is stubbed out
        monkeypatch.setattr(
            delivery, "verify_schemes", lambda pairs: [(True,) * icp.n_users for _, icp in pairs]
        )

        def cells(*corner):
            plan = plan_for(*corner, "quadratic")
            return sum(linalg_ff.verify_cells(p.scheme, pair_instance(p)) for p in plan.pairs)

        budget = delivery.VERIFY_CELL_BUDGET
        assert cells(100, 2, 12) < budget
        # within 2x of a corner that verifies in under 10 s
        assert budget / 2 < cells(250, 2, 6) < budget

    def test_oversized_corner_refused_in_bounded_memory(self):
        # its components are node arrays: no per-user sets before the refusal
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError):
                assemble(MaccInstance(320, 320, 100, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20

    def test_corner_past_the_old_budget_verifies(self):
        plan = plan_for(160, 8, 10, "quadratic")
        assert all(plan.users_ok) and verify_plan(plan).ok

    @pytest.mark.parametrize(
        "corner",
        [(k, l, i, "quadratic") for k, l, i in [(40, 2, 6), (48, 2, 14), (60, 4, 12), (60, 2, 7)]]
        + [(k, 2, i, mode) for k, i in [(12, 2), (9, 3)] for mode in ("quadratic", "linear", "divisor")],
    )
    def test_bound_covers_the_cells_eliminated(self, monkeypatch, corner):
        # every product `_eliminate` takes against the bound the budget reads
        products = count_products(monkeypatch)
        plan = plan_for(*corner)
        bound = sum(linalg_ff.verify_cells(p.scheme, pair_instance(p)) for p in plan.pairs)
        assert 0 < sum(products) <= bound

    @pytest.mark.parametrize("corner", [(12, 2, 2, "quadratic"), (60, 2, 7, "quadratic")])
    def test_bound_covers_the_exact_test(self, monkeypatch, corner):
        # every component's last row dropped, so some sets' lacked columns
        # are dependent and take the exact test; per elimination tree, its
        # products against its rows times the per-set cells of their pair,
        # which for the rank tree over the known sets is `verify_cells`
        plan = plan_for(*corner)
        pairs = [
            (replace(p.scheme, coefficients=p.scheme.coefficients[:-1]), pair_instance(p))
            for p in plan.pairs
        ]
        products = count_products(monkeypatch)
        batch, trees = [], []  # per tree: its first product, and its bound
        real_spans, real_ranks = linalg_ff._tree_spans, linalg_ff._tree_ranks

        def spans(run):
            batch.append(run)
            return real_spans(run)

        def ranks(gf, a, lacked, offset, n_tx):
            shapes = [scheme.coefficients.shape for scheme, _ in batch[-1]]
            per_set = [r * n * min(r, n) for r, n in shapes]
            trees.append((len(products), int(np.dot(np.diff(offset), per_set))))
            return real_ranks(gf, a, lacked, offset, n_tx)

        monkeypatch.setattr(linalg_ff, "_tree_spans", spans)
        monkeypatch.setattr(linalg_ff, "_tree_ranks", ranks)
        verdicts = linalg_ff.verify_schemes(pairs)
        assert not all(map(all, verdicts))
        # a rank tree and an exact tree per batch
        assert len(trees) == 2 * len(batch)
        ends = [start for start, _ in trees[1:]] + [len(products)]
        assert all(0 < sum(products[start:end]) <= bound for (start, bound), end in zip(trees, ends))
        cells = sum(linalg_ff.verify_cells(scheme, icp) for scheme, icp in pairs)
        assert sum(bound for _, bound in trees[::2]) == cells


class TestArrayOnly:
    @pytest.mark.parametrize("corner", [(40, 2, 6, "quadratic"), (12, 2, 2, "divisor")])
    def test_plan_path_builds_no_users(self, monkeypatch, corner):
        built = []
        check = IcpUser.__post_init__
        monkeypatch.setattr(IcpUser, "__post_init__", lambda u: (built.append(u), check(u)))
        plan = plan_for(*corner)
        assert verify_plan(plan).ok
        plan_to_json(plan)
        assert built == []


class TestRealizeOnce:
    @staticmethod
    def count_realizations(monkeypatch) -> list:
        realized = []
        for name in ("realize_union_split", "realize_single"):
            real = getattr(delivery, name)

            def counted(*args, _real=real):
                realized.append(_real(*args))
                return realized[-1]

            monkeypatch.setattr(delivery, name, counted)
        return realized

    @pytest.mark.parametrize("mode", ["quadratic", "linear", "divisor"])
    def test_each_component_is_realized_once(self, monkeypatch, mode):
        realized = self.count_realizations(monkeypatch)
        plan = plan_for(9, 2, 3, mode, oracle_node_cap=0)
        assert plan.users_ok == (True,) * 9
        assert len(plan.pairs) == 2
        # each pair holds the very instance its scheme was coded for
        assert len(realized) == len(plan.pairs)
        assert all(pair_instance(p) is inst for p, inst in zip(plan.pairs, realized))

    def test_replaced_plan_realizes_its_own_pairs(self, monkeypatch):
        # a replaced plan checks the instances its pairs hold, realizing none
        plan = plan_for(9, 2, 3, "quadratic")
        realized = self.count_realizations(monkeypatch)
        assert replace(plan).users_ok == plan.users_ok
        assert realized == []


def reference_payload(plan):
    """The plan JSON as one dict, field by field: ``plan_to_json`` must write
    exactly ``json.dumps(reference_payload(plan), indent=2)``."""
    inst = plan.table.instance

    def scheme(s):
        coeff = s.coefficients.astype(">u1" if s.field.w <= 8 else ">u2")
        return {
            "field": {"w": s.field.w, "poly": s.field.poly},
            "message_order": list(s.message_order),
            "split_factor": s.split_factor,
            "rows": [row.tobytes().hex() for row in coeff],
        }

    def label(g, part, split):
        return plan.table.message_label(g) + ("" if split == 1 else f"#{part}")

    return {
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
        "pairs": [
            {
                "columns": list(pair.columns),
                "kind": pair.kind,
                "tag": pair.tag,
                "cell_split": pair.cell_split,
                "n_transmissions": pair.n_transmissions,
                "colors": list(pair.coloring.colors),
                "messages": [
                    {"table_message": g, "part": part, "label": label(g, part, pair.cell_split)}
                    for g, part in pair.part_map
                ],
                "scheme": scheme(pair.scheme),
            }
            for pair in plan.pairs
        ],
    }


@st.composite
def rendered_plans(draw):
    """A K <= 14 plan in any mode, with iL >= K allowed (no pairs), repeated
    demands, and GF(2^8) or GF(2^16)."""
    k = draw(st.integers(2, 14))
    l = draw(st.integers(1, k))
    i = draw(st.integers(1, -(-k // l)))
    demands = draw(st.none() | st.lists(st.integers(1, k), min_size=k, max_size=k))
    field = draw(st.sampled_from([None, FieldSpec(16)]))
    mode = draw(st.sampled_from(["linear", "quadratic", "divisor"]))
    return assemble(MaccInstance(k, k, l, i), demands, mode=mode, field=field, oracle_node_cap=0)


class TestPlanJson:
    @given(rendered_plans())
    @settings(max_examples=200, deadline=None)
    def test_matches_stdlib_rendering(self, plan):
        assert plan_to_json(plan) == json.dumps(reference_payload(plan), indent=2)

    @pytest.mark.parametrize(
        "make, edge",
        [
            (lambda: plan_for(6, 2, 3, "quadratic"), lambda p: p.pairs == ()),  # iL = K
            (lambda: replace(plan_for(9, 2, 3, "linear"), notes=("first", 'a "quoted" \u00e9 note')),
             lambda p: len(p.notes) == 2),
            (lambda: plan_for(8, 2, 2, "divisor", divisor=8), lambda p: p.divisor == 8),
            (lambda: plan_for(9, 2, 3, "quadratic", field=FieldSpec(16)),  # "#j" labels
             lambda p: p.pairs and all(q.cell_split > 1 for q in p.pairs)),
        ],
        ids=["no-pairs", "notes", "explicit-divisor", "split-labels"],
    )
    def test_matches_stdlib_rendering_at_edges(self, make, edge):
        plan = make()
        assert edge(plan)
        assert plan_to_json(plan) == json.dumps(reference_payload(plan), indent=2)

    def test_structure_and_stability(self):
        plan = plan_for(9, 2, 3, "quadratic")
        text = plan_to_json(plan)
        assert text == plan_to_json(plan)
        data = json.loads(text)
        assert data["params"] == {
            "n_files": 9,
            "n_caches": 9,
            "access_degree": 2,
            "memory_index": 3,
        }
        assert data["demands"] == list(range(1, 10))
        assert data["mode"] == "quadratic"
        assert data["rate"] == {"num": 25, "den": 36, "decimal": "0.694444"}
        assert data["subpacketization"] == 20
        assert data["n_transmissions"] == 17
        assert len(data["pairs"]) == 2

    def test_part_labels(self):
        plan = plan_for(9, 2, 3, "quadratic")
        data = json.loads(plan_to_json(plan))
        union = data["pairs"][0]
        assert union["cell_split"] == 2
        labels = [m["label"] for m in union["messages"]]
        assert all("#" in lab for lab in labels)
        assert labels[0].startswith("F[d")

    def test_whole_cell_labels_have_no_part_suffix(self):
        plan = plan_for(8, 2, 3, "linear")
        data = json.loads(plan_to_json(plan))
        labels = [m["label"] for m in data["pairs"][0]["messages"]]
        assert all("#" not in lab for lab in labels)

"""End-to-end tests for plan assembly, verification, and serialization."""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc_lab import delivery, linalg_ff
from macc_lab import (
    FieldSpec,
    MaccInstance,
    ParameterError,
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
        real = delivery.verify_scheme

        def counted(scheme, icp):
            calls.append(scheme)
            return real(scheme, icp)

        # both bindings, so a check reached through either module is counted
        monkeypatch.setattr(delivery, "verify_scheme", counted)
        monkeypatch.setattr(linalg_ff, "verify_scheme", counted)
        plan = plan_for(12, 2, 2, "quadratic")
        check = verify_plan(plan)
        assert check.ok and check.users_ok == plan.users_ok
        assert len(plan.pairs) == 4
        assert len(calls) == len(plan.pairs)

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

    def test_failure_names_component_and_users(self, monkeypatch):
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
        assert str(info.value) == (
            "users unable to decode: columns [2, 7] (fractional) table users "
            + str(list(range(1, 13)))
        )


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
        got = list(realized)
        assert got == [pair_instance(p) for p in plan.pairs]

    def test_replaced_plan_realizes_its_own_pairs(self, monkeypatch):
        plan = plan_for(9, 2, 3, "quadratic")
        realized = self.count_realizations(monkeypatch)
        assert replace(plan).users_ok == plan.users_ok
        got = list(realized)
        assert got == [pair_instance(p) for p in plan.pairs]

    def test_instances_must_match_pairs(self):
        plan = plan_for(9, 2, 3, "quadratic")
        with pytest.raises(ParameterError):
            replace(plan, instances=(pair_instance(plan.pairs[0]),))


class TestPlanJson:
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

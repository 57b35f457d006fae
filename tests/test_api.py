"""The public surface: every exported name resolves."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

import macc_lab
from macc_lab import IcpInstance, IcpUser, node_data

# the package surface as it stood when __all__ was a hand-written list
SURFACE = frozenset({
    "__version__",
    "MaccLabError", "ParameterError", "VerificationError", "SizeCapError",
    "mod1", "circ_interval", "interval_contains", "MaccInstance", "demand_vector",
    "PlacementMap", "place", "accessible_subfiles", "needed_subfiles",
    "StructuredIcpDesc", "UnionIcpDesc", "IcpUser", "IcpInstance", "node_data",
    "realize_single", "realize_union_split", "IcpTable", "reduce_macc", "as_icp",
    "pair_columns", "icp_to_json",
    "Coloring", "interferers", "is_proper", "local_count", "divisor_coloring",
    "fractional_split", "fractional_coloring", "greedy_coloring", "closed_color_sets",
    "FieldSpec", "field_for", "mds_generator", "rank", "TransmissionScheme", "encode",
    "verify_scheme",
    "exhaustive_chi_l", "mais", "min_rank_gf2", "node_cap_check",
    "RateReport", "UnionBounds", "single_icp_bound", "union_bounds",
    "smallest_valid_divisor", "corner_points", "rate_prior_restricted",
    "rate_prior_general", "rate_divisor", "rate_linear", "rate_quadratic", "compare",
    "memory_share",
    "PairPlan", "DeliveryPlan", "PlanCheck", "assemble", "pair_instance", "verify_plan",
    "plan_to_json",
})

# names perfbench/run.py and perfbench/workloads.py read from the package
BENCHMARK_READS = frozenset({
    "Coloring", "FieldSpec", "IcpInstance", "IcpUser", "MaccInstance", "SizeCapError",
    "as_icp", "node_data", "rate_quadratic", "reduce_macc",
})


def _tracer() -> ModuleType:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module",
    ["macc_lab", "macc_lab.delivery", "macc_lab.rates", "macc_lab.cli"],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_surface_is_read_from_the_imports():
    assert len(macc_lab.__all__) == len(set(macc_lab.__all__))
    assert set(macc_lab.__all__) == SURFACE
    assert [n for n in macc_lab.__all__ if isinstance(getattr(macc_lab, n), ModuleType)] == []


def test_benchmark_names_are_exported():
    tracer = _tracer()
    assert (set(tracer.TOP_LEVEL) | BENCHMARK_READS) - set(macc_lab.__all__) == set()
    # the tracer also rebinds names one submodule imports from another
    unbound = [(mod, attr) for mod, attr, _ in tracer.IMPORTED
               if not hasattr(getattr(macc_lab, mod), attr)]
    assert unbound == []


def test_node_data_is_the_instance():
    # benchmark harnesses read node_data.cache_info() on every run
    icp = IcpInstance(n_messages=2, users=(IcpUser(frozenset({1}), frozenset({2})),))
    node_data.cache_clear()
    assert node_data(icp) is icp
    assert node_data.cache_info().misses == 1

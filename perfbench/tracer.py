"""Span recorder that times macc_lab's layers from outside the package.

A call reaches a function through the globals of the module that imported
it, so every cross-module name a workload reaches is replaced in *each*
importing module: ``require_all_decode`` finds ``verify_scheme`` in
``linalg_ff``, ``verify_plan`` finds it in ``delivery``, and both bindings get
the same wrapper. The workload's own top-level calls go through the
namespace :meth:`Tracer.install` returns. Spans (name, start, end, parent, item) and the counters
measured at the same boundaries stay in memory until :meth:`Tracer.write`.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores every
original binding.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

# (module, attribute, span name) for names one macc_lab module imports from
# another and calls on a workload's path.
IMPORTED = (
    ("delivery", "reduce_macc", "icp.reduce_macc"),
    ("delivery", "realize_union_split", "icp.realize"),
    ("delivery", "realize_single", "icp.realize"),
    ("delivery", "divisor_coloring", "coloring.construct"),
    ("delivery", "fractional_coloring", "coloring.construct"),
    ("delivery", "greedy_coloring", "coloring.construct"),
    ("delivery", "local_count", "coloring.local_count"),
    ("delivery", "encode", "linalg_ff.encode"),
    ("delivery", "verify_scheme", "linalg_ff.verify_scheme"),
    ("delivery", "exhaustive_chi_l", "oracle.chi_l"),
    ("delivery", "rate_quadratic", "rates.calc"),
    ("delivery", "rate_divisor", "rates.calc"),
    ("delivery", "rate_linear", "rates.calc"),
    ("delivery", "smallest_valid_divisor", "rates.calc"),
    ("linalg_ff", "verify_scheme", "linalg_ff.verify_scheme"),
    ("linalg_ff", "is_proper", "coloring.is_proper"),
    ("linalg_ff", "local_count", "coloring.local_count"),
)

# public functions the workloads call directly, with their span names
TOP_LEVEL = {
    "assemble": "delivery.assemble",
    "verify_plan": "delivery.verify_plan",
    "plan_to_json": "delivery.plan_to_json",
    "pair_instance": "delivery.pair_instance",
    "compare": "rates.compare",
    "as_icp": "icp.as_icp",
    "greedy_coloring": "coloring.construct",
    "local_count": "coloring.local_count",
    "encode": "linalg_ff.encode",
    "exhaustive_chi_l": "oracle.chi_l",
    "mais": "oracle.mais",
    "min_rank_gf2": "oracle.min_rank",
}

# per-layer metrics: name -> (unit, better); BENCHMARK.json lists the same set
LAYER_METRICS = {
    "linalg_ff.verify_scheme.s": ("s", "lower"),
    "linalg_ff.verify_scheme.calls": ("count", "lower"),
    "linalg_ff.verify_repeat_ratio": ("ratio", "lower"),
    "linalg_ff.eliminations": ("count", "lower"),
    "linalg_ff.elim_cells": ("count", "lower"),
    "linalg_ff.encode.s": ("s", "lower"),
    "delivery.assemble.s": ("s", "lower"),
    "delivery.assemble.self_s": ("s", "lower"),
    "delivery.verify_plan.s": ("s", "lower"),
    "delivery.verify_plan.self_s": ("s", "lower"),
    "delivery.plan_to_json.s": ("s", "lower"),
    "delivery.pairs": ("count", "lower"),
    "delivery.transmissions": ("count", "lower"),
    "icp.reduce_macc.s": ("s", "lower"),
    "icp.realize.s": ("s", "lower"),
    "icp.realize.nodes": ("count", "lower"),
    "icp.node_data.misses": ("count", "lower"),
    "icp.node_data.hit_ratio": ("ratio", "higher"),
    "coloring.construct.s": ("s", "lower"),
    "coloring.is_proper.s": ("s", "lower"),
    "coloring.local_count.s": ("s", "lower"),
    "coloring.calls": ("count", "lower"),
    "oracle.chi_l.s": ("s", "lower"),
    "oracle.chi_l.calls": ("count", "lower"),
    "oracle.mais.s": ("s", "lower"),
    "oracle.mais.calls": ("count", "lower"),
    "oracle.min_rank.s": ("s", "lower"),
    "oracle.min_rank.calls": ("count", "lower"),
    "oracle.max_nodes": ("count", "higher"),
    "oracle.size_cap_refusals": ("count", "lower"),
    "rates.compare.s": ("s", "lower"),
    "rates.calls": ("count", "lower"),
    "trace.items_per_s": ("1/s", "higher"),
    "trace.spans": ("count", "lower"),
}

# counters that must repeat exactly from run to run and seed to seed
EXACT_COUNTS = (
    "linalg_ff.verify_scheme.calls",
    "linalg_ff.verify_repeat_ratio",
    "linalg_ff.eliminations",
    "linalg_ff.elim_cells",
    "delivery.pairs",
    "delivery.transmissions",
    "icp.realize.nodes",
    "coloring.calls",
    "oracle.chi_l.calls",
    "oracle.mais.calls",
    "oracle.min_rank.calls",
    "oracle.max_nodes",
    "oracle.size_cap_refusals",
    "rates.calls",
    "trace.spans",
)


def _scheme_key(scheme) -> str:
    digest = hashlib.sha1(scheme.coefficients.tobytes())
    digest.update(repr((scheme.coefficients.shape, scheme.field, scheme.message_order)).encode())
    return digest.hexdigest()


def _observe_verify(tracer: "Tracer", args, result) -> None:
    """Count the eliminations ``verify_scheme`` performs: one RREF per
    distinct known set, over the transmissions restricted to unknown columns."""
    scheme, icp = args[0], args[1]
    known_sets = {u.known for u in icp.users}
    order = frozenset(scheme.message_order)
    cells = sum(scheme.n_transmissions * len(order - known) for known in known_sets)
    tracer.count("linalg_ff.eliminations", len(known_sets))
    tracer.count("linalg_ff.elim_cells", cells)
    tracer.schemes.add((tracer._item, _scheme_key(scheme)))


def _observe_realize(tracer: "Tracer", args, result) -> None:
    tracer.count("icp.realize.nodes", len(result.users))


def _observe_oracle(tracer: "Tracer", args, result) -> None:
    tracer.max_nodes = max(tracer.max_nodes, args[0].n_nodes)


def _observe_assemble(tracer: "Tracer", args, result) -> None:
    tracer.count("delivery.pairs", len(result.pairs))
    tracer.count("delivery.transmissions", result.n_transmissions)


_OBSERVERS = {
    "linalg_ff.verify_scheme": _observe_verify,
    "icp.realize": _observe_realize,
    "oracle.chi_l": _observe_oracle,
    "oracle.mais": _observe_oracle,
    "oracle.min_rank": _observe_oracle,
    "delivery.assemble": _observe_assemble,
}


def plain_api(package) -> SimpleNamespace:
    """The calls :meth:`Tracer.install` returns, untouched, for untraced runs."""
    return SimpleNamespace(**{attr: getattr(package, attr) for attr in TOP_LEVEL})


class Tracer:
    """In-memory spans and counters; records only inside :meth:`item`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, item id]
        self.counts: Counter = Counter()  # (item id, counter name) -> value
        self.schemes: set[tuple[str, str]] = set()  # (item id, scheme content)
        self.max_nodes = 0
        self._stack: list[int] = []
        self._item: str | None = None
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def count(self, name: str, value: int = 1) -> None:
        self.counts[(self._item, name)] += value

    def _wrap(self, name: str, fn):
        known = self._wrappers.get(id(fn))
        if known is not None:
            return known
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._item is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1], tracer._item]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer.count(name + ".calls")
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                tracer.count(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                tracer._stack.pop()
            span[2] = perf_counter()
            if observe is not None:
                observe(tracer, args, result)
            return result

        self._wrappers[id(fn)] = traced
        return traced

    def install(self, package) -> SimpleNamespace:
        """Patch every imported binding and return the traced public API."""
        for mod_name, attr, name in IMPORTED:
            module = getattr(package, mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return SimpleNamespace(
            **{attr: self._wrap(name, getattr(package, attr)) for attr, name in TOP_LEVEL.items()}
        )

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def item(self, item_id: str):
        """Root span of one workload item; nested calls inherit its id."""
        self._item = item_id
        span = ["item", perf_counter(), 0.0, -1, item_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._item = None

    def span_times(self) -> tuple[Counter, Counter]:
        """Total and self seconds per span name.

        A span nested in another of the same name is already inside its
        ancestor's total and is not added again.
        """
        total: Counter = Counter()
        child: Counter = Counter()  # index -> seconds covered by direct children
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += end - start
            self_time[name] += end - start - child[idx]
        return total, self_time

    def totals(self) -> Counter:
        out: Counter = Counter()
        for (_, name), value in self.counts.items():
            out[name] += value
        return out

    def layer_metrics(self, passes: int, items_per_s: float, node_data_info) -> dict:
        """Per-layer metrics; times and counts are per pass over the items."""
        total, self_time = self.span_times()
        c = self.totals()
        hits, misses = node_data_info
        per_pass = {
            "linalg_ff.verify_scheme.s": total["linalg_ff.verify_scheme"],
            "linalg_ff.verify_scheme.calls": c["linalg_ff.verify_scheme.calls"],
            "linalg_ff.eliminations": c["linalg_ff.eliminations"],
            "linalg_ff.elim_cells": c["linalg_ff.elim_cells"],
            "linalg_ff.encode.s": total["linalg_ff.encode"],
            "delivery.assemble.s": total["delivery.assemble"],
            "delivery.assemble.self_s": self_time["delivery.assemble"],
            "delivery.verify_plan.s": total["delivery.verify_plan"],
            "delivery.verify_plan.self_s": self_time["delivery.verify_plan"],
            "delivery.plan_to_json.s": total["delivery.plan_to_json"],
            "delivery.pairs": c["delivery.pairs"],
            "delivery.transmissions": c["delivery.transmissions"],
            "icp.reduce_macc.s": total["icp.reduce_macc"],
            "icp.realize.s": total["icp.realize"],
            "icp.realize.nodes": c["icp.realize.nodes"],
            "icp.node_data.misses": misses,
            "coloring.construct.s": total["coloring.construct"],
            "coloring.is_proper.s": total["coloring.is_proper"],
            "coloring.local_count.s": total["coloring.local_count"],
            "coloring.calls": sum(
                c[f"coloring.{n}.calls"] for n in ("construct", "is_proper", "local_count")
            ),
            "oracle.chi_l.s": total["oracle.chi_l"],
            "oracle.chi_l.calls": c["oracle.chi_l.calls"],
            "oracle.mais.s": total["oracle.mais"],
            "oracle.mais.calls": c["oracle.mais.calls"],
            "oracle.min_rank.s": total["oracle.min_rank"],
            "oracle.min_rank.calls": c["oracle.min_rank.calls"],
            "oracle.size_cap_refusals": sum(
                c[f"oracle.{n}.raised.SizeCapError"] for n in ("chi_l", "mais", "min_rank")
            ),
            "rates.compare.s": total["rates.compare"],
            "rates.calls": c["rates.compare.calls"] + c["rates.calc.calls"],
            "trace.spans": sum(1 for s in self.spans if s[0] != "item"),
        }
        values = {name: v / passes for name, v in per_pass.items()}
        values["linalg_ff.verify_repeat_ratio"] = (
            c["linalg_ff.verify_scheme.calls"] / len(self.schemes) if self.schemes else 0.0
        )
        values["icp.node_data.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        values["oracle.max_nodes"] = self.max_nodes
        values["trace.items_per_s"] = items_per_s
        return {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}

    def grouped_counts(self, part: int) -> dict[str, Counter]:
        """Counters summed by one part of the item id ``pass/key``: 0 groups
        by pass, 1 by item key."""
        out: dict[str, Counter] = {}
        for (item_id, name), value in self.counts.items():
            out.setdefault(item_id.split("/", 1)[part], Counter())[name] += value
        return out

    def write(self, path, meta: dict) -> None:
        """Spans as JSON lines: one header object, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "fields": ["name", "start", "end", "parent", "item"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

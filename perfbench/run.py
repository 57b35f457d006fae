"""macc-lab benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload plan_large --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports ``macc_lab`` from ``src/`` next
to this directory and from nowhere else. It builds the workload's items from
the seed, then times whole passes over them, starting another pass only while
it fits in ``--seconds``. Every item's output is checked exactly (see
``workloads.py``) and compared with the digests committed in
``digests.json``. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every item passed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps the
package's layers (``tracer.py``), reports the per-layer metrics instead and
writes every span to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from math import lgamma
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_S, SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
TRACE_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 9

# a fresh interpreter: import the package and build the field tables the
# workload uses; prints that time and the reference loop's time around it
SETUP_CODE = """\
import sys
import time
sys.path.insert(0, {bench!r})
from speed import reference_s
before = reference_s(5)
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import macc_lab
for w in {degrees!r}:
    macc_lab.FieldSpec(w).tables()
elapsed = time.perf_counter() - t0
print(repr(elapsed), repr((before + reference_s(5)) / 2))
"""

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics. A workload of a few items with
    clustered costs puts a plain order statistic on a gap between clusters,
    where timing noise makes it jump; this estimate moves smoothly instead."""
    import numpy as np  # not at the top: main() pins the BLAS threads first

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (np.arange(20000) + 0.5) / 20000  # midpoints avoid the endpoint poles
    pdf = np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t) + lgamma(a + b) - lgamma(a) - lgamma(b))
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.linspace(0, 1, 20001), cdf))
    return float(weights @ x)


def import_package():
    """Import ``macc_lab`` from this checkout's ``src/``, or exit with an error."""
    if not (SRC / "macc_lab" / "__init__.py").is_file():
        sys.exit(f"error: no macc_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import macc_lab

    if Path(macc_lab.__file__).resolve().parent != SRC / "macc_lab":
        sys.exit(f"error: macc_lab imported from {macc_lab.__file__}, not {SRC}")
    return macc_lab


def measure_setup(degrees: tuple[int, ...]) -> float:
    """Median setup time over fresh interpreters at the nominal host speed,
    after one untimed run that leaves the byte-code cache as an installed
    package would have it."""
    code = SETUP_CODE.format(bench=str(BENCH_DIR), src=str(SRC), degrees=degrees)
    times = []
    for n in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if n:
            elapsed, reference = map(float, out.stdout.split())
            times.append(elapsed * NOMINAL_S / reference)
    return statistics.median(times)


def run_passes(workload, items, api, tracer, probe, seconds: float, expected: dict, full: bool):
    """Timed passes over the items. Only the item's own calls are timed; the
    checks run after the clock stops. Returns each item key's latencies at
    the nominal host speed and as measured, the number of passes and the
    failure messages."""
    latencies: dict[str, list[float]] = {item.key: [] for item in items}
    measured: dict[str, list[float]] = {item.key: [] for item in items}
    passes = 0
    failures: list[str] = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for item in items:
            scope = tracer.item(f"{passes}/{item.key}") if tracer else nullcontext()
            with scope:
                first = len(probe.samples)
                t0 = perf_counter()
                try:
                    result = workload.run(api, item)
                except Exception as exc:  # a failed item is counted, not fatal
                    result = exc
                elapsed = perf_counter() - t0
            latencies[item.key].append(probe.scaled(elapsed, first))
            measured[item.key].append(elapsed)
            if isinstance(result, Exception):
                failures.append(f"{item.key}: raised {result!r}")
                continue
            try:
                problems, canonical, output = workload.check(item, result)
            except Exception as exc:  # an output the checks cannot read is wrong
                failures.append(f"{item.key}: check raised {exc!r}")
                continue
            if digest(canonical) != expected["canonical"].get(item.key):
                problems.append("canonical output digest differs from digests.json")
            if full and digest(output) != expected["full"].get(item.key):
                problems.append("output digest differs from digests.json")
            if problems:
                failures.append(f"{item.key}: " + "; ".join(problems))
        passes += 1
        if perf_counter() - start + (perf_counter() - pass_start) > seconds:
            return latencies, measured, passes, failures


def count_mismatches(tracer) -> list[str]:
    """Counters of every pass must equal those of the first."""
    by_pass = tracer.grouped_counts(0)
    first = by_pass.get("0")
    return [f"pass {p}: counters differ from pass 0" for p, c in by_pass.items() if c != first]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    mcl = import_package()
    from tracer import Tracer, plain_api
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    expected = json.loads(DIGESTS.read_text())[args.workload]

    setup_s = measure_setup(workload.field_degrees) if not args.trace else None
    items = workload.items(args.seed)
    tracer = Tracer() if args.trace else None
    api = tracer.install(mcl) if tracer else plain_api(mcl)
    info0 = mcl.node_data.cache_info()
    try:
        with SpeedProbe() as probe:
            latencies, measured, passes, failures = run_passes(
                workload, items, api, tracer, probe, args.seconds, expected, args.seed == DEFAULT_SEED
            )
    finally:
        if tracer:
            tracer.uninstall()
    info1 = mcl.node_data.cache_info()

    # one latency per item: its median over the passes
    per_item = [statistics.median(v) for v in latencies.values()]
    items_per_s = len(per_item) / sum(per_item)
    measured_per_s = len(per_item) / sum(statistics.median(v) for v in measured.values())
    mismatches = count_mismatches(tracer) if tracer else []
    if tracer:
        node_data_info = (info1.hits - info0.hits, info1.misses - info0.misses)
        metrics = tracer.layer_metrics(passes, items_per_s, node_data_info)
        item_counts = tracer.grouped_counts(1)
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(
            trace_path,
            {
                "workload": args.workload,
                "seed": args.seed,
                "passes": passes,
                "item_counts": {k: {n: v / passes for n, v in sorted(c.items())} for k, c in item_counts.items()},
            },
        )
        for key, c in item_counts.items() if len(items) <= 20 else ():
            print(
                f"{key}: eliminations {c['linalg_ff.eliminations'] / passes:g}"
                f" elim_cells {c['linalg_ff.elim_cells'] / passes:g}"
                f" verify_scheme.calls {c['linalg_ff.verify_scheme.calls'] / passes:g}",
                file=sys.stderr,
            )
        print(f"spans written to {trace_path}", file=sys.stderr)
    else:
        values = {
            "items_per_s": items_per_s,
            "item_p50_ms": hd_quantile(per_item, 0.5) * 1e3,
            "item_p90_ms": hd_quantile(per_item, 0.9) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}

    attempted = len(per_item) * passes
    for line in (failures + mismatches)[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {passes} pass(es) of {len(items)} items,"
        f" fail_ratio {len(failures) / attempted:g},"
        f" items_per_s as measured {measured_per_s:.6g}",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures and not mismatches,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures and not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())

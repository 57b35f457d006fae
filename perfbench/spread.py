"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload plan_large --seeds 1-10 --seconds 25 [--trace 1]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles and the interquartile range as a share of
the median (``statistics.quantiles(values, n=4)``). With ``--trace 1`` it
also checks that the exact counters are equal on every seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import EXACT_COUNTS

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        result = json.loads(last)
        if out.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        results.append(result["metrics"])
        if args.trace == "0":
            print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)

    for name in results[0]:
        values = [r[name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:34s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {share:7.2%}")
    if args.trace == "1":
        for name in EXACT_COUNTS:
            values = {r[name]["value"] for r in results}
            if len(values) != 1:
                print(f"NOT EXACT: {name} took {sorted(values)}")
                return 1
        print(f"exact counters equal on all {len(results)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

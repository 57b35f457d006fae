"""Write ``digests.json``: the output digests of every item at the default seed.

    python3 perfbench/record_digests.py [workload ...]

The benchmark fails on any output that differs from these digests. Re-record
only for a change that is meant to alter an exact output, and say so in that
change's description.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, digest, import_package

mcl = import_package()

from tracer import plain_api  # noqa: E402  (needs macc_lab on the path)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    api = plain_api(mcl)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        canonical, full = {}, {}
        for item in workload.items(DEFAULT_SEED):
            problems, c, f = workload.check(item, workload.run(api, item))
            if problems:
                sys.exit(f"{name} {item.key}: " + "; ".join(problems))
            canonical[item.key] = digest(c)
            full[item.key] = digest(f)
        data[name] = {"seed": DEFAULT_SEED, "canonical": canonical, "full": full}
        print(f"{name}: {len(canonical)} items", file=sys.stderr)
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

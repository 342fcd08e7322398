"""Page faults and system time of warm `inner` benchmark rounds.

    python3 scripts/inner_faults.py [--seed N] [--rounds R] [--src DIR]

Runs perfbench's `inner` workload in this process: one set-up, one round to
warm up, then R rounds, each measured with getrusage(RUSAGE_SELF).  Prints one
JSON object with the minor page faults, system seconds and wall seconds of
every measured round.  `--src` picks the package tree to import (default:
this checkout's src), so two checkouts can be compared with one script.
Set the BLAS thread variables to 1, as perfbench does, for comparable runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=201)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    import workloads

    wl = workloads.WORKLOADS["inner"]
    state = wl.setup(args.seed)
    wl.round(state)
    rounds = []
    for _ in range(args.rounds):
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        wl.round(state)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        rounds.append({"minflt": after.ru_minflt - before.ru_minflt,
                       "sys_s": after.ru_stime - before.ru_stime,
                       "wall_s": wall})
    print(json.dumps({"seed": args.seed, "src": args.src, "rounds": rounds}))


if __name__ == "__main__":
    main()

"""Benchmark of hecu: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {splitting,inner,horseshoe} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in its own process
(perfbench/worker.py) with BLAS threads pinned to 1, importing hecu from
the checkout's ``src``.  With ``--trace 0`` the last line of standard
output is a JSON object with every end-to-end metric; with ``--trace 1``
the same process runs the rounds untraced, then as many rounds traced, and
the line holds every per-layer metric plus the tracing overhead.  The exit
code is nonzero when a correctness check fails or the workload cannot run.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("splitting", "inner", "horseshoe")
DEADLINE_S = 175.0


def worker(args, deadline: float, **opts) -> dict:
    """Run worker.py once; return its JSON result, or exit nonzero."""
    cmd = [sys.executable, "-E", "-s", "-B", str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    for key, val in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(val)]
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} worker exceeded the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {args.workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report_checks(res: dict, label: str) -> bool:
    ok = True
    for name, passed, detail in res["checks"]:
        print(f"[{'PASS' if passed else 'FAIL'}] {label} {name}: {detail}")
        ok = ok and passed
    return ok


def trace_checks(per_layer: dict, mismatch: list[str]) -> bool:
    """The trace agrees with itself: counts repeat, RHS counts match."""
    full = (per_layer["integrate.rhs_evals"], per_layer["model.rhs_full.evals"])
    checks = [
        ("counts repeat in every round", not mismatch, f"differing: {mismatch}"),
        ("Trajectory.n_rhs equals counted full-field calls", full[0] == full[1],
         f"{full[0]} vs {full[1]}"),
    ]
    return report_checks({"checks": checks}, "trace")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hecu" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hecu sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.trace == 0:
        res = worker(args, deadline)
        correct = report_checks(res, args.workload)
        values = {
            "setup_s": res["setup_s"],
            "wall_s": statistics.median(res["round_s"]),
            "point_s": statistics.median(res["point_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(f"{args.workload}: {res['rounds']} rounds, {len(res['point_s'])} points")
    else:
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        res = worker(args, deadline, traced=1, trace_out=out)
        correct = report_checks(res, args.workload)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: res["per_layer"][name] for name in units}
        for phase in ("strips_s", "cones_s"):
            values[phase] = res["phases"].get(phase, 0.0)
        values["trace.overhead_s"] = (statistics.median(res["traced_round_s"])
                                      - statistics.median(res["round_s"]))
        correct = trace_checks(res["per_layer"], res["counts_differ"]) and correct
        print(f"{args.workload}: {res['rounds']} rounds untraced, then traced; "
              f"spans in {out.relative_to(ROOT)}")

    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One workload in its own single-threaded process; prints one JSON line.

Started by run.py with BLAS threads pinned to 1.  It imports hecu from the
checkout's ``src`` and nowhere else, sets the workload up as many times as
the workload says, repeats its round until ``--seconds`` have passed, then
runs the checks on the last round.  With ``--traced 1`` it sets up once,
runs the untraced rounds, then as many rounds again with the layers'
public functions wrapped, and writes the spans to ``--trace-out``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import hecu  # noqa: E402

if Path(hecu.__file__).resolve().parent != SRC / "hecu":
    sys.exit(f"hecu imported from {hecu.__file__}, not from {SRC}")

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - T_START

    setup_times = []
    for _ in range(1 if args.traced else wl.setups):
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    rounds = run_rounds(wl, state, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if args.traced:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
        traced = run_rounds(wl, state, rounds=len(rounds), tracer=tracer,
                            per_layer=layers.round_metrics)
        tracer.restore()

    last = rounds[-1]
    checks = wl.check(state, last)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "setup_s": import_s + statistics.median(setup_times),
        "round_s": [r.phases["round_s"] for r in rounds],
        "point_s": [t for r in rounds for t in r.point_s],
        "phases": {name: statistics.median(r.phases[name] for r in rounds)
                   for name in last.phases},
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "checks": [[c.name, bool(c.ok), c.detail] for c in checks],
    }
    if traced:
        per_layer = [r.per_layer for r in traced]
        result["traced_round_s"] = [r.phases["round_s"] for r in traced]
        result["per_layer"], result["counts_differ"] = _summarise(per_layer)
        result["per_layer"].update(layers.rhs_cost_us(
            {"full": per_layer[0]["model.rhs_full.evals"],
             "reduced": per_layer[0]["model.rhs_reduced.evals"]}))
        if args.trace_out:
            _write_trace(Path(args.trace_out), args, tracer.spans, per_layer)
    print(json.dumps(result))
    return 0


def run_rounds(wl, state, seconds: float = 0.0, rounds: int = 0,
               tracer=None, per_layer=None) -> list:
    """Repeat the round until `seconds` have passed, or exactly `rounds` times.

    With a tracer, per_layer(spans, first, rhs_counts, round) gives each
    round's per-layer values.  Outputs of all but the last round are
    dropped, so memory does not grow with the number of rounds.
    """
    done = []
    t_run = time.perf_counter()
    while True:
        if done:
            done[-1].outputs.clear()    # only the last round is checked
        if tracer is not None:
            first = tracer.start()
        t0 = time.perf_counter()
        rnd = wl.round(state)
        rnd.phases["round_s"] = time.perf_counter() - t0
        if tracer is not None:
            rhs = tracer.stop()
            rnd.per_layer = per_layer(tracer.spans, first, rhs, rnd)
        done.append(rnd)
        if rounds:
            if len(done) == rounds:
                return done
        elif time.perf_counter() - t_run >= seconds:
            return done


def _summarise(per_layer: list[dict]) -> tuple[dict, list[str]]:
    """Counts of the first round, mean times; and the counts that differ
    between rounds, which must be none."""
    import layers

    out = {}
    differ = []
    for name in per_layer[0]:
        vals = [m[name] for m in per_layer]
        if name in layers.COUNTS:
            out[name] = vals[0]
            if any(v != vals[0] for v in vals):
                differ.append(name)
        else:
            out[name] = statistics.fmean(vals)
    return out, differ


def _write_trace(path: Path, args, spans, per_layer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["name", "layer", "start_s", "end_s", "parent", "error", "result"],
        "spans": [[s[0], s[1], s[2] - T_START, s[3] - T_START] + s[4:] for s in spans],
        "rounds": per_layer,
    }
    path.write_text(json.dumps(doc, default=str) + "\n")


if __name__ == "__main__":
    sys.exit(main())

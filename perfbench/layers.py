"""Per-layer metrics of the traced run: where to wrap, and what to report.

Layers are the modules of hecu.  ``separatrix`` is not wrapped: it supplies
closed forms for seeds and checks and takes a negligible share of every
workload.  ``acceptance`` and ``cli`` are entry points over the same public
functions the workloads call.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from hecu import fourier, horseshoe, inner, integrate, manifolds
from hecu.model import params_for_nu_I0

from tracer import Tracer, durations, net_time, percentile_tail

# name -> unit of every per-layer metric, as BENCHMARK.json lists them
METRICS = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}

# counts that must repeat exactly between rounds and between traced runs
COUNTS = tuple(name for name, unit in METRICS.items() if unit == "count")


def install(tracer: Tracer) -> None:
    """Wrap every public function a workload reaches, where it is looked up."""

    def iterations(rec, out):
        rec.append(out.iterations)

    def trajectory(rec, out):
        rec.append((len(out.t) - 1, out.n_rhs))

    tracer.wrap(manifolds, "integrate_mcgehee", "integrate", "integrate", trajectory)
    tracer.wrap(manifolds, "solve_hj_unstable", "hj", "manifolds", iterations)
    tracer.wrap(manifolds, "globalize", "globalize", "manifolds")
    tracer.wrap(manifolds, "transport", "transport", "fourier")
    tracer.wrap(inner, "transport", "transport", "fourier")
    tracer.wrap(fourier.ModeField, "mul", "mul", "fourier")
    tracer.wrap(inner, "extract_fk", "extract_fk", "inner")
    tracer.wrap(inner, "solve_inner", "solve_inner", "inner", iterations)
    tracer.wrap(horseshoe, "build_strips", "build_strips", "horseshoe")
    tracer.wrap(horseshoe, "verify_cones", "verify_cones", "horseshoe")
    tracer.wrap(horseshoe.HorseshoeLab, "return_map_raw", "return_map", "horseshoe")
    tracer.wrap(horseshoe, "global_map", "global_map", "horseshoe")
    tracer.count_rhs(integrate, "mcgehee_rhs", "full")
    tracer.count_rhs(horseshoe, "reduced_rhs", "reduced")


def round_metrics(spans, first: int, rhs: dict[str, int], rnd) -> dict[str, float]:
    """Per-layer values of one traced round: the spans from index `first` on."""
    own = spans[first:]
    m = {name: 0.0 for name in METRICS}

    integ = [s for s in own if s[0] == "integrate"]
    m["integrate.calls"] = len(integ)
    m["integrate.steps"] = sum(s[6][0] for s in integ)
    m["integrate.rhs_evals"] = sum(s[6][1] for s in integ)
    m["integrate.busy_s"] = sum(durations(own, "integrate"))
    if m["integrate.rhs_evals"]:
        m["integrate.us_per_rhs"] = 1e6 * m["integrate.busy_s"] / m["integrate.rhs_evals"]
    m["model.rhs_full.evals"] = rhs["full"]
    m["model.rhs_reduced.evals"] = rhs["reduced"]

    hj = [s for s in own if s[0] == "hj"]
    m["manifolds.hj.solves"] = len(hj)
    m["manifolds.hj.iterations"] = sum(s[6] for s in hj)
    m["manifolds.hj.busy_s"] = sum(durations(own, "hj"))
    m["manifolds.globalize.busy_s"] = sum(durations(own, "globalize"))
    m["manifolds.globalize.self_s"] = net_time(spans, first, "globalize", {"integrate"})

    m["fourier.transport.calls"] = len(durations(own, "transport"))
    m["fourier.transport.busy_s"] = sum(durations(own, "transport"))
    m["fourier.mul.calls"] = len(durations(own, "mul"))
    m["fourier.mul.busy_s"] = sum(durations(own, "mul"))

    solves = [s for s in own if s[0] == "solve_inner"]
    m["inner.solves"] = len(solves)
    m["inner.iterations"] = sum(s[6] for s in solves)
    m["inner.busy_s"] = sum(durations(own, "extract_fk"))
    m["inner.self_s"] = net_time(spans, first, "extract_fk", {"transport", "mul"})

    maps = durations(own, "return_map")
    m["horseshoe.return_maps"] = len(maps)
    m["horseshoe.return_map.busy_s"] = sum(maps)
    p50, tail = percentile_tail([1e3 * d for d in maps])
    m["horseshoe.return_map_ms.p50"] = p50
    m["horseshoe.return_map_ms.tail"] = tail
    m["horseshoe.global_map.busy_s"] = sum(durations(own, "global_map"))
    m["horseshoe.corner.self_s"] = net_time(spans, first, "return_map", {"global_map"})
    m["horseshoe.passage_errors"] = sum(
        1 for s in own if s[0] == "return_map" and s[5] is not None)
    family = rnd.outputs.get("family")
    if family is not None:
        n_v = len(next(iter(family.strips.values())).v_grid)
        boundaries = (len(family.strips) + 1) * n_v
        m["horseshoe.maps_per_boundary"] = (
            _maps_under(spans, first, "build_strips") / boundaries)
        m["horseshoe.maps_per_cone_sample"] = (
            _maps_under(spans, first, "verify_cones") / rnd.outputs["cone_attempts"])
    report = rnd.outputs.get("report")
    if report is not None:
        m["horseshoe.cone_pass_rate"] = report.pass_rate
        m["horseshoe.fd_agreement"] = report.fd_agreement
    return m


def _maps_under(spans, first: int, phase: str) -> int:
    """Return maps nested, at any depth, in spans called `phase`."""
    inside = set()
    count = 0
    for i in range(first, len(spans)):
        s = spans[i]
        if s[0] == phase or s[4] in inside:
            inside.add(i)
            count += s[0] == "return_map"
    return count


def rhs_cost_us(workload_evals: dict[str, int], reps: int = 5,
                n_states: int = 4000) -> dict[str, float]:
    """Per-evaluation cost of each RHS closure on a fixed batch of states.

    Timed in isolation, on the unwrapped closures, and only for the fields a
    workload evaluates.  Median over `reps` passes.
    """
    rng = np.random.default_rng(0)
    out = {"model.rhs_full.us": 0.0, "model.rhs_reduced.us": 0.0}
    cases = []
    if workload_evals["full"]:
        rhs = integrate.mcgehee_rhs(params_for_nu_I0(6.0, epsilon=1e-3))
        states = np.column_stack([rng.uniform(0.05, 1.0, n_states),
                                  rng.uniform(-0.5, 0.5, n_states),
                                  rng.uniform(0.0, 2 * math.pi, n_states),
                                  rng.uniform(-1e-4, 1e-4, n_states)])
        cases.append(("model.rhs_full.us", rhs, states))
    if workload_evals["reduced"]:
        rhs = horseshoe.reduced_rhs(horseshoe.select_operating_point())
        states = np.column_stack([rng.uniform(0.0, 0.3, n_states),
                                  rng.uniform(-0.3, 0.3, n_states)])
        cases.append(("model.rhs_reduced.us", rhs, states))
    for name, rhs, states in cases:
        thetas = rng.uniform(0.0, 2 * math.pi, n_states)
        rows = list(states)     # 1-D arrays, as the integrator passes them
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for t, y in zip(thetas, rows):
                rhs(t, y)
            times.append(time.perf_counter() - t0)
        out[name] = 1e6 * float(np.median(times)) / n_states
    return out

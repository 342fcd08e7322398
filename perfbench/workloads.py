"""The three workloads: seeded inputs, one round of operations, checks.

Every workload calls hecu's public functions through their module
attributes (``mani.solve_hj_unstable``, not a name imported by value), so
the traced run's wrappers see every call.  A round is a fixed list of
operations; a run repeats the same round, so every round attempts the same
operations on the same inputs.  Only the seed chooses the inputs.
``setups`` is how many times a timed run sets the workload up; setup_s is
the import time plus the median of those set-ups.
"""

from __future__ import annotations

import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field

import numpy as np

from hecu import horseshoe as hs
from hecu import inner as inner_mod
from hecu import manifolds as mani
from hecu.model import params_for_nu_I0

import checks

_clock = time.perf_counter

SPLITTING_EPS = (1e-4, 1e-3)
SPLITTING_POINTS_PER_EPS = 6      # strata of [4, 10] in nu I0
SPLITTING_U = 1.0
SPLITTING_FIBRES = 64
INNER_NU_I0 = 6.0
INNER_POINTS = 12                 # strata of [-3, 0] in log10 eps
HORSESHOE_WINDOW = 4              # consecutive passage counts per window
HORSESHOE_OFFSETS = 4             # window starts base+1 .. base+4
HORSESHOE_N_V = 2                 # v-lines per strip boundary
HORSESHOE_CONE_SAMPLES = 10       # per strip
HORSESHOE_REVERSIBILITY_POINTS = 3


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(workload.encode())])


def stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi].

    Stratifying keeps the spread of the inputs, and so the median cost of a
    point, the same from seed to seed while the values themselves move.
    """
    width = (hi - lo) / n
    return [float(lo + (i + rng.uniform()) * width) for i in range(n)]


@dataclass
class Round:
    """What one round did: timings, operation counts and outputs to check."""

    point_s: list[float] = field(default_factory=list)
    phases: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)


def _attempt(rnd: Round, label: str, fn):
    """Run one operation; a raised error counts it as failed."""
    rnd.attempted += 1
    try:
        return fn()
    except Exception:  # the benchmark keeps going and reports the failure
        rnd.failed += 1
        print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# splitting: HJ graph, sheet globalization, splitting, homoclinics, fits
# ---------------------------------------------------------------------------

class Splitting:
    name = "splitting"
    setups = 3

    def setup(self, seed: int) -> dict:
        rng = rng_for(self.name, seed)
        nus = {eps: stratified(rng, 4.0, 10.0, SPLITTING_POINTS_PER_EPS)
               for eps in SPLITTING_EPS}
        direct = (SPLITTING_EPS[int(rng.integers(len(SPLITTING_EPS)))],
                  int(rng.integers(SPLITTING_POINTS_PER_EPS)))
        return {"nus": nus, "direct": direct}

    def round(self, state: dict) -> Round:
        rnd = Round()
        samples = {}
        roots = {}
        kept = {}
        for eps in SPLITTING_EPS:
            samples[eps] = []
            for i, nu_I0 in enumerate(state["nus"][eps]):
                t0 = _clock()
                out = _attempt(rnd, f"point nuI0={nu_I0:.4f} eps={eps:g}",
                               lambda: self._point(nu_I0, eps))
                rnd.point_s.append(_clock() - t0)
                if out is None:
                    continue
                sample, point_roots, graph, sheet = out
                samples[eps].append(sample)
                roots[(eps, i)] = point_roots
                if (eps, i) == state["direct"]:
                    kept = {"graph": graph, "sheet": sheet, "sample": sample}
            fit = _attempt(rnd, f"fit eps={eps:g}",
                           lambda: mani.fit_scaling(samples[eps]))
            rnd.outputs[f"fit_{eps:g}"] = fit
        rnd.outputs.update(samples=samples, roots=roots, direct=kept)
        return rnd

    @staticmethod
    def _point(nu_I0: float, eps: float):
        params = params_for_nu_I0(nu_I0, epsilon=eps)
        graph = mani.solve_hj_unstable(params)
        sheet = mani.unstable_sheet(params, [SPLITTING_U], n_theta=SPLITTING_FIBRES,
                                    graph=graph)
        stable = mani.stable_sheet_from_unstable(sheet)
        sample = mani.measure_splitting(sheet, stable, SPLITTING_U, 1)
        point_roots = mani.find_homoclinics(sheet, stable, SPLITTING_U)
        return sample, point_roots, graph, sheet

    def check(self, state: dict, rnd: Round) -> list[checks.Check]:
        out = []
        samples = rnd.outputs["samples"]
        for eps in SPLITTING_EPS:
            out += [checks.splitting_amplitude(s) for s in samples[eps]]
            out.append(checks.scaling_fit(eps, rnd.outputs[f"fit_{eps:g}"]))
        for (eps, i), point_roots in rnd.outputs["roots"].items():
            out.append(checks.homoclinic_roots(state["nus"][eps][i], eps,
                                               SPLITTING_U, point_roots))
        kept = rnd.outputs["direct"]
        if kept:
            sample = kept["sample"]
            params = params_for_nu_I0(sample.nu_I0, epsilon=sample.epsilon)
            direct = mani.stable_sheet_direct(params, [SPLITTING_U],
                                              n_theta=SPLITTING_FIBRES,
                                              graph=kept["graph"])
            amp = mani.measure_splitting(kept["sheet"], direct, SPLITTING_U, 1).amp_J
            out.append(checks.direct_sheet(sample, amp))
        else:
            out.append(checks.Check("stable_sheet_direct", False,
                                    "the chosen point failed"))
        return out


# ---------------------------------------------------------------------------
# inner: f_k extraction over the default depths
# ---------------------------------------------------------------------------

class Inner:
    name = "inner"
    setups = 3

    def setup(self, seed: int) -> dict:
        rng = rng_for(self.name, seed)
        return {"eps": [10.0 ** x for x in stratified(rng, -3.0, 0.0, INNER_POINTS)]}

    def round(self, state: dict) -> Round:
        rnd = Round()
        diffs = {}
        for eps in state["eps"]:
            t0 = _clock()
            diff = _attempt(rnd, f"point eps={eps:.4g}", lambda: inner_mod.extract_fk(
                params_for_nu_I0(INNER_NU_I0, epsilon=eps), ks=(1, 2)))
            rnd.point_s.append(_clock() - t0)
            if diff is not None:
                diffs[eps] = diff
        rnd.outputs["diffs"] = diffs
        return rnd

    def check(self, state: dict, rnd: Round) -> list[checks.Check]:
        return [checks.inner_f1(eps, diff) for eps, diff in rnd.outputs["diffs"].items()]


# ---------------------------------------------------------------------------
# horseshoe: strips over a window of passage counts, then cones
# ---------------------------------------------------------------------------

class Horseshoe:
    name = "horseshoe"
    setups = 1      # one setup_horseshoe takes seconds; see README

    def setup(self, seed: int) -> dict:
        rng = rng_for(self.name, seed)
        offset = int(rng.integers(HORSESHOE_OFFSETS))
        unit = rng.uniform(0.1, 0.9, size=(HORSESHOE_REVERSIBILITY_POINTS, 2))
        lab = hs.setup_horseshoe(hs.select_operating_point())
        first = lab.base_count + 1 + offset
        return {"lab": lab, "window": (first, first + HORSESHOE_WINDOW - 1),
                "reversibility": [tuple(float(x) * lab.delta_q for x in row)
                                  for row in unit]}

    def round(self, state: dict) -> Round:
        rnd = Round()
        lab = state["lab"]
        t0 = _clock()
        family = _attempt(rnd, f"strips {state['window']}", lambda: hs.build_strips(
            lab, state["window"], n_v=HORSESHOE_N_V))
        rnd.phases["strips_s"] = _clock() - t0
        attempted = HORSESHOE_WINDOW * HORSESHOE_CONE_SAMPLES
        rnd.attempted += attempted
        report = None
        t0 = _clock()
        if family is not None:
            try:
                report = hs.verify_cones(lab, family,
                                         samples_per_strip=HORSESHOE_CONE_SAMPLES)
            except Exception:  # counted as every sample failing
                print(traceback.format_exc(), file=sys.stderr)
        rnd.phases["cones_s"] = _clock() - t0
        # verify_cones skips a sample whose return map raised
        rnd.failed += attempted - (report.n_samples if report is not None else 0)
        # a point is one strip of the window: its boundaries and cone samples.
        # Either phase alone is too short to time steadily on a shared machine.
        rnd.point_s.append((rnd.phases["strips_s"] + rnd.phases["cones_s"])
                           / HORSESHOE_WINDOW)
        rnd.outputs.update(family=family, report=report, cone_attempts=attempted)
        return rnd

    def check(self, state: dict, rnd: Round) -> list[checks.Check]:
        lab = state["lab"]
        out = [checks.reversibility(lab, state["reversibility"])]
        family = rnd.outputs["family"]
        if family is None:
            return out + [checks.Check("strips", False, "build_strips failed")]
        out += checks.strips(lab, family)
        out.append(checks.cones(rnd.outputs["report"], rnd.outputs["cone_attempts"]))
        return out


WORKLOADS = {w.name: w for w in (Splitting(), Inner(), Horseshoe())}

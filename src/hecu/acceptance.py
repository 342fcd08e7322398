"""Acceptance suite: every headline check with its tolerance pinned.

Each criterion function returns a CriterionResult; run_all executes them in
order, sharing expensive intermediates (sheets, the horseshoe laboratory),
and prints one pass/fail line per criterion.

Two criteria involve a prefactor-normalization choice documented in the
project notes: the measured first-harmonic splitting follows the closed
Melnikov law with prefactor (nu I0 + 1) e^{-nu I0} (criterion 4 pins this
to 3%), so the scaling fit (5) and the outer-inner cross-validation (7)
are asserted with the (nu I0 + 1) basis; the asymptotic nu I0 basis
numbers are reported alongside.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import inner as inner_mod
from . import manifolds as mani
from .horseshoe import (
    action_offset_closed,
    build_strips,
    local_map,
    oscillatory_demo,
    reduced_rhs,
    select_operating_point,
    setup_horseshoe,
    shadow_orbit,
    truncated_local_map,
    verify_cones,
)
from .integrate import (IntegrationCounters, IntegratorConfig, energy_drift, integrate,
                        integrate_mcgehee, mcgehee_rhs)
from .model import (CorrugationSeries, SolveError, averaged_remainder_sup, nu_from_physical,
                    params_for_nu_I0)
from .separatrix import melnikov_coeff_closed, melnikov_coeff_quadrature, p_h, q_h


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    summary: str
    values: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index:2d}: {self.name} — {self.summary}"


def criterion_1() -> CriterionResult:
    nu = nu_from_physical(3.6, 1.05)
    ref = 11.051879175935
    rel = abs(nu - ref) / ref
    return CriterionResult(1, "frequency-squared parameter", rel <= 1e-11,
                           f"nu = {nu:.12f}, rel dev {rel:.2e} (tol 1e-11)",
                           {"nu": nu, "rel": rel})


def criterion_2() -> CriterionResult:
    series = CorrugationSeries()
    worst = 0.0
    for k in (1, 2):
        for nu_I0 in (3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
            closed = melnikov_coeff_closed(k, nu_I0, series)
            quad = melnikov_coeff_quadrature(k, nu_I0, series)
            worst = max(worst, abs(quad - closed) / abs(closed))
    return CriterionResult(2, "Melnikov closed form vs quadrature oracle",
                           worst <= 1e-8,
                           f"worst rel dev {worst:.2e} (tol 1e-8)",
                           {"worst": worst})


def criterion_3() -> CriterionResult:
    params = params_for_nu_I0(6.0, epsilon=0.0)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    sup = 0.0
    for t_dir in (1.0, -1.0):
        traj = integrate_mcgehee(params, [1.0, 0.0, 0.2, 0.0],
                                 (0.0, 10.0 * t_dir), cfg)
        ts = np.linspace(0.0, 10.0 * t_dir, 500)
        states = traj(ts)
        sup = max(sup, float(np.max(np.abs(states[0] - q_h(ts)))),
                  float(np.max(np.abs(states[1] - p_h(ts)))))
    long = integrate_mcgehee(params, [1.0, 0.0, 0.2, 0.0], (-50.0, 50.0), cfg)
    drift = energy_drift(long, params)
    ok = sup <= 1e-9 and drift <= 1e-10
    return CriterionResult(3, "separatrix closed form and energy drift", ok,
                           f"sup dev {sup:.2e} (tol 1e-9), drift {drift:.2e} (tol 1e-10)",
                           {"sup": sup, "drift": drift})


def criterion_4() -> CriterionResult:
    params = params_for_nu_I0(4.0, epsilon=1e-4)
    sheet = mani.unstable_sheet(params, [1.0])
    stable = mani.stable_sheet_from_unstable(sheet)
    sample = mani.measure_splitting(sheet, stable, 1.0, 1)
    pred = 2.0 * params.epsilon * abs(melnikov_coeff_closed(1, params.nu_I0, params.series))
    amp_dev = abs(sample.amp_J - pred) / pred
    roots = mani.find_homoclinics(sheet, stable, 1.0)
    base = params.nu_I0 * 1.0
    phase_dev = 0.0
    for th, _ in roots:
        ds = [abs(((th - (base + k * math.pi)) + math.pi) % (2 * math.pi) - math.pi)
              for k in range(-2, 3)]
        phase_dev = max(phase_dev, min(ds))
    ok = amp_dev <= 0.03 and phase_dev <= 2.0 / params.nu_I0
    return CriterionResult(
        4, "first-order splitting amplitude and homoclinic phases", ok,
        f"amp dev {amp_dev:.2%} (tol 3%), phase dev {phase_dev:.3f} "
        f"(tol {2.0 / params.nu_I0:.3f})",
        {"amp_dev": amp_dev, "phase_dev": phase_dev})


def criterion_5() -> CriterionResult:
    samples = mani.splitting_sweep([4.0, 5.0, 6.0, 7.0], epsilon=1e-4)
    fit = mani.fit_scaling(samples, basis="nu_plus_one")
    lit = mani.fit_scaling(samples, basis="nu")
    ok = abs(fit.rho - 1.0) <= 0.02 and abs(fit.sigma - 1.0) <= 0.15
    return CriterionResult(
        5, "exponential scaling law of the splitting", ok,
        f"rho = {fit.rho:.5f} (1±0.02), sigma = {fit.sigma:.5f} (1±0.15) "
        f"[basis nu+1; literal nu basis: rho = {lit.rho:.3f}, sigma = {lit.sigma:.3f}, "
        "see notes on the prefactor]",
        {"rho": fit.rho, "sigma": fit.sigma,
         "rho_literal": lit.rho, "sigma_literal": lit.sigma})


def criterion_6() -> CriterionResult:
    eps_values = [5e-4, 1e-3]
    ratios = []
    diffs = {}
    for eps in eps_values:
        params = params_for_nu_I0(6.0, epsilon=eps)
        diff = inner_mod.extract_fk(params, ks=(1,))
        diffs[eps] = diff
        ratios.append(diff.f1.real / eps)
    lead = -math.pi * CorrugationSeries().cos_coeffs[0] / 8.0
    mag_dev = abs(abs(ratios[-1]) - abs(lead)) / abs(lead)
    conv = abs(ratios[1] - ratios[0]) / abs(ratios[1])
    im_ratio = diffs[1e-3].diagnostics["im_f1_offaxis_ratio"]
    ok = mag_dev <= 0.05 and im_ratio <= 1e-3 and conv <= 0.01
    return CriterionResult(
        6, "inner-equation constant f1", ok,
        f"f1/eps = {ratios[-1]:.7f} vs -pi r1/8 = {lead:.7f} (dev {mag_dev:.2%}, tol 5%), "
        f"Im/|f1| = {im_ratio:.1e} (tol 1e-3); paper's stated variants pi r1/2 and "
        "pi r1/4 disagree internally (see notes)",
        {"f1_per_eps": ratios[-1], "mag_dev": mag_dev, "im_ratio": im_ratio})


def criterion_7() -> CriterionResult:
    eps = 1e-3
    params6 = params_for_nu_I0(6.0, epsilon=eps)
    f1 = abs(inner_mod.extract_fk(params6, ks=(1,)).f1)
    worst = 0.0
    worst_lit = 0.0
    for nu_I0 in (8.0, 10.0):
        sample = mani.splitting_sweep([nu_I0], epsilon=eps)[0]
        est = sample.amp_J / (2.0 * (nu_I0 + 1.0) * math.exp(-nu_I0))
        est_lit = sample.amp_J / (2.0 * nu_I0 * math.exp(-nu_I0))
        worst = max(worst, abs(est - f1) / f1)
        worst_lit = max(worst_lit, abs(est_lit - f1) / f1)
    ok = worst <= 0.10
    return CriterionResult(
        7, "outer splitting vs inner-extracted f1", ok,
        f"worst dev {worst:.2%} (tol 10%) with prefactor 2(nu I0+1)e^-nuI0; "
        f"literal 2 nu I0 e^-nuI0 normalization deviates {worst_lit:.2%} "
        "(the exact first-order prefactor is nu I0 + 1, see notes)",
        {"worst": worst, "worst_literal": worst_lit, "f1": f1})


def _lab(cache: dict):
    """The horseshoe laboratory at the operating point, set up once per run."""
    if "lab" not in cache:
        cache["lab"] = setup_horseshoe(select_operating_point())
    return cache["lab"]


def _family(cache: dict):
    """The lab's strips base+1 ... base+4, built once per run: criterion 9
    verifies them, criterion 10 shadows in them, whichever runs first."""
    if "family" not in cache:
        lab = _lab(cache)
        cache["family"] = build_strips(lab, (lab.base_count + 1, lab.base_count + 4))
    return cache["family"]


def criterion_8(cache: dict) -> CriterionResult:
    # truncated-model oracle
    worst_trunc = 0.0
    for u0 in (1e-2, 1e-4):
        v1, _ = truncated_local_map(u0)
        worst_trunc = max(worst_trunc, abs(v1 - u0))
    # full-model exponents, manifold-anchored: u0 past W^s on entry, v1
    # past W^u on exit
    lab = _lab(cache)
    u0s = np.logspace(-2, -6, 5)
    theta0 = lab.branch.theta[0]
    counters = IntegrationCounters()
    v1, th1 = local_map(lab.params, u0s + lab.ws_u(theta0), theta0, counters)
    v1s = v1 - lab.wu_local(th1)
    dts = th1 - theta0
    p_v = np.polyfit(np.log(u0s), np.log(np.abs(v1s)), 1)[0]
    p_t = np.polyfit(np.log(u0s), np.log(dts), 1)[0]
    ok = (worst_trunc <= 1e-12 and abs(p_v - 1.0) <= 0.2
          and abs(p_t + 0.5) <= 0.05)
    return CriterionResult(
        8, "parabolic passage exponents", ok,
        f"v1 ~ u0^{p_v:.4f} (1±0.2), transit ~ u0^{p_t:.4f} (-0.5±0.05), "
        f"truncated oracle dev {worst_trunc:.1e} (tol 1e-12)",
        {"exp_v": p_v, "exp_t": p_t, "trunc": worst_trunc, "counters": asdict(counters)})


def criterion_9(cache: dict) -> CriterionResult:
    lab, family = _lab(cache), _family(cache)
    report = verify_cones(lab, family, samples_per_strip=200)
    itinerary = shadow_orbit(lab, family, (2, 3, 2))
    ok = (report.passed and report.n_samples >= 800 and itinerary.achieved
          and family.mu_h * family.mu_v < 1.0)
    return CriterionResult(
        9, "horseshoe strips, cones, and shadowing", ok,
        f"{len(family.strips)} disjoint strips (mu_h mu_v = "
        f"{family.mu_h * family.mu_v:.2e}); cones pass "
        f"{report.pass_rate:.1%} of {report.n_samples} samples, eta = {report.eta:.2f}, "
        f"kappa = {report.kappa:.2e}; itinerary (2,3,2) achieved = {itinerary.achieved} "
        f"(counts {itinerary.counts}, base {itinerary.base}, worst leg defect "
        f"{max(itinerary.defects_v + itinerary.defects_tau):.1e}, least count margin "
        f"{min(itinerary.margins):.1e})",
        {"pass_rate": report.pass_rate, "kappa": report.kappa,
         "eta": report.eta, "itinerary": asdict(itinerary),
         "counters": {"strips": family.diagnostics["counters"], "cones": report.counters,
                      "shadow_return_maps": itinerary.return_maps}})


def criterion_10(cache: dict) -> CriterionResult:
    demo = oscillatory_demo(_lab(cache), _family(cache), 3, 8.0)
    maxima = demo["maxima"]
    ok = (len(maxima) >= 3 and demo["strictly_increasing"]
          and demo["returns_below"] and demo["itinerary"].achieved)
    return CriterionResult(
        10, "oscillatory orbit witness", ok,
        f"{len(maxima)} height maxima {['%.4f' % m for m in maxima]}, "
        f"strictly increasing = {demo['strictly_increasing']}, "
        f"returns below z_ret = {demo['returns_below']}",
        {"maxima": maxima, "itinerary": asdict(demo["itinerary"]),
         "counters": {"lift": demo["lift"],
                      "shadow_return_maps": demo["itinerary"].return_maps}})


def criterion_11() -> CriterionResult:
    params = params_for_nu_I0(4.5, epsilon=1.0)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    q0, p0, th0 = float(q_h(-8.0)), float(p_h(-8.0)), 1.0
    y0 = np.array([q0, p0, th0, action_offset_closed(q0, p0, th0, params)])
    t_end = 16.0
    traj = integrate_mcgehee(params, y0, (0.0, t_end), cfg)
    theta_end = float(traj.y1[2])
    red = integrate(reduced_rhs(params), y0[:2], (y0[2], theta_end),
                    IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13))
    dev = float(np.max(np.abs(red.y1 - traj.y1[:2])))
    field_chk = reduced_rhs(params)(y0[2], (y0[0], y0[1]))
    full = mcgehee_rhs(params)(0.0, y0)
    dev_field = float(np.max(np.abs(np.array(field_chk)
                                    - np.array(full[:2]) / full[2])))
    ok = dev <= 1e-8 and dev_field <= 1e-10
    return CriterionResult(
        11, "reduced flow consistency over an excursion", ok,
        f"endpoint dev {dev:.2e} (tol 1e-8), field dev {dev_field:.2e}",
        {"dev": dev})


def criterion_12() -> CriterionResult:
    sup1 = averaged_remainder_sup(params_for_nu_I0(20.0))
    sup2 = averaged_remainder_sup(params_for_nu_I0(40.0))
    ratio = sup2 / sup1
    ok = 0.45 <= ratio <= 0.55
    return CriterionResult(
        12, "averaging remainder halves when nu I0 doubles", ok,
        f"sup ratio {ratio:.4f} (0.5 ± 10%)",
        {"ratio": ratio})


ALL_CRITERIA = {
    1: lambda cache: criterion_1(),
    2: lambda cache: criterion_2(),
    3: lambda cache: criterion_3(),
    4: lambda cache: criterion_4(),
    5: lambda cache: criterion_5(),
    6: lambda cache: criterion_6(),
    7: lambda cache: criterion_7(),
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: lambda cache: criterion_11(),
    12: lambda cache: criterion_12(),
}


def run_all(indices=None) -> list[CriterionResult]:
    """Run the acceptance criteria (all by default), printing one pass/fail line each."""
    cache: dict = {}
    results = []
    for idx in sorted(ALL_CRITERIA if indices is None else indices):
        fn = ALL_CRITERIA[idx]
        t0 = time.time()
        try:
            res = fn(cache)
        except Exception as exc:  # a crashed criterion is a failed criterion
            kind = f" ({exc.kind})" if isinstance(exc, SolveError) else ""
            res = CriterionResult(idx, f"criterion {idx}", False,
                                  f"raised {type(exc).__name__}{kind}: {exc}")
        res.seconds = time.time() - t0
        results.append(res)
        print(res.line() + f"  [{res.seconds:.1f} s]")
    return results

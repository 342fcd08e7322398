"""Correctness checks, computed apart from the program.

They run after the timed phase and compare against closed forms written
out here (not imported from hecu.separatrix), against the method's own
properties (reversibility, monotone passage counts, recounts) or against
an independent path (the direct stable sheet).  None compares with a
stored copy of an earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hecu import horseshoe as hs

R1 = 0.06                     # first cosine coefficient of the physical corrugation

AMP_REL_TOL = 0.03
RHO_TOL = 0.02
SIGMA_TOL = 0.15
DIRECT_REL_TOL = 1e-3
F1_REL_TOL = 5e-3
F1_IM_TOL = 1e-3
REVERSE_V_TOL = 1e-9
REVERSE_THETA_TOL = 1e-7
MONOTONE_SCAN = (0.02, 0.9, 8)   # tau from 0.02 to 0.9 delta, 8 points


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def melnikov_L(k: int, nu_I0: float) -> float:
    """L_k = -(pi nu I0 V_k / 4) e^{-|k| nu I0} (|k| + 1/(nu I0)), V_1 = r1/2."""
    v_k = R1 / 2.0 if abs(k) == 1 else 0.0
    return -(math.pi * nu_I0 * v_k / 4.0) * math.exp(-abs(k) * nu_I0) * (abs(k) + 1.0 / nu_I0)


# -- splitting -----------------------------------------------------------------

def splitting_amplitude(sample) -> Check:
    pred = 2.0 * sample.epsilon * abs(melnikov_L(1, sample.nu_I0))
    dev = abs(sample.amp_J - pred) / pred
    return Check(f"amp_J nuI0={sample.nu_I0:.3f} eps={sample.epsilon:g}",
                 dev <= AMP_REL_TOL, f"rel dev {dev:.2e} (tol {AMP_REL_TOL})")


def scaling_fit(eps: float, fit) -> Check:
    if fit is None:
        return Check(f"fit eps={eps:g}", False, "fit_scaling failed")
    ok = abs(fit.rho - 1.0) <= RHO_TOL and abs(fit.sigma - 1.0) <= SIGMA_TOL
    return Check(f"fit eps={eps:g}", ok,
                 f"rho {fit.rho:.6f} (1 +- {RHO_TOL}), sigma {fit.sigma:.6f} (1 +- {SIGMA_TOL})")


def homoclinic_roots(nu_I0: float, eps: float, u: float, roots) -> Check:
    """Two roots per period, each within 2/nuI0 of nuI0*u + j*pi."""
    worst = 0.0
    for theta, _ in roots:
        d = (theta - nu_I0 * u) % math.pi
        worst = max(worst, min(d, math.pi - d))
    tol = 2.0 / nu_I0
    ok = len(roots) == 2 and worst <= tol
    return Check(f"roots nuI0={nu_I0:.3f} eps={eps:g}", ok,
                 f"{len(roots)} roots, phase dev {worst:.3e} (tol {tol:.3f})")


def direct_sheet(sample, amp_direct: float) -> Check:
    dev = abs(amp_direct - sample.amp_J) / sample.amp_J
    return Check(f"stable_sheet_direct nuI0={sample.nu_I0:.3f} eps={sample.epsilon:g}",
                 dev <= DIRECT_REL_TOL, f"rel dev {dev:.2e} (tol {DIRECT_REL_TOL})")


# -- inner ---------------------------------------------------------------------

def inner_f1(eps: float, diff) -> Check:
    lead = math.pi * R1 / 8.0
    dev = abs(diff.f1 / eps + lead) / lead
    im = diff.diagnostics["im_f1_offaxis_ratio"]
    ok = dev <= F1_REL_TOL and im <= F1_IM_TOL
    return Check(f"f1 eps={eps:.4g}", ok,
                 f"|f1/eps + pi r1/8| = {dev:.3%} of pi r1/8 (tol {F1_REL_TOL:.1%}), "
                 f"off-axis Im/|f1| {im:.1e} (tol {F1_IM_TOL})")


# -- horseshoe -----------------------------------------------------------------

def reversibility(lab, points) -> Check:
    """global_map then its reversor image returns to the start.

    The reversor (q, p, theta) -> (q, -p, -theta) swaps the chart's u and v
    and reverses the angle, so the excursion from (a, u1, -theta1) must
    land on (v0, -theta0).
    """
    worst_v = worst_t = 0.0
    for v_rel, tau in points:
        v0, th0 = lab.point(v_rel, tau)
        u1, th1 = hs.global_map(lab.params, lab.chart, v0, th0, rtol=lab.rtol)
        v2, th2 = hs.global_map(lab.params, lab.chart, u1, -th1, rtol=lab.rtol)
        worst_v = max(worst_v, abs(v2 - v0))
        worst_t = max(worst_t, abs(th2 + th0))
    ok = worst_v <= REVERSE_V_TOL and worst_t <= REVERSE_THETA_TOL
    return Check("reversibility of global_map", ok,
                 f"|dv| {worst_v:.1e} (tol {REVERSE_V_TOL}), "
                 f"|dtheta| {worst_t:.1e} (tol {REVERSE_THETA_TOL})")


def strips(lab, family) -> list[Check]:
    out = []
    ns = sorted(family.strips)
    v_line = float(family.strips[ns[0]].v_grid[len(family.strips[ns[0]].v_grid) // 2])
    lo, hi, n_scan = MONOTONE_SCAN
    taus = np.geomspace(lo * lab.delta_q, hi * lab.delta_q, n_scan)
    counts = [lab.passage_count(v_line, float(t)) for t in taus]
    ok = all(c >= 0 for c in counts) and all(b <= a for a, b in zip(counts, counts[1:]))
    out.append(Check("passage counts fall with tau", ok,
                     f"counts {counts[0]} -> {counts[-1]} over tau in "
                     f"[{lo}, {hi}] delta: {counts}"))

    wrong = []
    for n in ns:
        st = family.strips[n]
        for v, a, b in zip(st.v_grid, st.tau_lo, st.tau_hi):
            c = lab.passage_count(float(v), float(0.5 * (a + b)))
            if c != n:
                wrong.append((n, float(v), c))
    out.append(Check("recount at strip centre lines", not wrong,
                     f"{len(ns)} strips x {len(family.strips[ns[0]].v_grid)} lines"
                     + (f", mismatches {wrong}" if wrong else "")))

    ordered = all(np.all(family.strips[n].tau_lo < family.strips[n].tau_hi) for n in ns)
    nested = all(np.all(family.strips[b].tau_hi <= family.strips[a].tau_lo)
                 for a, b in zip(ns, ns[1:]))
    out.append(Check("strips disjoint and nested", ordered and nested,
                     f"non-empty {ordered}, deeper strips below {nested}"))
    product = family.mu_h * family.mu_v
    out.append(Check("mu_h mu_v < 1", product < 1.0, f"mu_h mu_v = {product:.3e}"))
    return out


def cones(report, attempted: int) -> Check:
    if report is None:
        return Check("cone samples", False, "verify_cones failed")
    finite = all(math.isfinite(x) for x in report.per_strip_expansion.values())
    ok = report.n_samples == attempted and finite and math.isfinite(report.fd_agreement)
    return Check("cone samples give finite Jacobians", ok,
                 f"{report.n_samples}/{attempted} samples evaluated; verdict not checked: "
                 f"pass rate {report.pass_rate:.1%} (criterion needs 95%), "
                 f"fd_agreement {report.fd_agreement:.3g}")

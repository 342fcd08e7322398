"""Invariant-manifold graphs, globalization, and splitting measurement.

Near infinity the unstable manifold of the periodic orbit at q = p = J = 0
is the graph P = d_u Phi, J = d_theta Phi of a generating function
Phi = Phi0 + Phi1 solving a Hamilton-Jacobi equation.  Phi1 is found by
Picard iteration of

    Phi1 = G(F(Phi1)),
    F(Phi1) = -(1/(2 p_h^2)) (d_u Phi1)^2 - (nu/2) (d_theta Phi1)^2 - H1(q_h(u), theta),

realized on truncated Fourier modes with the semi-infinite characteristic
transport G evaluated along the real axis (first iterate = the Melnikov
layer L+_out).  The graph seeds trajectories which are globalized by
integration; the stable sheet is obtained through the reversor
S(q, p, theta, J) = (q, -p, -theta, J) plus time reversal, exact for even
corrugation.  Splitting harmonics are read off arrival samples of
Delta J = J+ - J- and Delta P = P+ - P- projected on e^{ik(theta - nu I0 u)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import ModeField, geometric_grid, hermite, modes_to_values, picard_solve
from .fourier import transport  # noqa: F401  (perfbench/layers.py wraps it here)
from .integrate import (LANE_OUTCOMES, MAX_RELIABLE_NU_I0, SPAN_END, IntegrationCounters,
                        IntegratorConfig, _polish, first_crossing, mcgehee_rhs)
# no sheet calls it; perfbench/layers.py wraps it here, so the name stays
from .integrate import integrate_mcgehee  # noqa: F401
from .model import DomainError, ModelParams, SolveError, hamiltonian_mcgehee, params_for_nu_I0
from .separatrix import dphi0, p_h, q_h


# ---------------------------------------------------------------------------
# Hamilton-Jacobi solver
# ---------------------------------------------------------------------------

# HJ grid: spacing 5e-3 over the last 10 units below u_max = -0.2 (1/p_h^2
# blows up at u = 0), geometric out to u = -2e4; at most 50 Picard iterations.
_HJ_U_MAX = -0.2
_HJ_H0 = 5e-3
_HJ_NEAR_SPAN = 10.0
_HJ_U_FAR = -2.0e4
_HJ_MAX_ITER = 50


@dataclass
class ManifoldGraph:
    """One invariant-manifold sheet as a Hamilton-Jacobi graph near infinity."""

    phi1: ModeField          # correction Phi1; derivatives tracked exactly
    residual: float
    contraction_ratio: float
    iterations: int

    @property
    def u(self) -> np.ndarray:
        """The graph's u grid, the grid of phi1."""
        return self.phi1.x

    def derivatives_at(self, u0: float, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(P, J) = (d_u Phi, d_theta Phi) at (u0, thetas); includes Phi0."""
        thetas = np.asarray(thetas, dtype=float)
        P = np.full_like(thetas, float(dphi0(u0)), dtype=complex)
        J = np.zeros_like(thetas, dtype=complex)
        vals, dvals = hermite(self.phi1.x, self.phi1.values, self.phi1.du, u0)
        for k, val, dval in zip(self.phi1.ks.tolist(), vals.tolist(), dvals.tolist()):
            phase = np.exp(1j * k * thetas)
            P = P + dval * phase
            J = J + 1j * k * val * phase
        return np.real(P), np.real(J)


def solve_hj_unstable(params: ModelParams, theta_modes: int = 8,
                      tol: float = 1e-11) -> ManifoldGraph:
    """Picard solution of the Hamilton-Jacobi graph on u <= -0.2.

    F(Phi1) of the module docstring, with H1 = (eps/2) q_h^4 V, at omega_k =
    k nu I0, solved by fourier.picard_solve to the sup-residual tol.  The
    solve's first iterate is the Melnikov layer L+_out; the graph keeps only
    the converged Phi1.  Raises SolveError "non-contraction" when the
    iteration does not contract (nu I0 too small) and "non-convergence"
    when it does not converge within 50 iterations.
    """
    x = geometric_grid(_HJ_U_MAX, h0=_HJ_H0, near_span=_HJ_NEAR_SPAN, x_far=_HJ_U_FAR)
    M = int(theta_modes)
    # the primary source on its band: its modes beyond the corrugation's order are zero
    B = min(M, params.series.order)
    vks = np.array([params.series.fourier_coeff(k) for k in range(-B, B + 1)])[:, None]
    prof = -0.5 * params.epsilon * (1.0 + x ** 2) ** -2.0
    dprof = -0.5 * params.epsilon * (-4.0 * x) * (1.0 + x ** 2) ** -3.0
    inv2p = (1.0 + x ** 2) ** 2 / (2.0 * x ** 2)
    dinv2p = (4.0 * x * (1.0 + x ** 2) - 2.0 * (1.0 + x ** 2) ** 2 / x) / (2.0 * x ** 2)
    step = picard_solve(ModeField(B, x, vks * prof, vks * dprof), M, params.nu_I0,
                        inv2p, dinv2p, params.nu, tol, _HJ_MAX_ITER)
    return ManifoldGraph(step.phi, step.residual, step.ratio, step.iteration)


def unstable_initial_conditions(graph: ManifoldGraph, u0: float,
                                thetas: np.ndarray) -> np.ndarray:
    """Seed states Gamma+(u0, theta) = (q_h, P/p_h, theta, J) on the graph."""
    if not (graph.u[0] <= u0 <= graph.u[-1]):
        raise DomainError(f"u0={u0} outside graph range")
    P, J = graph.derivatives_at(u0, thetas)
    qh = float(q_h(u0))
    ph = float(p_h(u0))
    states = np.empty((len(thetas), 4))
    states[:, 0] = qh
    states[:, 1] = P / ph
    states[:, 2] = thetas
    states[:, 3] = J
    return states


# ---------------------------------------------------------------------------
# globalization
# ---------------------------------------------------------------------------

# Sheets are seeded on the HJ graph at u = -3 (unstable) or its reversor
# image at u = +3 (stable).
_SHEET_U_SEED = 3.0


@dataclass
class SheetLevel:
    """Arrival samples of one sheet on the section u = const."""

    u: float
    theta0: np.ndarray
    theta: np.ndarray      # arrival angle, unwrapped and smooth in theta0
    P: np.ndarray
    J: np.ndarray
    energy_defect: np.ndarray

    def mode(self, which: str, k: int) -> complex:
        """Fourier coefficient of P or J against the arrival angle.

        Uses the smooth reparametrization by the seed angle: spectrally
        accurate trapezoid with the exact Jacobian d theta/d theta0.
        """
        vals = self.P if which == "P" else self.J
        n = len(self.theta0)
        # drift theta - theta0 is constant plus periodic once 2pi wraps are
        # removed; its spectral derivative gives the exact Jacobian
        delta = np.unwrap(self.theta - self.theta0, period=2.0 * math.pi)
        dd = np.fft.ifft(np.fft.fft(delta - np.mean(delta))
                         * 1j * np.fft.fftfreq(n, d=1.0 / n)).real
        jac = 1.0 + dd
        integrand = vals * np.exp(-1j * k * self.theta) * jac
        return complex(np.mean(integrand))

    def reflected(self) -> "SheetLevel":
        """Reversor image: samples of the opposite sheet at -u."""
        order = np.argsort(-self.theta0)
        return SheetLevel(
            u=-self.u,
            theta0=np.mod(-self.theta0[order], 2.0 * math.pi),
            theta=-self.theta[order],
            P=self.P[order].copy(),
            J=self.J[order].copy(),
            energy_defect=self.energy_defect[order].copy(),
        )


@dataclass
class Sheet:
    params: ModelParams
    levels: dict[float, SheetLevel]
    counters: IntegrationCounters = field(default_factory=IntegrationCounters)

    def level(self, u: float) -> SheetLevel:
        key = min(self.levels, key=lambda v: abs(v - u))
        if abs(key - u) > 1e-9:
            raise KeyError(f"no level at u={u}")
        return self.levels[key]

    @property
    def noise_floor(self) -> float:
        """J-equivalent integrator noise: max energy defect / (nu I0)."""
        worst = max(float(np.max(lv.energy_defect)) for lv in self.levels.values())
        return worst / self.params.nu_I0


def globalize(params: ModelParams, seeds: np.ndarray, u_levels) -> Sheet:
    """Integrate unstable seeds at u = -3 and sample (P, J) at sections q = q_h(u).

    u_levels are positive; each fiber crosses q = q_h(u) twice, once rising
    (recorded at -u, the incoming branch p < 0) and once falling (+u,
    p > 0).  Since dq/dt = -q p, the branch is the crossing direction.
    """
    u_levels = sorted(float(u) for u in u_levels)
    if not u_levels or u_levels[0] <= 0:
        raise DomainError("u_levels must be positive")
    t_end = _SHEET_U_SEED + u_levels[-1] + 1.5
    # forward in time the fibers meet the branches in ascending signed u
    branches = sorted((su, d) for u in u_levels for su, d in ((u, -1), (-u, +1)))
    return _sample_sheet(params, seeds, t_end, branches)


def _sample_sheet(params: ModelParams, seeds: np.ndarray, t_end: float, branches) -> Sheet:
    """All seeds as terminal lanes of `first_crossing`, one branch at a time.

    A branch (signed_u, direction) samples every fiber at its first crossing
    of q = q_h(u) with sign(dq/dt) = direction.  Branches come in time
    order, and each one restarts the lanes from their crossings of the one
    before; the field is autonomous, so every restart begins at t = 0.
    t_end is the budget from the seed: a fiber that would reach a branch
    later is a gap.  Raises SolveError on a gap, with the outcome of each
    missing lane (its `LANE_OUTCOMES` name: timeout, underflow or polish);
    the first missing lane's outcome is the kind.
    """
    n = seeds.shape[0]
    rhs = mcgehee_rhs(params)
    counters = IntegrationCounters()
    budget = abs(t_end)
    elapsed = np.zeros(n)
    state = seeds.T
    levels = {}
    for signed_u, direction in branches:
        q_t = float(q_h(signed_u))
        span = (0.0, math.copysign(float(np.max(budget - elapsed)), t_end))
        kind, t, state = first_crossing(rhs, state, span, [(lambda y: y[0] - q_t, direction)],
                                        IntegratorConfig(), counters)
        elapsed += np.abs(t)
        kind[elapsed > budget] = SPAN_END
        missing = np.flatnonzero(kind != 0)
        if missing.size:
            why = ", ".join(f"lane {j}: {LANE_OUTCOMES[kind[j]]}" for j in missing)
            raise SolveError(LANE_OUTCOMES[kind[missing[0]]],
                             f"grid coverage gap at u={signed_u}: "
                             f"{n - missing.size}/{n} fibers arrived ({why})")
        levels[signed_u] = SheetLevel(
            u=signed_u,
            theta0=seeds[:, 2].copy(),
            theta=state[2],
            P=state[1] * float(p_h(signed_u)),
            J=state[3],
            energy_defect=np.abs(hamiltonian_mcgehee(state, params) - params.energy),
        )
    return Sheet(params, levels, counters)


def unstable_sheet(params: ModelParams, u_levels, n_theta: int = 64,
                   theta_modes: int = 8, tol: float = 1e-11,
                   graph: ManifoldGraph | None = None) -> Sheet:
    """Full pipeline: HJ graph, seeds on a uniform angle grid, globalization."""
    g = graph if graph is not None else solve_hj_unstable(
        params, theta_modes=theta_modes, tol=tol)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    seeds = unstable_initial_conditions(g, -_SHEET_U_SEED, thetas)
    return globalize(params, seeds, u_levels)


def stable_sheet_from_unstable(sheet: Sheet) -> Sheet:
    """Reversor image: stable-sheet samples at +u from unstable ones at -u."""
    levels = {lv.u * -1.0: lv.reflected() for lv in sheet.levels.values()}
    return Sheet(sheet.params, levels)


def stable_sheet_direct(params: ModelParams, u_levels, n_theta: int = 64,
                        graph: ManifoldGraph | None = None) -> Sheet:
    """Stable sheet by direct backward integration (validation path).

    Seeds are S-images of the unstable graph at u = -3; integrating them
    backward traverses the stable manifold toward decreasing u, and each
    level is sampled on the branch p > 0 (q falling in forward time).
    """
    g = graph if graph is not None else solve_hj_unstable(params)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    P, J = g.derivatives_at(-_SHEET_U_SEED, np.mod(-thetas, 2 * math.pi))
    qh = float(q_h(_SHEET_U_SEED))
    ph_minus = float(p_h(-_SHEET_U_SEED))
    seeds = np.empty((n_theta, 4))
    seeds[:, 0] = qh
    seeds[:, 1] = -P / ph_minus    # S flips p; p_h(-u) = -p_h(u)
    seeds[:, 2] = thetas
    seeds[:, 3] = J

    u_levels = sorted(float(u) for u in u_levels)
    t_end = -(_SHEET_U_SEED - u_levels[0] + 1.0)
    # backward in time the fibers meet the levels in descending u
    return _sample_sheet(params, seeds, t_end, [(u, -1) for u in reversed(u_levels)])


# ---------------------------------------------------------------------------
# splitting measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingSample:
    nu_I0: float
    epsilon: float
    u: float
    k: int
    amp_J: float
    phase_J: float
    amp_P: float
    phase_P: float
    noise_floor: float


def measure_splitting(unstable: Sheet, stable: Sheet, u: float, k: int = 1,
                      require_signal: bool = True) -> SplittingSample:
    """First-harmonic amplitude/phase of Delta J and Delta P at level u.

    The harmonics are projected on e^{ik theta'} with theta' = theta - nu I0 u.
    Raises SolveError "below-noise" when the J-amplitude is within 10x of
    the integrator noise floor.
    """
    params = unstable.params
    lv_p = unstable.level(u)
    lv_m = stable.level(u)
    rot = np.exp(1j * k * params.nu_I0 * u)
    gJ = (lv_p.mode("J", k) - lv_m.mode("J", k)) * rot
    gP = (lv_p.mode("P", k) - lv_m.mode("P", k)) * rot
    noise = max(unstable.noise_floor, stable.noise_floor)
    amp_J = 2.0 * abs(gJ)
    if require_signal and amp_J < 10.0 * noise:
        raise SolveError("below-noise", f"amp_J={amp_J:.3e} below 10x noise floor {noise:.3e}")
    return SplittingSample(
        nu_I0=params.nu_I0, epsilon=params.epsilon, u=u, k=k,
        amp_J=amp_J, phase_J=float(np.angle(gJ)),
        amp_P=2.0 * abs(gP), phase_P=float(np.angle(gP)),
        noise_floor=noise)


_N_SCAN = 720       # angles of the scan for homoclinic roots


def find_homoclinics(unstable: Sheet, stable: Sheet, u: float) -> list[tuple[float, float]]:
    """Sorted roots theta of Delta P(u, .) with transversality slopes.

    The mode differences are projected once; the scan over _N_SCAN angles,
    the root polish and the slopes all evaluate from them.  The sign changes
    of the scan are polished together by `integrate._polish`, each on its
    scan interval mapped to x in [0, 1], to a bracket of 1e-13 in theta.
    Exactly two roots per period are expected; any other count raises
    SolveError "root-count".
    """
    lv_p, lv_m = unstable.level(u), stable.level(u)
    dk = np.array([lv_p.mode("P", k) - lv_m.mode("P", k) for k in range(-6, 7)])

    def delta_p(th: float) -> float:
        return float(modes_to_values(dk, np.array([th]))[0])

    width = 2 * math.pi / _N_SCAN
    thetas = np.linspace(0.0, 2.0 * math.pi, _N_SCAN, endpoint=False)
    vals = modes_to_values(dk, thetas)
    after = np.roll(vals, -1)
    zeros = vals == 0.0
    changes = np.flatnonzero(vals * after < 0)
    x = _polish(lambda xx: modes_to_values(dk, thetas[changes] + xx * width),
                np.zeros(changes.size), np.ones(changes.size),
                vals[changes], after[changes], 1e-13 / width)
    found = np.concatenate((thetas[zeros], thetas[changes] + x * width))
    h = 1e-5
    roots = sorted((float(th % (2 * math.pi)),
                    (delta_p(th + h) - delta_p(th - h)) / (2 * h)) for th in found)
    if len(roots) != 2:
        raise SolveError("root-count",
                         f"expected 2 homoclinic roots per period, found {len(roots)}")
    return roots


# ---------------------------------------------------------------------------
# scaling law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingFit:
    rho: float                 # exponential rate of e^{-rho nu I0}
    sigma: float               # prefactor power of the frequency basis


def fit_scaling(samples: list[SplittingSample],
                basis: str = "nu_plus_one") -> ScalingFit:
    """Least squares of log(amp_J) = c + sigma*log(prefactor) - rho*nu I0.

    basis = "nu" uses prefactor nu I0 (the asymptotic form); basis =
    "nu_plus_one" uses nu I0 + 1, the exact first-order prefactor of the
    first Melnikov harmonic.  Over narrow frequency windows the "nu" basis
    is nearly collinear with the exponential and absorbs the 1/(nu I0)
    correction into sigma; both are reported by the sweep tools.
    """
    if len(samples) < 4:
        raise DomainError("fit needs at least 4 samples")
    x = np.array([s.nu_I0 for s in samples])
    amp = np.array([s.amp_J for s in samples])
    if np.any(amp <= 0):
        raise DomainError("amplitudes must be positive for the log fit")
    pref = x if basis == "nu" else x + 1.0
    A = np.column_stack([np.ones_like(x), np.log(pref), -x])
    coef, *_ = np.linalg.lstsq(A, np.log(amp), rcond=None)
    return ScalingFit(rho=float(coef[2]), sigma=float(coef[1]))


def splitting_sweep(nu_I0_values, epsilon: float, u: float = 1.0,
                    tol: float = 1e-11,
                    counters: IntegrationCounters | None = None) -> list[SplittingSample]:
    """Measure the first splitting harmonic across nu I0 values (64 fibres).

    Each sheet's integration counters are added into `counters` when given.
    """
    out = []
    for nu_I0 in nu_I0_values:
        if nu_I0 > MAX_RELIABLE_NU_I0:
            raise DomainError(
                f"nu I0 = {nu_I0} beyond double-precision reliability bound "
                f"{MAX_RELIABLE_NU_I0}")
        params = params_for_nu_I0(float(nu_I0), epsilon=epsilon)
        sheet = unstable_sheet(params, [u], tol=tol)
        if counters is not None:
            counters.add(sheet.counters)
        stable = stable_sheet_from_unstable(sheet)
        out.append(measure_splitting(sheet, stable, u))
    return out

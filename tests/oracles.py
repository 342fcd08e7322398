"""Independent oracles that the tests check the package against.

None of this runs in the laboratory; each piece is a second, closed-form or
quadrature route to a quantity that src/hecu computes another way:

- the Cartesian model in laboratory units and the regularizing change to
  (q, p, theta, J), against `mcgehee_rhs` and `hamiltonian_mcgehee`;
- the reversor and the b-symplectic form, against the field and the
  averaging change;
- the generating function phi0 of the separatrix, against `dphi0`;
- the closed-form Melnikov potential and the semi-infinite layers L+-_out
  by oscillatory quadrature, against the Melnikov coefficients and the
  first Hamilton-Jacobi iterate;
- the evaluation of a graph's Phi1 and the weighted T2 bound of an inner
  solution;
- the cubic Hermite evaluation of one mode at one point, in scalar code,
  against the vectorised kernel `fourier.hermite`;
- the set-up's crossing by an 18-step bisection of the seed angle, against
  the secant zero across the fibre bracket that centres the branch walk;
- the strip edges by a secant with a step rule, one batch of returns per
  round, against the stencil fit of `_taus_at_advance`;
- the Picard engine on fresh arrays, one new field per product and one
  transport call per mode, against the in-place `picard_solve` and its
  `transport_modes`;
- homoclinic roots by scipy's brentq, one bracket at a time, against the
  vectorised polish of `find_homoclinics`.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np
from scipy.optimize import brentq

from hecu.fourier import (ModeField, NonContractionError, PicardStep, _filon_transport,
                          _filon_weights, hermite, ibp_tail, modes_to_values, osc_integral,
                          powerlaw_tail)
from hecu.horseshoe import (_N_FIBERS, LocalChart, MapCounters, PassageError, _TrigCurve,
                            _build_branch, _orient_lab, _run_fibers)
from hecu.manifolds import RootCountError, solve_hj_unstable
from hecu.inner import theta_v_constant
from hecu.model import DomainError
from hecu.separatrix import _QUAD_T, _kern, _kern_d1, _kern_d2, melnikov_coeff_closed

# ---------------------------------------------------------------------------
# the Cartesian model: energy meV, length angstrom, mass amu
# ---------------------------------------------------------------------------

Cartesian = namedtuple("Cartesian", "x z p_x p_z")


def hamiltonian_cartesian(s: Cartesian, physical) -> float:
    """H_CM = (p_x^2 + p_z^2)/(2m) + V_M(z) + V_C(2 pi x / a, z)."""
    kin = (s.p_x ** 2 + s.p_z ** 2) / (2.0 * physical.m)
    if s.z == math.inf:
        return kin
    e = math.exp(-physical.alpha * s.z)
    v = physical.corrugation.trig(2.0 * math.pi * s.x / physical.a)[0]
    corrugation = physical.D * math.exp(-2.0 * physical.alpha * s.z) * v
    return kin + physical.D * e * (e - 2.0) + corrugation


def vector_field_cartesian(s, physical) -> np.ndarray:
    """Equations of motion of H_CM in (x, z, p_x, p_z)."""
    x, z, p_x, p_z = s
    v, vp = physical.corrugation.trig(2.0 * math.pi * x / physical.a)
    e1 = math.exp(-physical.alpha * z)
    e2 = e1 * e1
    return np.array([
        p_x / physical.m,
        p_z / physical.m,
        -(2.0 * math.pi / physical.a) * physical.D * e2 * vp,
        -2.0 * physical.D * physical.alpha * e1 * (1.0 - e1 * (1.0 + v)),
    ])


def time_rescale(physical) -> float:
    """lam with (d/dt_physical) = lam * (d/dt_rescaled) on pushforward."""
    return physical.alpha * math.sqrt(2.0 * physical.D / physical.m)


def to_mcgehee(s: Cartesian, params) -> np.ndarray:
    """Regularizing change: 2 q^2 = e^{-alpha z}, B p = p_z, C I = p_x, theta = 2 pi x / a."""
    phys = params.physical
    q = 0.0 if s.z == math.inf else math.sqrt(0.5 * math.exp(-phys.alpha * s.z))
    return np.array([q, s.p_z / phys.B, 2.0 * math.pi * s.x / phys.a,
                     s.p_x / phys.C - params.I0])


def from_mcgehee(y, params) -> Cartesian:
    """Inverse of `to_mcgehee`; needs q >= 0 (q = 0 maps to z = +inf)."""
    q, p, theta, J = y
    phys = params.physical
    if q < 0:
        raise DomainError("from_mcgehee needs q >= 0")
    z = math.inf if q == 0.0 else -math.log(2.0 * q * q) / phys.alpha
    return Cartesian(phys.a * theta / (2.0 * math.pi), z, phys.C * (params.I0 + J), phys.B * p)


# ---------------------------------------------------------------------------
# geometry of the rescaled system
# ---------------------------------------------------------------------------

def reversor(y) -> np.ndarray:
    """Reversibility map S(q, p, theta, J) = (q, -p, -theta, J)."""
    q, p, theta, J = y
    return np.array([q, -p, -theta, J])


def b_form_matrix(q: float) -> np.ndarray:
    """Matrix of the 2-form d theta ^ dJ - (1/q) dq ^ dp in coordinates (q, p, theta, J)."""
    O = np.zeros((4, 4))
    O[0, 1] = -1.0 / q
    O[1, 0] = 1.0 / q
    O[2, 3] = 1.0
    O[3, 2] = -1.0
    return O


# ---------------------------------------------------------------------------
# separatrix and Melnikov potential
# ---------------------------------------------------------------------------

def phi0(u):
    """Generating function of the separatrix: d phi0/du = p_h(u)^2."""
    u = np.asarray(u, dtype=float)
    return -u / (2.0 * (u ** 2 + 1.0)) + 0.5 * np.arctan(u)


def _melnikov_sum(u, theta, nu_I0, series, derivative):
    phase = np.asarray(theta, dtype=float) - nu_I0 * np.asarray(u, dtype=float)
    out = np.zeros_like(phase)
    for k in range(1, series.order + 1):
        lk = melnikov_coeff_closed(k, nu_I0, series)
        out = out + 2.0 * np.real((1j * k if derivative else 1.0) * lk * np.exp(1j * k * phase))
    return out if out.ndim else float(out)


def melnikov_potential(u, theta, nu_I0: float, series):
    """L(u, theta) = sum_k L_k e^{i k (theta - nu I0 u)} from closed forms."""
    return _melnikov_sum(u, theta, nu_I0, series, derivative=False)


def melnikov_dtheta(u, theta, nu_I0: float, series):
    """d L / d theta, the first-order prediction of the J-splitting."""
    return _melnikov_sum(u, theta, nu_I0, series, derivative=True)


def l_out_plus(u: float, theta, nu_I0: float, series):
    """Semi-infinite Melnikov layer
    L+_out(u, theta) = -int_{-inf}^u (q_h^4(s)/2) V(theta + nu I0 (s - u)) ds,
    mode by mode with the oscillatory panels.
    """
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    t_lo = -max(_QUAD_T, abs(u) + 50.0)
    out = np.zeros_like(theta_arr)
    for k in range(-series.order, series.order + 1):
        vk = series.fourier_coeff(k)
        if vk == 0:
            continue
        omega = k * nu_I0
        main = osc_integral(_kern, omega, t_lo, u)
        tail = ibp_tail(_kern(t_lo), _kern_d1(t_lo), _kern_d2(t_lo), omega, t_lo)
        mode = -0.5 * vk * (main + tail) * np.exp(-1j * omega * u)
        out = out + np.real(mode * np.exp(1j * k * theta_arr))
    return out if np.ndim(theta) else float(out[0])


def l_out_minus(u: float, theta, nu_I0: float, series):
    """L-_out(u, theta) = -L+_out(-u, -theta)."""
    return -l_out_plus(-u, -np.asarray(theta, dtype=float), nu_I0, series)


# ---------------------------------------------------------------------------
# solved fields
# ---------------------------------------------------------------------------

def phi1_at(graph, u0: float, thetas) -> np.ndarray:
    """Phi1(u0, theta) of a Hamilton-Jacobi graph, Hermite-interpolated in u."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.zeros_like(thetas, dtype=complex)
    vals, _ = hermite(graph.phi1.x, graph.phi1.values, graph.phi1.du, u0)
    for k, val in zip(range(-graph.phi1.M, graph.phi1.M + 1), vals):
        out = out + val * np.exp(1j * k * thetas)
    return np.real(out)


def interp_coeff(field: ModeField, k: int, u: float) -> tuple[complex, complex]:
    """Cubic Hermite evaluation of (coefficient, d/du coefficient) of mode k at u."""
    x = field.x
    j = int(np.searchsorted(x, u)) - 1
    j = min(max(j, 0), len(x) - 2)
    h = x[j + 1] - x[j]
    s = (u - x[j]) / h
    f0 = field.values[k + field.M, j]
    f1 = field.values[k + field.M, j + 1]
    d0 = field.du[k + field.M, j]
    d1 = field.du[k + field.M, j + 1]
    h00 = 2 * s ** 3 - 3 * s ** 2 + 1
    h10 = s ** 3 - 2 * s ** 2 + s
    h01 = -2 * s ** 3 + 3 * s ** 2
    h11 = s ** 3 - s ** 2
    val = h00 * f0 + h10 * h * d0 + h01 * f1 + h11 * h * d1
    dh00 = (6 * s ** 2 - 6 * s) / h
    dh10 = (3 * s ** 2 - 4 * s + 1)
    dh01 = (-6 * s ** 2 + 6 * s) / h
    dh11 = (3 * s ** 2 - 2 * s)
    dval = dh00 * f0 + dh10 * d0 + dh01 * f1 + dh11 * d1
    return complex(val), complex(dval)


def t2(sol):
    """T2 = T1 - L+_in of an inner solution: the part beyond the Melnikov layer."""
    return ModeField(sol.t1.M, sol.t1.x, sol.t1.values - sol.melnikov.values,
                     sol.t1.du - sol.melnikov.du)


def t2_weighted_bound(sol) -> float:
    """K1 with floor-norm |v|^3-weighted T2 <= K1 Theta_V^2."""
    v = sol.x - 1j * sol.depth
    total = float(np.sum(np.max(np.abs(v ** 3 * t2(sol).values), axis=1)))
    theta_v = theta_v_constant(sol)
    return total / theta_v ** 2 if theta_v > 0 else 0.0


# ---------------------------------------------------------------------------
# the Picard engine on fresh arrays
# ---------------------------------------------------------------------------

def dtheta(f: ModeField) -> ModeField:
    """d/dtheta of a mode field: mode k times i k."""
    ik = 1j * f.ks[:, None]
    return ModeField(f.M, f.x, ik * f.values, ik * f.du)


def square(f: ModeField, M: int | None = None) -> ModeField:
    """Pointwise square in theta, truncated to |k| <= M (default f.M).

    Sums each unordered pair a_i a_j once (twice its weight) with
    (a^2)' = 2 a a', and skips modes that are identically zero.
    """
    M = f.M if M is None else M
    out = ModeField(M, f.x)
    v, d = f.values, f.du
    live = f._live()
    for n, i in enumerate(live):
        for j in live[n:]:
            m = i + j - 2 * f.M + M
            if not 0 <= m <= 2 * M:
                continue
            if i == j:
                out.values[m] += 0.5 * v[i] * v[i]
                out.du[m] += v[i] * d[i]
            else:
                out.values[m] += v[i] * v[j]
                out.du[m] += d[i] * v[j] + v[i] * d[j]
    out.values *= 2.0
    out.du *= 2.0
    return out


def scale_profile(f: ModeField, prof: np.ndarray, dprof: np.ndarray) -> ModeField:
    """Every mode times a theta-independent grid profile, by the Leibniz rule."""
    return ModeField(f.M, f.x, f.values * prof[None, :],
                     f.du * prof[None, :] + f.values * dprof[None, :])


def sup_diff(a: ModeField, b: ModeField) -> float:
    """max over nodes of sum_k |a_k - b_k|, the shorter band zero-padded."""
    a, b = (a, b) if a.M >= b.M else (b, a)
    d = a.values.copy()
    d[a.M - b.M:a.M + b.M + 1] -= b.values
    return float(np.max(np.sum(np.abs(d), axis=0)))


def table_transport(table: dict, x: np.ndarray, k: int, freq: float,
                    f: np.ndarray, fp: np.ndarray, tail: complex) -> np.ndarray:
    """fourier.transport(x, f, fp, k freq, tail) from the weights of |k| in `table`.

    Builds the weights of |k| on first use.  A mode k < 0 is moved through
    G_{-w}(f) = conj(G_w(conj f)), which holds for real x and is exact in
    floating point (conjugation only flips signs).
    """
    w = table.get(abs(k))
    if w is None:
        w = table[abs(k)] = _filon_weights(x, abs(k) * freq)
    if k >= 0:
        return _filon_transport(w, f, fp, tail)
    return _filon_transport(w, f.conj(), fp.conj(), np.conj(tail)).conj()


def picard_solve_reference(primary: ModeField, freq: float, profile: np.ndarray,
                           dprofile: np.ndarray, nu: float, tol: float, max_iter: int,
                           weights: dict | None = None) -> tuple[PicardStep, ModeField]:
    """fourier.picard_solve built from a new field for every product and sum.

    The same iteration, stop rule and failures, with F(0) computed from the
    zero field, the factor 2 of each square applied inside `square` and each
    mode moved by `table_transport`.  Returns the last step and the first
    iterate, both on |k| <= primary.M.
    """
    x, M = primary.x, primary.M
    live = [abs(k) for k in primary.ks if primary.coeff(k).any()]
    primary = primary.band(max(live, default=0))
    weights = {} if weights is None else weights

    def transport_field(F: ModeField) -> ModeField:
        out = ModeField(F.M, x)
        for m, k in enumerate(F.ks):
            f, fp = F.values[m], F.du[m]
            if not f.any():
                continue
            omega = k * freq
            tail = (ibp_tail(f[0], fp[0], (fp[1] - fp[0]) / (x[1] - x[0]), omega, x[0])
                    if omega else powerlaw_tail(f[0], x[0]))
            out.values[m] = table_transport(weights, x, int(k), freq, f, fp, tail)
            out.du[m] = f - 1j * omega * out.values[m]
        return out

    def source(phi: ModeField, prev: ModeField) -> ModeField:
        B = min(M, max(2 * phi.M, primary.M))
        dx = ModeField(phi.M, x, phi.du, prev.du - 1j * freq * phi.ks[:, None] * phi.du)
        quad = scale_profile(square(dx, B), profile, dprofile)
        ang = square(dtheta(phi), B)
        out = primary.padded(B)
        out.values -= quad.values + 0.5 * nu * ang.values
        out.du -= quad.du + 0.5 * nu * ang.du
        return out

    phi = ModeField(0, x)
    src = source(phi, phi)
    ratio = prev_delta = math.nan
    for it in range(1, max_iter + 1):
        phi_new = transport_field(src)
        src_new = source(phi_new, src)
        delta = sup_diff(phi_new, phi)
        residual = sup_diff(src_new, src)
        if prev_delta > 0:
            ratio = delta / prev_delta
        prev_delta = delta
        phi, src = phi_new, src_new
        if it == 1:
            first = phi
        if ratio >= 0.9:
            raise NonContractionError(f"Picard ratio {ratio:.3f} >= 0.9 at iteration {it}")
        if residual == 0.0 or (residual <= tol and it >= 2):
            return PicardStep(it, phi.padded(M), residual, ratio), first.padded(M)
    raise NonContractionError(f"no convergence to tol={tol} within {max_iter} iterations "
                              f"(last residual {residual:.3e})")


# ---------------------------------------------------------------------------
# the set-up's crossing
# ---------------------------------------------------------------------------

# Bits per round of the crossing bisection: 18 halvings of the seed-angle
# bracket, six a round from the 63 interior points of a dyadic grid.
_BISECTION_ROUNDS = (6, 6, 6)


def crossing_by_bisection(params, chart, graph, wu_local, lo_p, hi_p, r_lo, counters):
    """Seed angle of the crossing of the W^s and W^u traces in the fibre
    bracket [lo_p, hi_p], where r = v_s - v_u is r_lo at lo_p: the midpoint
    of the bracket an 18-step bisection ends on; None where a fibre fails.

    A round samples the interior of a dyadic grid of the bracket as one
    batch and replays six bisection steps on it.
    """
    for bits in _BISECTION_ROUNDS:
        n = 2 ** bits
        grid = lo_p + (hi_p - lo_p) * np.arange(n + 1) / n
        _, _, th2, u2, kind = _run_fibers(params, chart, graph, grid[1:-1], counters)
        r, ok = u2 - wu_local(-th2), kind == ""
        a, b = 0, n
        for _ in range(bits):
            mid = (a + b) // 2
            if not ok[mid - 1]:
                return None
            r_mid = r[mid - 1]
            if r_mid == 0.0:
                a = b = mid
                break
            if r_lo * r_mid < 0:
                b = mid
            else:
                a, r_lo = mid, r_mid
        lo_p, hi_p = grid[a], grid[b]
        if a == b:
            break
    return 0.5 * (lo_p + hi_p)


def setup_horseshoe_bisected(params):
    """`setup_horseshoe` with each branch walk centred on `crossing_by_bisection`
    instead of the secant zero of r across the fibre bracket.

    Returns the lab and the `MapCounters` of its bisection rounds.
    """
    chart = LocalChart()
    graph = solve_hj_unstable(params)
    thetas0 = np.linspace(0.0, 2.0 * math.pi, _N_FIBERS, endpoint=False)
    spacing = thetas0[1] - thetas0[0]
    th1, v1, th2, u2, kind = _run_fibers(params, chart, graph, thetas0, MapCounters())
    if (kind != "").any():
        raise PassageError("a W^u fibre failed")
    wu_local = _TrigCurve(np.fmod(th1, 2.0 * math.pi), v1)
    h = u2 - wu_local(-th2)
    bisection = MapCounters()
    for j in range(_N_FIBERS):
        if not (h[j] == 0.0 or h[j] * h[(j + 1) % _N_FIBERS] < 0):
            continue
        star = crossing_by_bisection(params, chart, graph, wu_local, thetas0[j],
                                     thetas0[j] + spacing, h[j], bisection)
        if star is None:
            continue
        walked = _build_branch(params, chart, graph, wu_local, star, spacing, MapCounters())
        lab = None if walked is None else _orient_lab(params, chart, wu_local, walked,
                                                     MapCounters())
        if lab is not None:
            return lab, bisection
    raise PassageError("no homoclinic crossing produced a returning rectangle")


# ---------------------------------------------------------------------------
# strip edges
# ---------------------------------------------------------------------------

_SECANT_STEPS = 20      # secant steps at most for one root


def taus_at_advance_step_rule(lab, v_rel, target, guess) -> np.ndarray:
    """Roots tau of A(tau) = target by a secant on g = (2 pi/A)^2 - (2 pi/target)^2,
    which the count law A ~ 2 pi c/sqrt(tau) makes nearly linear in tau,
    each stopped when its step is at most 3e-7 tau.

    The secants start from guess and 1.1 guess (at most delta_q) and run in
    lockstep, one batch of returns per round; from build_strips' count-law
    guesses they take three rounds.
    """
    v_rel, target, guess = (np.asarray(x, dtype=float).ravel()
                            for x in np.broadcast_arrays(v_rel, target, guess))

    def g(lanes, tau):
        ret = lab.return_maps(v_rel[lanes], tau)
        if not ret.ok.all():
            raise PassageError(f"return failed: {ret.kind[np.argmin(ret.ok)]}")
        return (2.0 * math.pi / ret.advance) ** 2 - (2.0 * math.pi / target[lanes]) ** 2

    live = np.arange(v_rel.size)
    t0, t1 = guess.copy(), np.minimum(1.1 * guess, lab.delta_q)
    g0, g1 = np.split(g(np.r_[live, live], np.r_[t0, t1]), 2)
    for _ in range(_SECANT_STEPS):
        a0, a1, b0 = t0[live], t1[live], g0[live]
        step = a1 - g1 * (a1 - a0) / (g1 - b0)
        t0[live], t1[live], g0[live] = a1, step, g1
        live = live[np.abs(step - a1) > 3e-7 * step]
        if not live.size:
            return t1
        g1 = g(live, t1[live])
    raise PassageError("step-rule secant did not converge")


# ---------------------------------------------------------------------------
# homoclinic roots
# ---------------------------------------------------------------------------

def find_homoclinics_brentq(unstable, stable, u: float,
                            n_scan: int = 720) -> list[tuple[float, float]]:
    """Sorted roots theta of Delta P(u, .) with their central-difference slopes,
    each sign change of the scan polished alone by brentq to xtol 1e-13."""
    lv_p, lv_m = unstable.level(u), stable.level(u)
    dk = np.array([lv_p.mode("P", k) - lv_m.mode("P", k) for k in range(-6, 7)])

    def delta_p(th: float) -> float:
        return float(modes_to_values(dk, np.array([th]))[0])

    thetas = np.linspace(0.0, 2.0 * math.pi, n_scan, endpoint=False)
    vals = modes_to_values(dk, thetas)
    roots = []
    for j in range(n_scan):
        a, b = vals[j], vals[(j + 1) % n_scan]
        if a == 0.0:
            th_root = thetas[j]
        elif a * b < 0:
            th_root = brentq(delta_p, thetas[j], thetas[j] + 2 * math.pi / n_scan,
                             xtol=1e-13)
        else:
            continue
        h = 1e-5
        slope = (delta_p(th_root + h) - delta_p(th_root - h)) / (2 * h)
        roots.append((float(th_root % (2 * math.pi)), slope))
    roots.sort()
    if len(roots) != 2:
        raise RootCountError(roots)
    return roots

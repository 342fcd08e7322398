"""Adaptive DOP853 integration: lane-batched dense runs and first crossings.

One numpy implementation of the Dormand-Prince 8(5,3) pair (DOP853:
Hairer, Norsett & Wanner, Solving ODEs I, II.10; the tableau is the one
scipy ships) advances N independent orbits, the lanes, with one shared
step.  The step controller is scipy's; its error norm is the maximum over
lanes of scipy's per-lane DOP853 norm, so every lane meets at least the
tolerance it meets when integrated alone.  A 1-D initial state is one
lane, normed as scipy norms one orbit, so it takes scipy's steps.

One step loop serves both entry points.  `integrate` keeps the seven
coefficient arrays of the order-7 dense output of every accepted step.
`first_crossing` is the one event path: it evaluates its sections at the
step nodes only, and builds the interpolant of a step only where a wanted
crossing lies.  It runs N terminal lanes: each lane stops at its own first
crossing and is frozen there (its field set to 0, so it leaves the error
norm) while the others go on, and a step underflow or a non-finite state
fails one lane, not the run.  The horseshoe passages run on it, and a
sheet samples its levels as restarts of its lanes, one level after the
other.

The field is polynomial plus trig, never stiff; a step underflow is treated
as a domain signal (near-singularity such as q -> 0 in reduced
coordinates), not retried.

Splitting amplitudes scale like nu*I0*exp(-nu*I0), so double precision
limits reliable splitting measurements to nu*I0 <~ 14; see
MAX_RELIABLE_NU_I0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop

from .model import (
    DomainError,
    ModelParams,
    hamiltonian_mcgehee,
)

# Beyond this the signal nu*I0*e^{-nu*I0} sits within ~1e3 of double-precision
# integration noise and measured splitting harmonics stop being trustworthy.
MAX_RELIABLE_NU_I0 = 14.0

# the 12-stage method, its two error estimators, and the 3 extra stages and
# interpolation matrix of the dense output
_NS = _dop.N_STAGES
_A = _dop.A[:_NS, :_NS]
_B = _dop.B
_C = _dop.C[:_NS]
_E3 = _dop.E3
_E5 = _dop.E5
_A_EXTRA = _dop.A[_NS + 1:]
_C_EXTRA = _dop.C[_NS + 1:]
_D = _dop.D
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0


class StepUnderflowError(RuntimeError):
    """Integration step fell under 1e-14: the orbit is effectively singular.

    `lane` is the lane with the largest error in the last rejected step; it
    is None when a finished run is found to hold a step below 1e-14."""

    def __init__(self, message, lane=None):
        super().__init__(message)
        self.lane = lane


class IntegrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12

    def __post_init__(self):
        for tol in (self.rel_tol, self.abs_tol):
            if not (1e-15 <= tol <= 1e-3):
                raise DomainError("tolerances must lie in [1e-15, 1e-3]")


@dataclass
class IntegrationCounters:
    """Work and health of integrations: summed counts, worst polish residual."""

    steps: int = 0
    rejected_steps: int = 0
    rhs_calls: int = 0                # vectorised field calls
    polish_residual: float = 0.0      # largest |g| at a polished crossing

    def add(self, other: "IntegrationCounters") -> None:
        self.steps += other.steps
        self.rejected_steps += other.rejected_steps
        self.rhs_calls += other.rhs_calls
        self.polish_residual = max(self.polish_residual, other.polish_residual)


class Trajectory:
    """Shared step nodes of N lanes plus the dense interpolant of every step.

    A single-lane trajectory (1-D initial state) has y of shape (n, M) and
    evaluates to (n,) or (n, K); N lanes give (n, N, M), (n, N) and
    (n, N, K).  n_rhs counts field calls, one per vectorised call; counters
    holds it with the accepted and rejected steps.
    """

    def __init__(self, t: np.ndarray, nodes: np.ndarray, coeffs: np.ndarray | None,
                 counters: IntegrationCounters, single: bool):
        self.t = t
        self._nodes = nodes        # (M, N, n)
        self._coeffs = coeffs      # (7, M - 1, N, n), None without steps
        self.single = single
        y = nodes.transpose(2, 1, 0)
        self.y = y[:, 0] if single else y
        self.counters = counters
        self.n_rhs = counters.rhs_calls
        if not (np.all(np.diff(t) > 0) or np.all(np.diff(t) < 0)):
            raise IntegrationError("trajectory times must be strictly monotone")

    def __call__(self, t):
        if self._coeffs is None:
            raise IntegrationError("trajectory has no steps")
        tt = np.asarray(t, dtype=float)
        idx = self._step_index(tt.ravel())
        x = (tt.ravel() - self.t[idx]) / (self.t[idx + 1] - self.t[idx])
        states = _horner(self._coeffs[:, idx], self._nodes[idx], x[:, None, None])
        out = states.transpose(2, 1, 0)         # (n, N, K)
        if self.single:
            out = out[:, 0]
        return out[..., 0] if tt.ndim == 0 else out

    def _step_index(self, t: np.ndarray) -> np.ndarray:
        forward = self.t[-1] > self.t[0]
        nodes = self.t if forward else -self.t
        idx = np.searchsorted(nodes, t if forward else -t, side="left") - 1
        return np.clip(idx, 0, self.t.size - 2)

    @property
    def y1(self) -> np.ndarray:
        return self.y[..., -1].copy()


def _horner(coeffs, y_old, x):
    """DOP853 dense output sum_i F_i x^a (1-x)^b over coefficient axis 0."""
    y = np.zeros(np.broadcast_shapes(coeffs.shape[1:], np.shape(x)))
    for i in range(coeffs.shape[0]):
        y += coeffs[-1 - i]
        y *= x if i % 2 == 0 else 1.0 - x
    return y + y_old


def mcgehee_rhs(params: ModelParams):
    """Right-hand side of the rescaled equations of motion.

    The b-symplectic gradient of H:
        q' = -q p,  p' = -q^2 + 2 q^4 + 2 eps q^4 V(theta),
        theta' = nu (I0 + J),  J' = -(eps/2) q^4 V'(theta).
    Takes a state of shape (4,) or (4, N) (N lanes) and returns the same shape.
    """
    nu = params.nu
    I0 = params.I0
    eps = params.epsilon
    trig = params.series.trig

    def rhs(t, y):
        q, p, theta, J = y
        q2 = q * q
        q4 = q2 * q2
        v, vp = trig(theta)
        return np.array((
            -q * p,
            -q2 + 2.0 * q4 + 2.0 * eps * q4 * v,
            nu * (I0 + J),
            -0.5 * eps * q4 * vp,
        ))

    return rhs


def _norm(x: np.ndarray) -> np.ndarray:
    """2-norm over the state axis 0 of (n, N) lanes, one per lane.

    The controller reacts to the last bits of its error norm, so a single
    lane is normed as scipy norms one orbit (a dot product, which rounds
    unlike the axis reduction in about one case in eight) and takes scipy's
    steps.
    """
    return np.linalg.norm(x[:, 0])[None] if x.shape[1] == 1 else np.linalg.norm(x, axis=0)


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol) -> float:
    """scipy's starting step (HNW II.4) per lane; the smallest is shared.

    The trial evaluation uses the smallest per-lane trial step for every
    lane, so one field call serves them all.
    """
    interval = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    rms = math.sqrt(y0.shape[0])
    d0 = _norm(y0 / scale) / rms
    d1 = _norm(f0 / scale) / rms
    small = (d0 < 1e-5) | (d1 < 1e-5)
    h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
    h0 = min(float(np.min(h0)), interval)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _norm((f1 - f0) / scale) / rms / h0
    dmax = np.maximum(d1, d2)
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.where(flat, max(1e-6, h0 * 1e-3),
                  (0.01 / np.where(flat, 1.0, dmax)) ** (1.0 / 8.0))
    return min(100.0 * h0, float(np.min(h1)), interval)


def _steps(field, y, t_span, config: IntegratorConfig, counters: IntegrationCounters,
           frozen: np.ndarray | None = None):
    """Accepted DOP853 steps of dy/dt = field(t, y) from (t_span[0], y).

    Yields (t, y, t_new, y_new, dense) per accepted step until t_span[1];
    dense() returns the 7 coefficient arrays of that step's order-7
    interpolant and must be called before the next step.  y is (n, N) for
    N lanes.  `frozen` is a lane mask that the consumer may set between
    steps: a frozen lane's field is 0, so its state stands still and its
    error is 0.  Adds the work to `counters`; raises
    StepUnderflowError when the controller asks for a step below the
    spacing limit.
    """

    def fun(t, y):
        f = np.asarray(field(t, y), dtype=float)
        if frozen is not None:
            f[:, frozen] = 0.0
        return f

    def dense():            # of the step just yielded: reads the loop's variables
        for s, (a, c) in enumerate(zip(_A_EXTRA, _C_EXTRA), start=_NS + 1):
            K[s] = fun(t + c * h, y + np.dot(K2[:s].T, a[:s]).reshape(shape) * h)
        counters.rhs_calls += len(_C_EXTRA)
        dy = y_new - y
        F = np.empty((_dop.INTERPOLATOR_POWER,) + shape)
        F[0] = dy
        F[1] = h * f - dy
        F[2] = 2.0 * dy - h * (f_new + f)
        F[3:] = h * np.dot(_D, K2).reshape((-1,) + shape)
        return F

    t0, t_bound = float(t_span[0]), float(t_span[1])
    direction = 1.0 if t_bound >= t0 else -1.0
    rtol, atol = config.rel_tol, config.abs_tol
    shape, n = y.shape, y.shape[0]
    K = np.empty((_dop.N_STAGES_EXTENDED,) + shape)
    K2 = K.reshape(K.shape[0], -1)          # stages as rows, for tableau products
    # (state, stage) views of the earlier stages, one per tableau row
    stages = [(K2[:s].T, _A[s, :s], _C[s]) for s in range(1, _NS)]
    k_main, k_err = K2[:_NS].T, K2[:_NS + 1].T

    t = np.float64(t0)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, direction, rtol, atol)
    counters.rhs_calls += 2
    while direction * (t - t_bound) < 0:
        if frozen is not None:
            f[:, frozen] = 0.0      # lanes frozen since f was evaluated
        min_step = 10.0 * abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflowError(
                    f"required step {h_abs:.3e} below the spacing limit at t = {t:.17g}",
                    lane=int(np.argmax(lane_errors)))
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = np.float64(t_bound)
            h = t_new - t
            h_abs = abs(h)

            K[0] = f
            for s, (k_prev, a, c) in enumerate(stages, start=1):
                K[s] = fun(t + c * h, y + np.dot(k_prev, a).reshape(shape) * h)
            y_new = y + h * np.dot(k_main, _B).reshape(shape)
            f_new = fun(t_new, y_new)
            K[_NS] = f_new
            counters.rhs_calls += _NS

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = _norm(np.dot(k_err, _E5).reshape(shape) / scale) ** 2
            err3 = _norm(np.dot(k_err, _E3).reshape(shape) / scale) ** 2
            denom = err5 + 0.01 * err3
            lanes = abs(h) * err5 / np.sqrt(np.where(denom > 0, denom, 1.0) * n)
            lane_errors = np.where(denom > 0, lanes, 0.0)
            error_norm = float(np.max(lane_errors))

            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0
                          else min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
            counters.rejected_steps += 1

        counters.steps += 1
        yield t, y, t_new, y_new, dense
        t, y, f = t_new, y_new, f_new


def integrate(field, y0, t_span, config: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate dy/dt = field(t, y) over t_span with the 8(5,3) pair.

    y0 of shape (n, N) is N lanes sharing every step, and field must map
    (n, N) to (n, N).  y0 of shape (n,) is one lane, field maps (n,) to
    (n,), and the trajectory is its 1-D view (`Trajectory.single`).
    Deterministic given inputs.  Raises StepUnderflowError when the
    controller asks for steps below 1e-14.
    """
    field, y0, single = _as_lanes(field, y0)
    counters = IntegrationCounters()
    times, nodes, coeffs = [np.float64(t_span[0])], [y0], []
    for _, _, t_new, y_new, dense in _steps(field, y0, t_span, config, counters):
        coeffs.append(dense())
        times.append(t_new)
        nodes.append(y_new)

    times = np.array(times)
    steps = np.abs(np.diff(times))
    if steps.size and steps.min() < 1e-14:
        raise StepUnderflowError(f"observed step {steps.min():.3e} below 1e-14")

    def lane_major(a):          # (..., n, N) -> (..., N, n)
        return np.ascontiguousarray(a.swapaxes(-1, -2))

    coeffs = lane_major(np.stack(coeffs, axis=1)) if coeffs else None
    return Trajectory(times, lane_major(np.stack(nodes)), coeffs, counters, single)


def _as_lanes(field, y0):
    """(field, y0, single) on lanes: a 1-D y0 becomes one lane of shape (n, 1)."""
    y0 = np.array(y0, dtype=float)
    if y0.ndim != 1:
        return field, y0, False

    def lane(t, y):
        return np.reshape(field(t, y[:, 0]), y.shape)

    return lane, y0[:, None], True


def integrate_mcgehee(params: ModelParams, y0, t_span,
                      config: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    return integrate(mcgehee_rhs(params), y0, t_span, config)


# ---------------------------------------------------------------------------
# section crossings
# ---------------------------------------------------------------------------

CROSSING_XTOL = 1e-14     # final bracket width in t
CROSSING_GTOL = 1e-12     # largest accepted |g| at a polished crossing

# outcomes of a lane of `first_crossing` other than a section index
SPAN_END = -1           # no crossing up to the end of t_span
UNDERFLOW = -2          # step underflow, or the state stopped being finite
POLISH_MISS = -3        # the polished crossing missed |g| <= CROSSING_GTOL


def first_crossing(field, y0, t_span, sections,
                   config: IntegratorConfig = IntegratorConfig(),
                   counters: IntegrationCounters | None = None):
    """Integrate N terminal lanes, each up to its first section crossing.

    `sections` lists (g, direction): g maps states (n, K) to (K,), and a
    crossing counts when sign(dg/dt) equals direction (0 takes both).  Sign
    changes are sought at the step nodes; only a step holding one gets its
    interpolant, on which the crossing is polished to a bracket of
    CROSSING_XTOL in t and must reach |g| <= CROSSING_GTOL.  Adds the work
    to `counters` if given.

    y0 of shape (n, N) is N lanes on one shared step loop, and field maps
    (n, N) to (n, N).  Each lane stops at its own first crossing and is then
    frozen: its field is 0 from there on, so it leaves the error norm.  A
    step underflow freezes the lane with the largest error and the others
    go on; so does a state that stops being finite.  Returns arrays (k, t, y)
    of shapes (N,), (N,) and (n, N); k indexes `sections`, or is SPAN_END,
    UNDERFLOW or POLISH_MISS where a lane has no accepted crossing, with t
    and y where it stopped.

    y0 of shape (n,) is one lane, and field maps (n,) to (n,).  Returns
    (k, t, y) for its crossing, or (None, t, y) at the end of t_span; raises
    StepUnderflowError on an underflow and IntegrationError on a polish miss.
    """
    counters = IntegrationCounters() if counters is None else counters
    field, y0, single = _as_lanes(field, y0)
    n_lanes = y0.shape[1]
    kind = np.full(n_lanes, SPAN_END)
    t_out = np.full(n_lanes, float(t_span[1]))
    y_out = y0.copy()
    frozen = np.zeros(n_lanes, dtype=bool)

    def stop(lanes, k, t, y):
        kind[lanes], t_out[lanes], y_out[:, lanes] = k, t, y
        frozen[lanes] = True

    t_now, y_now = float(t_span[0]), y0
    g_old = [np.asarray(g(y0), dtype=float) for g, _ in sections]
    while not frozen.all():
        try:
            for t, y, t_now, y_now, dense in _steps(field, y_now, (t_now, t_span[1]),
                                                     config, counters, frozen):
                h = t_now - t
                broken = ~frozen & ~np.all(np.isfinite(y_now), axis=0)
                if broken.any():
                    stop(broken, UNDERFLOW, t, y[:, broken])
                    y_now[:, broken] = y[:, broken]     # the step loop goes on from y_now
                g_new = [np.asarray(g(y_now), dtype=float) for g, _ in sections]
                hits = np.array([~frozen & ((ga * gb < 0) | ((gb == 0) & (ga != 0)))
                                 & (d * (gb - ga) * h >= 0)
                                 for ga, gb, (_, d) in zip(g_old, g_new, sections)])
                g_prev, g_old = g_old, g_new
                lanes = np.flatnonzero(hits.any(axis=0))
                if not lanes.size:
                    continue
                F = dense()[:, :, lanes]
                x = np.full(lanes.size, np.inf)
                k = np.zeros(lanes.size, dtype=int)
                for s, (g, _) in enumerate(sections):
                    on = hits[s, lanes]
                    if not on.any():
                        continue
                    Fs, ys = F[:, :, on], y[:, lanes[on]]
                    xs = _polish(lambda xx: g(_horner(Fs, ys, xx)),
                                 np.zeros(ys.shape[1]), np.ones(ys.shape[1]),
                                 g_prev[s][lanes[on]], g_new[s][lanes[on]],
                                 CROSSING_XTOL / abs(h))
                    earlier = xs < x[on]        # ties keep the lower section
                    x[on] = np.where(earlier, xs, x[on])
                    k[on] = np.where(earlier, s, k[on])
                state = _horner(F, y[:, lanes], x)
                resid = np.empty(lanes.size)
                for s, (g, _) in enumerate(sections):
                    resid[k == s] = np.abs(g(state[:, k == s]))
                counters.polish_residual = max(counters.polish_residual, float(resid.max()))
                stop(lanes, np.where(resid > CROSSING_GTOL, POLISH_MISS, k), t + x * h, state)
                if frozen.all():
                    break
            else:
                break       # the end of t_span
        except StepUnderflowError as exc:
            stop(exc.lane, UNDERFLOW, t_now, y_now[:, exc.lane])
    running = ~frozen
    y_out[:, running] = y_now[:, running]
    if not single:
        return kind, t_out, y_out
    k, t = int(kind[0]), float(t_out[0])
    if k == UNDERFLOW:
        raise StepUnderflowError(f"step underflow or a non-finite state at t = {t:.17g}")
    if k == POLISH_MISS:
        raise IntegrationError(f"event polish missed |g| <= {CROSSING_GTOL:g} at t = {t:.17g}")
    return (None if k == SPAN_END else k), t, y_out[:, 0]


def _polish(g_at, a, b, ga, gb, width_tol) -> np.ndarray:
    """Vectorised root polish on brackets [a, b] with ga * gb <= 0.

    Illinois regula falsi, with a bisection whenever a bracket did not halve
    over the last two updates, until each bracket is narrower than its
    width_tol (floored at the resolution of x in [0, 1]).  Returns the end
    with the smaller |g|.
    """
    a, b, ga, gb = a.copy(), b.copy(), ga.copy(), gb.copy()
    width_tol = np.maximum(width_tol, 4.0 * np.finfo(float).eps)
    widths = [np.full_like(a, np.inf)] * 2
    for _ in range(100):
        active = (np.abs(b - a) > width_tol) & (ga != 0) & (gb != 0)
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            c = b - gb * (b - a) / (gb - ga)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        bisect = ~((c > lo) & (c < hi)) | (np.abs(b - a) > 0.5 * widths[0])
        c = np.where(bisect, 0.5 * (a + b), c)
        gc = g_at(c)
        flip = gc * gb < 0
        # Illinois: a kept end has its value halved, which pulls the next
        # secant point across the root
        a_new = np.where(flip, b, a)
        ga_new = np.where(flip, gb, np.where(bisect, ga, 0.5 * ga))
        a = np.where(active, a_new, a)
        ga = np.where(active, ga_new, ga)
        b = np.where(active, c, b)
        gb = np.where(active, gc, gb)
        widths = [widths[1], np.abs(b - a)]
    else:
        raise IntegrationError("event polish did not converge")
    return np.where(np.abs(gb) <= np.abs(ga), b, a)


def energy_drift(traj: Trajectory, params: ModelParams) -> float:
    """max relative |H(t) - H(0)| / |H(0)| over the nodes of a one-lane trajectory."""
    h = hamiltonian_mcgehee(traj.y, params)
    scale = abs(h[0]) if h[0] != 0.0 else 1.0
    return float(np.max(np.abs(h - h[0])) / scale)


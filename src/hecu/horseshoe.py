"""Return-map dynamics near the parabolic corner: strips, cones, shadowing.

On the energy level the flow reduces to 1.5 degrees of freedom with the
angle as time.  Near q = p = 0 the reduced flow has a degenerate corner
whose invariant manifolds guide a Smale-horseshoe return map: a global
excursion along the homoclinic loop composed with a slow corner passage.
This module verifies the construction numerically at a fixed operating
point: section coordinates on a fold-free W^s branch cut from one walk,
passage-count strips, cone-condition sampling, and multiple-shooting
shadowing of symbol itineraries, including the oscillatory orbits.  Only
the set-up takes the parameters; the strips, cones, shadowing and witness
take the lab and the strips they need, and build neither.

Chart: the separatrix-adapted cubic w(q) = q sqrt(1 - q^2),
u, v = (w -+ p)/2, which makes the uncorrugated homoclinic loop exactly
{v = 0} u {u = 0}; one instance serves every passage.

Passages: every leg of the reduced flow (the excursion Sigma0 -> Sigma1,
the corner passage Sigma1 -> Sigma0 and the W^u fibres of the set-up) runs
as terminal lanes of one `integrate.first_crossing` run against its target
section and the escape section, `_lanes_to_section`, and a failed lane
fails its own passage only.  Returns run as one such run per leg,
`HorseshoeLab.return_maps_raw`; a single orbit is a batch of one lane.
Independent orbits (the set-up's fibres and branch walk, strip edges and
images, the columns of the cone and shadowing Jacobians) run as the lanes
of one batch, and so do the oscillatory legs lifted to the full field.
Only the truncated corner model, an oracle, runs on a field of its own.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .fourier import hermite
from .integrate import (
    LANE_OUTCOMES,
    IntegrationCounters,
    IntegratorConfig,
    first_crossing,
    integrate,
    mcgehee_rhs,
)
from .manifolds import solve_hj_unstable, unstable_initial_conditions
from .model import CorrugationSeries, DomainError, ModelParams, params_for_nu_I0

_TWO_PI = 2.0 * math.pi

# Passage integration: a 400 rad cap on the excursion Sigma0 -> Sigma1 and a
# 2e5 rad cap on the corner passage Sigma1 -> Sigma0 (an entry 1e-6 from W^s
# takes about 2e4 rad).
_GLOBAL_SPAN = 400.0
_CORNER_SPAN = 2.0e5
# Fixed absolute floor of every passage.  Where q and p are small it, not
# rtol, limits the accuracy: tightening rtol alone does not converge the
# corner passages, and it sets the leg defects of the shadowing.  Deriving
# it from rtol (1e-4 rtol) converges them for about 1.3 times the corner
# steps of one return, which showed no cost above the timing noise of the
# lane batches; it also moves the last digits of every return, so it stays
# a separate constant.
_PASSAGE_ATOL = 1e-12


class PassageError(RuntimeError):
    """Orbit left the working domain instead of completing the passage.

    `kind` classifies a failed passage: "escape", "timeout", "underflow"
    (step underflow) or "polish" (event polish miss); None for a failure
    that is not one passage's."""

    def __init__(self, message, kind=None):
        super().__init__(message)
        self.kind = kind


class ShadowingError(RuntimeError):
    """Shadowing failed; achieved holds the leg counts reached, if any."""

    def __init__(self, message, achieved=()):
        super().__init__(message)
        self.achieved = tuple(achieved)


# ---------------------------------------------------------------------------
# Poincare-Cartan reduction
# ---------------------------------------------------------------------------

def _w_term(q, p, theta, params: ModelParams) -> float:
    v = params.series.trig(theta)[0]
    q2 = q * q
    return p * p - q2 + q2 * q2 * (1.0 + params.epsilon * v)


def action_offset_closed(q, p, theta, params: ModelParams) -> float:
    """J on the level set H = nu I0^2/2 with nu (I0 + J) > 0 (closed form)."""
    disc = params.nu * (2.0 * params.energy - _w_term(q, p, theta, params))
    if disc <= 0:
        raise DomainError("state outside the nu(I0+J) > 0 sheet of the level set")
    return math.sqrt(disc) / params.nu - params.I0


def _reduced_rhs_lanes(params: ModelParams, theta0: np.ndarray):
    """(dq/dtheta, dp/dtheta) on the level set for lanes y of shape (2, N).

    Lane j runs in s = theta - theta0[j], so the lanes share s.
    """
    nu = params.nu
    eps = params.epsilon
    twoE = 2.0 * params.energy
    corrugation = params.series.on_lanes(theta0)

    def rhs(s, y):
        q, p = y
        q2 = q * q
        c = q2 * (1.0 + eps * corrugation(s))
        r = q / np.sqrt(nu * (twoE - (p * p - q2 + q2 * c)))
        out = np.empty((2,) + np.shape(r))
        out[0] = -p * r
        out[1] = q * r * (2.0 * c - 1.0)
        return out

    return rhs


def reduced_rhs(params: ModelParams):
    """The reduced field for one state (q, p) at angle theta: one lane at theta0 = 0."""
    lanes = _reduced_rhs_lanes(params, np.zeros(1))

    def rhs(theta, y):
        return lanes(theta, np.reshape(y, (2, 1)))[:, 0]

    return rhs


# ---------------------------------------------------------------------------
# corner charts
# ---------------------------------------------------------------------------

# The corner chart's sections u = a and v = a, and the entries 0 < u0 < delta
# on Sigma1 that `local_map` takes (delta < a/2).
_CHART_A = 0.1
_CHART_DELTA = 0.04


class LocalChart:
    """Approximate straightening of the corner, u, v = (w -+ p)/2 with
    w = q sqrt(1 - q^2), and its sections u = a, v = a (a = _CHART_A).

    It holds no setting: the one instance _CHART serves every passage."""

    def to_chart(self, q, p):
        """(u, v) of (q, p), floats or arrays."""
        w = q * np.sqrt(np.maximum(1.0 - q * q, 0.0))
        return 0.5 * (w - p), 0.5 * (w + p)

    def from_chart(self, u, v):
        """(q, p) of (u, v) on the small-q branch of w, which needs |w| <= 1/2."""
        w = u + v
        if np.any(np.abs(w) > 0.5):
            raise DomainError("adapted chart valid only for |w| <= 1/2")
        return np.sqrt((1.0 - np.sqrt(1.0 - 4.0 * w * w)) / 2.0), v - u


_CHART = LocalChart()


# ---------------------------------------------------------------------------
# passages of the reduced flow: integration up to the first section crossing
# ---------------------------------------------------------------------------

def _masked_section(which: str):
    """Section u = a or v = a, masked for q > 1/2, of a state (q, p, ...) or lanes of them."""

    def g(y):
        u, v = _CHART.to_chart(y[0], y[1])
        return (u if which == "u" else v) - _CHART_A + 10.0 * np.maximum(0.0, y[0] - 0.5)

    return g


def _escape_section():
    """Falls through zero on u = -v/2 (p = 3 w(q)), past W^s (u ~ 0).

    Beyond it the orbit leaves the corner with u < 0, or slides toward
    q -> 0 and would creep until the angle runs out; returning passages
    keep u > 0 up to the corrugation wobble.  Masked outside v < 0.9 a and
    q < 0.3, where u legitimately goes negative.  Reads q and p only.
    """

    def g(y):
        u, v = _CHART.to_chart(y[0], y[1])
        return (2.0 * u + v + 10.0 * np.maximum(0.0, v - 0.9 * _CHART_A)
                + 10.0 * np.maximum(0.0, y[0] - 0.3))

    return g


# lane outcome of `first_crossing` -> failure kind of a passage; "" is a crossing
_LANE_KINDS = {0: "", 1: "escape", **LANE_OUTCOMES}
# failure kind -> what went wrong, for messages
_FAILURES = {"escape": "escape", "timeout": "timeout", "underflow": "step underflow",
             "polish": "event polish miss", "domain": "start outside the chart"}


def _failure(what: str, kind: str) -> Exception:
    """The exception of a single orbit whose passage ended in `kind`."""
    message = f"{what} failed: {_FAILURES[kind]}"
    return DomainError(message) if kind == "domain" else PassageError(message, kind)


def _lanes_to_section(params: ModelParams, y0: np.ndarray, theta0: np.ndarray, which: str,
                      direction: int, theta_max: float, rtol: float = 1e-11,
                      counters: IntegrationCounters | None = None):
    """Reduced flow of lanes y0 (2, N) from angles theta0 to the masked section.

    Returns (kind, theta, y): kind "" where a lane crossed its section, else
    "escape", "timeout", "underflow" or "polish" for that lane alone.
    """
    sections = [(_masked_section(which), direction), (_escape_section(), -1)]
    k, s, y = first_crossing(_reduced_rhs_lanes(params, theta0), y0, (0.0, theta_max),
                             sections, IntegratorConfig(rel_tol=rtol, abs_tol=_PASSAGE_ATOL),
                             counters)
    kind = np.array([_LANE_KINDS[j] for j in k.tolist()], dtype=object)
    return kind, theta0 + s, y


def local_map(params: ModelParams, u0, theta0):
    """Corner passage Sigma1 -> Sigma0: (u0, a, theta0) -> (a, v1, theta1).

    u0 and theta0 are floats or arrays; the passages run as the lanes of one
    batch, and (v1, theta1) has their broadcast shape.  Raises PassageError
    if an orbit escapes along the other side of the stable manifold instead
    of turning around the corner.
    """
    u0, theta0 = np.broadcast_arrays(np.asarray(u0, dtype=float),
                                     np.asarray(theta0, dtype=float))
    if not np.all((0 < u0) & (u0 < _CHART_DELTA)):
        raise DomainError("local map needs 0 < u0 < delta on Sigma1")
    y0 = np.array(_CHART.from_chart(u0.ravel(), _CHART_A))
    kind, th1, y1 = _lanes_to_section(params, y0, theta0.ravel(), "u", +1, _CORNER_SPAN)
    failed = kind != ""
    if failed.any():
        raise _failure("corner passage", kind[np.argmax(failed)])
    v1 = _CHART.to_chart(y1[0], y1[1])[1]
    return v1.reshape(u0.shape)[()], th1.reshape(u0.shape)[()]


def global_map(params: ModelParams, chart: LocalChart, v0: float, theta0: float,
               rtol: float = 1e-11) -> tuple[float, float]:
    """Excursion Sigma0 -> Sigma1: (a, v0, theta0) -> (u1, a, theta1), one lane.

    `chart` is not read: it keeps the call shape perfbench's checks use."""
    y0 = np.array(_CHART.from_chart(_CHART_A, v0))[:, None]
    kind, th1, y1 = _lanes_to_section(params, y0, np.array([theta0], dtype=float),
                                      "v", -1, _GLOBAL_SPAN, rtol)
    if kind[0]:
        raise _failure("homoclinic excursion", kind[0])
    return float(_CHART.to_chart(y1[0, 0], y1[1, 0])[0]), float(th1[0])


def truncated_local_map(u0: float) -> tuple[float, float]:
    """Oracle: passage of u' = u(u+v), v' = -v(u+v) from (u0, a) to u = a (a = _CHART_A).

    The product uv is a first integral, so the exact arrival is (a, u0);
    returns (v1, transit_time)."""

    def rhs(t, y):
        u, v = y
        s = u + v
        return (u * s, -v * s)

    def hit(y):
        return y[0] - _CHART_A

    k, t1, y1 = first_crossing(rhs, (u0, _CHART_A), (0.0, 1e4 / math.sqrt(u0 * _CHART_A)),
                               [(hit, +1)], IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15))
    if k is None:
        raise PassageError("truncated passage did not reach u = a", "timeout")
    return float(y1[1]), t1


# ---------------------------------------------------------------------------
# the horseshoe laboratory: traces, coordinates, return map
# ---------------------------------------------------------------------------

# Set-up: 64 W^u fibres seeded at u = -25 on the HJ graph, and an 8-mode fit
# of their Sigma0 trace.
_N_FIBERS = 64
_FIBER_U_SEED = -25.0
_TRACE_MODES = 8


class _TrigCurve:
    """Least-squares trigonometric fit of scattered 2pi-periodic samples."""

    def __init__(self, thetas, values):
        thetas = np.asarray(thetas, dtype=float)
        values = np.asarray(values, dtype=float)
        cols = [np.ones_like(thetas)]
        for k in range(1, _TRACE_MODES + 1):
            cols.append(np.cos(k * thetas))
            cols.append(np.sin(k * thetas))
        A = np.column_stack(cols)
        coef, *_ = np.linalg.lstsq(A, values, rcond=None)
        self.mean = float(coef[0])
        self.series = CorrugationSeries(tuple(coef[1::2]), tuple(coef[2::2]))
        self.residual = float(np.max(np.abs(A @ coef - values)))

    def __call__(self, theta):
        return self.mean + self.series.trig(theta)[0]


@dataclass
class _StableBranch:
    """Local branch of the global W^s trace on Sigma0 near one homoclinic point.

    The full trace can fold over the angle; near a transversal crossing it
    is a graph of angle versus the relative v-coordinate, stored here as a
    monotone sample table (v_rel ascending, theta unwrapped) with the node
    slopes of its not-a-knot cubic spline, which is the line on two nodes
    and the parabola on three.
    """

    v_rel: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        x, n = self.v_rel, len(self.v_rel)
        h = np.diff(x)
        d = np.diff(self.theta) / h
        b = np.r_[d[0], 3 * (h[1:] * d[:-1] + h[:-1] * d[1:]), d[-1]]
        A, i = np.eye(n), np.arange(1, n - 1)
        A[i, i - 1], A[i, i], A[i, i + 1] = h[1:], 2 * (h[:-1] + h[1:]), h[:-1]
        if n == 3:      # a parabola's end slopes average to each chord slope
            A[0, 1] = A[2, 1] = 1.0
            b[[0, 2]] *= 2
        elif n > 3:     # not-a-knot: the third derivative is continuous at x[1], x[-2]
            w0, w1 = x[2] - x[0], x[-1] - x[-3]
            A[0, :2], A[-1, -2:] = (h[1], w0), (w1, h[-2])
            b[0] = ((h[0] + 2 * w0) * h[1] * d[0] + h[0] ** 2 * d[1]) / w0
            b[-1] = (h[-1] ** 2 * d[-2] + (2 * w1 + h[-1]) * h[-2] * d[-1]) / w1
        self.slopes = np.linalg.solve(A, b)

    def angle_at(self, v_rel):
        """Angle of the branch at v_rel (a float or an array): the cubic
        Hermite interpolant of the table and its slopes.

        A piecewise-linear table would put its kinks into the strip
        boundaries tau_b(v), which then tilt by up to about 1 in (v_rel, tau)
        and spoil the stable cones.  Outside the table the branch continues
        along its end slope; the working rectangle stays well inside, and
        extrapolation only classifies far-flung iterates, where the angle
        offset merely labels the point."""
        inside = np.clip(v_rel, self.v_rel[0], self.v_rel[-1])
        theta, slope = hermite(self.v_rel, self.theta, self.slopes, inside)
        return theta + slope * (v_rel - inside)


@dataclass
class MapCounters:
    """How the orbits of one phase ran: maps, lane batches, steps, failures.

    A map is one return, or one W^u fibre in the set-up."""

    lane_maps: int = 0          # maps run, each a lane of a batch
    batches: int = 0            # lane batches, each one run per leg
    work: IntegrationCounters = field(default_factory=IntegrationCounters)
    failures: dict = field(default_factory=dict)    # kind -> maps that failed

    def ran(self, kind: np.ndarray) -> None:
        """Count one batch whose maps ended in `kind` ("" where one returned)."""
        self.lane_maps += kind.size
        self.batches += 1
        for k in kind[kind != ""]:
            self.failures[k] = self.failures.get(k, 0) + 1


class Returns(NamedTuple):
    """Per-point results of `HorseshoeLab.return_maps`."""

    v_rel: np.ndarray           # image (v_rel, tau), NaN where the orbit did not return
    tau: np.ndarray
    count: np.ndarray           # completed angle periods, -1 where it did not return
    advance: np.ndarray         # angle advance, NaN where it did not return
    kind: np.ndarray            # "" where it returned, else the failure kind

    @property
    def ok(self) -> np.ndarray:
        return self.kind == ""


@dataclass
class HorseshoeLab:
    """Operating point with manifold-anchored section coordinates on Sigma0."""

    params: ModelParams
    wu_local: _TrigCurve        # v-coordinate of W^u on Sigma0 vs theta
    branch: _StableBranch       # local W^s branch: theta as a graph over v_rel
    s_tau: float                # orientation of the time-offset axis
    base_count: int             # periods of the reference homoclinic return
    delta_q: float              # working rectangle size
    law_c: float                # count law: a return advances the angle ~ 2 pi law_c / sqrt(tau)
    rtol: float = 1e-11         # passage integration tolerance
    diagnostics: dict = field(default_factory=dict)
    counters: MapCounters = field(default_factory=MapCounters)
    chart = _CHART              # not a field: perfbench's reversibility check reads it

    @property
    def theta_h(self) -> float:
        """Homoclinic angle on Sigma0: the branch at v_rel = 0."""
        return self.branch.angle_at(0.0)

    # -- section coordinates (floats or arrays) -----------------------------
    def coords(self, v_raw, theta):
        """(v_rel, tau): distance past W^u and angle offset from W^s, of the
        representative of theta mod 2pi nearest to the homoclinic angle."""
        v_rel = v_raw - self.wu_local(theta)
        theta_n = theta - _TWO_PI * np.round((theta - self.theta_h) / _TWO_PI)
        tau = self.s_tau * (theta_n - self.branch.angle_at(v_rel))
        return v_rel, tau

    def point(self, v_rel, tau):
        theta = self.branch.angle_at(v_rel) + self.s_tau * tau
        v_raw = self.wu_local(theta) + v_rel
        return v_raw, theta

    def ws_u(self, theta: float) -> float:
        """u of W^s on Sigma1 at angle theta: the reversor image of the W^u trace."""
        return float(self.wu_local(-theta))

    # -- return map ----------------------------------------------------------
    def return_maps_raw(self, v_raw: np.ndarray, theta: np.ndarray):
        """Returns Sigma0 -> Sigma0 of a batch: one lane run per leg.

        Returns arrays (v2, theta2, kind), kind "" where a lane returned and
        its failure kind ("escape", "timeout", "underflow", "polish" or
        "domain") where it did not; v2 and theta2 are NaN there.
        """
        work = self.counters.work
        kind = np.full(v_raw.shape, "domain", dtype=object)
        v2 = np.full(v_raw.shape, np.nan)
        th2 = np.full(v_raw.shape, np.nan)
        live = np.flatnonzero(np.abs(_CHART_A + v_raw) <= 0.5)      # inside the chart
        kind[live], th1, y1 = _lanes_to_section(
            self.params, np.array(_CHART.from_chart(_CHART_A, v_raw[live])),
            theta[live], "v", -1, _GLOBAL_SPAN, self.rtol, work)
        u1 = _CHART.to_chart(y1[0], y1[1])[0]
        # an entry past W^s or outside the corner neighbourhood escapes
        entry = (kind[live] == "") & ~((u1 > 0) & (u1 < 0.9 * _CHART_A))
        kind[live[entry]] = "escape"
        enter = kind[live] == ""
        live, u1, th1 = live[enter], u1[enter], th1[enter]
        kind[live], th, y = _lanes_to_section(
            self.params, np.array(_CHART.from_chart(u1, _CHART_A)),
            th1, "u", +1, _CORNER_SPAN, self.rtol, work)
        back = kind[live] == ""
        v2[live[back]] = _CHART.to_chart(y[0, back], y[1, back])[1]
        th2[live[back]] = th[back]
        return v2, th2, kind

    def return_map_raw(self, v_raw: float, theta: float) -> tuple[float, float, int]:
        """One return Sigma0 -> Sigma0, a one-lane `return_maps_raw`: (v2,
        theta2, completed angle periods); raises PassageError or DomainError
        when it fails."""
        v2, th2, kind = self.return_maps_raw(np.array([v_raw], dtype=float),
                                             np.array([theta], dtype=float))
        if kind[0]:
            raise _failure("return", kind[0])
        return float(v2[0]), float(th2[0]), int(math.floor((th2[0] - theta) / _TWO_PI))

    def return_maps(self, v_rel, tau) -> Returns:
        """Returns from arrays of (v_rel, tau), run as the lanes of one batch.

        A point whose orbit fails (escape, timeout, step underflow, polish
        miss, or a start outside the chart) fails alone: its `Returns.kind`
        says how, and the other points are unaffected.
        """
        v_rel, tau = (np.atleast_1d(np.asarray(x, dtype=float))
                      for x in np.broadcast_arrays(v_rel, tau))
        v_raw, theta = self.point(v_rel, tau)
        v2, th2, kind = self.return_maps_raw(v_raw, theta)
        self.counters.ran(kind)
        ok = kind == ""
        advance = th2 - theta
        count = np.full(v_rel.shape, -1)
        count[ok] = np.floor(advance[ok] / _TWO_PI)
        v2_rel = np.full(v_rel.shape, np.nan)
        tau2 = np.full(v_rel.shape, np.nan)
        v2_rel[ok], tau2[ok] = self.coords(v2[ok], np.fmod(th2[ok], _TWO_PI))
        return Returns(v2_rel, tau2, count, advance, kind)

    def passage_count(self, v_rel: float, tau: float) -> int:
        """Completed angle periods of one return; -1 when the orbit does not return."""
        return int(self.return_maps(v_rel, tau).count[0])


def _run_fibers(params: ModelParams, graph, thetas0: np.ndarray, counters: MapCounters):
    """W^u fibres seeded at angles thetas0, as the lanes of one batch:
    seed -> Sigma0 -> Sigma1.

    Returns arrays (theta1, v1, theta2, u2, kind): the Sigma0 crossings
    (local trace samples), the Sigma1 crossings after the excursion (global
    samples), and kind "" where a fibre reached both, else its failure kind;
    its crossings are NaN there.
    """
    seeds = unstable_initial_conditions(graph, _FIBER_U_SEED, thetas0)
    kind, th1, y1 = _lanes_to_section(params, seeds[:, :2].T, seeds[:, 2],
                                      "u", +1, 900.0, counters=counters.work)
    on = np.flatnonzero(kind == "")
    kind[on], th2, y2 = _lanes_to_section(params, y1[:, on], th1[on],
                                          "v", -1, 900.0, counters=counters.work)
    counters.ran(kind)
    ok, back = kind == "", kind[on] == ""
    out = np.full((4,) + thetas0.shape, np.nan)
    out[:, ok] = (th1[ok], _CHART.to_chart(y1[0, ok], y1[1, ok])[1],
                  th2[back], _CHART.to_chart(y2[0, back], y2[1, back])[0])
    return (*out, kind)


def setup_horseshoe(params: ModelParams) -> HorseshoeLab:
    """Build the operating laboratory: traces, homoclinic branch, orientations.

    The local W^u trace on Sigma0 is a clean graph over the angle.  The
    global W^s trace (reversor image of the W^u return at Sigma1) may fold
    over the angle at physical corrugation, so the homoclinic crossing and
    the rectangle coordinates anchor on its local branch, sampled
    parametrically by seed angle.  Where r = v_s - v_u changes sign between
    two fibres, the branch walk starts at the secant zero of r across that
    bracket; a crossing whose branch fails, folds or does not return is
    passed over for the next one.  The set-up runs three phases (fibres,
    walk, orientation), one lane batch each when the first crossing
    returns, and `diagnostics["counters"]` holds the `MapCounters` of each
    phase.
    """
    g = solve_hj_unstable(params)
    counters = {phase: MapCounters() for phase in ("fibers", "walk", "orientation")}
    thetas0 = np.linspace(0.0, _TWO_PI, _N_FIBERS, endpoint=False)
    th1, v1, th2, u2, kind = _run_fibers(params, g, thetas0, counters["fibers"])
    if (kind != "").any():
        raise _failure("W^u fiber", kind[np.argmax(kind != "")])
    wu_local = _TrigCurve(np.fmod(th1, _TWO_PI), v1)

    # stable trace through the reversor: (theta_s, v_s) = (-theta2, u2),
    # parametrized by the seed angle
    h = u2 - wu_local(-th2)

    crossings = [j for j in range(_N_FIBERS)
                 if h[j] == 0.0 or h[j] * h[(j + 1) % _N_FIBERS] < 0]
    if not crossings:
        raise PassageError("stable trace does not cross the unstable trace")

    spacing = thetas0[1] - thetas0[0]
    lab = None
    for j in crossings:
        # the secant zero of r across the fibre bracket
        star = thetas0[j] + spacing * h[j] / (h[j] - h[(j + 1) % _N_FIBERS])
        walked = _build_branch(params, g, wu_local, star, spacing, counters["walk"])
        if walked is None:
            continue
        lab = _orient_lab(params, wu_local, walked, counters["orientation"])
        if lab is not None:
            break
    if lab is None:
        raise PassageError("no homoclinic crossing produced a returning rectangle")
    lab.diagnostics["trace_residual"] = wu_local.residual
    lab.diagnostics["n_crossings"] = len(crossings)
    lab.diagnostics["counters"] = {phase: asdict(c) for phase, c in counters.items()}
    return lab


_WALK_STEPS = 39          # branch samples at most on either side of the crossing


def _build_branch(params, graph, wu_local, star, spacing, counters):
    """Fold-free piece of the stable trace through the crossing near seed angle star.

    The walk samples star and steps of spacing / 6 on either side as one
    batch.  The branch is the run around star, in seed-angle order, over
    which every fibre returned and r = v_s - v_u keeps its direction of
    change at star; each side ends at its first |r| > 0.2.  Returns arrays
    (theta, r), r ascending and theta continuous, or None for a failed star,
    a fold at star, fewer than 8 samples or no sign change of r.
    """
    m = np.arange(1, _WALK_STEPS + 1) * spacing / 6.0
    # the batch keeps this lane order: its stage products round by lane
    # position, so a batch in seed-angle order moves the branch's last digits
    _, _, th2, u2, _ = _run_fibers(params, graph, np.r_[star, star + m, star - m], counters)
    c = _WALK_STEPS
    order = np.r_[np.arange(2 * c, c, -1), 0, np.arange(1, c + 1)]
    theta, r = -th2[order], (u2 - wu_local(-th2))[order]      # NaN where a fibre failed
    step = np.sign(np.diff(r))
    trend = step[c] if np.isfinite(step[c]) else step[c - 1]
    if step[c - 1] * step[c] < 0 or abs(trend) != 1:
        return None
    # link i joins samples i and i + 1: it breaks where r turns or a fibre
    # failed, and after the first |r| > 0.2 on either side of star
    far = np.abs(r) > 0.2
    broken = (step != trend) | np.r_[far[1:c], False, False, far[c + 1:-1]]
    lo = np.flatnonzero(broken[:c]).max(initial=-1) + 1
    hi = c + np.argmax(np.r_[broken[c:], True])
    theta, r = theta[lo:hi + 1][::int(trend)], r[lo:hi + 1][::int(trend)]
    return (theta, r) if r.size >= 8 and r[0] < 0 < r[-1] else None


def _orient_lab(params, wu_local, walked, counters) -> HorseshoeLab | None:
    """The lab on the walked branch (theta, r) in the tau-orientation that returns.

    v_rel = v - v_u needs no orientation: the corner sends an orbit that
    enters past W^s out past W^u (uv is a first integral of the truncated
    corner), so a return lands at v_rel > 0.  One batch returns both
    tau-orientations from one lab; the first that completes periods at
    v_rel > 0 is the lab's, and its return fixes the count-law constant.
    """
    theta, r = walked
    # keep a thin margin below zero so coords() tolerates tiny negatives
    keep = r >= -0.2 * r[-1]
    if np.count_nonzero(keep) < 6:
        return None
    branch = _StableBranch(v_rel=r[keep], theta=theta[keep])
    delta_q = 0.45 * r[-1]
    lab = HorseshoeLab(params, wu_local, branch, s_tau=1.0,
                       base_count=0, delta_q=delta_q, law_c=math.nan, counters=counters)
    tau_ref = 0.5 * delta_q
    ret = lab.return_maps(tau_ref, [tau_ref, -tau_ref])
    for j, s_tau in enumerate((1.0, -1.0)):
        if ret.ok[j] and ret.count[j] > 0 and ret.v_rel[j] > 0:
            return dataclasses.replace(
                lab, s_tau=s_tau, base_count=int(ret.count[j]), counters=MapCounters(),
                law_c=ret.advance[j] / _TWO_PI * math.sqrt(tau_ref))
    return None


def select_operating_point() -> ModelParams:
    """The horseshoe's operating point: nu I0 = 4.5 at epsilon = 1.

    Its predicted splitting 2 |L_1| = 2.9e-3 clears the integrator noise of
    1e-10 by far."""
    return params_for_nu_I0(4.5, epsilon=1.0)


# ---------------------------------------------------------------------------
# strips
# ---------------------------------------------------------------------------

@dataclass
class Strip:
    tau_lo: np.ndarray           # boundary samples over the v grid
    tau_hi: np.ndarray
    v_grid: np.ndarray

    @property
    def tau_center(self) -> float:
        return float(np.mean(0.5 * (self.tau_lo + self.tau_hi)))

    def lipschitz(self) -> float:
        dv = np.diff(self.v_grid)
        return float(max(np.max(np.abs(np.diff(self.tau_lo) / dv)),
                         np.max(np.abs(np.diff(self.tau_hi) / dv))))


@dataclass
class StripFamily:
    strips: dict                 # n -> Strip (vertical strips V_n)
    images: dict                 # n -> arrays of (v_rel, tau) samples of H_n
    mu_v: float
    mu_h: float
    diagnostics: dict = field(default_factory=dict)


# Edge stencil: returns per v-line, and stencils at most for one edge solve.
_STENCIL = 24
_STENCIL_ROUNDS = 3


def _edge_basis(A, y_mid, y_half):
    """Columns 1, y, y^2, y^3 of y = 2 pi/A (centred and scaled), then cos hA,
    sin hA, y cos hA and y sin hA for h = 1, 2, at the advances A."""
    y = (_TWO_PI / A - y_mid) / y_half
    cols = [np.ones_like(y), y, y * y, y ** 3]
    for h in (1, 2):
        c, s = np.cos(h * A), np.sin(h * A)
        cols += [c, s, y * c, y * s]
    return np.stack(cols, axis=-1)


def _taus_at_advance(lab: HorseshoeLab, v_rel, target, guess):
    """tau at which one return from (v_rel, tau) advances the angle by target.

    Strip edge n is the root at target 2 pi (n+1).  All roots come from one
    lane batch of returns, a stencil of _STENCIL taus per v-line evenly over
    [0.96, 1.04] times the range of that line's guesses (held where the
    stencil stays in (0, delta_q]).  A fit of tau against the measured
    advance A reads off every root at A = target.  The count law
    A ~ 2 pi c/sqrt(tau) makes tau nearly a cubic in y = 2 pi/A; a return
    ends at angle theta0 + A on the 2 pi-periodic corrugation, so tau also
    has a part periodic in A, which the harmonics h = 1, 2 of `_edge_basis`
    carry.  The error estimate of a root is the larger change when the fit
    drops its y^3 term or its h = 2 terms.  The solve is done when every
    target lies inside its stencil's advances and every estimate is at most
    3e-7 tau; otherwise the next stencil centres on the fitted roots, one
    more batch each time, _STENCIL_ROUNDS at most.

    Returns (roots, estimates, `Returns` of the last stencil).  Raises
    PassageError when a root leaves (0, delta_q], a stencil lane fails (its
    kind names the failure) or the stencils run out.
    """
    v_rel, target, guess = (np.asarray(x, dtype=float).ravel()
                            for x in np.broadcast_arrays(v_rel, target, guess))
    lines, line_of = np.unique(v_rel, return_inverse=True)
    members = [np.flatnonzero(line_of == j) for j in range(lines.size)]
    centre = guess
    full, no_cubic, no_h2 = np.arange(12), np.r_[0:3, 4:12], np.arange(8)
    for _ in range(_STENCIL_ROUNDS):
        held = np.minimum(centre, lab.delta_q / 1.04)
        taus = np.array([np.linspace(0.96 * held[m].min(), 1.04 * held[m].max(), _STENCIL)
                         for m in members])
        ret = lab.return_maps(np.repeat(lines, _STENCIL), taus.ravel())
        roots, est = np.empty(v_rel.size), np.empty(v_rel.size)
        inside = True
        for j, (v, mine) in enumerate(zip(lines, members)):
            at = slice(j * _STENCIL, (j + 1) * _STENCIL)
            ok, A = ret.ok[at], ret.advance[at]
            if not ok.all():
                bad = ret.kind[at][np.argmin(ok)]
                raise PassageError(f"edge stencil at v={v:.3e}: {np.count_nonzero(ok)} of "
                                   f"{_STENCIL} returns, {bad}", bad)
            y = _TWO_PI / A
            mid, half = 0.5 * (y.max() + y.min()), 0.5 * (y.max() - y.min())
            B, Bt = _edge_basis(A, mid, half), _edge_basis(target[mine], mid, half)
            fits = [Bt[:, c] @ np.linalg.lstsq(B[:, c], taus[j], rcond=None)[0]
                    for c in (full, no_cubic, no_h2)]
            roots[mine] = fits[0]
            est[mine] = np.maximum(np.abs(fits[1] - fits[0]), np.abs(fits[2] - fits[0]))
            inside &= bool(np.all((A.min() <= target[mine]) & (target[mine] <= A.max())))
        outside = ~((roots > 0.0) & (roots <= lab.delta_q))
        if outside.any():
            j = np.argmax(outside)
            raise PassageError(f"advance {target[j]:.6g} has no root in the rectangle "
                               f"at v={v_rel[j]:.3e} (fit at tau={roots[j]:.3e})")
        if inside and np.all(est <= 3e-7 * roots):
            return roots, est, ret
        centre = roots
    j = int(np.argmax(est / roots))
    raise PassageError(f"edge stencils for advance {target[j]:.6g} at v={v_rel[j]:.3e} "
                       f"did not converge")


def build_strips(lab: HorseshoeLab, window: tuple[int, int],
                 n_v: int = 6) -> StripFamily:
    """Vertical strips V_n (passage count n) for n in the window, with their
    images H_n, disjointness, Hausdorff monotonicity, and Lipschitz data.

    Every boundary on the v grid comes from one `_taus_at_advance` call,
    its guesses from the count law A = 2 pi law_c/sqrt(tau) (corner transit
    time) with the lab's constant; at the operating point that is one batch
    of _STENCIL returns per v-line.  A stencil return whose count is n is an
    image point of H_n.  `diagnostics["counters"]` holds the `MapCounters`
    of the phase, and `diagnostics["edge_error"]` the largest error estimate
    of a boundary, relative to its tau.
    """
    n_lo, n_hi = window
    if n_hi < n_lo:
        raise DomainError("empty symbol window")
    if n_v < 2:
        raise DomainError("strips need at least two v-lines")
    counted = dataclasses.replace(lab, counters=MapCounters())
    delta = lab.delta_q
    # geometric grid: return-map images hug W^u (v of order tau/expansion),
    # so the strip boundaries must be resolved down to tiny v as well
    v_grid = np.geomspace(2e-3 * delta, 0.85 * delta, n_v)
    ns = np.arange(n_lo - 1, n_hi + 1)[:, None]     # boundary n: advance 2 pi (n+1)
    roots, est, ret = _taus_at_advance(counted, v_grid[None, :], _TWO_PI * (ns + 1),
                                       (lab.law_c / (ns + 0.5)) ** 2)
    roots = roots.reshape(len(ns), n_v)
    strips = {}
    for j, n in enumerate(range(n_lo, n_hi + 1), start=1):
        strips[n] = Strip(tau_lo=roots[j], tau_hi=roots[j - 1], v_grid=v_grid)
    images = {n: np.column_stack([ret.v_rel, ret.tau])[ret.count == n] for n in strips}

    mu_v = max(st.lipschitz() for st in strips.values())
    mu_h = _image_lipschitz(images)
    fam = StripFamily(strips, images, mu_v=mu_v, mu_h=mu_h)
    fam.diagnostics["hausdorff"] = {
        n: float(np.max(np.abs(im[:, 0]))) if im.size else math.nan
        for n, im in images.items()}
    fam.diagnostics["counters"] = asdict(counted.counters)
    fam.diagnostics["edge_error"] = float(np.max(est / roots.ravel()))
    _check_disjoint(strips)
    return fam


def _image_lipschitz(images: dict) -> float:
    worst = 0.0
    for im in images.values():
        if im.shape[0] < 2:
            continue
        order = np.argsort(im[:, 1])
        tau = im[order, 1]
        v = im[order, 0]
        dt = np.diff(tau)
        keep = dt > 1e-12
        if np.any(keep):
            worst = max(worst, float(np.max(np.abs(np.diff(v)[keep] / dt[keep]))))
    return worst


def _check_disjoint(strips: dict) -> None:
    ns = sorted(strips)
    for a, b in zip(ns[:-1], ns[1:]):
        # strip b is deeper (closer to W^s): its upper boundary must stay
        # below strip a's lower boundary
        if not np.all(strips[b].tau_hi <= strips[a].tau_lo + 1e-15):
            raise PassageError(f"strips {a} and {b} overlap")


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

_ETA_GRID = (0.05, 0.1, 0.2, 0.3)   # cone apertures tried; the best pass rate wins
_RICHARDSON_CHECKS = 12             # samples whose FD Jacobian is redone at h/4
_CONE_RTOL = 1e-9                   # passage rtol while sampling Jacobians

@dataclass
class ConeReport:
    eta: float                  # aperture of the unstable and of the stable cones
    kappa: float
    pass_rate: float
    n_samples: int
    per_strip_expansion: dict
    fd_agreement: float
    expansion_exponent: float
    v_lines: dict = field(default_factory=dict)   # v-line -> (samples kept, pass rate at eta)
    counters: dict = field(default_factory=dict)          # MapCounters of the sampling

    @property
    def passed(self) -> bool:
        """At least 95% of the samples pass, and H2 holds: 0 < kappa < 1 - eta^2."""
        return self.pass_rate >= 0.95 and 0.0 < self.kappa < 1.0 - self.eta * self.eta


def _jacobian(lab: HorseshoeLab, v, tau, h_v, h_tau):
    """Forward-difference Jacobians of the return map at arrays of points.

    Each point and its two shifted copies are lanes of one batch, so the
    columns are differences of one discrete map, not of separately stepped
    orbits: internal numerical differentiation (Bock 1981).  Returns
    (D, ok, base): D of shape (m, 2, 2) in the (v_rel, tau) basis, whether
    all three returns of a point came back, and the `Returns` of the points
    themselves.
    """
    v, tau, h_v, h_tau = (np.atleast_1d(np.asarray(x, dtype=float))
                          for x in np.broadcast_arrays(v, tau, h_v, h_tau))
    ret = lab.return_maps(np.concatenate([v, v + h_v, v]),
                          np.concatenate([tau, tau, tau + h_tau]))
    img = np.stack([ret.v_rel, ret.tau]).reshape(2, 3, v.size)
    cols = np.stack([(img[:, 1] - img[:, 0]) / h_v, (img[:, 2] - img[:, 0]) / h_tau], axis=-1)
    base = Returns(*(x[:v.size] for x in ret))
    return cols.transpose(1, 0, 2), ret.ok.reshape(3, v.size).all(axis=0), base


def _cone_test(D: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """(passed, growth) of each Jacobian of the stack D, (N, 2, 2) in (v_rel, tau).

    The unstable cone edges (+-eta, 1) must stay in |V| <= eta |T| under D,
    and the stable edges (1, +-eta) in |T| <= eta |V| under D^-1.  growth is
    the least 1-norm growth of the four edges, valid where the cones hold;
    a Jacobian passes when they hold and growth > 1.
    """
    # the edges as columns; each has 1-norm 1 + eta
    Y = D @ np.array([[eta, -eta], [1.0, 1.0]])
    passed = ~np.any(np.abs(Y[:, 0]) > eta * np.abs(Y[:, 1]), axis=1)
    size = np.min(np.abs(Y[:, 0]) + np.abs(Y[:, 1]), axis=1)
    Y = np.linalg.inv(D[passed]) @ np.array([[1.0, 1.0], [eta, -eta]])
    size[passed] = np.minimum(size[passed], np.min(np.abs(Y[:, 0]) + np.abs(Y[:, 1]), axis=1))
    passed[passed] = ~np.any(np.abs(Y[:, 1]) > eta * np.abs(Y[:, 0]), axis=1)
    growth = size / (1.0 + eta)
    return passed & (growth > 1.0), growth


def verify_cones(lab: HorseshoeLab, family: StripFamily,
                 samples_per_strip: int = 200) -> ConeReport:
    """Sampled cone conditions for the return map over the strip family.

    Cones |V| <= eta |T| (unstable) and |T| <= eta |V| (stable) in the
    (v_rel, tau) tangent basis, 1-norm; expansion kappa^-1 = min growth of
    cone vectors.  Finite differences are Richardson-validated at h and h/4
    on the first _RICHARDSON_CHECKS samples.  Jacobian sampling runs on a
    copy of the lab at _CONE_RTOL, every sample of every strip in one
    `_jacobian` batch with the h/4 columns of the checked samples (one batch
    for all strips took half the time of one per strip).  The steps are
    h_tau = 1e-3 of the strip width and h_v = 1e-4 delta_q.  With the
    columns sharing their steps, single Jacobians at h and h/4 disagree by
    3.6e-6 to 1.0e-5 relative to their largest entry on criterion 9's 12
    checks, the size of the forward-difference truncation.  `fd_agreement`
    reports the worst of them.  A sample whose returns fail is skipped.
    """
    if samples_per_strip < 1:
        raise DomainError("cone sampling needs at least one sample per strip")
    rng = np.random.default_rng(20240601)
    lab = dataclasses.replace(lab, rtol=_CONE_RTOL, counters=MapCounters())
    strip, v, tau, h_tau = [], [], [], []
    for n, st in family.strips.items():
        width = float(np.mean(st.tau_hi - st.tau_lo))
        for _ in range(samples_per_strip):
            i = rng.integers(0, len(st.v_grid))
            strip.append(n)
            v.append(st.v_grid[i])
            tau.append(st.tau_lo[i] + rng.uniform(0.2, 0.8) * (st.tau_hi[i] - st.tau_lo[i]))
            h_tau.append(1e-3 * width)
    strip, v, tau, h_tau = map(np.array, (strip, v, tau, h_tau))
    h_v = np.full(v.size, 1e-4 * lab.delta_q)
    # every sample in one batch, the first ones again at h/4
    m = min(_RICHARDSON_CHECKS, v.size)
    D, ok, _ = _jacobian(lab, np.r_[v, v[:m]], np.r_[tau, tau[:m]],
                      np.r_[h_v, h_v[:m] / 4.0], np.r_[h_tau, h_tau[:m] / 4.0])
    D, D4, ok, ok4 = D[:v.size], D[v.size:], ok[:v.size], ok[v.size:]
    checked = ok[:m] & ok4
    dev = (np.max(np.abs(D4 - D[:m]), axis=(1, 2))
           / np.maximum(np.max(np.abs(D4), axis=(1, 2)), 1e-30))
    fd_worst = float(np.max(dev[checked], initial=0.0))
    D[:m][checked] = D4[checked]
    if not ok.any():
        raise PassageError("no cone samples could be evaluated")
    strip, sample_v, D = strip[ok], v[ok], D[ok]

    best = None
    for eta in _ETA_GRID:
        flags, growth = _cone_test(D, eta)
        expansions = growth[flags]
        rate = np.count_nonzero(flags) / len(D)
        kappa = 1.0 / float(np.quantile(expansions, 0.02)) if expansions.size else math.inf
        if best is None or rate > best[0]:
            best = (rate, eta, kappa, expansions, flags)

    rate, eta, kappa, expansions, flags = best
    v_lines = {float(v): (int(np.sum(sample_v == v)), float(np.mean(flags[sample_v == v])))
               for v in np.unique(sample_v)}
    tau_growth = np.abs(D[:, 0, 1]) + np.abs(D[:, 1, 1])     # 1-norm of D (0, 1)
    strip_expansion = {n: float(np.median(tau_growth[strip == n]))
                       for n in family.strips if np.any(strip == n)}
    # expansion ~ (strip depth)^(-rho_exp): fit over strips
    ns = sorted(strip_expansion)
    exponent = math.nan
    if len(ns) >= 3:
        depth = np.array([family.strips[n].tau_center for n in ns])
        lam = np.array([strip_expansion[n] for n in ns])
        exponent = -float(np.polyfit(np.log(depth), np.log(lam), 1)[0])
    return ConeReport(
        eta=eta, kappa=kappa, pass_rate=rate,
        n_samples=len(D),
        per_strip_expansion=strip_expansion,
        fd_agreement=fd_worst,
        expansion_exponent=exponent,
        v_lines=v_lines,
        counters=asdict(lab.counters),
    )


# ---------------------------------------------------------------------------
# shadowing
# ---------------------------------------------------------------------------

_LEG_DEFECT = 1e-5        # certified bound on every leg defect max(|dv_rel|, |dtau|)
_NEWTON_MAX_ITER = 12     # Newton steps at most; the solve normally stalls first


@dataclass
class SymbolItinerary:
    """Multiple-shooting nodes of a symbol sequence and their leg certificate.

    Leg i is one return from nodes[i] = (v_rel, tau): its angle advances by
    advances[i], which completes counts[i] periods and lies margins[i] from
    the nearest multiple of 2 pi, where the count would change.  Leg i < k-1
    lands (defects_v[i], defects_tau[i]) away from nodes[i+1]; the last leg
    only has to complete its count.
    """

    symbols: tuple                # requested window-relative symbols
    base: int                     # physical count of symbol 1 (the smallest strip)
    nodes: tuple                  # (v_rel, tau) at the start of each leg
    advances: tuple               # angle advance of each leg
    counts: tuple                 # completed angle periods of each leg
    margins: tuple                # distance of each advance from the nearest 2 pi m
    defects_v: tuple              # |v_rel(P(nodes[i])) - v_rel(nodes[i+1])|
    defects_tau: tuple            # the same in tau
    iterations: int               # Newton steps taken
    return_maps: int              # return maps of the solve, the start nodes' stencil included

    @property
    def achieved(self) -> bool:
        """Every count equals its symbol, every defect is at most _LEG_DEFECT
        and every count margin is at least ten times that bound."""
        return (all(c == self.base + s - 1 for c, s in zip(self.counts, self.symbols))
                and max(self.defects_v + self.defects_tau, default=0.0) <= _LEG_DEFECT
                and min(self.margins) >= 10.0 * _LEG_DEFECT)


def shadow_orbit(lab: HorseshoeLab, family: StripFamily, symbols) -> SymbolItinerary:
    """Multiple shooting for prescribed excursion counts: P(p_i) = p_{i+1}.

    Symbols are window-relative: symbol s means base + s - 1 completed angle
    periods, base being the smallest count in the verified window.  Node
    p_i = (v_rel, tau) starts leg i, one return at the count of symbol i, so
    no leg's passage error is amplified by a later return.  v_0 is fixed at
    the middle of the strip's v grid and tau_{k-1} at its start value;
    Newton solves for the other 2(k-1) coordinates with the leg Jacobians of
    `_jacobian`, whose tau step is 1e-3 of the strip's mean width, as in
    `verify_cones`; each iterate runs its k legs and the columns of their
    Jacobians as one lane batch, so every gap and the Jacobian that closes
    it come from the same discrete map.  Node 0 starts at the
    middle of the v grid and the others at its lowest line (the strips are
    nearly vertical, so Newton closes the v gaps), each at the tau where its
    leg advances the angle by 2 pi (n + 1/2), the largest possible count
    margin, since the family's interpolated windows can sit one strip off.
    One `_taus_at_advance` call finds them all, guessed at the strip centres:
    at the operating point one batch, a stencil on each of the two v-lines.
    Near the passage
    noise floor the tau defect wanders, so the solve keeps its best iterate
    and stops after two iterates that do not improve on it.  Raises
    ShadowingError when no iterate brings every leg defect to _LEG_DEFECT;
    whether counts and margins certify the result is `achieved`.
    """
    symbols = tuple(int(s) for s in symbols)
    if not symbols or any(s < 1 for s in symbols):
        raise DomainError("symbols are positive integers (1 = first strip)")
    ns = sorted(family.strips)
    base = ns[0]
    targets = [base + s - 1 for s in symbols]
    for t in targets:
        if t not in family.strips:
            raise DomainError(f"symbol target {t} outside the verified window {ns}")
    k = len(targets)

    # the solve runs on a copy of the lab that counts its return maps
    lab = dataclasses.replace(lab, counters=MapCounters())
    strips = [family.strips[n] for n in targets]
    widths = np.array([np.mean(st.tau_hi - st.tau_lo) for st in strips])
    v = np.array([np.mean(st.v_grid) if i == 0 else st.v_grid[0]
                  for i, st in enumerate(strips)])
    guess = [np.interp(v_i, st.v_grid, 0.5 * (st.tau_lo + st.tau_hi))
             for v_i, st in zip(v, strips)]
    nodes = np.column_stack(
        [v, _taus_at_advance(lab, v, _TWO_PI * (np.array(targets) + 0.5), guess)[0]])

    free = np.arange(1, 2 * k - 1)      # every node coordinate but v_0 and tau_{k-1}
    best = None
    stalls = steps = 0
    while True:
        D, ok, legs = _jacobian(lab, nodes[:, 0], nodes[:, 1], 1e-4 * lab.delta_q,
                                1e-3 * widths)
        if not legs.ok.all():
            break
        gaps = np.column_stack([legs.v_rel, legs.tau])[:-1] - nodes[1:]
        worst = float(np.max(np.abs(gaps), initial=0.0))
        if best is None or worst < best[0]:
            best, stalls = (worst, nodes.copy(), legs, gaps), 0
        else:
            stalls += 1
        if stalls == 2 or steps == _NEWTON_MAX_ITER or free.size == 0:
            break
        # rows: leg i's gap; columns: D_i at node i, -I at node i+1
        if not ok[:-1].all():
            break
        jac = np.zeros((2 * k - 2, 2 * k))
        for i in range(k - 1):
            jac[2 * i:2 * i + 2, 2 * i:2 * i + 2] = D[i]
        jac[:, 2:] -= np.eye(2 * k - 2)
        nodes.reshape(-1)[free] -= np.linalg.solve(jac[:, free], gaps.reshape(-1))
        steps += 1

    if best is None:
        raise ShadowingError("a leg from the start nodes did not return")
    worst, nodes, legs, gaps = best
    advances = tuple(legs.advance.tolist())
    maps = lab.counters.lane_maps
    itinerary = SymbolItinerary(
        symbols=symbols, base=base, nodes=tuple(map(tuple, nodes.tolist())),
        advances=advances, counts=tuple(legs.count.tolist()),
        margins=tuple(abs(math.remainder(a, _TWO_PI)) for a in advances),
        defects_v=tuple(np.abs(gaps[:, 0]).tolist()),
        defects_tau=tuple(np.abs(gaps[:, 1]).tolist()),
        iterations=steps, return_maps=maps)
    if worst > _LEG_DEFECT:
        raise ShadowingError(
            f"leg defect {worst:.2e} above {_LEG_DEFECT:g} after {steps} Newton steps "
            f"({maps} return maps)", achieved=itinerary.counts)
    return itinerary


# ---------------------------------------------------------------------------
# oscillatory orbits
# ---------------------------------------------------------------------------

def oscillatory_demo(lab: HorseshoeLab, family: StripFamily, k: int, z_ret: float) -> dict:
    """Orbit with k strictly increasing height maxima, returning below z_ret.

    Shadows the window-relative symbols (1, ..., k), the family's first k
    strips (the caller builds the family on the lab), and lifts the nodes to
    the full system as the lanes of one batch, in itinerary order, which
    visits two sections in turn: a leg's height maximum is its first
    crossing of p = 0 falling (the corner's minimum of q), and the leg ends
    at its next crossing of Sigma0.  Both runs race the escape section, and
    a lane that fails raises PassageError.  One dense run of the lanes gives
    2000 samples per leg on [0, t_end), in Cartesian coordinates.  At the
    operating point the full flow reaches Sigma0 about 3e-6 rad past the
    leg's reduced advance (`arrival_gaps`), so at each junction the orbit
    jumps by that much in tau and about 1e-12 in v_rel.  `height_law` is z_max - (2/alpha) ln A
    per leg of advance A; `lift` counts the lift's integrator runs and work.
    """
    itinerary = shadow_orbit(lab, family, range(1, k + 1))
    if not itinerary.achieved:
        raise ShadowingError("oscillatory itinerary not achieved",
                             achieved=itinerary.counts)

    params, advances = lab.params, np.array(itinerary.advances)
    v_raw, theta = lab.point(*np.array(itinerary.nodes).T)
    q, p = _CHART.from_chart(_CHART_A, v_raw)
    y0 = np.array([q, p, np.fmod(theta, _TWO_PI),
                   [action_offset_closed(*x, params) for x in zip(q, p, theta)]])
    rhs, work = mcgehee_rhs(params), IntegrationCounters()
    config = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12)
    span = (0.0, 1.15 * advances.max() / params.nu_I0)      # a leg takes about A / nu I0
    elapsed, state, stops = np.zeros(k), y0, []
    for section in ((lambda y: y[1], -1), (_masked_section("u"), +1)):
        hit, t, state = first_crossing(rhs, state, span, [section, (_escape_section(), -1)],
                                       config, work)
        if (hit != 0).any():
            raise _failure("lifted leg", _LANE_KINDS[int(hit[np.argmax(hit != 0)])])
        elapsed = elapsed + t
        stops.append((elapsed, state))
    (t_top, top), (t_end, end) = stops
    traj = integrate(rhs, y0, (0.0, float(t_end.max())), config)
    work.add(traj.counters)

    ts = np.linspace(0.0, t_end, 2000, endpoint=False, axis=1)     # lane j at its own ts[j]
    ys = traj(ts).reshape(4, k, k, -1)[:, np.arange(k), np.arange(k)].reshape(4, -1)
    starts = np.r_[0.0, np.cumsum(t_end)[:-1]]
    ts = (starts[:, None] + ts).ravel()
    alpha = params.physical.alpha
    with np.errstate(divide="ignore"):
        zs = -np.log(2.0 * ys[0] ** 2) / alpha
    maxima = -np.log(2.0 * top[0] ** 2) / alpha
    low = np.full(k + 1, np.inf)    # least z between maxima j - 1 and j, in low[j]
    np.minimum.at(low, np.searchsorted(starts + t_top, ts), zs)
    return {
        "itinerary": itinerary,
        "maxima": maxima.tolist(),
        "maximum_states": top,
        "arrival_gaps": end[2] - (y0[2] + advances),
        "height_law": maxima - 2.0 / alpha * np.log(advances),
        "strictly_increasing": bool(np.all(np.diff(maxima) > 0)),
        "returns_below": bool(np.all(low[1:k] <= z_ret)),
        "lift": {"runs": len(stops) + 1, **asdict(work)},
        "orbit": {"t": ts, "z": zs, "x": params.physical.a * np.unwrap(ys[2]) / _TWO_PI,
                  "p_x": params.physical.C * (params.I0 + ys[3]),
                  "p_z": params.physical.B * ys[1]},
    }

"""Return-map dynamics near the parabolic corner: strips, cones, shadowing.

On the energy level the flow reduces to 1.5 degrees of freedom with the
angle as time.  Near q = p = 0 the reduced flow has a degenerate corner
whose invariant manifolds guide a Smale-horseshoe return map: a global
excursion along the homoclinic loop composed with a slow corner passage.
This module verifies the construction numerically at a fixed operating
point: manifold-anchored section coordinates, passage-count strips,
cone-condition sampling, and multiple-shooting shadowing of prescribed
symbol itineraries, including the oscillatory-orbit demonstration.

Chart: the separatrix-adapted cubic w(q) = q sqrt(1 - q^2),
u, v = (w -+ p)/2, which makes the uncorrugated homoclinic loop exactly
{v = 0} u {u = 0}.

Passages: every leg of the reduced flow (the excursion Sigma0 -> Sigma1,
the corner passage Sigma1 -> Sigma0 and the W^u fibres of the set-up) runs
as terminal lanes of one `integrate.first_crossing` run against its target
section and the escape section, `_lanes_to_section`, and a failed lane
fails its own passage only.  Returns run as one such run per leg,
`HorseshoeLab.return_maps_raw`; a single orbit is a batch of one lane.
Independent orbits (the set-up's fibres, bisection rounds and branch walk,
strip edges and images, the columns of the cone and shadowing Jacobians)
run as the lanes of one batch.  Only the truncated corner model, an
oracle, runs on a field of its own.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .integrate import (
    POLISH_MISS,
    SPAN_END,
    UNDERFLOW,
    IntegrationCounters,
    IntegratorConfig,
    first_crossing,
    integrate_mcgehee,
    mcgehee_rhs,
)
from .manifolds import solve_hj_unstable, unstable_initial_conditions
from .model import CorrugationSeries, DomainError, ModelParams

_TWO_PI = 2.0 * math.pi

# Passage integration: a 400 rad cap on the excursion Sigma0 -> Sigma1 and a
# 2e5 rad cap on the corner passage Sigma1 -> Sigma0 (an entry 1e-6 from W^s
# takes about 2e4 rad).
_GLOBAL_SPAN = 400.0
_CORNER_SPAN = 2.0e5
# Fixed absolute floor of every passage.  Where q and p are small it, not
# rtol, limits the accuracy: tightening rtol alone does not converge the
# corner passages.  Deriving it from rtol converges them but makes each
# passage about three times dearer, so it stays a separate constant.
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
        return np.array((-p * r, q * r * (2.0 * c - 1.0)))

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

@dataclass(frozen=True)
class LocalChart:
    """Approximate straightening of the corner with sections u = a, v = a."""

    a: float = 0.1
    delta: float = 0.04

    def __post_init__(self):
        if not (0 < self.delta < self.a / 2):
            raise DomainError("chart needs 0 < delta < a/2")

    def w(self, q):
        """w(q) = q sqrt(1 - q^2), for a float or an array of q."""
        return q * np.sqrt(np.maximum(1.0 - q * q, 0.0))

    def w_inv(self, w):
        """Small-q branch of w = q sqrt(1-q^2), for a float or an array of w."""
        if np.any(np.abs(w) > 0.5):
            raise DomainError("adapted chart valid only for |w| <= 1/2")
        return np.sqrt((1.0 - np.sqrt(1.0 - 4.0 * w * w)) / 2.0)

    def to_chart(self, q, p):
        w = self.w(q)
        return 0.5 * (w - p), 0.5 * (w + p)

    def from_chart(self, u, v):
        return self.w_inv(u + v), v - u


# ---------------------------------------------------------------------------
# passages of the reduced flow: integration up to the first section crossing
# ---------------------------------------------------------------------------

def _masked_section(chart: LocalChart, which: str):
    """Section u = a or v = a of the state (2,) or (2, K), masked for q > 1/2."""

    def g(y):
        u, v = chart.to_chart(y[0], y[1])
        return (u if which == "u" else v) - chart.a + 10.0 * np.maximum(0.0, y[0] - 0.5)

    return g


def _escape_section(chart: LocalChart):
    """Falls through zero on u = -v/2 (p = 3 w(q)), past W^s (u ~ 0).

    Beyond it the orbit leaves the corner with u < 0, or slides toward
    q -> 0 and would creep until the angle runs out; returning passages
    keep u > 0 up to the corrugation wobble.  Masked outside v < 0.9 a and
    q < 0.3, where u legitimately goes negative.  State (2,) or (2, K).
    """

    def g(y):
        u, v = chart.to_chart(y[0], y[1])
        return (2.0 * u + v + 10.0 * np.maximum(0.0, v - 0.9 * chart.a)
                + 10.0 * np.maximum(0.0, y[0] - 0.3))

    return g


# lane outcome of `first_crossing` -> failure kind of a passage; "" is a crossing
_LANE_KINDS = {0: "", 1: "escape", SPAN_END: "timeout", UNDERFLOW: "underflow",
               POLISH_MISS: "polish"}
# failure kind -> what went wrong, for messages
_FAILURES = {"escape": "escape", "timeout": "timeout", "underflow": "step underflow",
             "polish": "event polish miss", "domain": "start outside the chart"}


def _failure(what: str, kind: str) -> Exception:
    """The exception of a single orbit whose passage ended in `kind`."""
    message = f"{what} failed: {_FAILURES[kind]}"
    return DomainError(message) if kind == "domain" else PassageError(message, kind)


def _lanes_to_section(params: ModelParams, chart: LocalChart, y0: np.ndarray,
                      theta0: np.ndarray, which: str, direction: int, theta_max: float,
                      rtol: float = 1e-11, counters: IntegrationCounters | None = None):
    """Reduced flow of lanes y0 (2, N) from angles theta0 to the masked section.

    Returns (kind, theta, y): kind "" where a lane crossed its section, else
    "escape", "timeout", "underflow" or "polish" for that lane alone.
    """
    sections = [(_masked_section(chart, which), direction), (_escape_section(chart), -1)]
    k, s, y = first_crossing(_reduced_rhs_lanes(params, theta0), y0, (0.0, theta_max),
                             sections, IntegratorConfig(rel_tol=rtol, abs_tol=_PASSAGE_ATOL),
                             counters)
    kind = np.array([_LANE_KINDS[j] for j in k.tolist()], dtype=object)
    return kind, theta0 + s, y


def local_map(params: ModelParams, chart: LocalChart, u0, theta0):
    """Corner passage Sigma1 -> Sigma0: (u0, a, theta0) -> (a, v1, theta1).

    u0 and theta0 are floats or arrays; the passages run as the lanes of one
    batch, and (v1, theta1) has their broadcast shape.  Raises PassageError
    if an orbit escapes along the other side of the stable manifold instead
    of turning around the corner.
    """
    u0, theta0 = np.broadcast_arrays(np.asarray(u0, dtype=float),
                                     np.asarray(theta0, dtype=float))
    if not np.all((0 < u0) & (u0 < chart.delta)):
        raise DomainError("local map needs 0 < u0 < delta on Sigma1")
    y0 = np.array(chart.from_chart(u0.ravel(), chart.a))
    kind, th1, y1 = _lanes_to_section(params, chart, y0, theta0.ravel(), "u", +1, _CORNER_SPAN)
    failed = kind != ""
    if failed.any():
        raise _failure("corner passage", kind[np.argmax(failed)])
    v1 = chart.to_chart(y1[0], y1[1])[1]
    return v1.reshape(u0.shape)[()], th1.reshape(u0.shape)[()]


def global_map(params: ModelParams, chart: LocalChart, v0: float, theta0: float,
               rtol: float = 1e-11,
               counters: IntegrationCounters | None = None) -> tuple[float, float]:
    """Excursion Sigma0 -> Sigma1: (a, v0, theta0) -> (u1, a, theta1), one lane."""
    y0 = np.array(chart.from_chart(chart.a, v0))[:, None]
    kind, th1, y1 = _lanes_to_section(params, chart, y0, np.array([theta0], dtype=float),
                                      "v", -1, _GLOBAL_SPAN, rtol, counters)
    if kind[0]:
        raise _failure("homoclinic excursion", kind[0])
    return float(chart.to_chart(y1[0, 0], y1[1, 0])[0]), float(th1[0])


def truncated_local_map(u0: float, a: float) -> tuple[float, float]:
    """Oracle: passage of u' = u(u+v), v' = -v(u+v) from (u0, a) to u = a.

    The product uv is a first integral, so the exact arrival is (a, u0);
    returns (v1, transit_time)."""

    def rhs(t, y):
        u, v = y
        s = u + v
        return (u * s, -v * s)

    def hit(y):
        return y[0] - a

    k, t1, y1 = first_crossing(rhs, (u0, a), (0.0, 1e4 / math.sqrt(u0 * a)),
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
    monotone sample table (v_rel ascending, theta unwrapped).
    """

    v_rel: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        from scipy.interpolate import CubicSpline
        self._spline = CubicSpline(self.v_rel, self.theta)

    def angle_at(self, v_rel):
        """Angle of the branch at v_rel (a float or an array): a cubic spline
        through the table.

        A piecewise-linear table would put its kinks into the strip
        boundaries tau_b(v), which then tilt by up to about 1 in (v_rel, tau)
        and spoil the stable cones.  Outside the table the spline continues
        along its end slope; the working rectangle stays well inside, and
        extrapolation only classifies far-flung iterates, where the angle
        offset merely labels the point."""
        inside = np.clip(v_rel, self.v_rel[0], self.v_rel[-1])
        return self._spline(inside) + self._spline(inside, 1) * (v_rel - inside)


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
    chart: LocalChart
    wu_local: _TrigCurve        # v-coordinate of W^u on Sigma0 vs theta
    branch: _StableBranch       # local W^s branch: theta as a graph over v_rel
    theta_h: float              # homoclinic angle on Sigma0
    s_v: float                  # orientation of the v_rel axis
    s_tau: float                # orientation of the time-offset axis
    base_count: int             # periods of the reference homoclinic return
    delta_q: float              # working rectangle size
    law_c: float                # count law: a return advances the angle ~ 2 pi law_c / sqrt(tau)
    rtol: float = 1e-11         # passage integration tolerance
    diagnostics: dict = field(default_factory=dict)
    counters: MapCounters = field(default_factory=MapCounters)

    # -- section coordinates (floats or arrays) -----------------------------
    def coords(self, v_raw, theta):
        """(v_rel, tau): distance past W^u and angle offset from W^s."""
        v_rel = self.s_v * (v_raw - self.wu_local(theta))
        theta_n = self._nearest_angle(theta)
        tau = self.s_tau * (theta_n - self.branch.angle_at(v_rel))
        return v_rel, tau

    def point(self, v_rel, tau):
        theta = self.branch.angle_at(v_rel) + self.s_tau * tau
        v_raw = self.wu_local(theta) + self.s_v * v_rel
        return v_raw, theta

    def ws_u(self, theta: float) -> float:
        """u of W^s on Sigma1 at angle theta: the reversor image of the W^u trace."""
        return float(self.wu_local(-theta))

    def _nearest_angle(self, theta):
        """Representative of theta mod 2pi nearest to the branch window."""
        ref = self.theta_h
        return theta - _TWO_PI * np.round((theta - ref) / _TWO_PI)

    # -- return map ----------------------------------------------------------
    def return_maps_raw(self, v_raw: np.ndarray, theta: np.ndarray):
        """Returns Sigma0 -> Sigma0 of a batch: one lane run per leg.

        Returns arrays (v2, theta2, kind), kind "" where a lane returned and
        its failure kind ("escape", "timeout", "underflow", "polish" or
        "domain") where it did not; v2 and theta2 are NaN there.
        """
        chart, work = self.chart, self.counters.work
        kind = np.full(v_raw.shape, "domain", dtype=object)
        v2 = np.full(v_raw.shape, np.nan)
        th2 = np.full(v_raw.shape, np.nan)
        live = np.flatnonzero(np.abs(chart.a + v_raw) <= 0.5)      # inside the chart
        kind[live], th1, y1 = _lanes_to_section(
            self.params, chart, np.array(chart.from_chart(chart.a, v_raw[live])),
            theta[live], "v", -1, _GLOBAL_SPAN, self.rtol, work)
        u1 = chart.to_chart(y1[0], y1[1])[0]
        # an entry past W^s or outside the corner neighbourhood escapes
        entry = (kind[live] == "") & ~((u1 > 0) & (u1 < 0.9 * chart.a))
        kind[live[entry]] = "escape"
        enter = kind[live] == ""
        live, u1, th1 = live[enter], u1[enter], th1[enter]
        kind[live], th, y = _lanes_to_section(
            self.params, chart, np.array(chart.from_chart(u1, chart.a)),
            th1, "u", +1, _CORNER_SPAN, self.rtol, work)
        back = kind[live] == ""
        v2[live[back]] = chart.to_chart(y[0, back], y[1, back])[1]
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

    def return_map(self, v_rel: float, tau: float) -> tuple[float, float, int, float]:
        """One return from (v_rel, tau), a one-lane `return_maps`: image
        (v_rel, tau), count, angle advance; raises PassageError or
        DomainError when it fails."""
        ret = self.return_maps(v_rel, tau)
        if not ret.ok[0]:
            raise _failure("return", ret.kind[0])
        return float(ret.v_rel[0]), float(ret.tau[0]), int(ret.count[0]), float(ret.advance[0])

    def passage_count(self, v_rel: float, tau: float) -> int:
        """Completed angle periods of one return; -1 when the orbit does not return."""
        return int(self.return_maps(v_rel, tau).count[0])


def _run_fibers(params: ModelParams, chart: LocalChart, graph, thetas0: np.ndarray,
                counters: MapCounters):
    """W^u fibres seeded at angles thetas0, as the lanes of one batch:
    seed -> Sigma0 -> Sigma1.

    Returns arrays (theta1, v1, theta2, u2, kind): the Sigma0 crossings
    (local trace samples), the Sigma1 crossings after the excursion (global
    samples), and kind "" where a fibre reached both, else its failure kind;
    its crossings are NaN there.
    """
    seeds = unstable_initial_conditions(graph, _FIBER_U_SEED, thetas0)
    kind, th1, y1 = _lanes_to_section(params, chart, seeds[:, :2].T, seeds[:, 2],
                                      "u", +1, 900.0, counters=counters.work)
    on = np.flatnonzero(kind == "")
    kind[on], th2, y2 = _lanes_to_section(params, chart, y1[:, on], th1[on],
                                          "v", -1, 900.0, counters=counters.work)
    counters.ran(kind)
    ok, back = kind == "", kind[on] == ""
    out = np.full((4,) + thetas0.shape, np.nan)
    out[:, ok] = (th1[ok], chart.to_chart(y1[0, ok], y1[1, ok])[1],
                  th2[back], chart.to_chart(y2[0, back], y2[1, back])[0])
    return (*out, kind)


def setup_horseshoe(params: ModelParams) -> HorseshoeLab:
    """Build the operating laboratory: traces, homoclinic branch, orientations.

    The local W^u trace on Sigma0 is a clean graph over the angle.  The
    global W^s trace (reversor image of the W^u return at Sigma1) may fold
    over the angle at physical corrugation, so the homoclinic crossing and
    the rectangle coordinates anchor on its local branch, sampled
    parametrically by seed angle and refined around the crossing.  Every
    phase runs its fibres or returns as lane batches, and
    `diagnostics["counters"]` holds the `MapCounters` of each phase.
    """
    chart = LocalChart()
    g = solve_hj_unstable(params)
    counters = {phase: MapCounters() for phase in ("fibers", "bisection", "walk", "orientation")}
    thetas0 = np.linspace(0.0, _TWO_PI, _N_FIBERS, endpoint=False)
    th1, v1, th2, u2, kind = _run_fibers(params, chart, g, thetas0, counters["fibers"])
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

    lab = None
    for j in crossings:
        built = _build_branch(params, chart, g, wu_local, thetas0, h, j, counters)
        if built is None:
            continue
        lab = _orient_lab(params, chart, wu_local, built, counters["orientation"])
        if lab is not None:
            break
    if lab is None:
        raise PassageError("no homoclinic crossing produced a returning rectangle")
    lab.diagnostics["trace_residual"] = wu_local.residual
    lab.diagnostics["n_crossings"] = len(crossings)
    lab.diagnostics["counters"] = {phase: asdict(c) for phase, c in counters.items()}
    return lab


# Bits per round of the crossing bisection: 18 halvings of the seed-angle
# bracket, up to four a round from the 15 interior points of a dyadic grid.
_BISECTION_ROUNDS = (4, 4, 4, 4, 2)
_WALK_STEPS = 39          # branch samples at most on either side of the crossing


def _build_branch(params, chart, graph, wu_local, thetas0, h, j, counters):
    """Fold-free piece of the stable trace through the crossing at fiber j.

    The crossing parameter is refined by bisection in the seed angle; the
    branch is then walked outward in parameter order while the relative
    offset r = v_s - v_u stays monotone, which keeps a single fold-free
    piece even when the global trace winds.  A bisection round samples a
    dyadic grid of the bracket as one batch and replays the bisection steps
    on it, so the rounds end on the bracket of an 18-step bisection; the
    walk samples both directions and the crossing as one batch, and each
    direction is cut at its first failure, its first break in monotonicity
    or its first |r| > 0.2.
    """
    spacing = thetas0[1] - thetas0[0]

    def sample(th0, phase):
        """(theta_s, r, ok) at seed angles th0: ok where the fibre ran."""
        _, _, th2, u2, kind = _run_fibers(params, chart, graph, th0, counters[phase])
        return -th2, u2 - wu_local(-th2), kind == ""

    lo_p, hi_p = thetas0[j], thetas0[j] + spacing
    r_lo = h[j]
    for bits in _BISECTION_ROUNDS:
        n = 2 ** bits
        grid = lo_p + (hi_p - lo_p) * np.arange(n + 1) / n
        _, r, ok = sample(grid[1:-1], "bisection")
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
    star = 0.5 * (lo_p + hi_p)

    m = np.arange(1, _WALK_STEPS + 1) * spacing / 6.0
    ts, r, ok = sample(np.r_[star, star + m, star - m], "walk")
    if not ok[0]:
        return None
    pieces = {}
    for direction, walk in ((+1.0, slice(1, _WALK_STEPS + 1)),
                            (-1.0, slice(_WALK_STEPS + 1, None))):
        pts = []
        last_r = None
        trend = 0.0
        for ts_m, r_m, ok_m in zip(ts[walk], r[walk], ok[walk]):
            if not ok_m:
                break
            if last_r is not None:
                d = r_m - last_r
                if trend == 0.0:
                    trend = math.copysign(1.0, d) if d != 0 else 0.0
                elif d * trend < 0:
                    break
            pts.append((ts_m, r_m))
            last_r = r_m
            if abs(r_m) > 0.2:
                break
        pieces[direction] = pts
    samples = list(reversed(pieces[-1.0])) + [(ts[0], r[0])] + pieces[+1.0]
    if len(samples) < 8:
        return None
    return samples


def _orient_lab(params, chart, wu_local, samples, counters) -> HorseshoeLab | None:
    """Choose the v- and tau-orientations that give a returning rectangle.

    Both tau-orientations of a v-orientation return as one batch.  The
    chosen return also fixes the lab's count-law constant.
    """
    th = np.array([s[0] for s in samples])
    r = np.array([s[1] for s in samples])
    # reduce angles to a common window (they arrive shifted by 2 pi k)
    th = th - _TWO_PI * np.round((th - th[len(th) // 2]) / _TWO_PI)
    dr = np.diff(r)
    if np.all(dr > 0):
        pass
    elif np.all(dr < 0):
        th, r = th[::-1], r[::-1]
    else:
        # keep the longest monotone run through a sign change of r
        runs = _monotone_runs(r)
        best = None
        for a, b in runs:
            if r[a] * r[b] <= 0 and (best is None or b - a > best[1] - best[0]):
                best = (a, b)
        if best is None:
            return None
        th, r = th[best[0]:best[1] + 1], r[best[0]:best[1] + 1]
        if r[0] > r[-1]:
            th, r = th[::-1], r[::-1]
    if not (r[0] < 0 < r[-1]) or len(r) < 6:
        return None

    for s_v in (1.0, -1.0):
        if s_v > 0:
            tv, tt = r.copy(), th.copy()
        else:
            tv, tt = (-r)[::-1].copy(), th[::-1].copy()
        # keep a thin margin below zero so coords() tolerates tiny negatives
        keep = tv >= -0.2 * tv[-1]
        tv, tt = tv[keep], tt[keep]
        if len(tv) < 6 or tv[-1] <= 0:
            continue
        # the reduction above keeps every angle within pi of the middle
        # sample, which wraps the far end of a branch longer than that;
        # unwrap it again from node 0
        branch = _StableBranch(v_rel=tv, theta=np.unwrap(tt))
        delta_q = 0.45 * tv[-1]
        theta_h = branch.angle_at(0.0) if tv[0] <= 0 <= tv[-1] else float(tt[0])
        labs = [HorseshoeLab(params, chart, wu_local, branch, theta_h, s_v=s_v, s_tau=s_tau,
                             base_count=0, delta_q=delta_q, law_c=math.nan,
                             counters=counters)
                for s_tau in (1.0, -1.0)]
        tau_ref = 0.5 * delta_q
        v_raw, theta = np.transpose([lab.point(tau_ref, tau_ref) for lab in labs])
        # raw returns depend on params, chart and rtol only, which both labs share
        v2, th2, kind = labs[0].return_maps_raw(v_raw, theta)
        counters.ran(kind)
        for lab, v2_j, th2_j, kind_j, theta_j in zip(labs, v2, th2, kind, theta):
            if kind_j:
                continue
            count = math.floor((th2_j - theta_j) / _TWO_PI)
            if count > 0 and lab.coords(v2_j, math.fmod(th2_j, _TWO_PI))[0] > 0:
                return dataclasses.replace(
                    lab, base_count=count, counters=MapCounters(),
                    law_c=(th2_j - theta_j) / _TWO_PI * math.sqrt(tau_ref))
    return None


def _monotone_runs(r: np.ndarray) -> list[tuple[int, int]]:
    runs = []
    start = 0
    d0 = 0.0
    for i in range(1, len(r)):
        d = r[i] - r[i - 1]
        s = math.copysign(1.0, d) if d != 0 else d0
        if d0 == 0.0:
            d0 = s
        elif s != d0:
            runs.append((start, i - 1))
            start = i - 1
            d0 = 0.0
    runs.append((start, len(r) - 1))
    return runs


def select_operating_point() -> ModelParams:
    """Smallest candidate nu I0 (4.5, 5, 6) at epsilon = 1 whose predicted
    splitting clears 1e3 x the integrator noise of 1e-10."""
    from .model import params_for_nu_I0
    from .separatrix import melnikov_coeff_closed
    for nu_I0 in (4.5, 5.0, 6.0):
        params = params_for_nu_I0(nu_I0, epsilon=1.0)
        amp = 2.0 * abs(melnikov_coeff_closed(1, nu_I0, params.series).value)
        if amp >= 1e3 * 1e-10:
            return params
    raise DomainError("no candidate operating point clears the noise floor")


# ---------------------------------------------------------------------------
# strips
# ---------------------------------------------------------------------------

@dataclass
class Strip:
    n: int                       # completed angle periods of the return
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
    lab: HorseshoeLab
    strips: dict                 # n -> Strip (vertical strips V_n)
    images: dict                 # n -> arrays of (v_rel, tau) samples of H_n
    mu_v: float
    mu_h: float
    diagnostics: dict = field(default_factory=dict)


# Secant steps at most for one strip boundary; from build_strips' guesses the
# root takes about four return maps.
_SECANT_STEPS = 20


def _taus_at_advance(lab: HorseshoeLab, v_rel, target, guess) -> np.ndarray:
    """tau at which one return from (v_rel, tau) advances the angle by target.

    The advance A(tau) is continuous inside the rectangle and follows the
    count law A ~ 2 pi c / sqrt(tau), so g = (2 pi/A)^2 - (2 pi/target)^2 is
    nearly linear in tau; a secant on g starts from guess and 1.1 guess
    (at most delta_q) and stops when its step is at most 3e-7 tau.  Strip
    boundary n is the root at target 2 pi (n+1).  Takes arrays: the secants
    run in lockstep, each with its own state, every round's returns as one
    batch, and a secant drops out once it has converged.  Raises
    PassageError when an iterate leaves (0, delta_q], a return fails or the
    steps run out.
    """
    v_rel, target, guess = (np.asarray(x, dtype=float).ravel()
                            for x in np.broadcast_arrays(v_rel, target, guess))

    def g(lanes, tau):
        ret = lab.return_maps(v_rel[lanes], tau)
        if not ret.ok.all():
            j = int(np.argmin(ret.ok))
            raise PassageError(f"return for advance {target[lanes[j]]:.6g} at "
                               f"v={v_rel[lanes[j]]:.3e} failed: {ret.kind[j]}", ret.kind[j])
        return (_TWO_PI / ret.advance) ** 2 - (_TWO_PI / target[lanes]) ** 2

    live = np.arange(v_rel.size)
    t0, t1 = guess.copy(), np.minimum(1.1 * guess, lab.delta_q)
    g0, g1 = np.split(g(np.r_[live, live], np.r_[t0, t1]), 2)      # one batch
    for _ in range(_SECANT_STEPS):
        a0, a1, b0 = t0[live], t1[live], g0[live]
        flat = g1 == b0
        if flat.any():
            live = live[flat]
            break
        step = a1 - g1 * (a1 - a0) / (g1 - b0)
        t0[live], t1[live], g0[live] = a1, step, g1
        outside = ~((step > 0.0) & (step <= lab.delta_q))
        if outside.any():
            j = live[np.argmax(outside)]
            raise PassageError(f"advance {target[j]:.6g} has no root in the rectangle "
                               f"at v={v_rel[j]:.3e} (secant left it at tau={t1[j]:.3e})")
        live = live[np.abs(step - a1) > 3e-7 * step]
        if not live.size:
            return t1
        g1 = g(live, t1[live])
    j = live[0]
    raise PassageError(f"secant for advance {target[j]:.6g} at v={v_rel[j]:.3e} did not converge")


def build_strips(lab: HorseshoeLab, window: tuple[int, int],
                 n_v: int = 6) -> StripFamily:
    """Vertical strips V_n (passage count n) for n in the window, with their
    images H_n, disjointness, Hausdorff monotonicity, and Lipschitz data.

    Each boundary is one `_taus_at_advance` root, all of them in lockstep;
    its first guess is the count law A = 2 pi law_c/sqrt(tau) (corner
    transit time) with the lab's constant.  The images of three points per
    strip and v-line are one batch.  `diagnostics["counters"]` holds the
    `MapCounters` of the phase.
    """
    n_lo, n_hi = window
    if n_hi < n_lo:
        raise DomainError("empty symbol window")
    counted = dataclasses.replace(lab, counters=MapCounters())
    delta = lab.delta_q
    # geometric grid: return-map images hug W^u (v of order tau/expansion),
    # so the strip boundaries must be resolved down to tiny v as well
    v_grid = np.geomspace(2e-3 * delta, 0.85 * delta, n_v)

    ns = np.arange(n_lo - 1, n_hi + 1)[:, None]     # boundary n: advance 2 pi (n+1)
    roots = _taus_at_advance(counted, v_grid[None, :], _TWO_PI * (ns + 1),
                             (lab.law_c / (ns + 0.5)) ** 2).reshape(len(ns), n_v)
    strips = {}
    for j, n in enumerate(range(n_lo, n_hi + 1), start=1):
        strips[n] = Strip(n, tau_lo=roots[j], tau_hi=roots[j - 1], v_grid=v_grid)

    # images: three points per strip and v-line, kept where the count is the strip's
    fracs = np.array([0.25, 0.5, 0.75])
    taus = roots[1:, :, None] + fracs * (roots[:-1, :, None] - roots[1:, :, None])
    vs = np.broadcast_to(v_grid[None, :, None], taus.shape).ravel()
    of_strip = np.broadcast_to(np.arange(n_lo, n_hi + 1)[:, None, None], taus.shape).ravel()
    ret = counted.return_maps(vs, taus.ravel())
    images = {n: np.column_stack([ret.v_rel, ret.tau])[(of_strip == n) & (ret.count == n)]
              for n in strips}

    mu_v = max(st.lipschitz() for st in strips.values())
    mu_h = _image_lipschitz(images)
    fam = StripFamily(lab, strips, images, mu_v=mu_v, mu_h=mu_h)
    fam.diagnostics["hausdorff"] = {
        n: float(np.max(np.abs(im[:, 0]))) if im.size else math.nan
        for n, im in images.items()}
    fam.diagnostics["counters"] = asdict(counted.counters)
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
    eta_u: float
    eta_s: float
    kappa: float
    pass_rate: float
    n_samples: int
    expansion_min: float
    per_strip_expansion: dict
    fd_agreement: float
    expansion_exponent: float
    v_lines: dict = field(default_factory=dict)   # v-line -> (samples kept, pass rate at eta)
    counters: dict = field(default_factory=dict)          # MapCounters of the sampling

    @property
    def passed(self) -> bool:
        return (self.pass_rate >= 0.95 and 0.0 < self.kappa < 1.0 - self.eta_u * self.eta_s)


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
    per_strip = {n: list(D[ok & (strip == n)]) for n in family.strips}
    sample_v = v[ok]
    sample_jacs = list(D[ok])

    if not sample_jacs:
        raise PassageError("no cone samples could be evaluated")

    best = None
    for eta in _ETA_GRID:
        edges_u = [np.array([eta, 1.0]), np.array([-eta, 1.0])]
        edges_s = [np.array([1.0, eta]), np.array([1.0, -eta])]
        n_pass = 0
        expansions = []
        flags = []
        for D in sample_jacs:
            ok = True
            exp_here = math.inf
            for x in edges_u:
                y = D @ x
                if abs(y[0]) > eta * abs(y[1]):
                    ok = False
                    break
                growth = (abs(y[0]) + abs(y[1])) / (abs(x[0]) + abs(x[1]))
                exp_here = min(exp_here, growth)
            if ok:
                Dinv = np.linalg.inv(D)
                for x in edges_s:
                    y = Dinv @ x
                    if abs(y[1]) > eta * abs(y[0]):
                        ok = False
                        break
                    growth = (abs(y[0]) + abs(y[1])) / (abs(x[0]) + abs(x[1]))
                    exp_here = min(exp_here, growth)
            flags.append(ok and exp_here > 1.0)
            if flags[-1]:
                n_pass += 1
                expansions.append(exp_here)
        rate = n_pass / len(sample_jacs)
        if expansions:
            kappa = 1.0 / float(np.quantile(expansions, 0.02))
        else:
            kappa = math.inf
        cand = (rate, eta, kappa, expansions, flags)
        if best is None or cand[0] > best[0]:
            best = cand

    rate, eta, kappa, expansions, flags = best
    flags = np.array(flags)
    v_lines = {float(v): (int(np.sum(sample_v == v)), float(np.mean(flags[sample_v == v])))
               for v in np.unique(sample_v)}
    strip_expansion = {}
    for n, mats in per_strip.items():
        if mats:
            vals = []
            for D in mats:
                y = D @ np.array([0.0, 1.0])
                vals.append(abs(y[0]) + abs(y[1]))
            strip_expansion[n] = float(np.median(vals))
    # expansion ~ (strip depth)^(-rho_exp): fit over strips
    ns = sorted(strip_expansion)
    exponent = math.nan
    if len(ns) >= 3:
        depth = np.array([family.strips[n].tau_center for n in ns])
        lam = np.array([strip_expansion[n] for n in ns])
        exponent = -float(np.polyfit(np.log(depth), np.log(lam), 1)[0])
    return ConeReport(
        eta_u=eta, eta_s=eta, kappa=kappa, pass_rate=rate,
        n_samples=len(sample_jacs),
        expansion_min=float(np.min(expansions)) if expansions else math.nan,
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
    return_maps: int              # return maps of the solve, start-node secants included

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
    margin: one lockstep `_taus_at_advance` call, since the family's
    interpolated windows can sit one strip off.  Near the passage
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
        [v, _taus_at_advance(lab, v, _TWO_PI * (np.array(targets) + 0.5), guess)])

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

def oscillatory_demo(params: ModelParams, k: int = 3, z_ret: float = 8.0,
                     lab: HorseshoeLab | None = None,
                     family: StripFamily | None = None) -> dict:
    """Orbit with k strictly increasing height maxima, returning below z_ret.

    Shadows the strictly increasing window-relative symbols (1, ..., k),
    lifts each leg's node to the full system, finds the end of its angle
    advance as a one-lane first crossing and integrates the leg alone in
    physical time up to there, then converts to Cartesian
    coordinates.  The orbit is the legs in order: at each node it jumps by at
    most the leg's defect.  Each leg holds one corner passage, so one height
    maximum.
    """
    if lab is None:
        lab = setup_horseshoe(params)
    if family is None:
        family = build_strips(lab, (lab.base_count + 1, lab.base_count + k))
    itinerary = shadow_orbit(lab, family, range(1, k + 1))
    if not itinerary.achieved:
        raise ShadowingError("oscillatory itinerary not achieved",
                             achieved=itinerary.counts)

    # lift each leg to the full system and integrate it in physical time
    times, legs = [], []
    t_start = 0.0
    config = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12)
    for (v_rel, tau), advance in zip(itinerary.nodes, itinerary.advances):
        v_raw, theta = lab.point(v_rel, tau)
        q, p = lab.chart.from_chart(lab.chart.a, v_raw)
        y0 = np.array([q, p, math.fmod(theta, _TWO_PI),
                       action_offset_closed(q, p, theta, params)])
        hit, t_end, _ = first_crossing(mcgehee_rhs(params), y0,
                                       (0.0, 1.15 * advance / params.nu_I0),
                                       [(lambda y: y[2] - (y0[2] + advance), +1)], config)
        if hit is None:
            raise PassageError("lifted leg did not complete its angle advance")
        ts = np.linspace(0.0, t_end, 2000)
        times.append(t_start + ts)
        legs.append(integrate_mcgehee(params, y0, (0.0, t_end), config)(ts))
        t_start += t_end
    ts = np.concatenate(times)
    states = np.concatenate(legs, axis=1)
    qs = states[0]
    alpha = params.physical.alpha
    with np.errstate(divide="ignore"):
        zs = -np.log(2.0 * qs ** 2) / alpha

    # height maxima = interior q-minima below the section scale
    maxima = []
    between_ok = True
    idx_max = []
    for j in range(1, len(ts) - 1):
        if qs[j] < qs[j - 1] and qs[j] < qs[j + 1] and qs[j] < 0.05:
            maxima.append(float(zs[j]))
            idx_max.append(j)
    for a, b in zip(idx_max[:-1], idx_max[1:]):
        if float(np.min(zs[a:b])) > z_ret:
            between_ok = False
    xs = params.physical.a * np.unwrap(states[2]) / _TWO_PI
    cart = {
        "t": ts, "z": zs, "x": xs,
        "p_x": params.physical.C * (params.I0 + states[3]),
        "p_z": params.physical.B * states[1],
    }
    return {
        "itinerary": itinerary,
        "maxima": maxima,
        "strictly_increasing": all(b > a for a, b in zip(maxima[:-1], maxima[1:])),
        "returns_below": between_ok,
        "orbit": cart,
    }

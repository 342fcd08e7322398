import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hecu import integrate as engine
from hecu.horseshoe import (_CHART, _CHART_A, _escape_section, _masked_section,
                           _reduced_rhs_lanes)
from hecu.integrate import (
    SPAN_END,
    UNDERFLOW,
    IntegrationCounters,
    IntegratorConfig,
    StepUnderflowError,
    energy_drift,
    first_crossing,
    integrate,
    integrate_mcgehee,
    mcgehee_rhs,
)
from hecu.manifolds import solve_hj_unstable, unstable_initial_conditions
from hecu.model import (
    CorrugationSeries,
    DomainError,
    PhysicalParams,
    hamiltonian_mcgehee,
    params_for_nu_I0,
)
from hecu.separatrix import p_h, q_h

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)


@pytest.fixture(scope="module")
def params():
    return params_for_nu_I0(6.0)


@pytest.fixture(scope="module")
def params_eps0():
    return params_for_nu_I0(6.0, epsilon=0.0)


def test_config_rejects_loose_tolerances():
    with pytest.raises(DomainError):
        IntegratorConfig(rel_tol=1e-2)
    with pytest.raises(DomainError):
        IntegratorConfig(abs_tol=1e-16)


def _b_gradient(params, y, h=1e-5):
    """(-q dH/dp, q dH/dq, dH/dJ, -dH/dtheta) by central differences of H."""
    dH = []
    for i in range(4):
        e = np.zeros_like(y)
        e[i] = h
        dH.append((hamiltonian_mcgehee(y + e, params)
                   - hamiltonian_mcgehee(y - e, params)) / (2 * h))
    return np.array([-y[0] * dH[1], y[0] * dH[0], dH[3], -dH[2]])


@pytest.mark.parametrize("series", [None, CorrugationSeries((0.05, -0.02, 0.01),
                                                            (0.03, 0.015, -0.008))],
                         ids=["physical", "odd"])
def test_rhs_is_b_symplectic_gradient(series):
    physical = PhysicalParams() if series is None else PhysicalParams(corrugation=series)
    params = params_for_nu_I0(6.0, physical=physical)
    rng = np.random.default_rng(0)
    ys = np.array([rng.uniform(0.05, 1.2, 30), rng.uniform(-1, 1, 30),
                   rng.uniform(0, 7, 30), rng.uniform(-0.3, 0.3, 30)])
    rhs = mcgehee_rhs(params)
    lanes = rhs(0.0, ys)
    assert lanes.shape == ys.shape
    assert np.allclose(lanes, _b_gradient(params, ys), rtol=0, atol=1e-9)
    for y in ys.T:
        assert np.allclose(rhs(0.0, y), _b_gradient(params, y), rtol=0, atol=1e-9)


def test_homoclinic_closed_form(params_eps0):
    traj = integrate_mcgehee(params_eps0, [1.0, 0.0, 0.3, 0.0], (0.0, 10.0), TIGHT)
    ts = np.linspace(0.0, 10.0, 400)
    states = traj(ts)
    err_q = np.max(np.abs(states[0] - q_h(ts)))
    err_p = np.max(np.abs(states[1] - p_h(ts)))
    assert max(err_q, err_p) < 1e-9
    back = integrate_mcgehee(params_eps0, [1.0, 0.0, 0.3, 0.0], (0.0, -10.0), TIGHT)
    ts = np.linspace(0.0, -10.0, 400)
    states = back(ts)
    assert np.max(np.abs(states[0] - q_h(ts))) < 1e-9


def test_q_zero_line_invariant(params):
    traj = integrate_mcgehee(params, [0.0, 0.0, 0.1, 0.0], (0.0, 20.0), TIGHT)
    assert np.max(np.abs(traj.y[0])) == 0.0
    # theta advances linearly
    th = traj.y[2]
    expect = 0.1 + params.nu_I0 * traj.t
    assert np.max(np.abs(th - expect)) < 1e-9


def test_forward_backward_roundtrip(params):
    y0 = np.array([0.9, 0.1, 1.0, 0.01])
    fwd = integrate_mcgehee(params, y0, (0.0, 20.0), TIGHT)
    back = integrate_mcgehee(params, fwd.y1, (20.0, 0.0), TIGHT)
    assert np.max(np.abs(back.y1 - y0)) < 1e-10


def test_determinism(params):
    y0 = [0.8, -0.05, 2.0, 0.0]
    t1 = integrate_mcgehee(params, y0, (0.0, 12.0), TIGHT)
    t2 = integrate_mcgehee(params, y0, (0.0, 12.0), TIGHT)
    assert np.array_equal(t1.t, t2.t)
    assert np.array_equal(t1.y, t2.y)


def test_convergence_with_tolerance(params_eps0):
    errs = []
    for tol in (1e-8, 1e-10):
        cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol)
        traj = integrate_mcgehee(params_eps0, [1.0, 0.0, 0.0, 0.0], (0.0, 10.0), cfg)
        ts = np.linspace(0, 10, 200)
        errs.append(np.max(np.abs(traj(ts)[0] - q_h(ts))))
    assert errs[1] * 10 <= errs[0]


def test_section_events_periodic_orbit(params):
    # on the orbit at infinity theta advances at nu I0, so restarting the
    # lanes at t = 0 from each crossing of theta = 2 pi m finds the next at
    # 2 pi (m + 1) a time 2 pi / (nu I0) later; the field is autonomous
    theta0 = np.array([0.05, 1.0, 3.0])
    y = np.array([np.zeros(3), np.zeros(3), theta0, np.zeros(3)])
    rhs = mcgehee_rhs(params)
    times = []
    for m in (1, 2, 3):
        k, t, y = first_crossing(rhs, y, (0.0, 12.0),
                                 [(lambda s: s[2] - 2.0 * math.pi * m, +1)], TIGHT)
        assert list(k) == [0, 0, 0]
        times.append(t)
    assert np.allclose(times[0], (2.0 * math.pi - theta0) / params.nu_I0, rtol=1e-10)
    assert np.allclose(times[1:], 2.0 * math.pi / params.nu_I0, rtol=1e-10)


def test_crossings_per_lane(params_eps0):
    # two lanes on the separatrix seeded at u0 cross q = 1/2 rising where
    # u0 + t = -sqrt 3; the lane seeded at the apex only falls through it
    u0 = np.array([-4.0, -2.5, 0.0])
    y0 = np.array([q_h(u0), p_h(u0), np.zeros(3), np.zeros(3)])
    k, t, y = first_crossing(mcgehee_rhs(params_eps0), y0, (0.0, 8.0),
                             [(lambda y: y[0] - 0.5, +1)], TIGHT)
    assert list(k) == [0, 0, SPAN_END]
    assert np.allclose(t[:2], -math.sqrt(3.0) - u0[:2], atol=1e-10)
    assert np.all(np.abs(y[0, :2] - 0.5) <= 1e-12) and t[2] == 8.0


def test_first_crossing_stops_at_earliest_section(params_eps0):
    # on the homoclinic orbit seeded at u = -4: p rises through 0 at the
    # apex t = 4, and q falls through 1/2 at t = 4 + sqrt 3
    rhs = mcgehee_rhs(params_eps0)
    y0 = [q_h(-4.0), p_h(-4.0), 0.0, 0.0]
    falls = (lambda y: y[0] - 0.5, -1)
    apex = (lambda y: y[1], +1)
    k, t, y = first_crossing(rhs, y0, (0.0, 8.0), [falls, apex], TIGHT)
    assert k == 1 and t == pytest.approx(4.0, abs=1e-9)
    assert abs(y[1]) <= 1e-12 and y.shape == (4,)
    k, t, y = first_crossing(rhs, y0, (0.0, 8.0), [falls], TIGHT)
    assert k == 0 and t == pytest.approx(4.0 + math.sqrt(3.0), abs=1e-9)
    assert abs(y[0] - 0.5) <= 1e-12


def test_first_crossing_runs_out_at_span_end(params_eps0):
    y0 = [q_h(-4.0), p_h(-4.0), 0.0, 0.0]
    k, t, y = first_crossing(mcgehee_rhs(params_eps0), y0, (0.0, 8.0),
                             [(lambda y: y[0] - 2.0, 0)], TIGHT)
    run = integrate_mcgehee(params_eps0, y0, (0.0, 8.0), TIGHT)
    assert k is None and t == 8.0
    assert np.array_equal(y, run.y1)


def test_first_crossing_direction_backward(params_eps0):
    # backward from the apex q rises in time through 1/2 at t = -sqrt 3
    rhs = mcgehee_rhs(params_eps0)
    y0 = [1.0, 0.0, 0.0, 0.0]
    assert first_crossing(rhs, y0, (0.0, -5.0), [(lambda y: y[0] - 0.5, -1)], TIGHT)[0] is None
    k, t, _ = first_crossing(rhs, y0, (0.0, -5.0), [(lambda y: y[0] - 0.5, +1)], TIGHT)
    assert k == 0 and t == pytest.approx(-math.sqrt(3.0), abs=1e-10)


def test_lane_crossings_match_single_runs():
    # global legs (Sigma0 -> Sigma1, about 80 rad) and corner legs (Sigma1 ->
    # Sigma0, 600 rad from u0 = 1e-3) of the reduced flow in one batch, with
    # a corner leg that escapes past W^s and one (u0 = 1e-5, about 7,000 rad)
    # that runs out of the span.  Each leg starts 2% of a off its own section,
    # so no lane crosses the other leg's section on the way.  The escape
    # starts well past W^s: nearer, its crossing time is ill-conditioned
    # (u0 = -1e-3 moves it 5e-9 against a state that agrees to 3e-13).
    params = params_for_nu_I0(4.5, epsilon=1.0)
    a = _CHART_A
    starts = [(1.02 * a, 1e-3, 0.5), (1.02 * a, 5e-3, 3.0), (1e-3, 0.98 * a, 2.0),
              (-1e-2, 0.98 * a, 1.0), (1e-5, 0.98 * a, 4.0)]
    y0 = np.array([_CHART.from_chart(u, v) for u, v, _ in starts]).T
    theta0 = np.array([th for _, _, th in starts])
    sections = [(_masked_section("v"), -1), (_masked_section("u"), +1),
                (_escape_section(), -1)]
    config = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
    span = (0.0, 3000.0)
    counters = IntegrationCounters()
    k, t, y = first_crossing(_reduced_rhs_lanes(params, theta0), y0, span, sections,
                             config, counters)
    assert list(k) == [0, 0, 1, 2, SPAN_END]
    assert t[0] > 50.0 and t[2] > 500.0 and t[4] == span[1]
    assert counters.steps > 0 and counters.polish_residual <= 1e-12
    for j in range(len(starts)):
        k1, t1, y1 = first_crossing(_reduced_rhs_lanes(params, theta0[j]), y0[:, j], span,
                                    sections, config)
        assert (SPAN_END if k1 is None else k1) == k[j]
        assert abs(t[j] - t1) <= 1e-9
        assert np.max(np.abs(y[:, j] - y1)) <= 1e-12


def _rotations(omega, label_kick):
    """Lanes (x, y, label) turning at rates omega; the label is constant.

    After t = 1 a lane labelled 1 has its field raised by label_kick."""
    def field(t, s):
        x, y, label = s
        kick = 1.0 + label_kick * label * (t > 1.0)
        return np.array((-omega * y * kick, omega * x * kick, 0.0 * x))
    return field


def test_frozen_lane_leaves_the_others_alone():
    # lane 1 crosses y = 0 upward at t = 0.1 and is frozen; if its field
    # were not zeroed, the kick it gets after t = 1 would take over the
    # shared step control before lane 0 crosses at t = pi - atan(1e-3)
    omega = np.array([1.0, 3.0])
    y0 = np.array([[-1.0, math.cos(-0.3)], [-1e-3, math.sin(-0.3)], [0.0, 1.0]])
    rises = [(lambda s: s[1], +1)]
    runs = [first_crossing(_rotations(omega, kick), y0, (0.0, 10.0), rises, TIGHT)
            for kick in (0.0, 1e8)]
    for k, t, y in runs:
        assert list(k) == [0, 0]
        assert t[0] == pytest.approx(math.pi - math.atan(1e-3), abs=1e-9)
        assert t[1] == pytest.approx(0.1, abs=1e-9)
    for out_a, out_b in zip(*runs):
        assert np.array_equal(out_a, out_b)


def test_underflow_freezes_one_lane():
    # lane 0's field has a pole at t = 1 and never reaches y = 5; lane 2's
    # turns NaN after t = 0.5; lane 1 rises at unit speed and crosses at t = 5
    rises = [(lambda y: y[0] - 5.0, +1)]
    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10)
    k, t, y = first_crossing(
        lambda t, y: np.array([[-1.0 / (1.0 - t), 1.0, math.nan if t > 0.5 else 1.0]]),
        np.zeros((1, 3)), (0.0, 8.0), rises, config)
    assert list(k) == [UNDERFLOW, 0, UNDERFLOW]
    assert 0.99 < t[0] < 1.0 and t[2] <= 0.5 and y[0, 2] == pytest.approx(t[2], abs=1e-12)
    assert t[1] == pytest.approx(5.0, abs=1e-10) and y[0, 1] == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(StepUnderflowError):
        first_crossing(lambda t, y: np.array([-1.0 / (1.0 - t)]), np.zeros(1),
                       (0.0, 8.0), rises, config)


def test_non_finite_start_freezes_only_its_lane():
    # dy/dt = 1 against y = 1: a NaN start is frozen at t = 0 and stays out
    # of the shared first step, so the other lanes run as they do without it
    rises = [(lambda y: y[0] - 1.0, +1)]
    k, t, y = first_crossing(lambda t, y: np.ones_like(y), np.array([[0.0, math.nan, 0.1]]),
                             (0.0, 5.0), rises, TIGHT)
    k2, t2, y2 = first_crossing(lambda t, y: np.ones_like(y), np.array([[0.0, 0.1]]),
                                (0.0, 5.0), rises, TIGHT)
    assert list(k2) == [0, 0] and list(t2) == pytest.approx([1.0, 0.9], abs=1e-12)
    assert k[1] == UNDERFLOW and t[1] == 0.0 and math.isnan(y[0, 1])
    assert np.array_equal(k[[0, 2]], k2) and np.array_equal(t[[0, 2]], t2)
    assert np.array_equal(y[:, [0, 2]], y2)
    with pytest.raises(StepUnderflowError):
        first_crossing(lambda t, y: np.ones_like(y), np.array([math.nan]), (0.0, 5.0),
                       rises, TIGHT)


def test_src_has_one_integrator():
    # the package integrates with its own DOP853 engine, interpolates with
    # its own Hermite kernel and imports nothing of scipy; the engine runs
    # the tableau's file on its own
    src = Path(__file__).resolve().parents[1] / "src" / "hecu"
    bad = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            bad += [f"{path.name}:{node.lineno} {name}" for name in names
                    if name == "scipy" or name.startswith("scipy.")]
    assert not bad, bad


def test_tableau_is_scipys():
    # the engine's coefficients are scipy's, bit for bit
    from scipy.integrate._ivp import dop853_coefficients as dop
    ns = dop.N_STAGES
    pairs = {"_A": dop.A[:ns, :ns], "_B": dop.B, "_C": dop.C[:ns], "_E3": dop.E3,
             "_E5": dop.E5, "_A_EXTRA": dop.A[ns + 1:], "_C_EXTRA": dop.C[ns + 1:],
             "_D": dop.D}
    for name, ref in pairs.items():
        ours = getattr(engine, name)
        assert ours.dtype == ref.dtype and ours.shape == ref.shape, name
        assert ours.tobytes() == ref.tobytes(), name


def test_horseshoe_has_one_passage_path():
    # every reduced-flow passage runs through the lane runner; only the
    # truncated corner model, an oracle on its own field, and the lift of
    # the oscillatory legs, one lane batch on the full field restarted at
    # its two sections, call the event path elsewhere
    path = Path(__file__).resolve().parents[1] / "src" / "hecu" / "horseshoe.py"
    callers = set()
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            callers |= {fn.name for node in ast.walk(fn) if isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None))
                        == "first_crossing"}
    assert callers == {"_lanes_to_section", "truncated_local_map", "oscillatory_demo"}


@pytest.mark.parametrize("case", ["homoclinic", "homoclinic_back", "roundtrip"])
def test_single_lane_takes_scipy_steps(case, params, params_eps0):
    # the engine is scipy's DOP853 step for step on one lane
    y0, span, p = {
        "homoclinic": ([1.0, 0.0, 0.3, 0.0], (0.0, 10.0), params_eps0),
        "homoclinic_back": ([1.0, 0.0, 0.3, 0.0], (0.0, -10.0), params_eps0),
        "roundtrip": ([0.9, 0.1, 1.0, 0.01], (0.0, 20.0), params),
    }[case]
    run = integrate_mcgehee(p, y0, span, TIGHT)
    ref = solve_ivp(mcgehee_rhs(p), span, np.array(y0), method="DOP853",
                    rtol=TIGHT.rel_tol, atol=TIGHT.abs_tol, dense_output=True)
    assert run.t.size == ref.t.size
    assert np.max(np.abs(run.t - ref.t)) <= 1e-12
    assert run.n_rhs == ref.nfev
    ts = np.linspace(span[0], span[1], 101)
    assert np.max(np.abs(run(ts) - ref.sol(ts))) <= 1e-12


def test_lanes_match_separate_scipy_runs():
    # 64 sheet fibers as lanes of one run against 64 separate scipy runs
    p = params_for_nu_I0(5.0, epsilon=1e-3)
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    seeds = unstable_initial_conditions(solve_hj_unstable(p), -3.0, thetas)
    run = integrate_mcgehee(p, seeds.T, (0.0, 5.5), TIGHT)
    assert run.y1.shape == (4, 64)
    rhs = mcgehee_rhs(p)
    for i, y0 in enumerate(seeds):
        ref = solve_ivp(rhs, (0.0, 5.5), y0, method="DOP853",
                        rtol=TIGHT.rel_tol, atol=TIGHT.abs_tol)
        assert np.max(np.abs(run.y1[:, i] - ref.y[:, -1])) <= 1e-11
    # lanes share the steps; the dense output of a lane is that lane's orbit
    assert run(2.0).shape == (4, 64)
    assert run(np.array([1.0, 2.0])).shape == (4, 64, 2)


def test_rhs_accepts_lanes(params):
    rng = np.random.default_rng(1)
    states = rng.uniform(0.1, 1.0, size=(4, 7))
    rhs = mcgehee_rhs(params)
    batched = rhs(0.0, states)
    for j in range(7):
        assert np.allclose(batched[:, j], rhs(0.0, states[:, j]), rtol=1e-14, atol=1e-17)


def test_energy_drift_homoclinic(params_eps0):
    traj = integrate_mcgehee(params_eps0, [1.0, 0.0, 0.0, 0.0], (-50.0, 50.0), TIGHT)
    assert energy_drift(traj, params_eps0) < 1e-10


def test_energy_drift_trivial_orbit(params):
    traj = integrate_mcgehee(params, [0.0, 0.0, 0.4, 0.0], (0.0, 10.0), TIGHT)
    assert energy_drift(traj, params) == 0.0


def test_energy_drift_full_excursion(params):
    traj = integrate_mcgehee(params, [q_h(-3.0), p_h(-3.0), 0.7, 0.0], (0.0, 6.0), TIGHT)
    assert energy_drift(traj, params) < 1e-9


def test_step_underflow_signals(params):
    # the field blows up at t = 1: the controller shrinks the step below its
    # spacing limit
    with pytest.raises(StepUnderflowError):
        integrate(lambda t, y: [y[1], 1.0 / (1.0 - t), 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0], (0.0, 1.0),
                  IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10))


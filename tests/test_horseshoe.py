import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hecu import horseshoe
from hecu.horseshoe import (
    HorseshoeLab,
    PassageError,
    ShadowingError,
    Strip,
    StripFamily,
    _CHART,
    _ETA_GRID,
    _StableBranch,
    _TrigCurve,
    _cone_test,
    _escape_section,
    _lanes_to_section,
    _masked_section,
    _taus_at_advance,
    action_offset_closed,
    build_strips,
    global_map,
    local_map,
    oscillatory_demo,
    reduced_rhs,
    select_operating_point,
    setup_horseshoe,
    shadow_orbit,
    truncated_local_map,
    verify_cones,
)
from hecu.integrate import CROSSING_GTOL, IntegratorConfig, integrate_mcgehee, mcgehee_rhs
from hecu.model import DomainError, hamiltonian_mcgehee, params_for_nu_I0
from hecu.separatrix import melnikov_coeff_closed, p_h, q_h
from oracles import setup_horseshoe_bisected, taus_at_advance_step_rule

PARAMS = params_for_nu_I0(4.5, epsilon=1.0)


def test_action_offset_on_level_set():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = rng.uniform(0.01, 1.0)
        p = rng.uniform(-0.8, 0.8)
        theta = rng.uniform(0, 2 * math.pi)
        J = action_offset_closed(q, p, theta, PARAMS)
        h = hamiltonian_mcgehee((q, p, theta, J), PARAMS)
        assert h == pytest.approx(PARAMS.energy, rel=1e-14)


def test_reduce_k_at_origin():
    assert action_offset_closed(0.0, 0.0, 0.3, PARAMS) == pytest.approx(0.0, abs=1e-13)
    field = reduced_rhs(PARAMS)(0.3, (0.0, 0.0))
    assert field[0] == 0.0 and field[1] == 0.0


def test_reduced_flow_conserves_energy_eps0():
    params = params_for_nu_I0(5.0, epsilon=0.0)
    y0 = [0.4, 0.2]
    res = solve_ivp(reduced_rhs(params), (0.0, 40.0), y0, method="DOP853",
                    rtol=1e-12, atol=1e-13)
    h = res.y[1] ** 2 - res.y[0] ** 2 + res.y[0] ** 4
    assert np.max(np.abs(h - h[0])) < 1e-10


def test_reduced_vs_full_flow_sections():
    # one excursion: endpoints agree to 1e-8 when parametrized by the angle;
    # the seed must sit on the level set the reduction assumes
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    q0, p0, th0 = float(q_h(-6.0)), float(p_h(-6.0)), 0.7
    J0 = action_offset_closed(q0, p0, th0, PARAMS)
    y0 = np.array([q0, p0, th0, J0])
    traj = integrate_mcgehee(PARAMS, y0, (0.0, 12.0), cfg)
    th_end = float(traj.y1[2])
    red = solve_ivp(reduced_rhs(PARAMS), (y0[2], th_end), y0[:2],
                    method="DOP853", rtol=1e-12, atol=1e-13)
    assert np.max(np.abs(red.y[:, -1] - traj.y1[:2])) < 1e-8


def test_reduced_field_matches_full_ratio():
    rhs = mcgehee_rhs(PARAMS)
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.uniform(0.05, 0.9)
        p = rng.uniform(-0.5, 0.5)
        theta = rng.uniform(0, 2 * math.pi)
        J = action_offset_closed(q, p, theta, PARAMS)
        full = rhs(0.0, (q, p, theta, J))
        red = reduced_rhs(PARAMS)(theta, (q, p))
        assert red[0] == pytest.approx(full[0] / full[2], rel=1e-12)
        assert red[1] == pytest.approx(full[1] / full[2], rel=1e-12)


def test_chart_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.uniform(0.0, 0.6)
        p = rng.uniform(-0.4, 0.4)
        u, v = _CHART.to_chart(q, p)
        q2, p2 = _CHART.from_chart(u, v)
        assert q2 == pytest.approx(q, abs=1e-12)
        assert p2 == pytest.approx(p, abs=1e-12)


def test_adapted_chart_straightens_separatrix():
    for u in (-12.0, -6.0, -3.0):
        q, p = float(q_h(u)), float(p_h(u))
        cu, cv = _CHART.to_chart(q, p)
        assert abs(cv) < 1e-15          # outgoing branch sits on v = 0
        cu2, cv2 = _CHART.to_chart(q, -p)
        assert abs(cu2) < 1e-15         # incoming branch sits on u = 0


def test_truncated_local_map_exact():
    for u0 in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        v1, transit = truncated_local_map(u0)
        assert abs(v1 - u0) < 1e-12


def test_truncated_transit_exponent():
    # the arctan prefactor of the exact transit time biases the finite-range
    # fit to about -0.548; the acceptance window is +-0.05 around -1/2
    u0s = np.logspace(-2, -6, 5)
    ts = [truncated_local_map(float(u))[1] for u in u0s]
    slope = np.polyfit(np.log(u0s), np.log(ts), 1)[0]
    assert abs(slope + 0.5) < 0.05


def test_local_map_contract_rejects_bad_entry():
    with pytest.raises(DomainError):
        local_map(PARAMS, 0.05, 0.0)
    with pytest.raises(DomainError):
        local_map(PARAMS, -1e-3, 0.0)
    with pytest.raises(DomainError):
        local_map(PARAMS, np.array([1e-3, 0.05]), 0.0)


def test_local_map_returns_small_v():
    v1, th1 = local_map(PARAMS, 1e-3, 0.0)
    # passage conserves the adapted product up to corrugation wobble
    assert v1 == pytest.approx(1e-3, rel=0.2)
    assert th1 > 2 * math.pi  # at least one full angle period near the corner


def _scipy_passage(params, y0, theta0, which, direction, theta_max,
                   rtol=1e-11, atol=1e-12):
    """Reference passage: scipy's DOP853 with terminal events on the same
    sections, on the same field (the lane field, in s = theta - theta0)."""
    def event(section, event_direction):
        def g(s, y):
            return section(y)
        g.terminal = True
        g.direction = event_direction
        return g

    lane = horseshoe._reduced_rhs_lanes(params, np.array([theta0]))
    res = solve_ivp(lambda s, y: lane(s, y[:, None])[:, 0], (0.0, theta_max),
                    np.asarray(y0, dtype=float), method="DOP853", rtol=rtol, atol=atol,
                    events=[event(_masked_section(which), direction),
                            event(_escape_section(), -1)])
    assert res.success
    if res.t_events[0].size:
        return "section", theta0 + float(res.t_events[0][0]), res.y_events[0][0]
    if res.t_events[1].size:
        return "escape", theta0 + float(res.t_events[1][0]), res.y_events[1][0]
    return "timeout", theta0 + float(res.t[-1]), res.y[:, -1]


def _one_lane(y0, theta0, which, direction, theta_max):
    """One passage as a one-lane `_lanes_to_section`: (kind, theta, (q, p))."""
    kind, th, y = _lanes_to_section(PARAMS, np.reshape(y0, (2, 1)), np.array([theta0]),
                                    which, direction, theta_max)
    return kind[0], th[0], y[:, 0]


def _assert_matches_scipy(y0, theta0, which, direction, theta_max):
    kind, th, y = _one_lane(y0, theta0, which, direction, theta_max)
    ref_kind, ref_th, ref_y = _scipy_passage(PARAMS, y0, theta0, which, direction, theta_max)
    assert kind == "" and ref_kind == "section"
    assert abs(th - ref_th) <= 1e-11
    assert np.max(np.abs(y - ref_y)) <= 1e-14


@pytest.mark.parametrize("v0, theta0", [(2e-4, 0.0), (1e-3, 2.0), (5e-3, 3.0), (2e-2, 5.0)])
def test_global_leg_matches_scipy_events(v0, theta0):
    # Sigma0 -> Sigma1 excursions of global_map
    _assert_matches_scipy(_CHART.from_chart(horseshoe._CHART_A, v0), theta0, "v", -1, 400.0)


@pytest.mark.parametrize("u0, theta0", [(1e-3, 0.0), (1e-5, 0.0), (1e-4, 2.5)])
def test_corner_leg_matches_scipy_events(u0, theta0):
    # Sigma1 -> Sigma0 corner passages of local_map, 600 to 7,000 rad long
    _assert_matches_scipy(_CHART.from_chart(u0, horseshoe._CHART_A), theta0, "u", +1, 2.0e5)


@pytest.mark.parametrize("u0", [-1e-4, -1e-3, -1e-2])
def test_entry_past_stable_manifold_escapes(u0):
    # these orbits slide toward q -> 0 with u < 0; without the escape
    # section they would creep until theta_max
    kind, th, y = _one_lane(_CHART.from_chart(u0, horseshoe._CHART_A), 0.0, "u", +1, 2.0e5)
    assert kind == "escape"
    assert th < 2.0e3
    u, v = _CHART.to_chart(y[0], y[1])
    assert u < 0 and 2.0 * u + v == pytest.approx(0.0, abs=1e-12)


def test_passage_integration_failure_is_passage_error(monkeypatch):
    # a lane field that blows up at theta = 1 underflows the step
    monkeypatch.setattr(horseshoe, "_reduced_rhs_lanes",
                        lambda params, theta0: lambda s, y: np.array(
                            (y[1], 1.0 / (1.0 - (theta0 + s)))))
    with pytest.raises(PassageError, match="step"):
        global_map(PARAMS, _CHART, 1e-3, 0.0)


def test_select_operating_point():
    params = select_operating_point()
    assert params.epsilon == 1.0
    assert params.nu_I0 == pytest.approx(4.5, rel=1e-12)
    # the predicted splitting clears 1e3 x the integrator noise of 1e-10
    amp = 2.0 * abs(melnikov_coeff_closed(1, params.nu_I0, params.series))
    assert amp >= 1e3 * 1e-10


class _NoReturnLab(HorseshoeLab):
    def return_maps_raw(self, v_raw, theta):
        nan = np.full(v_raw.shape, np.nan)
        return nan, nan, np.full(v_raw.shape, "escape", dtype=object)


def test_verify_cones_leaves_lab_tolerance():
    # every cone sample fails, so verify_cones raises; the lab keeps its rtol
    thetas = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    lab = _NoReturnLab(PARAMS, _TrigCurve(thetas, 1e-3 * np.cos(thetas)),
                       _StableBranch(v_rel=np.array([-1e-3, 1e-2]), theta=np.array([0.0, 1.0])),
                       s_tau=1.0, base_count=150, delta_q=1e-2,
                       law_c=12.0)
    v_grid = np.array([1e-3, 5e-3])
    strip = Strip(tau_lo=np.full(2, 1e-3), tau_hi=np.full(2, 2e-3), v_grid=v_grid)
    family = StripFamily({151: strip}, {}, mu_v=0.0, mu_h=0.0)
    with pytest.raises(PassageError, match="no cone samples"):
        verify_cones(lab, family, samples_per_strip=3)
    assert lab.rtol == 1e-11


class _ExpandingLab(HorseshoeLab):
    """Closed-form return: the angle advances 2 pi C / tau, v_rel contracts.

    Strip n (count n) is C/(n+1) < tau <= C/n at every v_rel, and one return
    expands tau about 1.2e5-fold, as the corner passage does."""

    C = 1.2
    jitter = 0.0

    def return_maps_raw(self, v_raw, theta):
        # the same closed form on arrays; tau <= 0 escapes
        v_rel, tau = self.coords(v_raw, theta)
        back = tau > 0
        safe = np.where(back, tau, 1.0)
        th2 = np.where(back, theta + 2 * math.pi * self.C / safe
                       + self.jitter * np.sin(1e9 * theta), np.nan)
        v2 = np.where(back, 5e-4 + 0.05 * v_rel + 0.1 * (tau - 8e-3), np.nan)
        return v2, th2, np.where(back, "", "escape").astype(object)


def _expanding_family(lab_cls):
    thetas = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    lab = lab_cls(PARAMS, _TrigCurve(thetas, np.zeros_like(thetas)),
                  _StableBranch(v_rel=np.array([-1e-3, 1e-2]), theta=np.array([0.0, 1.0])),
                  s_tau=1.0, base_count=150, delta_q=1e-2,
                  law_c=lab_cls.C / math.sqrt(5e-3))
    v_grid = np.array([1e-3, 5e-3])
    strips = {n: Strip(tau_lo=np.full(2, lab.C / (n + 1)), tau_hi=np.full(2, lab.C / n),
                       v_grid=v_grid) for n in range(151, 155)}
    return lab, StripFamily(strips, {}, mu_v=0.0, mu_h=0.0)


def test_shadow_orbit_certifies_closed_form_itinerary():
    lab, family = _expanding_family(_ExpandingLab)
    it = shadow_orbit(lab, family, (2, 3, 2))
    assert it.achieved
    assert it.base == 151 and it.counts == (152, 153, 152)
    for (v, tau), n in zip(it.nodes, it.counts):
        assert lab.C / (n + 1) < tau <= lab.C / n
    assert it.nodes[0][0] == 3e-3
    # the last node stays where its leg advances 2 pi (n + 1/2), the others
    # meet their legs
    assert it.nodes[-1][1] == pytest.approx(lab.C / 152.5, rel=3e-7)
    assert max(it.defects_v + it.defects_tau) <= 1e-10
    assert min(it.margins) >= 1e-3
    assert it.iterations >= 1 and it.return_maps > 9 * it.iterations
    for (v, tau), (v_next, tau_next) in zip(it.nodes[:-1], it.nodes[1:]):
        one = lab.return_maps(v, tau)
        assert one.ok[0]
        assert abs(one.v_rel[0] - v_next) <= 1e-10 and abs(one.tau[0] - tau_next) <= 1e-10
    # each clause of the certificate can fail on its own
    assert not dataclasses.replace(it, counts=(152, 153, 153)).achieved
    assert not dataclasses.replace(it, defects_tau=(0.0, 1.1e-5)).achieved
    assert not dataclasses.replace(it, margins=(1.0, 9e-5, 1.0)).achieved


def test_shadow_orbit_starts_legs_at_half_period_advance():
    # a one-leg itinerary keeps its start node, the root of A = 2 pi (n + 1/2)
    lab, family = _expanding_family(_ExpandingLab)
    for symbol in (1, 2, 3, 4):
        (v, tau), = shadow_orbit(lab, family, (symbol,)).nodes
        assert v == 3e-3
        assert tau == pytest.approx(lab.C / (150 + symbol + 0.5), rel=3e-7)


class _HoleLab(_ExpandingLab):
    """Returns from v_rel > 4e-3 escape: on the family's v grid, every sample
    of the line v_rel = 5e-3."""

    def return_maps_raw(self, v_raw, theta):
        v2, th2, kind = super().return_maps_raw(v_raw, theta)
        hole = self.coords(v_raw, theta)[0] > 4e-3
        v2[hole] = th2[hole] = np.nan
        kind[hole] = "escape"
        return v2, th2, kind


def test_verify_cones_skips_only_escaping_samples():
    # the batches hold samples of both v-lines; the escaping lanes fail their
    # own samples and the rest come out as without them
    whole = verify_cones(*_expanding_family(_ExpandingLab), samples_per_strip=25)
    holed = verify_cones(*_expanding_family(_HoleLab), samples_per_strip=25)
    assert sorted(whole.v_lines) == [1e-3, 5e-3]
    assert holed.v_lines == {1e-3: whole.v_lines[1e-3]}
    assert holed.n_samples == whole.v_lines[1e-3][0] == whole.n_samples - whole.v_lines[5e-3][0]
    assert holed.counters["failures"]["escape"] >= 3 * whole.v_lines[5e-3][0]
    assert whole.counters["batches"] == 1 and not whole.counters["failures"]


def _cone_test_loop(D, eta):
    """The cone test one Jacobian and one edge at a time: (passed, growth)."""
    passed, growth = [], []
    for Dj in D:
        ok, least = True, math.inf
        for M, edges, i in ((Dj, [(eta, 1.0), (-eta, 1.0)], 0),
                            (np.linalg.inv(Dj), [(1.0, eta), (1.0, -eta)], 1)):
            for x in map(np.array, edges):
                y = M @ x
                if abs(y[i]) > eta * abs(y[1 - i]):
                    ok = False
                    break
                least = min(least, (abs(y[0]) + abs(y[1])) / (abs(x[0]) + abs(x[1])))
            if not ok:
                break
        passed.append(ok and least > 1.0)
        growth.append(least)
    return np.array(passed), np.array(growth)


def test_cone_test_matches_per_sample_loop():
    # hyperbolic-looking Jacobians, tau expanding; about 40-70% pass per eta
    rng = np.random.default_rng(0)
    n = 400
    d = 10 ** rng.uniform(-0.5, 4.0, n)
    D = np.empty((n, 2, 2))
    D[:, 1, 1] = d
    D[:, 0, 1] = 0.3 * np.sqrt(d) * rng.normal(size=n)
    D[:, 1, 0] = np.sqrt(d) * rng.normal(size=n)
    D[:, 0, 0] = (rng.uniform(0.2, 3.0, n) + D[:, 0, 1] * D[:, 1, 0]) / d
    for eta in _ETA_GRID:
        passed, growth = _cone_test(D, eta)
        ref_passed, ref_growth = _cone_test_loop(D, eta)
        assert 0.2 < np.mean(ref_passed) < 0.9
        assert np.array_equal(passed, ref_passed)
        # stacked and single 2x2 products may round apart in the last bit
        assert np.allclose(growth[passed], ref_growth[passed], rtol=1e-14, atol=0)


def test_build_strips_finds_closed_form_edges():
    lab, _ = _expanding_family(_ExpandingLab)
    family = build_strips(lab, (151, 154), n_v=3)
    assert sorted(family.strips) == [151, 152, 153, 154]
    for n, st in family.strips.items():
        assert np.all(np.abs(st.tau_lo / (lab.C / (n + 1)) - 1.0) <= 3e-7)
        assert np.all(np.abs(st.tau_hi / (lab.C / n) - 1.0) <= 3e-7)
    # the count law is a poor guess for this return (about 57% off), so the
    # first stencil does not bracket the roots; the fit, exact in y = 2 pi/A,
    # places the second, which does.  Its returns are the images
    counters = family.diagnostics["counters"]
    assert counters["batches"] == 2
    assert counters["lane_maps"] == 2 * 3 * 24 and not counters["failures"]
    assert family.diagnostics["edge_error"] <= 1e-12
    assert all(len(im) >= 3 for im in family.images.values())


def test_build_strips_needs_two_v_lines(monkeypatch):
    # one v-line gives no Lipschitz data: a configuration error before any return
    def no_return(self, v_raw, theta):
        raise AssertionError("a return ran")

    lab, _ = _expanding_family(_ExpandingLab)
    monkeypatch.setattr(_ExpandingLab, "return_maps_raw", no_return)
    for n_v in (0, 1):
        with pytest.raises(DomainError, match="two v-lines"):
            build_strips(lab, (151, 154), n_v=n_v)


def test_tau_at_advance_leaves_rectangle():
    # no tau in (0, delta_q] advances the closed-form return by only 2 pi:
    # that root is tau = C = 1.2
    lab, _ = _expanding_family(_ExpandingLab)
    with pytest.raises(PassageError, match="no root in the rectangle"):
        _taus_at_advance(lab, 3e-3, 2 * math.pi, 5e-3)
    assert lab.counters.batches == 1


class _EscapingStencilLab(_ExpandingLab):
    """Returns from tau above 8e-3 escape."""

    def return_maps_raw(self, v_raw, theta):
        v2, th2, kind = super().return_maps_raw(v_raw, theta)
        far = self.coords(v_raw, theta)[1] > 8e-3
        v2[far] = th2[far] = np.nan
        kind[far] = "escape"
        return v2, th2, kind


def test_tau_at_advance_names_a_failed_stencil_lane():
    # a stencil that straddles tau = 8e-3 loses its upper lanes: the solve
    # stops on the first batch and names the failure kind
    lab, _ = _expanding_family(_EscapingStencilLab)
    with pytest.raises(PassageError, match="of 24 returns, escape") as err:
        _taus_at_advance(lab, 3e-3, 2 * math.pi * 151, 8e-3)
    assert err.value.kind == "escape" and lab.counters.batches == 1


def test_shadow_orbit_rejects_symbols_outside_window():
    lab, family = _expanding_family(_ExpandingLab)
    for symbols in ((1, 5, 2), (0, 1), ()):
        with pytest.raises(DomainError):
            shadow_orbit(lab, family, symbols)


class _NoisyLab(_ExpandingLab):
    jitter = 1e-3       # a return-angle noise 100x the leg defect bound


def test_tau_at_advance_refuses_noisy_advances():
    # an angle noise of 1e-3 rad moves the fitted roots by more than 3e-7 tau,
    # so no stencil meets the estimate's bound and the solve gives up
    lab, _ = _expanding_family(_NoisyLab)
    with pytest.raises(PassageError, match="did not converge"):
        _taus_at_advance(lab, 3e-3, 2 * math.pi * 152.5, lab.C / 152.5)
    assert lab.counters.batches == horseshoe._STENCIL_ROUNDS


class _NoisyLandingLab(_ExpandingLab):
    """Lands 1e-3 sin(1e9 theta) off in v_rel, 100x the leg defect bound; the
    angle advance, and with it the start nodes, stay exact."""

    def return_maps_raw(self, v_raw, theta):
        v2, th2, kind = super().return_maps_raw(v_raw, theta)
        return v2 + 1e-3 * np.sin(1e9 * theta), th2, kind


def test_shadow_orbit_raises_when_legs_miss_the_bound():
    lab, family = _expanding_family(_NoisyLandingLab)
    with pytest.raises(ShadowingError, match="leg defect") as err:
        shadow_orbit(lab, family, (2, 3, 2))
    assert len(err.value.achieved) == 3


def test_reduced_rhs_lanes_match_scalar_field():
    # on the level set the lane field is (q'/theta', p'/theta') of the full
    # field, on lanes that each run from their own theta0
    rng = np.random.default_rng(4)
    y = np.array([rng.uniform(0.0, 0.6, 9), rng.uniform(-0.4, 0.4, 9)])
    theta0 = rng.uniform(-3.0, 900.0, 9)
    lanes = horseshoe._reduced_rhs_lanes(PARAMS, theta0)(2.5, y)
    full = mcgehee_rhs(PARAMS)
    for j in range(9):
        q, p, theta = y[0, j], y[1, j], theta0[j] + 2.5
        f = full(0.0, (q, p, theta, action_offset_closed(q, p, theta, PARAMS)))
        assert np.allclose(lanes[:, j], f[:2] / f[2], rtol=1e-13, atol=1e-16)


@pytest.fixture(scope="module")
def real_lab():
    return setup_horseshoe(select_operating_point())


@pytest.fixture(scope="module")
def lab_nu6():
    """The laboratory at a second energy, nu I0 = 6."""
    return setup_horseshoe(params_for_nu_I0(6.0, epsilon=1.0))


def test_stable_branch_is_unwrapped(real_lab):
    # the branch spans several radians; no 2 pi wrap may sit between nodes
    assert np.max(np.abs(np.diff(real_lab.branch.theta))) < math.pi


_NONUNIFORM_V = np.sort(np.random.default_rng(3).uniform(-1e-3, 2e-2, 30))
_BRANCH_TABLES = {
    "synthetic": (_NONUNIFORM_V, np.sin(80.0 * _NONUNIFORM_V) + 3.0 * _NONUNIFORM_V),
    "two": (np.array([-1e-3, 1e-2]), np.array([0.0, 1.0])),
    "three": (np.array([-1e-3, 2e-3, 1e-2]), np.array([0.0, 0.4, 1.0])),
    "four": (np.array([-1e-3, 2e-3, 5e-3, 1e-2]), np.array([0.0, 0.4, 0.3, 1.0])),
}


@pytest.mark.parametrize("table", ["lab", *_BRANCH_TABLES])
def test_stable_branch_is_scipys_not_a_knot_spline(table, request):
    # the branch against scipy's CubicSpline, which continues linearly
    # along its end slopes here as angle_at does, on either side of the table
    from scipy.interpolate import CubicSpline
    if table == "lab":
        branch = request.getfixturevalue("real_lab").branch
        v, theta = branch.v_rel, branch.theta
    else:
        v, theta = _BRANCH_TABLES[table]
        branch = _StableBranch(v_rel=v, theta=theta)
    spline = CubicSpline(v, theta)
    span = v[-1] - v[0]
    u = np.linspace(v[0] - 0.2 * span, v[-1] + 0.2 * span, 20001)
    inside = np.clip(u, v[0], v[-1])
    ref = spline(inside) + spline(inside, 1) * (u - inside)
    assert np.max(np.abs(branch.angle_at(u) - ref)) <= 1e-12
    assert all(abs(branch.angle_at(float(w)) - r) <= 1e-12 for w, r in zip(u[::1000], ref[::1000]))
    slopes = spline(v, 1)
    assert np.max(np.abs(branch.slopes - slopes)) <= 1e-13 * np.max(np.abs(slopes))


def test_setup_pins_the_operating_lab(real_lab):
    # the laboratory at the operating point, to the passage noise of the set-up
    assert real_lab.base_count == 150
    assert real_lab.delta_q == pytest.approx(0.01718077880, rel=1e-5)
    assert abs(real_lab.theta_h - (-157.54547704756516)) <= 1e-6
    counters = real_lab.diagnostics["counters"]
    assert set(counters) == {"fibers", "walk", "orientation"}
    assert counters["fibers"]["lane_maps"] == 64 and counters["fibers"]["batches"] == 1
    assert counters["walk"]["batches"] == 1 and counters["orientation"]["batches"] >= 1
    assert sum(c["work"]["rhs_calls"] for c in counters.values()) <= 16500


@pytest.mark.parametrize("nu_I0", [4.5, 6.0])
def test_secant_centred_branch_is_the_bisected_one(nu_I0, request):
    # the walk from the secant zero of r across the fibre bracket gives the
    # branch that an 18-step bisection of the crossing gives, at the
    # operating point and at a second energy
    lab = request.getfixturevalue("real_lab" if nu_I0 == 4.5 else "lab_nu6")
    ref, bisection = setup_horseshoe_bisected(lab.params)
    assert bisection.batches == 3
    assert lab.base_count == ref.base_count
    v = np.linspace(0.0, 0.85 * lab.delta_q, 2001)
    assert np.max(np.abs(lab.branch.angle_at(v) - ref.branch.angle_at(v))) <= 1e-9
    assert abs(lab.theta_h - ref.theta_h) <= 1e-10


_SPACING = 2 * math.pi / 64      # the set-up's fibre spacing


def _fake_walk(monkeypatch, r_of, failed=()):
    """The walk's fibres land at angle seed with r = r_of(seed - star), lane 0
    being star; the lanes in `failed` escape.  No return may run."""

    def run_fibers(params, graph, thetas0, counters):
        kind = np.full(thetas0.shape, "", dtype=object)
        kind[list(failed)] = "escape"
        th2 = np.where(kind == "", -thetas0, np.nan)
        u2 = np.where(kind == "", r_of(thetas0 - thetas0[0]), np.nan)
        counters.ran(kind)
        return th2, u2, th2, u2, kind

    def no_return(self, v_raw, theta):
        raise AssertionError("a return ran")

    monkeypatch.setattr(horseshoe, "_run_fibers", run_fibers)
    monkeypatch.setattr(HorseshoeLab, "return_maps_raw", no_return)
    wu = _TrigCurve(np.linspace(0.0, 2 * math.pi, 32, endpoint=False), np.zeros(32))
    counters = horseshoe.MapCounters()
    return horseshoe._build_branch(PARAMS, None, wu, 1.0, _SPACING, counters), counters


def test_branch_folded_at_the_crossing_is_passed_over(monkeypatch):
    # r falls through zero and rises through it again: each side of the
    # walk is monotone, but the branch folds at the crossing, and the cut
    # gives it up after the walk's batch, before any return
    walked, counters = _fake_walk(monkeypatch, lambda x: np.abs(x) - 0.012)
    assert walked is None
    assert counters.batches == 1 and counters.lane_maps == 79


def test_branch_cut_from_one_side_of_the_walk(monkeypatch):
    # the first fibre past star fails: that side ends there, later fibres
    # included, and the other side alone gives the branch, r ascending
    # (it falls with the seed angle), up to its first |r| > 0.2
    def r_of(x):
        return -1e-3 - 0.5 * x

    (theta, r), counters = _fake_walk(monkeypatch, r_of, failed=(1,))
    m = np.arange(1, 40) * _SPACING / 6.0
    n = int(np.argmax(np.abs(r_of(-m)) > 0.2)) + 1
    assert n >= 8 and r.size == n + 1
    assert np.array_equal(theta, np.r_[1.0, 1.0 - m[:n]])
    assert np.array_equal(r, r_of(theta - 1.0)) and np.all(np.diff(r) > 0)
    assert counters.failures == {"escape": 1}


def test_setup_reaches_the_negative_tau_orientation():
    # at epsilon = -1 the rectangle returns only with the tau axis flipped;
    # the reference return of the flipped lab completes its base count
    lab = setup_horseshoe(params_for_nu_I0(4.5, epsilon=-1.0))
    assert lab.s_tau == -1.0 and lab.base_count == 152
    tau_ref = 0.5 * lab.delta_q
    ret = lab.return_maps(tau_ref, tau_ref)
    assert ret.count[0] == 152 and ret.v_rel[0] > 0


def test_strip_boundaries_separate_counts(real_lab):
    # one v-line: each root of A = 2 pi (n+1) has count n+1 just below it
    # and n just above
    lab = real_lab
    v = 0.1 * lab.delta_q
    ns = np.arange(lab.base_count, lab.base_count + 5)
    tau_b = _taus_at_advance(lab, v, 2 * math.pi * (ns + 1), (lab.law_c / (ns + 0.5)) ** 2)[0]
    counts = lab.return_maps(v, np.r_[tau_b * (1 - 2e-6), tau_b * (1 + 2e-6)]).count
    assert list(counts) == list(ns + 1) + list(ns)


@pytest.mark.parametrize("nu_I0", [4.5, 6.0])
def test_build_strips_runs_one_stencil_batch(nu_I0, request):
    # two v-lines over a window of four strips, at the operating point and at
    # a second energy (base count 531): the stencil fit's roots agree with the
    # step-rule secant, which runs three rounds of returns, and the phase runs
    # one batch of 24 returns per v-line, whose counts give the images
    lab = request.getfixturevalue("real_lab" if nu_I0 == 4.5 else "lab_nu6")
    n_lo, n_hi = lab.base_count + 1, lab.base_count + 4
    family = build_strips(lab, (n_lo, n_hi), n_v=2)
    roots = np.array([family.strips[n_lo].tau_hi]
                     + [family.strips[n].tau_lo for n in range(n_lo, n_hi + 1)])
    ns = np.arange(n_lo - 1, n_hi + 1)[:, None]
    oracle = dataclasses.replace(lab, counters=horseshoe.MapCounters())
    ref = taus_at_advance_step_rule(oracle, family.strips[n_lo].v_grid[None, :],
                                    2 * math.pi * (ns + 1), (lab.law_c / (ns + 0.5)) ** 2)
    assert np.max(np.abs(roots / ref.reshape(roots.shape) - 1.0)) <= 1e-8
    counters = family.diagnostics["counters"]
    assert counters["batches"] == 1 and oracle.counters.batches == 3
    assert counters["lane_maps"] == 2 * 24 and not counters["failures"]
    assert family.diagnostics["edge_error"] <= 3e-7
    assert all(len(im) >= 2 for im in family.images.values())
    assert family.mu_h * family.mu_v < 1.0


def test_return_maps_match_single_returns(real_lab):
    # four points as lanes of one batch, one of them past W^s: that lane
    # escapes alone, and the others agree with their one-lane returns to
    # the passage noise at rtol 1e-11 (about 1e-5 rad of advance)
    lab = dataclasses.replace(real_lab, counters=horseshoe.MapCounters())
    d = lab.delta_q
    v = np.array([0.05, 0.3, 0.3, 0.7]) * d
    tau = np.array([0.4, 0.5, -0.3, 0.6]) * d
    ret = lab.return_maps(v, tau)
    assert list(ret.kind) == ["", "", "escape", ""]
    assert ret.count[2] == -1 and np.isnan(ret.advance[2])
    for j in (0, 1, 3):
        one = lab.return_maps(v[j], tau[j])
        assert one.ok[0] and ret.count[j] == one.count[0]
        assert abs(ret.advance[j] - one.advance[0]) <= 1e-4
        assert abs(ret.tau[j] - one.tau[0]) <= 1e-4 and abs(ret.v_rel[j] - one.v_rel[0]) <= 1e-9
    counters = lab.counters
    assert (counters.lane_maps, counters.batches) == (4 + 3, 1 + 3)
    assert counters.failures == {"escape": 1} and counters.work.steps > 0


@pytest.fixture(scope="module")
def witness(real_lab):
    """The oscillatory witness at the operating point, k = 3, in the strips
    base+1 ... base+3 that `hecu oscillate` builds, and the integrator runs
    of its lift on the full field, counted where `oscillatory_demo` looks
    them up."""
    family = build_strips(real_lab, (real_lab.base_count + 1, real_lab.base_count + 3))
    runs = []

    def counted(fn):
        def run(field, y0, *args, **kwargs):
            if np.shape(y0)[0] == 4:        # a full state, not a reduced passage
                runs.append(fn.__name__)
            return fn(field, y0, *args, **kwargs)
        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(horseshoe, "first_crossing", counted(horseshoe.first_crossing))
        mp.setattr(horseshoe, "integrate", counted(horseshoe.integrate))
        demo = oscillatory_demo(real_lab, family, 3, 8.0)
    return demo, runs


def test_oscillatory_lift_runs_once_per_section_and_once_dense(witness):
    # two lane restarts of first_crossing and one dense integrate for all
    # three legs (the leg-by-leg lift made six runs and 52,911 field calls)
    demo, runs = witness
    assert runs == ["first_crossing", "first_crossing", "integrate"]
    assert demo["lift"]["runs"] == 3
    assert 0 < demo["lift"]["rhs_calls"] <= 20000
    assert demo["itinerary"].counts == (151, 152, 153)


def test_oscillatory_maxima_are_polished_p_zero_crossings(witness):
    demo, _ = witness
    q, p = demo["maximum_states"][:2]
    assert np.all(np.abs(p) <= CROSSING_GTOL)
    alpha = PARAMS.physical.alpha
    assert demo["maxima"] == (-np.log(2.0 * q ** 2) / alpha).tolist()
    assert demo["strictly_increasing"] and demo["returns_below"]
    # the leg-by-leg lift's best-of-samples maxima, which C10 prints as
    # 7.3647, 7.3771 and 7.3839
    assert np.allclose(demo["maxima"], [7.364681459, 7.377085337, 7.383873856],
                       rtol=0, atol=1e-6)


def test_oscillatory_samples_hold_one_maximum_per_leg(witness):
    # the sample scan the lift replaced, kept as a cross-check: each leg's
    # 2000 samples hold one interior minimum of q, at the polished height
    demo, _ = witness
    orbit = demo["orbit"]
    assert np.all(np.diff(orbit["t"]) > 0)
    for z, z_max in zip(orbit["z"].reshape(3, 2000), demo["maxima"]):
        interior = np.flatnonzero((z[1:-1] > z[:-2]) & (z[1:-1] > z[2:])) + 1
        assert interior.size == 1
        assert 0.0 <= z_max - z[interior[0]] <= 1e-6


def test_oscillatory_legs_reach_sigma0_at_their_reduced_advance(witness):
    # the full flow's advance over each leg against the reduced passages'
    # (measured 2.8e-6 to 3.5e-6 rad)
    demo, _ = witness
    assert np.all(np.abs(demo["arrival_gaps"]) <= 1e-5)


def test_oscillatory_heights_follow_the_parabolic_law(witness):
    # z_max - (2/alpha) ln A is one constant over legs 2..k (5e-7 apart);
    # leg 1 sits 8e-4 off it, an open question
    law = witness[0]["height_law"]
    assert np.ptp(law[1:]) <= 1e-5
    assert np.allclose(law, [-5.70462, -5.70542, -5.70542], rtol=0, atol=1e-5)


def test_failed_lift_lane_raises_its_passage_kind(witness, real_lab, monkeypatch):
    # a lift whose span runs out before any lane reaches its maximum
    # fails as a timeout, like every other passage
    demo, _ = witness
    real = horseshoe.first_crossing

    def short(field, y0, t_span, *args):
        return real(field, y0, (0.0, 1.0) if np.shape(y0)[0] == 4 else t_span, *args)

    monkeypatch.setattr(horseshoe, "shadow_orbit", lambda *args: demo["itinerary"])
    monkeypatch.setattr(horseshoe, "first_crossing", short)
    with pytest.raises(PassageError) as err:
        # the patched shadowing reads no family
        oscillatory_demo(real_lab, object(), 3, 8.0)
    assert err.value.kind == "timeout"

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from hecu import manifolds
from hecu.integrate import mcgehee_rhs
from hecu.manifolds import (
    Sheet,
    SheetLevel,
    _sample_sheet,
    find_homoclinics,
    fit_scaling,
    globalize,
    measure_splitting,
    solve_hj_unstable,
    splitting_sweep,
    stable_sheet_direct,
    stable_sheet_from_unstable,
    unstable_initial_conditions,
    unstable_sheet,
)
from hecu.model import DomainError, SolveError, hamiltonian_mcgehee, params_for_nu_I0
from hecu.separatrix import melnikov_coeff_closed, p_h, q_h
from oracles import find_homoclinics_brentq, l_out_plus, phi1_at

SER_PARAMS = params_for_nu_I0(4.0, epsilon=1e-4)


@pytest.fixture(scope="module")
def graph():
    return solve_hj_unstable(SER_PARAMS)


@pytest.fixture(scope="module")
def sheets():
    sheet = unstable_sheet(SER_PARAMS, [0.5, 1.0, 1.5], n_theta=64)
    return sheet, stable_sheet_from_unstable(sheet)


def test_hj_eps0_is_zero():
    g = solve_hj_unstable(params_for_nu_I0(6.0, epsilon=0.0))
    assert g.iterations == 1
    assert not g.phi1.values.any()


def test_hj_first_iterate_is_l_out(graph):
    # for small eps the converged graph equals eps * L+_out to second order
    thetas = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    for u0 in (-3.0, -1.0):
        vals = phi1_at(graph, u0, thetas)
        lout = SER_PARAMS.epsilon * np.array(
            [l_out_plus(u0, th, SER_PARAMS.nu_I0, SER_PARAMS.series) for th in thetas])
        assert np.max(np.abs(vals - lout)) <= 1e-6 * np.max(np.abs(lout))


def test_hj_residual_below_tol(graph):
    assert graph.residual <= 1e-11


@pytest.mark.parametrize("nu_I0", [6.0, 9.0])
def test_hj_small_eps_iterates_past_melnikov_layer(nu_I0):
    # the first residual already sits below tol here; the graph must still
    # carry a measured correction beyond L+_out and a contraction ratio
    g = solve_hj_unstable(params_for_nu_I0(nu_I0, epsilon=1e-4))
    assert g.iterations >= 2
    assert 0.0 < g.contraction_ratio < 0.9


def test_hj_raises_when_not_contracting():
    # at nu I0 = 1, eps = 1 the quadratic terms outgrow the transport's decay
    with pytest.raises(SolveError, match=r"ratio 1\.083 >= 0\.9 at iteration 6") as err:
        solve_hj_unstable(params_for_nu_I0(1.0, epsilon=1.0))
    assert err.value.kind == "non-contraction"


def test_hj_raises_when_iterations_run_out(monkeypatch):
    # one iteration cannot converge: the stop rule asks for two or more
    monkeypatch.setattr(manifolds, "_HJ_MAX_ITER", 1)
    with pytest.raises(SolveError, match="within 1 iterations") as err:
        solve_hj_unstable(SER_PARAMS)
    assert err.value.kind == "non-convergence"


def test_hj_derivative_consistency(graph):
    # stored d/du of Phi1 modes agrees with finite differences of the values
    M = graph.phi1.M
    x = graph.u
    j = len(x) - 300
    for k in (0, 1, 2):
        fd = (graph.phi1.values[k + M, j + 1] - graph.phi1.values[k + M, j - 1]) \
            / (x[j + 1] - x[j - 1])
        stored = graph.phi1.du[k + M, j]
        scale = float(np.max(np.abs(graph.phi1.du[k + M])))
        # central differences carry O(h^2 (nu I0)^2) truncation on the
        # oscillatory modes; this only guards against bookkeeping errors
        assert abs(fd - stored) <= 5e-3 * scale + 1e-14


def test_seeds_on_energy_level(graph):
    thetas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    seeds = unstable_initial_conditions(graph, -3.0, thetas)
    for s in seeds:
        h = hamiltonian_mcgehee(s, SER_PARAMS)
        assert abs(h - SER_PARAMS.energy) < 1e-12


def test_seeds_reduce_to_gamma0_at_eps0():
    g = solve_hj_unstable(params_for_nu_I0(6.0, epsilon=0.0))
    seeds = unstable_initial_conditions(g, -2.5, np.array([0.3]))
    assert seeds[0][0] == pytest.approx(q_h(-2.5), rel=1e-14)
    assert seeds[0][1] == pytest.approx(p_h(-2.5), rel=1e-12)
    assert seeds[0][3] == 0.0


def test_graph_approaches_gamma0_in_nu_I0():
    # sup deviation of the graph from the separatrix decays ~ 1/(nu I0)
    devs = {}
    for nu_I0 in (8.0, 16.0):
        g = solve_hj_unstable(params_for_nu_I0(nu_I0, epsilon=1.0))
        thetas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        P, J = g.derivatives_at(-1.0, thetas)
        dev = np.max(np.abs(P - float(p_h(-1.0)) ** 2)) + np.max(np.abs(J))
        devs[nu_I0] = dev
    assert devs[8.0] <= 2.0 * devs[16.0] * 2.0


def test_globalize_eps0_arrives_on_separatrix():
    params = params_for_nu_I0(5.0, epsilon=0.0)
    sheet = unstable_sheet(params, [0.7, 1.2], n_theta=8)
    for u in (0.7, 1.2, -0.7, -1.2):
        lv = sheet.levels[u]
        assert np.max(np.abs(lv.P - float(p_h(u)) ** 2)) < 1e-10
        assert np.max(np.abs(lv.J)) < 1e-10


def test_globalize_energy_conservation(sheets):
    sheet, _ = sheets
    for lv in sheet.levels.values():
        assert np.max(lv.energy_defect) < 1e-9 * SER_PARAMS.energy


def test_stable_sheet_reversor_vs_direct(sheets):
    # the S-constructed stable sheet matches direct backward integration
    sheet, stable = sheets
    direct = stable_sheet_direct(SER_PARAMS, [1.0], n_theta=32)
    for k in (0, 1, 2):
        a = stable.level(1.0).mode("J", k)
        b = direct.level(1.0).mode("J", k)
        assert abs(a - b) < 1e-9
        a = stable.level(1.0).mode("P", k)
        b = direct.level(1.0).mode("P", k)
        assert abs(a - b) < 1e-9


def test_splitting_matches_melnikov(sheets):
    sheet, stable = sheets
    s = measure_splitting(sheet, stable, 1.0, 1)
    pred = 2 * SER_PARAMS.epsilon * abs(
        melnikov_coeff_closed(1, SER_PARAMS.nu_I0, SER_PARAMS.series))
    assert abs(s.amp_J - pred) / pred < 0.03
    assert s.amp_P == pytest.approx(SER_PARAMS.nu_I0 * s.amp_J, rel=1e-3)


def test_splitting_eps0_below_noise():
    params = params_for_nu_I0(4.0, epsilon=0.0)
    sheet = unstable_sheet(params, [1.0], n_theta=8)
    stable = stable_sheet_from_unstable(sheet)
    with pytest.raises(SolveError, match="below 10x noise floor") as err:
        measure_splitting(sheet, stable, 1.0, 1)
    assert err.value.kind == "below-noise"


def test_homoclinic_roots(sheets):
    sheet, stable = sheets
    roots = find_homoclinics(sheet, stable, 1.0)
    assert len(roots) == 2
    base = SER_PARAMS.nu_I0 * 1.0 % (2 * math.pi)
    expected = sorted([base % (2 * math.pi), (base + math.pi) % (2 * math.pi)])
    for (th, slope), want in zip(roots, expected):
        assert abs(th - want) <= 2.0 / SER_PARAMS.nu_I0
    assert roots[0][1] * roots[1][1] < 0  # opposite transversality signs


def test_homoclinic_roots_stable_under_refinement(sheets, monkeypatch):
    sheet, stable = sheets
    monkeypatch.setattr(manifolds, "_N_SCAN", 360)
    r1 = find_homoclinics(sheet, stable, 1.0)
    monkeypatch.setattr(manifolds, "_N_SCAN", 1440)
    r2 = find_homoclinics(sheet, stable, 1.0)
    for (a, _), (b, _) in zip(r1, r2):
        assert abs(a - b) < 1e-6


@pytest.mark.parametrize("nu_I0, eps", [(4.0, 1e-4), (6.3, 1e-3), (9.1, 1e-4), (9.1, 1e-3)])
def test_homoclinic_roots_match_brentq(nu_I0, eps):
    # all brackets polished at once agree with one brentq per bracket
    params = params_for_nu_I0(nu_I0, epsilon=eps)
    sheet = unstable_sheet(params, [1.0], n_theta=64)
    stable = stable_sheet_from_unstable(sheet)
    roots = find_homoclinics(sheet, stable, 1.0)
    ref = find_homoclinics_brentq(sheet, stable, 1.0)
    assert len(roots) == len(ref) == 2
    for (th, slope), (th_ref, slope_ref) in zip(roots, ref):
        assert abs(th - th_ref) <= 1e-12
        assert abs(slope - slope_ref) <= 1e-9 * abs(slope_ref)


def test_delta_j_rides_characteristics(sheets):
    # Delta J depends on (u, theta) through theta - nu I0 u: the harmonic
    # in the theta' frame is u-independent
    sheet, stable = sheets
    gammas = []
    for u in (0.5, 1.0, 1.5):
        s = measure_splitting(sheet, stable, u, 1)
        gammas.append(s.amp_J * np.exp(1j * s.phase_J))
    spread = max(abs(g - gammas[0]) for g in gammas)
    assert spread <= 0.2 * abs(gammas[0])


def test_gradient_consistency_dp_vs_dphi():
    # d_u of Delta Phi (reconstructed from Delta J modes) reproduces Delta P
    params = params_for_nu_I0(4.0, epsilon=1e-4)
    h = 0.05
    sheet = unstable_sheet(params, [1.0 - h, 1.0, 1.0 + h], n_theta=32)
    stable = stable_sheet_from_unstable(sheet)

    def dphi_mode(u):
        lv_p, lv_m = sheet.level(u), stable.level(u)
        dj = lv_p.mode("J", 1) - lv_m.mode("J", 1)
        return dj / 1j  # Delta Phi_1 = Delta J_1 / (i k), k = 1

    fd = (dphi_mode(1.0 + h) - dphi_mode(1.0 - h)) / (2 * h)
    lv_p, lv_m = sheet.level(1.0), stable.level(1.0)
    dp = lv_p.mode("P", 1) - lv_m.mode("P", 1)
    # central difference of e^{-i nu I0 u} carries sinc(nu I0 h)
    sinc = math.sin(params.nu_I0 * h) / (params.nu_I0 * h)
    assert abs(fd / sinc - dp) <= 0.05 * abs(dp)


def test_fit_scaling_exponential_law():
    samples = splitting_sweep([4.0, 5.0, 6.0, 7.0], epsilon=1e-4)
    fit = fit_scaling(samples, basis="nu_plus_one")
    assert abs(fit.rho - 1.0) <= 0.02
    assert abs(fit.sigma - 1.0) <= 0.15
    lit = fit_scaling(samples, basis="nu")
    # literal nu-basis absorbs the 1/(nu I0) correction into sigma
    assert lit.sigma < 0.85


def test_fit_scaling_needs_four_samples():
    samples = splitting_sweep([4.0, 5.0], epsilon=1e-4)
    with pytest.raises(DomainError):
        fit_scaling(samples + samples[:1])


def test_epsilon_linearity():
    a1 = splitting_sweep([5.0], epsilon=1e-4)[0].amp_J
    a2 = splitting_sweep([5.0], epsilon=2e-4)[0].amp_J
    assert abs(a2 / a1 - 2.0) <= 1e-3


def test_sweep_rejects_unreliable_nu_I0():
    with pytest.raises(DomainError):
        splitting_sweep([15.0], epsilon=1e-3)


def _per_fiber_sheet(params, seeds, u_levels, u_seed=-3.0):
    """Oracle: one scipy DOP853 run per fiber, brentq on its dense output.

    Each fiber is scanned on its own steps subdivided 4x; a level takes the
    first crossing of q = q_h(u) whose sign of p selects the branch.
    """
    u_levels = sorted(u_levels)
    t_end = abs(u_seed) + u_levels[-1] + 1.5
    rhs = mcgehee_rhs(params)
    store = {su: [] for u in u_levels for su in (u, -u)}
    for y0 in seeds:
        res = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=1e-12,
                        atol=1e-12, dense_output=True)
        ts = np.concatenate([np.linspace(res.t[i], res.t[i + 1], 5)[:-1]
                             for i in range(len(res.t) - 1)] + [res.t[-1:]])
        qs = res.sol(ts)[0]
        for u in u_levels:
            q_t = float(q_h(u))
            g = qs - q_t
            for signed_u, want in ((-u, -1), (u, +1)):
                for j in np.nonzero(g[:-1] * g[1:] < 0)[0]:
                    t_hit = brentq(lambda t: res.sol(t)[0] - q_t, ts[j], ts[j + 1],
                                   xtol=1e-14, rtol=8.9e-16, maxiter=200)
                    state = res.sol(t_hit)
                    if state[1] * want > 0:
                        store[signed_u].append((y0[2], state))
                        break
    levels = {}
    for su, recs in store.items():
        assert len(recs) == len(seeds)
        states = np.array([st for _, st in recs]).T
        levels[su] = SheetLevel(
            u=su, theta0=np.array([th for th, _ in recs]), theta=states[2],
            P=states[1] * float(p_h(su)), J=states[3],
            energy_defect=np.abs(hamiltonian_mcgehee(states, params) - params.energy))
    return Sheet(params, levels)


@pytest.mark.parametrize("nu_I0", [4.3, 9.8])
def test_batched_sheet_matches_per_fiber_oracle(nu_I0):
    params = params_for_nu_I0(nu_I0, epsilon=1e-3)
    graph = solve_hj_unstable(params)
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    seeds = unstable_initial_conditions(graph, -3.0, thetas)
    batched = unstable_sheet(params, [1.0], graph=graph)
    oracle = _per_fiber_sheet(params, seeds, [1.0])
    for u in (1.0, -1.0):
        a, b = batched.level(u), oracle.level(u)
        assert np.array_equal(a.theta0, b.theta0)
        for name in ("theta", "P", "J"):
            assert np.max(np.abs(getattr(a, name) - getattr(b, name))) <= 1e-8
    amp = measure_splitting(batched, stable_sheet_from_unstable(batched), 1.0, 1).amp_J
    ref = measure_splitting(oracle, stable_sheet_from_unstable(oracle), 1.0, 1).amp_J
    assert abs(amp - ref) <= 1e-4 * ref
    assert batched.noise_floor <= 2.0 * oracle.noise_floor


def test_sheet_counters(sheets):
    sheet, stable = sheets
    c = sheet.counters
    assert c.steps > 0 and c.rejected_steps >= 0
    # each of the 6 branches chooses its first step with 2 calls; every
    # attempted step takes 12 stage calls, and every step that holds a
    # crossing 3 more for its interpolant: at least one step per branch, at
    # most one per fiber and branch
    dense = c.rhs_calls - 2 * 6 - 12 * (c.steps + c.rejected_steps)
    assert dense % 3 == 0 and 6 <= dense // 3 <= min(c.steps, 6 * 64)
    assert 0.0 <= c.polish_residual <= 1e-12
    assert stable.counters.steps == 0


def test_sheet_coverage_gap_raises():
    # seeds at u = -3 run for time 3.0 and stop near u = 0: no fiber reaches
    # the falling branch at +1
    params = params_for_nu_I0(5.0, epsilon=0.0)
    g = solve_hj_unstable(params)
    seeds = unstable_initial_conditions(g, -3.0, np.array([0.0, 1.0]))
    with pytest.raises(SolveError, match="grid coverage gap") as err:
        _sample_sheet(params, seeds, 3.0, [(-1.0, +1), (1.0, -1)])
    assert err.value.kind == "timeout"


def test_sheet_budget_counts_from_the_seed():
    # separatrix fibers at u = -3 and -1.6 reach the rising branch at -1.5
    # after 1.5 and 0.1, and the falling one at +1 2.5 later; with a budget
    # of 3.5 from the seed only the second arrives, though the restart from
    # -1.5 runs until 3.4
    params = params_for_nu_I0(5.0, epsilon=0.0)
    u0 = np.array([-3.0, -1.6])
    seeds = np.array([q_h(u0), p_h(u0), np.zeros(2), np.zeros(2)]).T
    with pytest.raises(SolveError, match=r"u=1.0: 1/2 fibers arrived \(lane 0: timeout\)") as err:
        _sample_sheet(params, seeds, 3.5, [(-1.5, +1), (1.0, -1)])
    assert err.value.kind == "timeout"
    sheet = _sample_sheet(params, seeds, 4.1, [(-1.5, +1), (1.0, -1)])
    assert np.allclose(sheet.level(1.0).P, p_h(1.0) ** 2, atol=1e-10)

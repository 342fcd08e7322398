import math
import tracemalloc

import numpy as np
import pytest

from hecu import inner
from hecu.fourier import ibp_tail, osc_integral
from hecu.inner import (
    DEFAULT_DEPTHS,
    InnerDifference,
    extract_fk,
    solve_inner,
    theta_v_constant,
)
from hecu.model import (
    CorrugationSeries,
    DomainError,
    ModelParams,
    PhysicalParams,
    SolveError,
    nu_from_physical,
    params_for_nu_I0,
)
from oracles import t2_weighted_bound

PHYS_PARAMS = params_for_nu_I0(6.0, epsilon=1.0)


def unit_r1_params(epsilon: float) -> ModelParams:
    phys = PhysicalParams(corrugation=CorrugationSeries((1.0,), ()))
    return ModelParams(physical=phys, I0=6.0 / nu_from_physical(phys.a, phys.alpha),
                       epsilon=epsilon)


@pytest.fixture(scope="module")
def solution():
    return solve_inner(PHYS_PARAMS, depth=12.0)


@pytest.fixture(scope="module")
def difference():
    return extract_fk(PHYS_PARAMS, ks=(1, 2))


def test_l_in_zero_series():
    # the first Picard iterate of the inner solve is the layer L+_in
    params = params_for_nu_I0(6.0, epsilon=0.0)
    field_ = solve_inner(params, depth=10.0).melnikov
    assert not field_.values.any()


def test_l_in_decay_exponent(solution):
    # |L+_in| <= K/|v|^2 along the line: fitted decay exponent 2 +- 0.05
    x = solution.x
    v = x - 1j * solution.depth
    L1 = solution.melnikov.values[1 + solution.melnikov.M]
    mask = (x < -30) & (x > -3000)
    slope = np.polyfit(np.log(np.abs(v[mask])), np.log(np.abs(L1[mask])), 1)[0]
    assert abs(-slope - 2.0) < 0.05


def test_inner_melnikov_difference_closed_form():
    # the difference L+_in - L-_in is e^{-ikv} times the contour-invariant
    # integral I_k = int s^-2 e^{iks} ds = -2 pi k (k >= 1); verify I_k on
    # lines deep enough to be representable and its contour invariance
    for depth in (1.0, 3.0):
        for k in (1, 2):
            T = 400.0
            f = lambda s: (s - 1j * depth) ** -2.0
            fp = lambda s: -2.0 * (s - 1j * depth) ** -3.0
            fpp = lambda s: 6.0 * (s - 1j * depth) ** -4.0
            main = osc_integral(f, k, -T, T)
            iw = 1j * k
            tlo = ibp_tail(f(-T), fp(-T), fpp(-T), k, -T)
            thi = -np.exp(1j * k * T) * (f(T) / iw - fp(T) / iw ** 2 + fpp(T) / iw ** 3)
            I = (main + tlo + thi) * np.exp(k * depth)
            assert abs(I - (-2.0 * math.pi * k)) / (2 * math.pi * k) < 1e-6
    # negative modes vanish
    k = -1
    depth = 1.0
    f = lambda s: (s - 1j * depth) ** -2.0
    fp = lambda s: -2.0 * (s - 1j * depth) ** -3.0
    fpp = lambda s: 6.0 * (s - 1j * depth) ** -4.0
    main = osc_integral(f, k, -400.0, 400.0)
    iw = 1j * k
    tlo = ibp_tail(f(-400.0), fp(-400.0), fpp(-400.0), k, -400.0)
    thi = -np.exp(1j * k * 400.0) * (f(400.0) / iw - fp(400.0) / iw ** 2
                                     + fpp(400.0) / iw ** 3)
    # absolute zero check; the floor is the neglected 4th IBP tail term
    assert abs(main + tlo + thi) < 5e-12


def test_solve_zero_series_gives_zero():
    params = params_for_nu_I0(6.0, epsilon=0.0)
    sol = solve_inner(params, depth=10.0)
    assert not sol.t1.values.any()
    assert sol.iterations == 1


def test_solve_requires_depth():
    with pytest.raises(DomainError):
        solve_inner(PHYS_PARAMS, depth=5.0)


def test_solve_raises_when_not_contracting():
    # eps = 100 at the shallowest depth puts the quadratic terms past contraction
    with pytest.raises(SolveError, match=r"ratio 1\.078 >= 0\.9") as err:
        solve_inner(params_for_nu_I0(6.0, epsilon=100.0), depth=8.0)
    assert err.value.kind == "non-contraction"


def test_solve_raises_when_iterations_run_out(monkeypatch):
    # the first residual is already below tol, but the stop rule asks for two
    # iterations or more
    monkeypatch.setattr(inner, "_MAX_ITER", 1)
    with pytest.raises(SolveError, match="within 1 iterations") as err:
        solve_inner(params_for_nu_I0(6.0, epsilon=1e-3), depth=12.0)
    assert err.value.kind == "non-convergence"


def test_residual_certified(solution):
    assert solution.residual <= 1e-12


def test_depths_share_a_line_and_its_weights():
    # the line depends on depth through max(4 depth, 40): 8 and 10 share one
    inner._solver_line.cache_clear()
    params = params_for_nu_I0(6.0, epsilon=1e-3)
    first = solve_inner(params, depth=8.0)
    second = solve_inner(params, depth=10.0)
    assert first.diagnostics["filon_tables_built"] > 0
    assert second.diagnostics["filon_tables_built"] == 0
    assert second.x is first.x
    other = solve_inner(params, depth=11.0)
    assert other.x is not first.x and len(other.x) > len(first.x)
    assert other.diagnostics["filon_tables_built"] > 0


def test_shared_weights_give_identical_solutions():
    # a table built by another depth and epsilon on the same line changes nothing
    params = params_for_nu_I0(6.0, epsilon=0.1)
    inner._solver_line.cache_clear()
    fresh = solve_inner(params, depth=10.0)
    inner._solver_line.cache_clear()
    solve_inner(PHYS_PARAMS, depth=8.0)
    shared = solve_inner(params, depth=10.0)
    assert fresh.diagnostics["filon_tables_built"] > 0
    assert shared.diagnostics["filon_tables_built"] == 0
    for a, b in ((shared.t1, fresh.t1), (shared.melnikov, fresh.melnikov)):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.du, b.du)
    assert shared.residual == fresh.residual


def test_solver_line_is_read_only(solution):
    with pytest.raises(ValueError):
        solution.x[0] = 0.0


def test_extract_fk_takes_given_solutions(solution, difference):
    given = extract_fk(PHYS_PARAMS, ks=(1, 2), solutions={12.0: solution})
    assert given.f == difference.f
    assert given.err == difference.err
    assert given.raw.keys() == difference.raw.keys()
    for k, vals in given.raw.items():
        assert np.array_equal(vals, difference.raw[k])
    assert given.low_mode_decay == difference.low_mode_decay
    # how many weight tables a call builds depends on what its lines held before
    diags = [{key: val for key, val in d.diagnostics.items() if key != "filon_tables_built"}
             for d in (given, difference)]
    assert diags[0] == diags[1]


def test_t2_bound_eps_independent():
    # floor-norm |v|^3-weighted T2 <= K1 Theta_V^2 with K1 stable in eps;
    # tight tol forces iterations past the Melnikov layer at small eps
    k1s = []
    for eps in (1e-3, 1e-2):
        sol = solve_inner(params_for_nu_I0(6.0, epsilon=eps), depth=12.0,
                          tol=1e-17)
        k1s.append(t2_weighted_bound(sol))
    assert k1s[0] > 0
    assert 0.5 <= k1s[1] / k1s[0] <= 2.0


def test_f1_matches_melnikov_leading_order(difference):
    # f_1 = -pi V_1 / 4 + O(Theta_V^2)
    lead = -math.pi * 0.03 / 4.0
    assert abs(difference.f1.real - lead) < 0.01 * abs(lead)
    assert difference.err[1] < 1e-6


def test_f1_is_real(difference):
    assert difference.f1.imag == 0.0  # exact on the imaginary axis
    assert difference.diagnostics["im_f1_offaxis_ratio"] <= 1e-3


def test_f2_reported_with_bound_scale_error(difference):
    # mode 2 is dominated by the f_1 mixing of the straightening change;
    # the error bar must reflect that
    assert difference.err[2] >= abs(difference.f[2] + math.pi * 2 * 0.004 / 4.0) / 10.0


def test_low_modes_decay(difference):
    for k, mags in difference.low_mode_decay.items():
        assert mags[-1] <= mags[0] + 1e-14


def test_mode_doubling_stability():
    d8 = extract_fk(PHYS_PARAMS, ks=(1,), depths=(10.0, 12.0), modes=8)
    d16 = extract_fk(PHYS_PARAMS, ks=(1,), depths=(10.0, 12.0), modes=16)
    assert abs(d16.f1 - d8.f1) / abs(d8.f1) < 1e-8


def test_unit_r1_constant():
    diff = extract_fk(unit_r1_params(1e-3), ks=(1,))
    ratio = diff.f1.real / (-math.pi / 8.0 * 1e-3)
    assert abs(ratio - 1.0) < 0.05


def test_paper_bound_structure():
    # |f_k + pi k V_k / 4| <= K Theta_V^2 e^{k kappa0} / kappa0^3 with K
    # fitted once and stable under halving eps
    kappa0 = min(DEFAULT_DEPTHS)
    Ks = []
    for eps in (1e-2, 5e-3):
        params = params_for_nu_I0(6.0, epsilon=eps)
        sol = solve_inner(params, depth=kappa0)
        theta2 = theta_v_constant(sol) ** 2
        diff = extract_fk(params, ks=(1, 2))
        worst = 0.0
        for k in (1, 2):
            vk = eps * params.physical.corrugation.fourier_coeff(k).real
            dev = abs(diff.f[k] + math.pi * k * vk / 4.0)
            bound_shape = theta2 * math.exp(k * kappa0) / kappa0 ** 3
            worst = max(worst, dev / bound_shape)
        Ks.append(worst)
    assert 0.2 <= Ks[1] / Ks[0] <= 5.0


def test_epsilon_scan_slope():
    # f_1(eps) = slope eps + quadratic eps^2 on a small-eps scan
    eps = np.array([1e-3, 2e-3, 4e-3])
    f1 = np.array([extract_fk(params_for_nu_I0(6.0, epsilon=e), ks=(1,)).f1.real for e in eps])
    A = np.column_stack([eps, eps ** 2])
    coef, *_ = np.linalg.lstsq(A, f1, rcond=None)
    slope = coef[0]
    assert slope != 0.0
    assert abs(slope - (-math.pi * 0.06 / 8.0)) < 0.05 * abs(slope)
    # Richardson consistency: quadratic model residual is tiny
    assert np.max(np.abs(f1 - A @ coef)) < 1e-8 * abs(slope)


def test_physical_f1_nonzero(difference):
    assert abs(difference.f1) > 100 * difference.err[1]


def test_f1_beyond_melnikov_scales_like_eps_squared():
    # the inner solve runs at least two Picard iterations, so T2 reaches f_1
    # at O(eps^2) instead of leaving the closed Melnikov part alone
    devs = []
    for eps in (1e-3, 2e-3):
        params = params_for_nu_I0(6.0, epsilon=eps)
        assert solve_inner(params, depth=12.0).iterations >= 2
        lead = -math.pi * eps * params.series.fourier_coeff(1).real / 4.0
        devs.append(extract_fk(params, ks=(1,)).f1.real - lead)
    assert devs[0] != 0.0
    assert 3.6 <= devs[1] / devs[0] <= 4.4


@pytest.mark.parametrize("eps", [1e-3, 1.0])
def test_inner_solve_allocates_little_beyond_its_output(eps):
    # T1 (values and du) and L+_in, the same size, take 2 units of T1; the
    # primary on its band and the line's profiles take the rest (2.44 units
    # measured).  Building the primary on all 2M + 1 modes took 3.18, and one
    # more workspace-sized field for the source's held terms would take 0.5
    params = params_for_nu_I0(6.0, epsilon=eps)
    solve_inner(params, depth=16.0)     # grows the workspace and builds the line's weights
    tracemalloc.start()
    try:
        sol = solve_inner(params, depth=16.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * (sol.t1.values.nbytes + sol.t1.du.nbytes)

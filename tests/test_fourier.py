import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from hecu import fourier, inner, manifolds
from hecu.fourier import (
    ModeField,
    NonContractionError,
    _half_square,
    _moments,
    geometric_grid,
    hermite,
    ibp_tail,
    modes_to_values,
    osc_integral,
    picard_solve,
    powerlaw_tail,
    transport,
    transport_modes,
)
from hecu.inner import solve_inner
from hecu.manifolds import solve_hj_unstable
from hecu.model import params_for_nu_I0
from oracles import dtheta, interp_coeff, picard_solve_reference, square, table_transport


def kern(s):
    return (1.0 + s * s) ** -2.0


def kern_d1(s):
    return -4.0 * s * (1.0 + s * s) ** -3.0


def kern_d2(s):
    return (20.0 * s * s - 4.0) * (1.0 + s * s) ** -4.0


@pytest.mark.parametrize("omega", [1.0, 2.0, 3.0, 5.0, 8.0, 10.0])
def test_residue_identity(omega):
    # int e^{i w t} / (1+t^2)^2 dt = (pi/2) e^{-w} (1 + w)
    T = 300.0
    main = osc_integral(kern, omega, -T, T)
    tm = ibp_tail(kern(-T), kern_d1(-T), kern_d2(-T), omega, -T)
    # upper tail by t -> -t symmetry of the even real kernel
    tp = np.conj(tm)
    total = main + tp + tm
    exact = (np.pi / 2.0) * np.exp(-omega) * (1.0 + omega)
    assert abs(total - exact) / exact < 1e-9


def test_transport_against_panel_quadrature():
    omega = 5.0
    x = geometric_grid(-0.2, h0=0.005, near_span=10.0, x_far=-2e4)
    G = transport(x, kern(x), kern_d1(x), omega,
                  tail=ibp_tail(kern(x[0]), kern_d1(x[0]), kern_d2(x[0]), omega, x[0]))
    for u in (-3.0, -1.0, -0.2):
        j = int(np.argmin(np.abs(x - u)))
        ref = osc_integral(kern, omega, -4e4, x[j]) * np.exp(-1j * omega * x[j])
        assert abs(G[j] - ref) < 1e-11


def test_transport_zero_frequency():
    x = geometric_grid(0.0, h0=0.005, near_span=10.0, x_far=-2e4)
    G = transport(x, kern(x), kern_d1(x), 0.0,
                  tail=powerlaw_tail(kern(x[0]), x[0]))
    # int_{-inf}^0 (1+s^2)^-2 ds = pi/4
    assert G[-1].real == pytest.approx(np.pi / 4.0, abs=1e-10)
    assert abs(G[-1].imag) == 0.0


def test_transport_derivative_identity():
    # d/dx G = f - i w G, checked by finite differences of the transported values
    omega = 3.0
    x = geometric_grid(-0.5, h0=0.002, near_span=6.0, x_far=-1e4)
    f = kern(x)
    G = transport(x, f, kern_d1(x), omega,
                  tail=ibp_tail(kern(x[0]), kern_d1(x[0]), kern_d2(x[0]), omega, x[0]))
    j = len(x) - 200
    h = x[j + 1] - x[j]
    fd = (G[j + 1] - G[j - 1]) / (x[j + 1] - x[j - 1])
    ana = f[j] - 1j * omega * G[j]
    assert abs(fd - ana) < 5e-5 * max(1.0, abs(ana))


@pytest.mark.parametrize("k", [1, 3, 8])
def test_negative_mode_transport_by_conjugate_identity(k):
    # a mode k < 0 is moved by the weights of |k|: G_{-w}(f) = conj(G_w(conj f))
    x = geometric_grid(-0.2, h0=0.005, near_span=10.0, x_far=-2e4)
    c = (1.0 + 2.0j) * np.exp(0.3j * x)
    f, fp = c * kern(x), c * (kern_d1(x) + 0.3j * kern(x))
    freq, tail = 1.7, 0.25 - 0.5j
    table = {}
    got = table_transport(table, x, -k, freq, f, fp, tail)
    ref = transport(x, f, fp, -k * freq, tail)
    assert list(table) == [k]
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_mode_field_product_matches_pointwise():
    x = np.linspace(-1.0, 0.0, 11)
    M = 4
    rng = np.random.default_rng(1)

    def rand_field():
        f = ModeField(M, x)
        for k in range(-2, 3):
            f.values[k + M] = rng.normal(size=len(x)) + 1j * rng.normal(size=len(x))
        # make it real: c_{-k} = conj(c_k)
        for k in range(1, M + 1):
            f.values[-k + M] = np.conj(f.values[k + M])
        f.values[M] = f.values[M].real
        return f

    A, B = rand_field(), rand_field()
    C = A.mul(B)
    thetas = np.linspace(0, 2 * np.pi, 7)
    for j in (0, 5, 10):
        a = modes_to_values(A.values[:, j], thetas)
        b = modes_to_values(B.values[:, j], thetas)
        c = modes_to_values(C.values[:, j], thetas)
        assert np.allclose(c, a * b, atol=1e-12)


def test_mode_field_dtheta():
    x = np.linspace(-1.0, 0.0, 5)
    f = ModeField(3, x)
    f.values[2 + 3] = 1.0
    g = dtheta(f)
    assert np.allclose(g.coeff(2), 2j * np.ones(len(x)))


def test_modes_values_roundtrip():
    M = 5
    rng = np.random.default_rng(2)
    c = rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1)
    for k in range(1, M + 1):
        c[-k + M] = np.conj(c[k + M])
    c[M] = c[M].real
    thetas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    vals = modes_to_values(c, thetas)
    c2 = np.fft.fft(vals)[np.arange(-M, M + 1) % len(vals)] / len(vals)
    assert np.allclose(c, c2, atol=1e-12)


def test_hermite_kernel():
    x = np.linspace(-2.0, 0.0, 41)
    f = ModeField(1, x)
    f.values[1], f.du[1] = np.sin(x), np.cos(x)
    val, dval = hermite(x, f.values, f.du, -1.2345)
    # cubic Hermite on h = 0.05: value error O(h^4), slope error O(h^3)
    assert val.shape == dval.shape == (3,)
    assert val[1] == pytest.approx(np.sin(-1.2345), abs=5e-8)
    assert dval[1] == pytest.approx(np.cos(-1.2345), abs=1e-5)
    assert val[0] == val[2] == dval[0] == dval[2] == 0.0


@pytest.mark.parametrize("field", ["hj", "inner"])
def test_hermite_is_the_scalar_reference_bit_for_bit(field):
    # every mode at nodes, between nodes and past both ends of the grid,
    # one point at a time and all points in one call
    if field == "hj":
        f = solve_hj_unstable(params_for_nu_I0(6.0, epsilon=1e-3)).phi1
    else:
        f = solve_inner(params_for_nu_I0(6.0, epsilon=0.1), depth=12.0).t1
    x = f.x
    cells = np.arange(0, len(x) - 1, 7)
    frac = (0.618034 * np.arange(1, len(cells) + 1)) % 1.0
    us = np.concatenate([x[[0, 1, len(x) // 2, -2, -1]], x[cells] + frac * np.diff(x)[cells],
                         [x[0] - 1.5, x[-1] + 0.25, 0.0, 0.7, -0.7, -25.0]])
    batch = hermite(x, f.values, f.du, us)
    for i, u in enumerate(us):
        alone = hermite(x, f.values, f.du, u)
        for m, k in enumerate(f.ks):
            ref = interp_coeff(f, int(k), float(u))
            assert (batch[0][m, i], batch[1][m, i]) == ref, (field, int(k), float(u))
            assert (alone[0][m], alone[1][m]) == ref, (field, int(k), float(u))


def _series(field, j, thetas):
    """Complex values and x-derivatives of a mode field at grid node j."""
    phases = np.exp(1j * np.outer(thetas, field.ks))
    return phases @ field.values[:, j], phases @ field.du[:, j]


def _random_field(rng, M, x, band):
    f = ModeField(M, x)
    for k in range(-band, band + 1):
        f.values[k + M] = rng.normal(size=len(x)) + 1j * rng.normal(size=len(x))
        f.du[k + M] = rng.normal(size=len(x)) + 1j * rng.normal(size=len(x))
    return f


def test_products_match_pointwise_with_derivatives():
    # complex fields, nonzero du: the Leibniz path of mul and 2 a a' of square
    x = np.linspace(-1.0, 0.0, 9)
    rng = np.random.default_rng(4)
    A, B = _random_field(rng, 4, x, 2), _random_field(rng, 4, x, 2)
    thetas = np.linspace(0, 2 * np.pi, 11)
    for j in (0, 4, 8):
        a, da = _series(A, j, thetas)
        b, db = _series(B, j, thetas)
        c, dc = _series(A.mul(B), j, thetas)
        assert np.allclose(c, a * b, atol=1e-12)
        assert np.allclose(dc, da * b + a * db, atol=1e-12)
        s, ds = _series(square(A), j, thetas)
        assert np.allclose(s, a * a, atol=1e-12)
        assert np.allclose(ds, 2 * a * da, atol=1e-12)
    # a band-4 field squared into |k| <= 8 is exact; into |k| <= 4 truncated
    F = _random_field(rng, 4, x, 4)
    f, df = _series(F, 3, thetas)
    s, ds = _series(square(F, 8), 3, thetas)
    assert np.allclose(s, f * f, atol=1e-11)
    assert np.allclose(ds, 2 * f * df, atol=1e-11)
    T = square(F)
    assert T.M == 4
    assert np.allclose(T.values, square(F, 8).band(4).values, atol=1e-13)
    assert np.allclose(T.values, F.mul(F).values, atol=1e-13)
    assert np.allclose(T.du, F.mul(F).du, atol=1e-13)


def test_square_skips_zero_modes_exactly():
    x = np.linspace(-1.0, 0.0, 5)
    f = ModeField(8, x)
    f.values[2 + 8] = 1.0
    g = square(f)
    assert np.array_equal(np.flatnonzero(np.any(g.values != 0, axis=1)), [4 + 8])
    assert not square(ModeField(8, x)).values.any()


@pytest.mark.parametrize("B", [2, 4, 8])
@pytest.mark.parametrize("live", ["band", "one mode"])
def test_half_square_is_half_the_square_over_stale_storage(B, live):
    # the engine's in-place pair sums: the reference square's sums before its
    # final doubling, whatever the output arrays held before, also on the
    # modes no pair reaches
    x = np.linspace(-1.0, 0.0, 9)
    rng = np.random.default_rng(6)
    F = _random_field(rng, 4, x, 4)
    if live == "band":
        F.values[4] = F.du[4] = 0.0     # a zero mode inside the band is skipped
    else:
        F = ModeField(4, x, np.where(F.ks[:, None] == 1, F.values, 0.0),
                      np.where(F.ks[:, None] == 1, F.du, 0.0))
    out = _random_field(rng, B, x, B)
    _half_square(F, out, np.empty((3, len(x)), dtype=complex))
    ref = square(F, B)
    assert np.array_equal(2.0 * out.values, ref.values)
    assert np.array_equal(2.0 * out.du, ref.du)


def _moments_reference(z: complex) -> list[complex]:
    """int_0^1 s^j e^{zs} ds at 60 digits, by the forward recurrence."""
    if z == 0:
        return [1.0 / (j + 1) for j in range(4)]
    with mp.workdps(60):
        zz = mp.mpc(z.real, z.imag)
        m = [(mp.exp(zz) - 1) / zz]
        for j in range(1, 4):
            m.append((mp.exp(zz) - j * m[-1]) / zz)
        return [complex(v) for v in m]


def _moments_worst(zs) -> float:
    got = _moments(np.array(zs))
    worst = 0.0
    for i, z in enumerate(zs):
        ref = _moments_reference(complex(z))
        worst = max(worst, max(abs(got[j, i] - ref[j]) / abs(ref[j]) for j in range(4)))
    return worst


def test_moments_on_the_transport_axis():
    # the transport only asks for z = i omega h: both sides of the switches
    # at |z| = 0.8 (start of the backward recurrence) and 2.5 (forward)
    ys = [0.0, 1e-9, 1e-4, 0.05, 0.3, 0.6, 0.79, 0.7999999, 0.8, 0.8000001, 0.81,
          1.3, 2.0, 2.49, 2.4999999, 2.5, 2.51, 3.0, 4.0, 7.0, 40.0]
    assert _moments_worst([1j * y for y in ys] + [-1j * y for y in ys]) <= 1e-15


def test_moments_off_axis():
    rng = np.random.default_rng(5)
    angles = rng.uniform(0.0, 2 * np.pi, 24)
    inner = [r * np.exp(1j * a) for r in (0.01, 0.5, 0.79, 0.81, 1.7, 2.49) for a in angles]
    assert _moments_worst(inner) <= 1e-15
    # the forward recurrence loses a few bits where Re z < 0 just past the switch
    outer = [r * np.exp(1j * a) for r in (2.5, 3.0, 5.0) for a in angles]
    assert _moments_worst(outer) <= 3e-15


def _seed_transport(x, f, fp, omega, tail):
    """Per-mode Hermite-Filon transport with 25-term series moments."""
    h = np.diff(x)
    z = 1j * omega * h
    m = np.zeros((4, len(z)), dtype=complex)
    small = np.abs(z) < 0.8
    for j in range(4):
        term = np.ones(np.count_nonzero(small), dtype=complex) / (j + 1)
        acc = term.copy()
        for n in range(1, 26):
            term = term * z[small] * (j + n) / (n * (j + n + 1))
            acc += term
        m[j][small] = acc
    zb = z[~small]
    ez = np.exp(zb)
    mj = (ez - 1.0) / zb
    m[0][~small] = mj
    for j in range(1, 4):
        mj = (ez - j * mj) / zb
        m[j][~small] = mj
    m0, m1, m2, m3 = m
    cells = h * np.exp(1j * omega * x[:-1]) * (
        f[:-1] * (2 * m3 - 3 * m2 + m0) + h * fp[:-1] * (m3 - 2 * m2 + m1)
        + f[1:] * (3 * m2 - 2 * m3) + h * fp[1:] * (m3 - m2))
    return (tail + np.concatenate([[0.0], np.cumsum(cells)])) * np.exp(-1j * omega * x)


def _record(monkeypatch, module, engine) -> list:
    """Route module.picard_solve through `engine`; the list of its results.

    The reference engine's result is (step, first iterate); the solve gets
    the step.
    """
    calls = []

    def recorded(*args, **kwargs):
        calls.append(engine(*args, **kwargs))
        return calls[-1][0] if isinstance(calls[-1], tuple) else calls[-1]

    monkeypatch.setattr(module, "picard_solve", recorded)
    return calls


@pytest.mark.parametrize("solver", ["hj", "inner"])
def test_engine_first_iterate_matches_per_mode_transport(solver, monkeypatch):
    # the first Picard iterate is G(primary source), mode by mode: for the
    # graph the transport of the primary the solve was given, for the inner
    # solve its L+_in
    eps = 1e-3
    if solver == "hj":
        params = params_for_nu_I0(6.0, epsilon=eps)
        primaries = []

        def recorded(primary, *args):
            primaries.append(primary)
            return picard_solve(primary, *args)

        monkeypatch.setattr(manifolds, "picard_solve", recorded)
        graph = solve_hj_unstable(params)
        x, freq = graph.u, params.nu_I0
        first = ModeField(primaries[0].M, x)
        transport_modes(primaries[0], freq, {}, first)
        prof = -0.5 * eps * (1.0 + x ** 2) ** -2.0
        dprof = 2.0 * eps * x * (1.0 + x ** 2) ** -3.0
        vks = {k: params.series.fourier_coeff(k) for k in first.ks}
    else:
        params = params_for_nu_I0(6.0, epsilon=eps)
        sol = solve_inner(params, depth=12.0)
        x, first, freq = sol.x, sol.melnikov, 1.0
        v = x - 12.0j
        prof, dprof = 1.0 / (8.0 * v ** 2), -1.0 / (4.0 * v ** 3)
        vks = {k: eps * params.series.fourier_coeff(k) for k in first.ks}
    for k, vk in vks.items():
        if vk == 0:
            assert not first.coeff(k).any()
            continue
        f, fp = vk * prof, vk * dprof
        omega = k * freq
        tail = ibp_tail(f[0], fp[0], (fp[1] - fp[0]) / (x[1] - x[0]), omega, x[0])
        ref = _seed_transport(x, f, fp, omega, tail)
        got = first.coeff(k)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(first.du[k + first.M] - (f - 1j * omega * ref))) \
            <= 1e-13 * np.max(np.abs(f))


# the graph at three frequencies, and in 5 iterations at eps = 0.1; the inner
# solve in 3-4 iterations, and at eps = 0, where the zero source stops it at
# iteration 1
ENGINE_CASES = {
    "hj-4": (manifolds, lambda: solve_hj_unstable(params_for_nu_I0(4.0, epsilon=1e-3))),
    "hj-4-eps0.1": (manifolds, lambda: solve_hj_unstable(params_for_nu_I0(4.0, epsilon=0.1))),
    "hj-6": (manifolds, lambda: solve_hj_unstable(params_for_nu_I0(6.0, epsilon=1e-3))),
    "hj-9": (manifolds, lambda: solve_hj_unstable(params_for_nu_I0(9.0, epsilon=1e-3))),
    "inner-eps1": (inner, lambda: solve_inner(params_for_nu_I0(6.0, epsilon=1.0), depth=8.0)),
    "inner-eps0": (inner, lambda: solve_inner(params_for_nu_I0(6.0, epsilon=0.0), depth=8.0)),
}


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_matches_fresh_array_reference_bit_for_bit(case, monkeypatch):
    module, solve = ENGINE_CASES[case]
    runs = []
    for engine in (picard_solve, picard_solve_reference):
        calls = _record(monkeypatch, module, engine)
        runs.append((solve(), calls[0]))
    (sol, step), (_, (ref_step, ref_first)) = runs
    assert step.iteration == ref_step.iteration
    assert step.iteration == 1 if case == "inner-eps0" else step.iteration >= 2
    assert step.residual == ref_step.residual
    assert step.ratio == ref_step.ratio or (math.isnan(step.ratio)
                                            and math.isnan(ref_step.ratio))
    pairs = [(step.phi, ref_step.phi)]
    if module is inner:
        # L+_in, one transport of the primary, is the reference's first iterate
        pairs.append((sol.melnikov, ref_first))
    for got, ref in pairs:
        assert got.M == ref.M
        assert np.array_equal(got.values, ref.values)
        assert np.array_equal(got.du, ref.du)


FAILING_CASES = {
    "hj-ratio": (manifolds, lambda: solve_hj_unstable(params_for_nu_I0(1.0, epsilon=1.0))),
    "inner-ratio": (inner, lambda: solve_inner(params_for_nu_I0(6.0, epsilon=100.0),
                                               depth=8.0)),
    "hj-max-iter": (manifolds, lambda: solve_hj_unstable(params_for_nu_I0(4.0, epsilon=0.1))),
}


@pytest.mark.parametrize("case", sorted(FAILING_CASES))
def test_engine_fails_where_the_reference_fails(case, monkeypatch):
    # same iteration and ratio (or last residual) in the message
    module, solve = FAILING_CASES[case]
    if case == "hj-max-iter":
        monkeypatch.setattr(manifolds, "_HJ_MAX_ITER", 3)    # it converges at 5
    messages = []
    for engine in (picard_solve, picard_solve_reference):
        _record(monkeypatch, module, engine)
        with pytest.raises(NonContractionError) as err:
            solve()
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert ("within 3 iterations" if case == "hj-max-iter" else "ratio") in messages[0]


def test_engine_outputs_are_copies_of_the_workspace():
    params = params_for_nu_I0(6.0, epsilon=0.5)

    def arrays(sol):
        return [sol.t1.values, sol.t1.du, sol.melnikov.values, sol.melnikov.du]

    long_line = solve_inner(params, depth=16.0)
    kept = [a.copy() for a in arrays(long_line)]
    short_line = solve_inner(params, depth=8.0)
    graph = solve_hj_unstable(params_for_nu_I0(6.0, epsilon=1e-3))
    for a in arrays(long_line) + arrays(short_line) + [graph.phi1.values, graph.phi1.du]:
        assert not np.shares_memory(a, fourier._workspace)
    for a, b in zip(arrays(long_line), kept):
        assert np.array_equal(a, b)
    for a, b in zip(arrays(solve_inner(params, depth=16.0)), kept):
        assert np.array_equal(a, b)


def test_inner_solve_allocates_little_beyond_its_outputs():
    # T1 and L+_in (values and du) take 4 units of one mode field's values;
    # a solve that builds its iterates in fresh arrays takes about 16
    params = params_for_nu_I0(6.0, epsilon=0.5)
    solve_inner(params, depth=16.0)     # grows the workspace to the longest line
    solve_inner(params, depth=12.0)     # builds the Filon weights of this line
    tracemalloc.start()
    try:
        sol = solve_inner(params, depth=12.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.iterations == 3
    assert peak <= 8 * sol.t1.values.nbytes


def test_graph_solve_allocates_little_beyond_its_output():
    # Phi1 (values and du) is the graph's one field; the solve's own Filon
    # weights and transport rows take the rest.  A solve that also keeps a
    # copy of its first iterate takes about 3.85 units of Phi1
    params = params_for_nu_I0(6.0, epsilon=1e-3)
    solve_hj_unstable(params)       # grows the workspace to the graph's grid
    tracemalloc.start()
    try:
        graph = solve_hj_unstable(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * (graph.phi1.values.nbytes + graph.phi1.du.nbytes)

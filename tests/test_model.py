import math

import numpy as np
import pytest

from hecu.integrate import mcgehee_rhs
from hecu.model import (
    CorrugationSeries,
    DomainError,
    ModelParams,
    PhysicalParams,
    _averaging_primitives,
    averaged_remainder,
    averaged_remainder_sup,
    averaging_change,
    h0_mcgehee,
    hamiltonian_mcgehee,
    load_config,
    nu_from_physical,
    params_for_nu_I0,
)
from oracles import (
    Cartesian,
    b_form_matrix,
    from_mcgehee,
    hamiltonian_cartesian,
    reversor,
    time_rescale,
    to_mcgehee,
    vector_field_cartesian,
)

PHYS = PhysicalParams()
SERIES = CorrugationSeries()


def test_potential_at_zero():
    assert SERIES.trig(0.0)[0] == pytest.approx(0.068, abs=1e-15)


def test_potential_at_half_pi():
    # r1*cos(pi/2) + r2*cos(pi) = -r2
    assert SERIES.trig(math.pi / 2)[0] == pytest.approx(-0.008, abs=1e-15)


def test_potential_zero_series():
    zero = CorrugationSeries((0.0,), ())
    for theta in np.linspace(-7, 7, 13):
        assert zero.trig(theta)[0] == 0.0


def test_potential_array_matches_scalar():
    thetas = np.linspace(0, 2 * math.pi, 17)
    vals = SERIES.trig(thetas)[0]
    for th, v in zip(thetas, vals):
        assert v == pytest.approx(SERIES.trig(float(th))[0], abs=1e-15)


# order 5 with nonzero sin coefficients: every term of the recurrence is live
ODD5 = CorrugationSeries((0.05, -0.02, 0.01, 0.004, -0.003),
                         (0.03, 0.015, -0.008, 0.002, 0.001))


def _direct_sums(series, theta):
    """V and V' summed term by term with np.cos(n theta), np.sin(n theta)."""
    theta = np.asarray(theta, dtype=float)
    v = np.zeros_like(theta)
    vp = np.zeros_like(theta)
    for n, (r, s) in enumerate(zip(series.cos_coeffs, series.sin_coeffs), start=1):
        v += r * np.cos(n * theta) + s * np.sin(n * theta)
        vp += n * (s * np.cos(n * theta) - r * np.sin(n * theta))
    return v, vp


@pytest.mark.parametrize("theta", [0.7, np.float64(-3.9), np.linspace(-7.0, 7.0, 41),
                                   np.linspace(0.0, 6.0, 12).reshape(3, 4)],
                         ids=["float", "float64", "array", "array2d"])
def test_trig_matches_direct_sums(theta):
    v, vp = ODD5.trig(theta)
    assert np.shape(v) == np.shape(theta) and np.shape(vp) == np.shape(theta)
    assert isinstance(v, float) == isinstance(theta, float)
    ref_v, ref_vp = _direct_sums(ODD5, theta)
    assert np.max(np.abs(v - ref_v)) <= 1e-14
    assert np.max(np.abs(vp - ref_vp)) <= 1e-14


def test_on_lanes_matches_direct_sums():
    # lanes at angles theta0 that share s: V(theta0 + s) for each lane
    theta0 = np.linspace(-5.0, 950.0, 13)
    corrugation = ODD5.on_lanes(theta0)
    for s in (0.0, 0.37, 812.5):
        v = corrugation(s)
        assert v.shape == theta0.shape
        assert np.max(np.abs(v - _direct_sums(ODD5, theta0 + s)[0])) <= 1e-12


def test_trig_slope_is_derivative():
    thetas = np.linspace(-4.0, 9.0, 57)
    h = 1e-6
    fd = (ODD5.trig(thetas + h)[0] - ODD5.trig(thetas - h)[0]) / (2 * h)
    assert np.allclose(ODD5.trig(thetas)[1], fd, rtol=0, atol=1e-9)


def test_averaging_primitive_differentiates_to_scaled_potential():
    params = params_for_nu_I0(20.0, epsilon=0.7, physical=PhysicalParams(corrugation=ODD5))
    scale = -params.epsilon / (2.0 * params.nu_I0)
    thetas = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    h = 1e-6
    fd = (_averaging_primitives(params, thetas + h)[0]
          - _averaging_primitives(params, thetas - h)[0]) / (2 * h)
    A, Ap = _averaging_primitives(params, thetas)
    target = scale * ODD5.trig(thetas)[0]
    assert np.allclose(fd, target, rtol=0, atol=1e-11)
    assert np.allclose(Ap, target, rtol=0, atol=1e-16)
    assert abs(np.mean(A)) < 1e-17      # the zero-mean primitive


def test_fourier_coeff_values():
    assert SERIES.fourier_coeff(1) == pytest.approx(0.03)
    assert SERIES.fourier_coeff(0) == 0.0
    assert SERIES.fourier_coeff(-2) == pytest.approx(0.004)
    assert SERIES.fourier_coeff(5) == 0.0


def test_fourier_coeff_reconstructs_potential():
    thetas = np.linspace(0, 2 * math.pi, 9, endpoint=False)
    for th in thetas:
        total = sum(
            SERIES.fourier_coeff(k) * np.exp(1j * k * th)
            for k in range(-3, 4)
        )
        assert total.imag == pytest.approx(0.0, abs=1e-15)
        assert total.real == pytest.approx(SERIES.trig(th)[0], abs=1e-14)


def test_fourier_coeff_odd_series():
    ser = CorrugationSeries((0.0,), (0.1,))
    assert ser.fourier_coeff(1) == pytest.approx(-0.05j)
    assert ser.fourier_coeff(-1) == pytest.approx(0.05j)


def test_nu_value_from_paper():
    nu = nu_from_physical(3.6, 1.05)
    assert nu == pytest.approx(11.051879175935, rel=1e-11)


def test_nu_normalization():
    a = 2.0
    alpha = 4.0 * math.pi / a
    assert nu_from_physical(a, alpha) == pytest.approx(1.0, rel=1e-14)


def test_nu_scaling_in_a():
    assert nu_from_physical(7.2, 1.05) == pytest.approx(
        nu_from_physical(3.6, 1.05) / 4.0, rel=1e-14)


def test_hamiltonian_cartesian_at_infinity():
    s = Cartesian(x=0.0, z=math.inf, p_x=0.0, p_z=0.0)
    assert hamiltonian_cartesian(s, PHYS) == 0.0


def test_hamiltonian_cartesian_at_wall():
    flat = PhysicalParams(corrugation=CorrugationSeries((0.0,), ()))
    s = Cartesian(x=0.0, z=0.0, p_x=0.0, p_z=0.0)
    assert hamiltonian_cartesian(s, flat) == pytest.approx(-PHYS.D)
    s2 = Cartesian(x=0.0, z=0.0, p_x=0.0, p_z=0.0)
    assert hamiltonian_cartesian(s2, PHYS) == pytest.approx(-PHYS.D + PHYS.D * 0.068)


@pytest.fixture(scope="module")
def params():
    return params_for_nu_I0(6.0)


def test_to_mcgehee_wall(params):
    s = Cartesian(x=0.0, z=0.0, p_x=0.0, p_z=0.0)
    m = to_mcgehee(s, params)
    assert m[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_to_mcgehee_infinity(params):
    s = Cartesian(x=1.0, z=math.inf, p_x=2.0, p_z=0.0)
    m = to_mcgehee(s, params)
    assert m[0] == 0.0 and m[1] == 0.0


def test_mcgehee_roundtrip(params):
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, z = rng.uniform(-5, 5), rng.uniform(-0.5, 8.0)
        px, pz = rng.uniform(-3, 3, 2)
        s = Cartesian(x, z, px, pz)
        m = to_mcgehee(s, params)
        back = from_mcgehee(m, params)
        assert back.z == pytest.approx(z, rel=1e-14, abs=1e-14)
        assert back.p_z == pytest.approx(pz, rel=1e-14, abs=1e-14)
        assert back.p_x == pytest.approx(px, rel=1e-14, abs=1e-14)


def test_from_mcgehee_rejects_negative_q(params):
    with pytest.raises(DomainError):
        from_mcgehee((-0.1, 0.0, 0.0, 0.0), params)


def test_hamiltonian_mcgehee_on_orbit_at_infinity(params):
    h = hamiltonian_mcgehee((0.0, 0.0, 1.3, 0.0), params)
    assert h == pytest.approx(params.nu * params.I0 ** 2 / 2.0, rel=1e-15)


def test_hamiltonian_mcgehee_q1(params):
    # at (1, 0, theta, 0) the -q^2/2 + q^4/2 terms cancel
    theta = 0.9
    h = hamiltonian_mcgehee((1.0, 0.0, theta, 0.0), params)
    expect = params.energy + 0.5 * SERIES.trig(theta)[0]
    assert h == pytest.approx(expect, rel=1e-14)


def test_h1_proportional_to_epsilon(params):
    p0 = ModelParams(params.physical, params.I0, epsilon=0.0)
    state = (0.8, 0.3, 2.2, 0.05)
    assert hamiltonian_mcgehee(state, p0) == pytest.approx(
        h0_mcgehee(0.8, 0.3, 0.05, p0), rel=1e-15)


def test_energy_exactness_rescaling(params):
    # H(mcgehee state) == H_CM(cartesian state) / (8 D) for random states
    rng = np.random.default_rng(11)
    for _ in range(1000):
        q = rng.uniform(0.01, 1.2)
        p = rng.uniform(-1.5, 1.5)
        theta = rng.uniform(0, 2 * math.pi)
        J = rng.uniform(-0.3, 0.3)
        m = (q, p, theta, J)
        c = from_mcgehee(m, params)
        h_resc = hamiltonian_mcgehee(m, params)
        h_cart = hamiltonian_cartesian(c, PHYS)
        assert h_resc == pytest.approx(h_cart / (8.0 * PHYS.D), rel=1e-12, abs=1e-13)


def test_q_axis_invariant(params):
    f = mcgehee_rhs(params)(0.0, (0.0, 0.7, 1.0, 0.2))
    assert f[0] == 0.0 and f[1] == 0.0 and f[3] == 0.0
    assert f[2] == pytest.approx(params.nu * (params.I0 + 0.2))


def test_field_at_critical_angle(params):
    # V'(theta)=0 at theta=0; p' = 1 + 2 eps V(0) at (1, 0)
    f = mcgehee_rhs(params)(0.0, (1.0, 0.0, 0.0, 0.0))
    assert f[1] == pytest.approx(1.0 + 2.0 * params.epsilon * 0.068, rel=1e-14)
    assert f[3] == pytest.approx(0.0, abs=1e-16)


def test_reversibility_anticommutes(params):
    rng = np.random.default_rng(3)
    for _ in range(50):
        y = np.array([rng.uniform(0, 1.2), rng.uniform(-1, 1),
                      rng.uniform(0, 2 * math.pi), rng.uniform(-0.3, 0.3)])
        f_at_sy = mcgehee_rhs(params)(0.0, reversor(y))
        sf = np.array([f_at_sy[0], -f_at_sy[1], -f_at_sy[2], f_at_sy[3]])
        f = mcgehee_rhs(params)(0.0, y)
        assert np.allclose(sf, -f, rtol=0, atol=1e-15)


def test_cartesian_field_flat_surface():
    flat = PhysicalParams(corrugation=CorrugationSeries((0.0,), ()))
    f = vector_field_cartesian((0.3, 1.0, 0.5, -0.2), flat)
    assert f[2] == 0.0


def test_cartesian_field_decays_with_height():
    f = vector_field_cartesian((0.3, 40.0, 0.5, -0.2), PHYS)
    assert abs(f[3]) < 1e-17


def test_cartesian_pushforward_matches_rescaled_field(params):
    # d/dt_phys of the McGehee coordinates along the Cartesian flow equals
    # time_rescale * (rescaled field), checked by finite differences
    rng = np.random.default_rng(5)
    lam = time_rescale(PHYS)
    for _ in range(25):
        q = rng.uniform(0.1, 1.0)
        p = rng.uniform(-1.0, 1.0)
        theta = rng.uniform(0, 2 * math.pi)
        J = rng.uniform(-0.2, 0.2)
        m = np.array([q, p, theta, J])
        c = from_mcgehee(m, params)
        dt = 1e-6
        fc = vector_field_cartesian(c, PHYS)
        plus = Cartesian(c.x + dt * fc[0], c.z + dt * fc[1],
                              c.p_x + dt * fc[2], c.p_z + dt * fc[3])
        minus = Cartesian(c.x - dt * fc[0], c.z - dt * fc[1],
                               c.p_x - dt * fc[2], c.p_z - dt * fc[3])
        pushed = (to_mcgehee(plus, params) - to_mcgehee(minus, params)) / (2 * dt)
        expect = lam * mcgehee_rhs(params)(0.0, m)
        assert np.allclose(pushed, expect, rtol=1e-6, atol=1e-10)


def test_averaging_identity_at_q0(params):
    old, h = averaging_change((0.0, 0.4, 1.1, 0.2), params)
    assert np.allclose(old, [0.0, 0.4, 1.1, 0.2])


def test_averaging_remainder_halves(params):
    sup1 = averaged_remainder_sup(params_for_nu_I0(20.0))
    sup2 = averaged_remainder_sup(params_for_nu_I0(40.0))
    ratio = sup2 / sup1
    assert 0.45 <= ratio <= 0.55


def test_averaged_remainder_sup_matches_scalar_loop():
    # the one array evaluation against the point-by-point loop it replaced
    params = params_for_nu_I0(20.0)
    ref = max(abs(averaged_remainder((Q, P, Th, K), params))
              for Q in np.linspace(0.0, 1.0, 9)
              for P in np.linspace(-1.0, 1.0, 9)
              for K in np.linspace(-0.5, 0.5, 5)
              for Th in np.linspace(0.0, 2 * math.pi, 24, endpoint=False))
    assert averaged_remainder_sup(params) == pytest.approx(ref, rel=1e-12)


def test_averaging_preserves_b_form(params):
    # finite-difference Jacobian of (Q,P,Theta,K) -> (q,p,theta,J) preserves
    # the b-symplectic 2-form
    y0 = np.array([0.7, 0.2, 1.3, 0.1])
    h = 1e-6
    M = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        plus, _ = averaging_change(y0 + e, params)
        minus, _ = averaging_change(y0 - e, params)
        M[:, j] = (plus - minus) / (2 * h)
    old, _ = averaging_change(y0, params)
    O_new = b_form_matrix(y0[0])
    O_old = b_form_matrix(old[0])
    defect = M.T @ O_old @ M - O_new
    assert np.max(np.abs(defect)) < 1e-10


def test_corrugation_decay_bound():
    # finite series: coefficients beyond the truncation vanish identically
    for k in range(3, 12):
        assert SERIES.fourier_coeff(k) == 0.0


def test_load_config(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(
        "[physical]\nD = 6.35\na = 3.6\nalpha = 1.05\nm = 4.002602\n"
        "r = 0.06,0.008\n"
    )
    physical = load_config(cfg)
    assert isinstance(physical, PhysicalParams)
    assert physical == PhysicalParams()
    assert physical.corrugation.cos_coeffs[:2] == (0.06, 0.008)
    # nu follows from the surface
    params = params_for_nu_I0(6.0, physical=physical)
    assert params.nu == pytest.approx(11.051879175935, rel=1e-11)


def test_load_config_missing(tmp_path):
    with pytest.raises(DomainError):
        load_config(tmp_path / "absent.cfg")

import math

import numpy as np
import pytest

from hecu.integrate import IntegratorConfig, integrate_mcgehee
from hecu.model import CorrugationSeries, DomainError, params_for_nu_I0
from hecu.separatrix import (
    dphi0,
    melnikov_coeff_closed,
    melnikov_coeff_quadrature,
    p_h,
    q_h,
)
from oracles import l_out_minus, l_out_plus, melnikov_dtheta, melnikov_potential, phi0

SERIES = CorrugationSeries()


def test_separatrix_at_zero():
    assert q_h(0.0) == 1.0
    assert p_h(0.0) == 0.0


def test_separatrix_at_one():
    assert q_h(1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert p_h(1.0) == pytest.approx(0.5, rel=1e-15)


def test_separatrix_identities():
    us = np.linspace(-10, 10, 101)
    assert np.allclose(p_h(us), us / (1 + us ** 2), atol=1e-15)
    assert np.allclose(q_h(us) ** 2 * (1 + us ** 2), 1.0, atol=1e-14)


def test_flow_equivariance():
    # integrating the uncorrugated field from Gamma0(u, theta) = (q_h(u),
    # p_h(u), theta, 0) for time t lands on Gamma0(u + t, theta + nu I0 t)
    params = params_for_nu_I0(5.0, epsilon=0.0)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)

    def gamma0(u, theta):
        return np.array([float(q_h(u)), float(p_h(u)), theta, 0.0])

    for u0, th0, t in [(-2.0, 0.3, 1.7), (0.5, 4.0, 2.2), (-1.0, 1.0, 0.4)]:
        traj = integrate_mcgehee(params, gamma0(u0, th0), (0.0, t), cfg)
        target = gamma0(u0 + t, th0 + params.nu_I0 * t)
        end = traj.y1
        end[2] = math.fmod(end[2], 2 * math.pi)
        target[2] = math.fmod(target[2], 2 * math.pi)
        assert np.max(np.abs(end - target)) < 1e-10


def test_phi0_values():
    assert phi0(0.0) == 0.0
    assert phi0(1.0) == pytest.approx(-0.25 + math.pi / 8.0, rel=1e-14)
    assert phi0(1e8) == pytest.approx(math.pi / 4.0, rel=1e-7)


def test_phi0_derivative_is_ph_squared():
    us = np.linspace(-3, 3, 25)
    h = 1e-6
    fd = (phi0(us + h) - phi0(us - h)) / (2 * h)
    assert np.allclose(fd, dphi0(us), atol=1e-10)


def test_phi0_solves_unperturbed_hj():
    # H0(u, dPhi0, J=0) = nu I0^2 / 2 exactly on the separatrix graph
    params = params_for_nu_I0(6.0)
    rng = np.random.default_rng(4)
    for u in rng.uniform(-8, 8, 100):
        if abs(u) < 1e-3:
            continue
        P = float(dphi0(u))
        residual = (0.5 * (params.nu * params.I0 ** 2
                           + (1 + u ** 2) ** 2 / u ** 2 * P ** 2)
                    - 0.5 * u ** 2 / (1 + u ** 2) ** 2
                    - 0.5 * params.nu * params.I0 ** 2)
        assert abs(residual) < 1e-12


def test_melnikov_closed_k0_zero():
    assert melnikov_coeff_closed(0, 5.0, SERIES) == 0.0


def test_melnikov_closed_example():
    c = melnikov_coeff_closed(1, 5.0, SERIES)
    # formula value; the quoted magnitude is good to ~4 digits
    exact = -(math.pi * 5.0 * 0.03 / 4.0) * math.exp(-5.0) * (1.0 + 0.2)
    assert c.real == pytest.approx(exact, rel=1e-15)
    assert c.real == pytest.approx(-9.52529e-4, rel=1e-4)
    assert c.imag == 0.0


def test_melnikov_closed_evenness():
    for k in (1, 2):
        cp = melnikov_coeff_closed(k, 4.0, SERIES)
        cm = melnikov_coeff_closed(-k, 4.0, SERIES)
        assert cp == cm


def test_quadrature_k0_is_zero():
    # V_0 = 0, so L_0 = 0 with no kernel integral; as for the closed form,
    # nu I0 must be positive, so the kernel never runs at frequency 0
    ser = CorrugationSeries((2.0,), ())
    assert melnikov_coeff_quadrature(0, 3.0, ser) == 0.0
    with pytest.raises(DomainError, match="positive"):
        melnikov_coeff_quadrature(1, 0.0, ser)


def test_quadrature_matches_closed_form():
    for k in (1, 2):
        for nu_I0 in (3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
            closed = melnikov_coeff_closed(k, nu_I0, SERIES)
            quad = melnikov_coeff_quadrature(k, nu_I0, SERIES)
            assert abs(quad - closed) / abs(closed) < 1e-8


def test_melnikov_zeros_near_characteristics():
    # d_theta L vanishes within |L2/L1| of theta - nu I0 u = 0, pi
    nu_I0 = 5.0
    u = 0.3
    l1 = abs(melnikov_coeff_closed(1, nu_I0, SERIES))
    l2 = abs(melnikov_coeff_closed(2, nu_I0, SERIES))
    from scipy.optimize import brentq

    def g(th):
        return melnikov_dtheta(u, th, nu_I0, SERIES)

    base = nu_I0 * u % (2 * math.pi)
    for target in (base, base + math.pi):
        root = brentq(g, target - 0.5, target + 0.5)
        assert abs(root - target) <= 2.0 * l2 / l1 + 1e-12


def test_l_out_plus_vanishes_at_minus_infinity():
    val = l_out_plus(-400.0, 1.0, 4.0, SERIES)
    assert abs(val) < 1e-7


def test_l_out_difference_is_melnikov():
    u, theta, nu_I0 = 0.3, 1.0, 4.0
    lhs = l_out_plus(u, theta, nu_I0, SERIES) - l_out_minus(u, theta, nu_I0, SERIES)
    rhs = melnikov_potential(u, theta, nu_I0, SERIES)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_l_out_plus_zero_mean():
    thetas = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    vals = l_out_plus(0.5, thetas, 4.0, SERIES)
    assert abs(np.mean(vals)) < 1e-10

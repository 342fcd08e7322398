"""Unperturbed separatrix and the coefficients of the Melnikov potential.

The homoclinic loop of the uncorrugated system through (q, p) = (1, 0) is

    q_h(t) = 1/sqrt(1+t^2),     p_h(t) = t/(1+t^2),

with generating-function slope dphi0/du = p_h^2, and the corrugation
couples to it through the Melnikov potential

    L(u, theta) = sum_k L_k(nu I0) e^{i k (theta - nu I0 u)},
    L_k = -(pi nu I0 V_k / 4) e^{-|k| nu I0} (|k| + 1/(nu I0)).

The closed form of L_k is the default everywhere; the quadrature path exists
solely as an independent oracle (per-period Gauss-Legendre panels with
integration-by-parts tails, so the e^{-|k| nu I0} smallness is resolved to
near machine absolute accuracy).
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import osc_integral
from .model import CorrugationSeries, DomainError, SolveError

# Quadrature window: beyond |t| = T the tail is handled by three
# integrations by parts, residual O(T^-7 / omega^4).
_QUAD_T = 300.0


def q_h(u):
    return 1.0 / np.sqrt(1.0 + np.asarray(u, dtype=float) ** 2)


def p_h(u):
    u = np.asarray(u, dtype=float)
    return u / (1.0 + u ** 2)


def dphi0(u):
    """Slope of the separatrix generating function: p_h(u)^2."""
    return p_h(u) ** 2


# kernel q_h^4 and derivatives, used by the quadrature tails
def _kern(t):
    return (1.0 + t * t) ** -2.0


def _kern_d1(t):
    return -4.0 * t * (1.0 + t * t) ** -3.0


def _kern_d2(t):
    return (20.0 * t * t - 4.0) * (1.0 + t * t) ** -4.0


def _kernel_integral(omega: float) -> complex:
    """int_{-inf}^{inf} q_h^4(t) e^{i omega t} dt by panels plus IBP tails; omega != 0."""
    if omega < 0:
        return np.conj(_kernel_integral(-omega))
    T = _QUAD_T
    main = osc_integral(_kern, omega, -T, T)
    iw = 1j * omega
    tail_pos = np.exp(1j * omega * T) * (-_kern(T) / iw + _kern_d1(T) / iw ** 2
                                         - _kern_d2(T) / iw ** 3)
    return main + tail_pos + np.conj(tail_pos)


def melnikov_coeff_closed(k: int, nu_I0: float,
                          series: CorrugationSeries) -> complex:
    """Residue closed form of the Melnikov coefficient L_k."""
    if nu_I0 <= 0:
        raise DomainError("nu_I0 must be positive")
    vk = series.fourier_coeff(k)
    if k == 0 or vk == 0:
        return 0.0 + 0.0j
    return -(math.pi * nu_I0 * vk / 4.0) * math.exp(-abs(k) * nu_I0) * (abs(k) + 1.0 / nu_I0)


def melnikov_coeff_quadrature(k: int, nu_I0: float,
                              series: CorrugationSeries) -> complex:
    """Independent oracle: L_k = -(V_k/2) int q_h^4(t) e^{i k nu I0 t} dt."""
    if nu_I0 <= 0:
        raise DomainError("nu_I0 must be positive")
    vk = series.fourier_coeff(k)
    if vk == 0:
        return 0.0 + 0.0j
    val = complex(-0.5 * vk * _kernel_integral(k * nu_I0))
    if not np.isfinite(val):
        raise SolveError("non-convergence", f"quadrature failed for k={k}, nu_I0={nu_I0}: {val}")
    return val

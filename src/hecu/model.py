"""Scattering model: corrugation, parameters, the rescaled Hamiltonian, averaging.

Everything downstream consumes this module.  The dynamics run in the
dimensionless rescaled system (regularized height q with q^2 ~ e^{-alpha z},
angle theta, action offset J); the laboratory parameters are in user units
(energy meV, length angstrom, mass amu), and B and C carry momenta between
the two.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

class DomainError(ValueError):
    """Raised when an input lies outside an operation's domain."""


# every way a solve can fail; README.md says where each one arises
FAILURE_KINDS = ("non-contraction", "non-convergence", "escape", "timeout", "underflow",
                 "polish", "geometry", "unresolved", "shadowing", "below-noise", "root-count")


class SolveError(RuntimeError):
    """A solve that failed in a classified way; `kind` is one of FAILURE_KINDS.

    `lane` is the integration lane at fault in a step underflow, else None."""

    def __init__(self, kind: str, message: str, lane: int | None = None):
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        super().__init__(message)
        self.kind = kind
        self.lane = lane


@dataclass(frozen=True)
class CorrugationSeries:
    """Finite trigonometric corrugation profile.

    V(theta) = sum_{n>=1} r_n cos(n theta) + s_n sin(n theta).

    The complex Fourier convention is fixed so that V^[k] = r_|k|/2 for an
    even series (all s_n = 0).  V has zero average by construction.  The
    default is the experimentally fitted He-Cu profile r1 = 0.06, r2 = 0.008.
    """

    cos_coeffs: tuple[float, ...] = (0.06, 0.008)
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        cos_c = tuple(float(c) for c in self.cos_coeffs)
        n = max(len(cos_c), len(self.sin_coeffs), 1)
        sin_c = tuple(float(c) for c in self.sin_coeffs) + (0.0,) * (n - len(self.sin_coeffs))
        cos_c = cos_c + (0.0,) * (n - len(cos_c))
        object.__setattr__(self, "cos_coeffs", cos_c)
        object.__setattr__(self, "sin_coeffs", sin_c)
        # (n, r_n, s_n) for n >= 2: the terms the recurrence of `trig` steps through
        object.__setattr__(self, "_higher", tuple(zip(range(2, n + 1), cos_c[1:], sin_c[1:])))
        if not all(math.isfinite(c) for c in cos_c + sin_c):
            raise DomainError("corrugation coefficients must be finite")

    @property
    def order(self) -> int:
        return len(self.cos_coeffs)

    def trig(self, theta):
        """(V(theta), V'(theta)) with one cos and one sin per call.

        cos(n theta) and sin(n theta) come from the multiple-angle
        recurrence.  A Python float (np.float64 included) takes math.cos and
        math.sin; an array of any shape takes np.cos and np.sin.
        """
        if isinstance(theta, float):
            c1, s1 = math.cos(theta), math.sin(theta)
        else:
            theta = np.asarray(theta, dtype=float)
            c1, s1 = np.cos(theta), np.sin(theta)
        r, s = self.cos_coeffs[0], self.sin_coeffs[0]
        v = r * c1 + s * s1
        vp = s * c1 - r * s1
        cn, sn = c1, s1
        for n, r, s in self._higher:
            cn, sn = cn * c1 - sn * s1, sn * c1 + cn * s1
            v = v + (r * cn + s * sn)
            vp = vp + n * (s * cn - r * sn)
        return v, vp

    def on_lanes(self, theta0: np.ndarray):
        """V(theta0 + s) for lanes with angles theta0 that share s: a function of s.

        V(theta) = Re sum_n (r_n - i s_n) e^{i n theta}.  The phases
        e^{i n theta0} of the lanes are taken once, so a call is one product
        of that (N, order) table with e^{i n s}, where `trig` would run its
        recurrence on N angles.
        """
        n = np.arange(1, self.order + 1)
        table = (np.exp(1j * np.multiply.outer(theta0, n))
                 * (np.array(self.cos_coeffs) - 1j * np.array(self.sin_coeffs)))
        jn = 1j * n

        def value(s):
            return (table @ np.exp(jn * s)).real

        return value

    def fourier_coeff(self, k: int) -> complex:
        """Complex coefficient V^[k] of e^{i k theta}; zero for k=0 or |k| > order."""
        k = int(k)
        if k == 0 or abs(k) > self.order:
            return 0.0 + 0.0j
        r = self.cos_coeffs[abs(k) - 1]
        s = self.sin_coeffs[abs(k) - 1]
        if k > 0:
            return complex(r / 2.0, -s / 2.0)
        return complex(r / 2.0, s / 2.0)


@dataclass(frozen=True)
class PhysicalParams:
    """Surface/projectile parameters in laboratory units.

    The defaults are the experimentally fitted He-Cu surface and the He mass.
    """

    D: float = 6.35             # well depth, meV
    a: float = 3.6              # lattice period, angstrom
    alpha: float = 1.05         # Morse range, 1/angstrom
    m: float = 4.002602         # He mass, amu
    corrugation: CorrugationSeries = field(default_factory=CorrugationSeries)

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.D, self.a, self.alpha, self.m)):
            raise DomainError("D, a, alpha, m must all be positive and finite")
        # Real surfaces sit well inside [0.1, 100] (the fitted one has 3.78).  Far
        # out the HJ solve stops contracting (a alpha ~ 1e-3), the splitting sinks
        # into its noise floor (~1e5) and the energy overflows (~1e100).
        if not 0.1 <= self.a * self.alpha <= 100.0:
            raise DomainError(f"a alpha = {self.a * self.alpha:g} lies outside [0.1, 100]")

    # Transform constants between Cartesian and regularized variables.
    @property
    def C(self) -> float:
        return math.sqrt(2.0 * self.m * self.D) * (8.0 * math.pi / (self.a * self.alpha))

    @property
    def B(self) -> float:
        return self.a * self.alpha * self.C / (4.0 * math.pi)


def nu_from_physical(a: float, alpha: float) -> float:
    """Frequency-squared parameter nu = (4 pi / (a alpha))^2."""
    if a <= 0 or alpha <= 0:
        raise DomainError("a and alpha must be positive")
    return (4.0 * math.pi / (a * alpha)) ** 2


@dataclass(frozen=True)
class ModelParams:
    """All model parameters for the rescaled dynamics.

    The surface fixes nu = (4 pi / (a alpha))^2; epsilon multiplies the
    corrugation part H1 of the Hamiltonian (epsilon = 1 is the physical
    corrugation).
    """

    physical: PhysicalParams
    I0: float
    epsilon: float = 1.0

    def __post_init__(self):
        if not self.I0 > 0:
            raise DomainError("I0 must be positive")

    @property
    def nu(self) -> float:
        return nu_from_physical(self.physical.a, self.physical.alpha)

    @property
    def nu_I0(self) -> float:
        return self.nu * self.I0

    @property
    def series(self) -> CorrugationSeries:
        return self.physical.corrugation

    @property
    def energy(self) -> float:
        """Energy level nu I0^2 / 2 of the orbit at infinity."""
        return 0.5 * self.nu * self.I0 ** 2


def params_for_nu_I0(nu_I0: float, epsilon: float = 1.0,
                     physical: PhysicalParams | None = None) -> ModelParams:
    """ModelParams at a prescribed value of the product nu*I0 (on the default
    surface unless `physical` is given)."""
    phys = physical if physical is not None else PhysicalParams()
    return ModelParams(phys, nu_I0 / nu_from_physical(phys.a, phys.alpha), epsilon)


# ---------------------------------------------------------------------------
# the rescaled Hamiltonian
# ---------------------------------------------------------------------------

def hamiltonian_mcgehee(s, params: ModelParams) -> float:
    """Rescaled Hamiltonian H = H0 + H1 in (q, p, theta, J)."""
    q, p, theta, J = s
    return h0_mcgehee(q, p, J, params) + h1_mcgehee(q, theta, params)


def h0_mcgehee(q, p, J, params: ModelParams):
    I = params.I0 + J
    return 0.5 * (params.nu * I * I + p * p) - 0.5 * q * q + 0.5 * q ** 4


def h1_mcgehee(q, theta, params: ModelParams):
    return 0.5 * params.epsilon * q ** 4 * params.series.trig(theta)[0]


# ---------------------------------------------------------------------------
# averaging step
# ---------------------------------------------------------------------------
#
# One step of averaging removes the theta-dependent q^4 term at leading order.
# With A the zero-mean primitive of -eps*V/(2 nu I0) the change
#     theta = Theta, q = Q, J = K + A'(Theta) Q^4, p = P - 4 A(Theta) Q^4
# preserves the b-symplectic form (the p-correction sign is forced by
# d theta ^ dJ picking up 4 A' Q^3 dTheta ^ dQ from the J-shift), and the
# transformed Hamiltonian is H0 + H1~ with sup |H1~| = O(1/(nu I0)).

def _averaging_primitives(params: ModelParams, theta):
    """A(theta) and A'(theta) for the averaging change."""
    ser = params.series
    # zero-mean primitive of V: r_n cos -> (r_n/n) sin, s_n sin -> -(s_n/n) cos
    primitive = CorrugationSeries(
        tuple(-s / n for n, s in enumerate(ser.sin_coeffs, start=1)),
        tuple(r / n for n, r in enumerate(ser.cos_coeffs, start=1)))
    a_val, a_slope = primitive.trig(theta)
    scale = -params.epsilon / (2.0 * params.nu_I0)
    return scale * a_val, scale * a_slope


def averaging_change(new_state, params: ModelParams) -> tuple[np.ndarray, float]:
    """Map averaged variables (Q, P, Theta, K) to (q, p, theta, J); return state and H value."""
    Q, P, Theta, K = new_state
    A, Ap = _averaging_primitives(params, Theta)
    Q4 = Q ** 4
    old = np.array([Q, P - 4.0 * A * Q4, Theta, K + Ap * Q4])
    return old, hamiltonian_mcgehee(old, params)


def averaged_remainder(new_state, params: ModelParams) -> float:
    """H1~ = H(change(Q,P,Theta,K)) - H0(Q,P,K): the post-averaging remainder."""
    Q, P, Theta, K = new_state
    old, h = averaging_change(new_state, params)
    return h - h0_mcgehee(Q, P, K, params)


def averaged_remainder_sup(params: ModelParams) -> float:
    """sup |H1~| over the test grid |Q| <= 1, |P| <= 1, |K| <= 1/2, theta in T."""
    Q, P, K, Th = np.meshgrid(np.linspace(0.0, 1.0, 9),
                              np.linspace(-1.0, 1.0, 9),
                              np.linspace(-0.5, 0.5, 5),
                              np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False))
    return float(np.max(np.abs(averaged_remainder((Q, P, Th, K), params))))


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

# config key (configparser folds keys to lower case) -> PhysicalParams or
# CorrugationSeries field; no key sets sine coefficients, as the sheets'
# reversor image, the lab's W^s trace and the inner mirror assume an even V.
_CONFIG_KEYS = {"d": "D", "a": "a", "alpha": "alpha", "m": "m", "r": "cos_coeffs"}


def load_config(path) -> PhysicalParams:
    """The surface of a `key = value` config file: its one section [physical].

    Keys D, a, alpha and m take a number, r the list of cos coefficients of
    the even corrugation (comma- or space-separated); a missing key keeps
    its PhysicalParams default, and nu follows from a and alpha.  A missing
    file, any other section, an unknown key (s, the sine coefficients,
    included) or a value that is not a finite number raises DomainError.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        if not cp.read(path):
            raise DomainError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise DomainError(f"config file {path}: {exc}") from None
    sections = cp.sections() + (["DEFAULT"] if cp.defaults() else [])
    if sections != ["physical"]:
        raise DomainError(f"config file {path} must hold one section [physical], not {sections}")
    fields = {}
    for key, text in cp["physical"].items():
        if key not in _CONFIG_KEYS:
            raise DomainError(f"unknown config key {key!r}: [physical] takes D, a, alpha, m, r")
        try:
            fields[_CONFIG_KEYS[key]] = (
                float(text) if key != "r"
                else tuple(float(tok) for tok in text.replace(",", " ").split()))
        except ValueError:
            raise DomainError(f"config key {key!r}: not a number in {text!r}") from None
    # PhysicalParams and CorrugationSeries reject a value that is not finite
    series = {"cos_coeffs": fields.pop("cos_coeffs")} if "cos_coeffs" in fields else {}
    return PhysicalParams(**fields, corrugation=CorrugationSeries(**series))

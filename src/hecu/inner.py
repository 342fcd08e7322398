"""Inner equation near the separatrix singularity and the constants f_k.

Blowing up u = i at scale 1/(nu I0) and letting nu I0 -> infinity turns the
Hamilton-Jacobi equation into the frequency-free inner equation

    d_theta T + (nu/2)(d_theta T)^2 + 2 v^2 (d_v T)^2
        - 1/(8 v^2) - eps V(theta)/(8 v^2) = 0.

Writing T = T0 + T1 with T0 = -1/(4v), T1 solves L_in T1 = F_in(T1) with
L_in = d_v + d_theta, and is found by Picard iteration of
T1 <- G_in(F_in(T1)) whose first iterate is the inner Melnikov layer L+_in
(fourier.picard_solve, the solve of the Hamilton-Jacobi graph too).
The transport G_in integrates along horizontal shifts v + s, s <= 0, so the
solver works on horizontal lines Im v = -depth, which the transport leaves
invariant.  The second solution is the conjugation image
T-(v, theta) = -conj(T+(-conj v, -conj theta)); on the imaginary axis the
mode-k difference is

    Delta_k(-i d) = [inner Melnikov part, closed form: -(pi k eps V_k/4) e^{-kd}]
                    + 2 Re T2_k(-i d),

and f_k = Delta_k(v) e^{ikv} extrapolated to depth infinity (the residual
straightening change is O(1/|v|), so f_k(d) = f_k + c1/d + c2/d^2 + ...).
Only the exponentially small T2 part is measured numerically; the closed
Melnikov part never suffers cancellation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import ModeField, geometric_grid, hermite, picard_solve
from .fourier import transport  # noqa: F401  (perfbench/layers.py wraps it here)
from .model import DomainError, ModelParams

_MIN_DEPTH = 8.0
_MAX_ITER = 60


@functools.lru_cache(maxsize=8)
def _solver_line(near_span: float) -> tuple[np.ndarray, dict]:
    """Offsets x (read-only) and the Filon weight table of one solver line.

    Spacing 0.01 over near_span up to x = 2, geometric (ratio 1.05) out to
    x = -2e4.  The inner transport runs at freq = 1 on every line, so the
    table (picard_solve's `weights`, keyed by |k|) depends on x alone and
    is shared by every solve on the line, whatever its depth or epsilon.
    """
    x = geometric_grid(2.0, h0=0.01, near_span=near_span, x_far=-2.0e4, growth=1.05)
    x.flags.writeable = False
    return x, {}


@dataclass
class InnerSolution:
    """Converged T1 = L+_in + T2 on one horizontal line."""

    params: ModelParams
    depth: float
    t1: ModeField
    melnikov: ModeField      # L+_in = G_in(primary), the first Picard iterate
    residual: float
    contraction_ratio: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def x(self) -> np.ndarray:
        """Offsets of the line v = x - i depth, the grid of t1."""
        return self.t1.x


def solve_inner(params: ModelParams, depth: float = 12.0, modes: int = 8,
                tol: float = 1e-12) -> InnerSolution:
    """Picard solution of the inner equation on the line Im v = -depth.

    F_in(T1) = -(nu/2)(d_theta T1)^2 - 2 v^2 (d_v T1)^2 + eps V/(8 v^2) at
    omega_k = k, solved by fourier.picard_solve to the residual tol, which
    raises SolveError "non-contraction" when the iteration does not contract
    and "non-convergence" when it does not converge within 60 iterations.
    The line start acts as the paper's distance kappa; depths below 8 are
    rejected (the contraction constant degrades like 1/kappa).  The inner
    Melnikov layer L+_in is the solve's first iterate, the transport of the
    primary source, which picard_solve copies out through `first`.
    diagnostics["filon_tables_built"] counts the weight tables this solve
    added to its line's shared table.
    """
    if depth < _MIN_DEPTH:
        raise DomainError(f"depth must be >= {_MIN_DEPTH} (kappa too small)")
    # the line v = x - i*depth: depths 8 to 10 share the span 40
    x, table = _solver_line(max(4.0 * depth, 40.0))
    n_tables = len(table)
    M = int(modes)
    # the primary source on its band: its modes beyond the corrugation's order are zero
    B = min(M, params.series.order)
    v = x - 1j * depth
    vks = params.epsilon * np.array(
        [params.series.fourier_coeff(k) for k in range(-B, B + 1)])[:, None]
    primary = ModeField(B, x, vks / (8.0 * v ** 2), vks * (-2.0 / (8.0 * v ** 3)))
    melnikov = ModeField(M, x)
    step = picard_solve(primary, M, 1.0, 2.0 * v ** 2, 4.0 * v, params.nu, tol, _MAX_ITER,
                        weights=table, first=melnikov.band(B))
    return InnerSolution(params, depth, step.phi, melnikov, step.residual, step.ratio,
                         step.iteration, {"filon_tables_built": len(table) - n_tables})


def theta_v_constant(sol: InnerSolution) -> float:
    """Grid realization of Theta_V = (||L||_2^2 + ||d_theta L||_2^2 + ||d_v L||_3^2)^(1/2).

    Norms ||f||_r = sum_k sup_v |v^r f_k(v)| on the solver line.
    """
    x = sol.x
    v = x - 1j * sol.depth
    L = sol.melnikov
    M = L.M
    n2 = 0.0
    n2t = 0.0
    n3 = 0.0
    for k in range(-M, M + 1):
        vals = L.values[k + M]
        if not np.any(vals):
            continue
        n2 += np.max(np.abs(v ** 2 * vals))
        n2t += abs(k) * np.max(np.abs(v ** 2 * vals))
        n3 += np.max(np.abs(v ** 3 * L.du[k + M]))
    return float(math.sqrt(n2 ** 2 + n2t ** 2 + n3 ** 2))


# default extraction depths; mode k only uses depths with k*d below the
# double-precision amplification ceiling (the difference carries e^{-k d})
DEFAULT_DEPTHS = (8.0, 9.0, 10.0, 11.0, 12.0, 14.0, 16.0)
_KD_CEILING = 21.0


@dataclass
class InnerDifference:
    """f_k extraction with extrapolation diagnostics."""

    f: dict                      # k -> complex
    err: dict                    # k -> float, extrapolation error estimate
    raw: dict                    # k -> array of f_k(depth) before extrapolation
    low_mode_decay: dict         # k <= 0 -> max |Delta_k| over depths
    diagnostics: dict = field(default_factory=dict)

    @property
    def f1(self) -> complex:
        return self.f[1]


def _fk_at_depth(sol: InnerSolution, k: int, x_off: float = 0.0) -> complex:
    """f_k estimate Delta_k(v) e^{ikv} at v = x_off - i*depth.

    The Melnikov part enters through its closed form (no cancellation);
    the T2 part combines the solved line with its conjugation mirror.
    """
    d = sol.depth
    v = x_off - 1j * d
    row = k + sol.t1.M
    (val_p, val_m), _ = hermite(sol.t1.x, sol.t1.values[row] - sol.melnikov.values[row],
                                sol.t1.du[row] - sol.melnikov.du[row], [x_off, -x_off])
    # T-(v) mode k = -conj(T+ mode k at -conj v); on the line -conj v = -x - i d
    delta_t2 = val_p + np.conj(val_m)
    vk = sol.params.epsilon * sol.params.series.fourier_coeff(k)
    closed = -(math.pi * k * vk / 4.0) if k > 0 else 0.0
    return complex(closed + delta_t2 * np.exp(1j * k * v))


def extract_fk(params: ModelParams, ks=(1, 2), depths=DEFAULT_DEPTHS,
               modes: int = 8, tol: float = 1e-12,
               solutions: dict | None = None) -> InnerDifference:
    """Estimate f_k from the inner difference at several depths.

    f_k(depth) is fitted against 1 + c1/d + c2/d^2 (the straightening
    change is O(1/|v|)); the error bar is the fit residual plus the last
    correction term.  Mode k only uses depths with k*d <= 21, since the
    measured part of the difference is reconstructed through a factor
    e^{k d} that amplifies solver noise.  Modes k <= 0 are checked to
    decay with depth.  The depths are solved one at a time and each
    solution is dropped once its values are read; `solutions` supplies
    depths already solved.  diagnostics["filon_tables_built"] counts the
    weight tables built by the solves this call ran.
    """
    if min(depths) < _MIN_DEPTH:
        raise DomainError("extraction depths must be >= 8")
    if not ks or max(ks) > modes:
        raise DomainError(f"extraction needs at least one mode k, none above modes = {modes}")
    solutions = {} if solutions is None else solutions
    usable = {k: [d for d in depths if k * d <= _KD_CEILING] or sorted(depths)[:3]
              for k in ks}
    offaxis_depths = [d for d in depths if d <= _KD_CEILING] if 1 in ks else []
    on_axis = {}
    off_axis = {}
    low_at = {}
    # per-depth Picard health; a ratio is None until two iterations differ
    picard = {}
    tables_built = 0
    for d in depths:
        sol = solutions.get(d)
        if sol is None:
            sol = solve_inner(params, depth=float(d), modes=modes, tol=tol)
            tables_built += sol.diagnostics["filon_tables_built"]
        for k in ks:
            if d in usable[k]:
                on_axis[k, d] = _fk_at_depth(sol, k)
        if d in offaxis_depths:
            off_axis[d] = _fk_at_depth(sol, 1, x_off=0.7)
        axis, _ = hermite(sol.t1.x, sol.t1.values, sol.t1.du, 0.0)
        for k in range(-max(ks), 1):
            # for k <= 0 the closed Melnikov part vanishes; the measured
            # difference on the axis is 2 Re T1_k(-i d)
            low_at[k, d] = float(abs(2.0 * axis[k + sol.t1.M].real))
        picard[f"{d:g}"] = {"iterations": sol.iterations, "residual": sol.residual,
                            "contraction_ratio": None if math.isnan(sol.contraction_ratio)
                            else sol.contraction_ratio}

    f = {}
    err = {}
    raw = {}
    for k in ks:
        vals = np.array([on_axis[k, d] for d in usable[k]])
        raw[k] = vals
        dd = np.array([float(d) for d in usable[k]])
        n_basis = min(3, len(dd))
        A = np.column_stack([dd ** -j for j in range(n_basis)])
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        fit = A @ coef
        resid = float(np.max(np.abs(vals - fit)))
        f[k] = complex(coef[0])
        tail_term = abs(coef[-1]) / float(np.max(dd)) ** n_basis if n_basis > 1 else 0.0
        err[k] = resid + tail_term
        if k >= 2:
            # modes k >= 2 are contaminated by the straightening change
            # mixing f_1 upward with weight ~ e^{(k-1) d}/d (the paper's
            # bound carries e^{k kappa} for the same reason); the spread of
            # the raw values is the honest uncertainty
            spread = float(np.max(np.abs(vals - vals[0])))
            f[k] = complex(vals[0])
            err[k] = max(err[k], spread)
    low = {k: [low_at[k, d] for d in depths] for k in range(-max(ks), 1)}
    diagnostics = {"picard": picard}
    if 1 in f:
        # off-axis consistency: away from the imaginary axis the raw
        # estimates acquire imaginary parts that must extrapolate away
        vals = np.array([off_axis[d] for d in offaxis_depths])
        dd = np.array([float(d) for d in offaxis_depths])
        A = np.column_stack([np.ones_like(dd), 1.0 / dd, 1.0 / dd ** 2])
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        diagnostics["im_f1_offaxis_ratio"] = float(abs(coef[0].imag) / abs(f[1]))
    diagnostics["filon_tables_built"] = tables_built
    return InnerDifference(f, err, raw, low, diagnostics)

"""Fourier-mode containers, oscillatory quadrature and the Picard engine.

The Hamilton-Jacobi graph solver and the inner-equation solver both call
`picard_solve`, which owns the stop rule and the non-contraction failure of
the fixed point

    Phi <- G(F(Phi)),     G(f)(x) = int_{-infty}^x f(s) e^{i w (s - x)} ds,

mode by Fourier mode in the angle; they differ only in the frequencies,
the profile of the (d_x Phi)^2 term and the primary source.  The
semi-infinite transport G is a cumulative Hermite-Filon rule (Iserles and
Norsett 2005): on each cell the source is replaced by its cubic Hermite
interpolant, whose product with e^{iws} integrates in closed form through
the moments int_0^1 s^j e^{zs} ds (Miller's backward recurrence for small
|z|).  The weights of a mode live in a table keyed by |k| that the caller
of the solve may keep across solves on one grid; a mode k < 0 reuses the
weights of |k| through G_{-w}(f) = conj(G_w(conj f)).  Derivatives are
exact throughout because the transport obeys d/dx G(f) = f - i w G(f).

The same module provides panel Gauss-Legendre oscillatory quadrature used
by the independent Melnikov oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


# ---------------------------------------------------------------------------
# oscillatory moments and the Hermite-Filon rule
# ---------------------------------------------------------------------------

def _moments(z: np.ndarray) -> np.ndarray:
    """m_j(z) = int_0^1 s^j e^{z s} ds for j = 0..3, stable in both regimes.

    Below |z| = 2.5 Miller's backward recurrence m_{j-1} = (e^z - z m_j)/j,
    started at m_n ~ e^z/(n + 1) with n = 19 below |z| = 0.8 and n = 29
    above (the start error shrinks by |z|/j per step); from |z| = 2.5 on
    the forward recurrence m_j = (e^z - j m_{j-1})/z.
    """
    z = np.asarray(z, dtype=complex)
    m = np.empty((4,) + z.shape, dtype=complex)
    r = np.abs(z)
    for band, top in (((r < 0.8), 19), ((r >= 0.8) & (r < 2.5), 29)):
        zs = z[band]
        ez = np.exp(zs)
        mj = ez / (top + 1)
        tmp = np.empty_like(zs)
        for j in range(top, 0, -1):
            np.subtract(ez, np.multiply(zs, mj, out=tmp), out=mj)
            mj *= 1.0 / j
            if j <= 4:
                m[j - 1][band] = mj
    big = ~(r < 2.5)
    zb = z[big]
    ez = np.exp(zb)
    mj = (ez - 1.0) / zb
    for j in range(4):
        m[j][big] = mj
        mj = (ez - (j + 1) * mj) / zb
    return m


def _filon_weights(x: np.ndarray, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Hermite-Filon weights of every cell against e^{i omega s}, and e^{-i omega x}.

    Rows 0..3 of the (4, N-1) weights multiply f_j, f'_j, f_{j+1}, f'_{j+1}
    in the cell integral of the cubic Hermite interpolant H of f,
    int_{x_j}^{x_{j+1}} H(s) e^{i omega s} ds.
    """
    h = np.diff(x)
    m0, m1, m2, m3 = _moments(1j * omega * h)
    phase = np.exp(1j * omega * x)
    w = np.array([2 * m3 - 3 * m2 + m0, h * (m3 - 2 * m2 + m1),
                  3 * m2 - 2 * m3, h * (m3 - m2)])
    w *= h * phase[:-1]
    return w, phase.conj()


def _filon_transport(weights: tuple[np.ndarray, np.ndarray], f: np.ndarray,
                     fp: np.ndarray, tail: complex) -> np.ndarray:
    """G_j = e^{-i omega x_j} (tail + int_{x_0}^{x_j} H(s) e^{i omega s} ds)."""
    w, back = weights
    cells = w[0] * f[:-1] + w[1] * fp[:-1] + w[2] * f[1:] + w[3] * fp[1:]
    return (tail + np.concatenate(([0.0], np.cumsum(cells)))) * back


def transport(x: np.ndarray, f: np.ndarray, fp: np.ndarray, omega: float,
              tail: complex = 0.0) -> np.ndarray:
    """G_j = e^{-i omega x_j} (tail + int_{x_0}^{x_j} f(s) e^{i omega s} ds).

    `tail` supplies int_{-infty}^{x_0} f e^{i omega s} ds.  The result is
    the semi-infinite convolution of the mode against its characteristic.
    """
    return _filon_transport(_filon_weights(x, omega), f, fp, tail)


def transport_modes(F: ModeField, freq: float, table: dict, out: ModeField) -> None:
    """G(F) into `out` on F's band, mode k at omega_k = k freq.

    Each mode takes an integration-by-parts tail, or the |x|^-4 power-law
    tail for omega_k = 0; a zero mode stays zero.  The Filon weights of |k|
    come from `table`, keyed by |k| and built there on first use, so the
    table depends only on F.x and freq.  A mode k < 0 is moved through
    G_{-w}(f) = conj(G_w(conj f)), which holds for real x and is exact in
    floating point (conjugation only flips signs).  The derivative
    d_x G_k = F_k - i omega_k G_k is exact.
    """
    x = F.x
    for m, k in enumerate(F.ks):
        f, fp = F.values[m], F.du[m]
        if not f.any():
            out.values[m] = 0.0
            out.du[m] = 0.0
            continue
        omega = k * freq
        tail = (ibp_tail(f[0], fp[0], (fp[1] - fp[0]) / (x[1] - x[0]), omega, x[0])
                if omega else powerlaw_tail(f[0], x[0]))
        n = abs(int(k))
        w = table.get(n)
        if w is None:
            w = table[n] = _filon_weights(x, n * freq)
        if k >= 0:
            out.values[m] = _filon_transport(w, f, fp, tail)
        else:
            out.values[m] = _filon_transport(w, f.conj(), fp.conj(), np.conj(tail)).conj()
        np.multiply(1j * omega, out.values[m], out=out.du[m])
        np.subtract(f, out.du[m], out=out.du[m])


def ibp_tail(f0: complex, fp0: complex, fpp0: complex, omega: float,
             x0: float) -> complex:
    """int_{-infty}^{x0} f e^{i omega s} ds by three integrations by parts.

    Valid for omega != 0 and f decaying with bounded derivatives; the
    neglected remainder is O(f'''(x0)/omega^4).
    """
    iw = 1j * omega
    return np.exp(1j * omega * x0) * (f0 / iw - fp0 / iw ** 2 + fpp0 / iw ** 3)


def powerlaw_tail(f0: float, x0: float) -> float:
    """int_{-infty}^{x0} f ds assuming f ~ C |s|^-4 beyond the grid."""
    return f0 * abs(x0) / 3.0


# ---------------------------------------------------------------------------
# panel Gauss-Legendre quadrature for oscillatory oracles
# ---------------------------------------------------------------------------

def osc_integral(fun, omega: float, a: float, b: float) -> complex:
    """int_a^b fun(s) e^{i omega s} ds with per-half-period GL panels.

    Panels never exceed half an oscillation period nor unit length, so the
    16-point rule resolves both the phase and the envelope.
    """
    if b <= a:
        return 0.0 + 0.0j
    panel = 1.0 if omega == 0 else min(np.pi / abs(omega), 1.0)
    n = max(1, int(np.ceil((b - a) / panel)))
    edges = np.linspace(a, b, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = fun(nodes) * np.exp(1j * omega * nodes)
    return complex(np.sum(vals * _GL_W[None, :] * half[:, None]))


# ---------------------------------------------------------------------------
# theta-mode fields on a grid
# ---------------------------------------------------------------------------

class ModeField:
    """Truncated Fourier series in theta with values on a 1-D grid.

    values[m, j] is the coefficient of e^{i k_m theta} at grid node j with
    k_m = m - M running over -M..M.  du stores the exact grid-derivative
    of each coefficient; products propagate it by the Leibniz rule.
    """

    def __init__(self, n_modes: int, x: np.ndarray,
                 values: np.ndarray | None = None,
                 du: np.ndarray | None = None):
        self.M = int(n_modes)
        self.x = x
        shape = (2 * self.M + 1, len(x))
        self.values = np.zeros(shape, dtype=complex) if values is None else values
        self.du = np.zeros(shape, dtype=complex) if du is None else du

    @property
    def ks(self) -> np.ndarray:
        return np.arange(-self.M, self.M + 1)

    def coeff(self, k: int) -> np.ndarray:
        return self.values[k + self.M]

    def _live(self) -> list[int]:
        """Rows that are not identically zero."""
        return [i for i in range(2 * self.M + 1) if self.values[i].any() or self.du[i].any()]

    def mul(self, other: "ModeField") -> "ModeField":
        """Pointwise product in theta: mode convolution, truncated to |k| <= M."""
        out = ModeField(self.M, self.x)
        live = other._live()
        for i in self._live():
            for j in live:
                m = i + j - self.M
                if 0 <= m <= 2 * self.M:
                    out.values[m] += self.values[i] * other.values[j]
                    out.du[m] += self.du[i] * other.values[j] + self.values[i] * other.du[j]
        return out

    def padded(self, M: int) -> "ModeField":
        """The same series on |k| <= M >= self.M, the new modes zero."""
        out = ModeField(M, self.x)
        out.values[M - self.M:M + self.M + 1] = self.values
        out.du[M - self.M:M + self.M + 1] = self.du
        return out

    def band(self, B: int) -> "ModeField":
        """View of the modes |k| <= B <= self.M."""
        rows = slice(self.M - B, self.M + B + 1)
        return ModeField(B, self.x, self.values[rows], self.du[rows])


def hermite(x: np.ndarray, values: np.ndarray, slopes: np.ndarray, u):
    """Cubic Hermite interpolant of a node table, and its derivative, at u.

    The table lies on the ascending nodes x along the last axis of `values`
    and `slopes`; u is a float or an array, past the ends on the end cells.
    np.float_power rounds powers as the scalar pow does (np.power's SIMD
    loop may not), so a point evaluates alike alone and in an array.
    """
    u = np.asarray(u, dtype=float)
    j = np.clip(np.searchsorted(x, u) - 1, 0, len(x) - 2)
    h = x[j + 1] - x[j]
    s = (u - x[j]) / h
    s2, s3 = np.float_power(s, 2), np.float_power(s, 3)
    f0, f1, d0, d1 = values[..., j], values[..., j + 1], slopes[..., j], slopes[..., j + 1]
    val = ((2 * s3 - 3 * s2 + 1) * f0 + (s3 - 2 * s2 + s) * h * d0
           + (-2 * s3 + 3 * s2) * f1 + (s3 - s2) * h * d1)
    dval = ((6 * s2 - 6 * s) / h * f0 + (3 * s2 - 4 * s + 1) * d0
            + (-6 * s2 + 6 * s) / h * f1 + (3 * s2 - 2 * s) * d1)
    return val, dval


# ---------------------------------------------------------------------------
# the Picard fixed point Phi <- G(F(Phi))
# ---------------------------------------------------------------------------

class NonContractionError(RuntimeError):
    """Picard iteration is not contracting, or did not converge within max_iter."""


@dataclass
class PicardStep:
    """The last Picard iterate and the signals the stop rule read."""

    iteration: int
    phi: ModeField          # G(F(previous phi))
    residual: float         # sup |F(phi) - previous source|
    ratio: float            # ratio of successive sup |phi - previous phi|; nan until both exist


# Storage of picard_solve, shared by every solve in the process and only
# ever grown; its contents are stale on entry to a solve.
_workspace = np.empty(0, dtype=complex)


def _workspace_arrays(rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ten (rows, n) complex arrays and three length-n rows, views of the workspace."""
    global _workspace
    size = (10 * rows + 3) * n
    if _workspace.size < size:
        _workspace = np.empty(size, dtype=complex)
    fields = _workspace[:10 * rows * n].reshape(10, rows, n)
    return fields, _workspace[10 * rows * n:size].reshape(3, n)


def _half_square(a: ModeField, out: ModeField, tmp: np.ndarray) -> None:
    """Write a^2 / 2 in theta, truncated to |k| <= out.M, into `out`.

    Sums each unordered pair a_i a_j once (the diagonal at half weight)
    with d/dx (a^2/2) = a a', and skips modes that are identically zero, so
    a field of band B costs O(B^2) row products.  The first pair of a mode
    writes it, later pairs add to it through `tmp`, three scratch rows.
    Callers fold the factor 2 of the square into their coefficients, which
    is exact since it only scales by a power of two.
    """
    v, d = a.values, a.du
    written = np.zeros(2 * out.M + 1, dtype=bool)
    live = a._live()
    for n, i in enumerate(live):
        for j in live[n:]:
            m = i + j - 2 * a.M + out.M
            if not 0 <= m <= 2 * out.M:
                continue
            pv, pd = (tmp[0], tmp[1]) if written[m] else (out.values[m], out.du[m])
            if i == j:
                np.multiply(0.5, v[i], out=pv)
                pv *= v[i]
                np.multiply(v[i], d[i], out=pd)
            else:
                np.multiply(v[i], v[j], out=pv)
                np.multiply(d[i], v[j], out=pd)
                np.multiply(v[i], d[j], out=tmp[2])
                pd += tmp[2]
            if written[m]:
                out.values[m] += pv
                out.du[m] += pd
            written[m] = True
    out.values[~written] = 0.0
    out.du[~written] = 0.0


def picard_solve(primary: ModeField, freq: float, profile: np.ndarray,
                 dprofile: np.ndarray, nu: float, tol: float, max_iter: int,
                 weights: dict | None = None) -> PicardStep:
    """Solve Phi = G(F(Phi)) by Picard iteration from Phi = 0.

    F(Phi) = primary - profile (d_x Phi)^2 - (nu/2) (d_theta Phi)^2; G is
    `transport_modes` at freq.  The Filon weights of |k| are built on the
    first nonzero source of mode +-k into `weights`, a table keyed by |k|
    that depends only on primary.x and freq: a caller that solves again on
    the same grid and freq may pass the same table and build nothing.
    d_x(d_x Phi_k) = d_x F_k - i omega_k d_x Phi_k is exact.
    Squares double the band, so iterate n of a band-b primary lives on
    |k| <= min(primary.M, 2^(n-1) b).

    The iterates and sources live in the module workspace, two of each in
    turn; the returned field is a copy, so it outlives later solves, but
    only one solve may run at a time.

    Stops at residual <= tol after two iterations or more, so the
    correction beyond the first iterate is measured, not left at zero; or
    at a residual of exactly zero (a zero source stops at iteration 1).
    Returns the last step, on |k| <= primary.M.
    Raises NonContractionError when the ratio of successive differences
    reaches 0.9, or when max_iter iterations do not converge.
    """
    x, M = primary.x, primary.M
    live = [abs(k) for k in primary.ks if primary.coeff(k).any()]
    primary = primary.band(max(live, default=0))
    weights = {} if weights is None else weights
    fields, scratch = _workspace_arrays(2 * M + 1, len(x))
    tmp, tmp2 = fields[8], fields[9]
    ks = np.arange(-M, M + 1)[:, None]
    dx_coef, ik = 1j * freq * ks, 1j * ks
    # the 2 of each square rides on the profile and turns nu/2 into nu;
    # scaling by a power of two leaves every rounding as it was
    prof2, dprof2 = 2.0 * profile, 2.0 * dprofile

    def field_at(pair: int, B: int) -> ModeField:
        """Workspace pair 0 or 1 (iterates), 2 or 3 (sources) on |k| <= B."""
        band = slice(M - B, M + B + 1)
        return ModeField(B, x, fields[2 * pair][band], fields[2 * pair + 1][band])

    def source_into(phi: ModeField, prev: ModeField, out: ModeField, ang: ModeField) -> None:
        """F(phi) into `out`; `prev` is the source phi was moved from.

        `ang` is free storage on the band of `out`.
        """
        band = slice(M - phi.M, M + phi.M + 1)
        r = 2 * phi.M + 1
        # d_x Phi and its derivative d_x F - i omega_k d_x Phi
        np.multiply(dx_coef[band], phi.du, out=tmp[:r])
        np.subtract(prev.du, tmp[:r], out=tmp[:r])
        _half_square(ModeField(phi.M, x, phi.du, tmp[:r]), out, scratch)
        y = tmp[:2 * out.M + 1]
        np.multiply(out.values, dprof2, out=y)
        out.du *= prof2
        out.du += y
        out.values *= prof2
        # d_theta Phi
        np.multiply(ik[band], phi.values, out=tmp[:r])
        np.multiply(ik[band], phi.du, out=tmp2[:r])
        _half_square(ModeField(phi.M, x, tmp[:r], tmp2[:r]), ang, scratch)
        # primary - (profile (d_x Phi)^2 + (nu/2) (d_theta Phi)^2), where
        # -nu b - a rounds as -(a + nu b) does
        rows = slice(out.M - primary.M, out.M + primary.M + 1)
        for a, b, p in ((out.values, ang.values, primary.values),
                        (out.du, ang.du, primary.du)):
            np.multiply(-nu, b, out=b)
            np.subtract(b, a, out=a)
            a[rows] += p

    def sup_diff(a: ModeField, b: ModeField) -> float:
        """max over nodes of sum_k |a_k - b_k|, the shorter band zero-padded."""
        a, b = (a, b) if a.M >= b.M else (b, a)
        r = 2 * a.M + 1
        d = tmp[:r]
        np.copyto(d, a.values)
        d[a.M - b.M:a.M + b.M + 1] -= b.values
        # |d| into tmp2's memory, read as a contiguous (r, N) float array
        absd = tmp2.reshape(-1).view(np.float64)[:r * len(x)].reshape(r, len(x))
        np.abs(d, out=absd)
        return float(np.max(np.sum(absd, axis=0)))

    phi = field_at(0, 0)
    phi.values[:] = 0.0
    src = primary       # F(0)
    ratio = prev_delta = math.nan
    for it in range(1, max_iter + 1):
        new, old = it % 2, 1 - it % 2
        phi_new = field_at(new, src.M)
        transport_modes(src, freq, weights, phi_new)
        delta = sup_diff(phi_new, phi)
        # the previous iterate's arrays are free from here on
        src_new = field_at(2 + new, min(M, max(2 * src.M, primary.M)))
        source_into(phi_new, src, src_new, field_at(old, src_new.M))
        residual = sup_diff(src_new, src)
        if prev_delta > 0:
            ratio = delta / prev_delta
        prev_delta = delta
        phi, src = phi_new, src_new
        if ratio >= 0.9:
            raise NonContractionError(f"Picard ratio {ratio:.3f} >= 0.9 at iteration {it}")
        if residual == 0.0 or (residual <= tol and it >= 2):
            return PicardStep(it, phi.padded(M), residual, ratio)
    raise NonContractionError(f"no convergence to tol={tol} within {max_iter} iterations "
                              f"(last residual {residual:.3e})")


def geometric_grid(x_end: float, h0: float, near_span: float,
                   x_far: float, growth: float = 1.04) -> np.ndarray:
    """Grid ending at x_end: uniform spacing h0 over near_span, geometric beyond."""
    near = np.arange(x_end, x_end - near_span - 1e-12, -h0)[::-1]
    pts = [near[0]]
    h = h0
    while pts[-1] > x_far:
        h *= growth
        pts.append(pts[-1] - h)
    far = np.array(pts[::-1])
    return np.concatenate([far[:-1], near])


def modes_to_values(coeffs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Evaluate sum_k c_k e^{i k theta} (k = -M..M) on an angle grid."""
    M = (len(coeffs) - 1) // 2
    ks = np.arange(-M, M + 1)
    return np.real(np.exp(1j * np.outer(thetas, ks)) @ coeffs)

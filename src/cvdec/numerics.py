"""Numerical backbone: special functions, phase-space quadrature, a
truncated-Fock master equation stepped by ``expm_multiply``, and
small-degree polynomial root finding.

Everything in this module is deliberately independent of the closed-form
layers (``channels``, ``nongaussian``, ``two_mode``) so that it can serve
as an oracle for them: the quadrature knows nothing about Gaussian
determinant identities, and the master-equation integrator works directly
on a truncated Fock-basis density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "QuadratureError",
    "TruncationError",
    "TruncatedDensityMatrix",
    "laguerre",
    "legendre",
    "bessel_i0",
    "bessel_i0_log",
    "integrate_phase_space",
    "fock_destroy",
    "fock_state",
    "psi01_state",
    "default_truncation",
    "lindblad_evolve",
    "lindblad_purities",
    "polynomial_real_roots",
]


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def laguerre(n: int, x):
    """Laguerre polynomial L_n(x) by the three-term recurrence.

    Vectorized over ``x``.
    """
    if n < 0 or n != int(n):
        raise ValueError("order must be a nonnegative integer")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = 1.0 - x
    for m in range(1, n):
        p, p_prev = ((2 * m + 1 - x) * p - m * p_prev) / (m + 1), p
    return p


def legendre(n: int, x):
    """Legendre polynomial P_n(x) by the three-term recurrence."""
    if n < 0 or n != int(n):
        raise ValueError("order must be a nonnegative integer")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = x.copy()
    for m in range(1, n):
        p, p_prev = ((2 * m + 1) * x * p - m * p_prev) / (m + 1), p
    return p


def _i0_series(x):
    # sum_k (x/2)^{2k} / (k!)^2, all terms positive -> no cancellation
    x = np.asarray(x, dtype=float)
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 200):
        term = term * q / (k * k)
        total = total + term
        if np.all(term <= 1e-17 * total):
            break
    return total


def _i0_asymptotic_log(x):
    # ln I0(x) ~ x - ln(2 pi x)/2 + ln(sum_k u_k), u_k = u_{k-1} (2k-1)^2/(8 k x)
    x = np.asarray(x, dtype=float)
    u = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 30):
        u = u * (2 * k - 1) ** 2 / (8.0 * k * x)
        total = total + u
        if np.all(np.abs(u) <= 1e-17 * total):
            break
    return x - 0.5 * np.log(2.0 * np.pi * x) + np.log(total)


_I0_SWITCH = 30.0


def bessel_i0(x):
    """Modified Bessel function I_0(x): power series for small arguments,
    the large-argument asymptotic expansion beyond."""
    x = np.abs(np.asarray(x, dtype=float))
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = x < _I0_SWITCH
    if np.any(small):
        out[small] = _i0_series(x[small])
    if np.any(~small):
        out[~small] = np.exp(_i0_asymptotic_log(x[~small]))
    return out[0] if scalar else out


def bessel_i0_log(x):
    """ln I_0(x), stable for arguments far beyond the overflow point of I_0."""
    x = np.abs(np.asarray(x, dtype=float))
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = x < _I0_SWITCH
    if np.any(small):
        out[small] = np.log(_i0_series(x[small]))
    if np.any(~small):
        out[~small] = _i0_asymptotic_log(x[~small])
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# phase-space quadrature
# ---------------------------------------------------------------------------

class QuadratureError(RuntimeError):
    """Raised when the adaptive quadrature fails to meet its tolerance.

    Carries the best available estimate in ``result``.
    """

    def __init__(self, message: str, result: "QuadratureResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration request: per-axis extents, tolerance, refinement cap."""

    extents: tuple[tuple[float, float], ...]
    tol: float = 1e-10
    max_refinements: int = 8

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_refinements < 1:  # the error estimate needs two levels
            raise ValueError("max_refinements must be at least 1")
        for lo, hi in self.extents:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("extents must be finite nondegenerate intervals")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    converged: bool
    evaluations: int


def _gl_axis(lo: float, hi: float, order: int, panels: int):
    """Nodes/weights of composite Gauss-Legendre on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _tensor_quad(f, extents, order, panels, chunk=2 ** 20):
    axes = [_gl_axis(lo, hi, order, panels) for lo, hi in extents]
    sizes = [a[0].size for a in axes]
    n_points = int(np.prod(sizes))
    total = 0.0
    # materialize the tensor grid chunk by chunk so deep 2-D refinements do
    # not hold the full point set in memory at once
    for start in range(0, n_points, chunk):
        flat = np.arange(start, min(start + chunk, n_points))
        idx = np.unravel_index(flat, sizes)
        pts = np.stack([axes[d][0][idx[d]] for d in range(len(axes))], axis=-1)
        wts = axes[0][1][idx[0]].copy()
        for d in range(1, len(axes)):
            wts *= axes[d][1][idx[d]]
        vals = np.asarray(f(pts), dtype=float)
        total += float(np.dot(wts, vals))
    return total, n_points


def integrate_phase_space(f: Callable[[np.ndarray], np.ndarray],
                          spec: QuadratureSpec) -> QuadratureResult:
    """Adaptive tensor-product Gauss-Legendre quadrature over a box.

    ``f`` must accept an (N, d) array of points and return N values.
    The error estimate is the difference between successive refinements
    (panel doubling for d <= 2, order escalation for d > 2); the returned
    value is the finest evaluation.  Raises :class:`QuadratureError` if the
    refinement budget is exhausted before the tolerance is met.
    """
    d = len(spec.extents)
    evals = 0
    prev = None
    best = None
    if d <= 2:
        levels = [(16, 2 ** j) for j in range(spec.max_refinements + 1)]
    else:
        orders = [8, 12, 16, 24, 32, 40, 48]
        levels = [(o, 1) for o in orders[: spec.max_refinements + 1]]
    for order, panels in levels:
        value, n = _tensor_quad(f, spec.extents, order, panels)
        evals += n
        if prev is not None:
            err = abs(value - prev)
            best = QuadratureResult(value, err, err <= spec.tol, evals)
            if err <= spec.tol:
                return best
        prev = value
    raise QuadratureError(
        f"quadrature did not converge to {spec.tol:g} "
        f"(last error estimate {best.error:g})", best)


# ---------------------------------------------------------------------------
# truncated-Fock master equation
# ---------------------------------------------------------------------------

class TruncationError(RuntimeError):
    """Raised when the Fock-space truncation is detectably inadequate."""


@dataclass(frozen=True)
class TruncatedDensityMatrix:
    """Density matrix on the truncated Fock basis {0..dim-1}."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix must be Hermitian")
        object.__setattr__(self, "matrix", m.astype(complex))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def purity(self) -> float:
        return float(np.real(np.sum(self.matrix * self.matrix.T)))

    def occupations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix)).copy()

    def mean_photons(self) -> float:
        return float(np.dot(np.arange(self.dim), self.occupations()))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])

    def covariance(self) -> np.ndarray:
        """2x2 covariance matrix of the quadratures x=(a+a†)/√2, p=(a−a†)/(i√2)."""
        a = fock_destroy(self.dim)
        rho = self.matrix
        e_a = np.trace(rho @ a)
        e_aa = np.trace(rho @ a @ a)
        e_ad_a = np.trace(rho @ a.conj().T @ a)
        # centered second moments
        va = e_aa - e_a ** 2
        na = e_ad_a - abs(e_a) ** 2
        sxx = float(np.real(0.5 + na + va.real))
        spp = float(np.real(0.5 + na - va.real))
        sxp = float(va.imag)
        return np.array([[sxx, sxp], [sxp, spp]])


def fock_destroy(dim: int) -> np.ndarray:
    """Annihilation operator on the truncated Fock basis."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def fock_state(n: int, dim: int) -> TruncatedDensityMatrix:
    if not 0 <= n < dim:
        raise ValueError("Fock index outside the truncated basis")
    m = np.zeros((dim, dim), dtype=complex)
    m[n, n] = 1.0
    return TruncatedDensityMatrix(m)


def psi01_state(vartheta: float, dim: int) -> TruncatedDensityMatrix:
    """(|0> + e^{i vartheta} |1>)/sqrt(2) as a density matrix."""
    if dim < 2:
        raise ValueError("need at least two Fock levels")
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0 / math.sqrt(2.0)
    psi[1] = np.exp(1j * vartheta) / math.sqrt(2.0)
    return TruncatedDensityMatrix(np.outer(psi, psi.conj()))


def default_truncation(n_bath: float, n_init: float) -> int:
    """Truncation dimension keeping the asymptotic thermal tail negligible."""
    return max(20, math.ceil(8.0 * (n_bath + n_init + 1.0)))


def _dissipator(o1, o2):
    # superoperator of rho -> 2 o1 rho o2 - o2 o1 rho - rho o2 o1 on the
    # row-major vec(rho), using vec(A rho B) = (A kron B^T) vec(rho)
    eye = sparse.identity(o1.shape[0], format="csr")
    o21 = o2 @ o1
    return (2.0 * sparse.kron(o1, o2.T) - sparse.kron(o21, eye)
            - sparse.kron(eye, o21.T))


def _lindbladian(dim, gamma, N, M):
    # (gamma/2) [ N L[a†] + (N+1) L[a] - M* D[a] - M D[a†] ] rho
    # L[o]rho = 2 o rho o† - o†o rho - rho o†o
    # D[o]rho = 2 o rho o  - o o  rho - rho o o
    # The conjugate-pair signs on the D terms are forced jointly by
    # Hermiticity preservation and by the fixed point <aa> -> M of the
    # equivalent characteristic-function diffusion equation.
    a = sparse.csr_matrix(fock_destroy(dim))
    ad = a.conj().T
    gen = N * _dissipator(ad, a) + (N + 1.0) * _dissipator(a, ad)
    if M != 0:
        gen = gen - np.conj(M) * _dissipator(a, a) - M * _dissipator(ad, ad)
    return ((0.5 * gamma) * gen).tocsr()


def _check_truncation(rho):
    dim = rho.shape[0]
    tail = max(1, dim // 10)
    tail_mass = float(np.real(np.trace(rho[dim - tail:, dim - tail:])))
    if tail_mass > 1e-6:
        raise TruncationError(
            f"tail mass {tail_mass:.2e} in the top {tail} Fock levels; "
            "increase the truncation dimension")
    drift = abs(float(np.real(np.trace(rho))) - 1.0)
    if drift > 1e-8:
        raise TruncationError(f"trace drift {drift:.2e} exceeds 1e-8")


def _nm_of_bath(bath):
    """(gamma, N, M) of a bath described either by NMParams-like or
    BathParams-like objects (duck-typed to avoid an import cycle)."""
    if hasattr(bath, "N"):
        return getattr(bath, "gamma", 1.0), bath.N, bath.M
    mu, r, phi = bath.mu_inf, bath.r_inf, bath.phi_inf
    N = 0.5 * (np.cosh(2.0 * r) / mu - 1.0)
    M = np.sinh(2.0 * r) / (2.0 * mu) * np.exp(-2j * phi)
    return bath.gamma, N, M


def _trajectory(rho0: TruncatedDensityMatrix, bath, times):
    """Fock-basis states at ascending ``times``: vec(rho) is stepped by
    ``expm_multiply`` with the sparse Lindbladian, each state is checked."""
    if any(t < 0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be ascending and nonnegative")
    gamma, N, M = _nm_of_bath(bath)
    if abs(M) ** 2 > N * (N + 1.0) + 1e-12:
        raise ValueError("unphysical bath: |M|^2 > N(N+1)")
    dim = rho0.dim
    gen = _lindbladian(dim, gamma, N, M)
    vec = rho0.matrix.ravel()
    prev = 0.0
    for t in times:
        if t > prev:
            vec = expm_multiply((t - prev) * gen, vec)
        prev = t
        rho = vec.reshape(dim, dim)
        _check_truncation(rho)
        yield rho


def lindblad_evolve(rho0: TruncatedDensityMatrix, bath, t: float) -> TruncatedDensityMatrix:
    """Integrate the dissipative master equation up to time ``t``.

    The generator is the sparse d²×d² Lindbladian on the truncated Fock
    basis, applied by ``scipy.sparse.linalg.expm_multiply``.  ``bath`` may
    carry either (gamma, mu_inf, r_inf, phi_inf) or (N, M) parameters.
    Trace preservation and Fock-tail containment are checked on the result.
    """
    *_, rho = _trajectory(rho0, bath, [t])
    return TruncatedDensityMatrix(0.5 * (rho + rho.conj().T))


def lindblad_purities(rho0: TruncatedDensityMatrix, bath,
                      times: Sequence[float]) -> np.ndarray:
    """Tr rho^2 sampled along a single trajectory (times must be ascending)."""
    return np.array([float(np.real(np.sum(rho * rho.T)))
                     for rho in _trajectory(rho0, bath, list(times))])


# ---------------------------------------------------------------------------
# polynomial roots
# ---------------------------------------------------------------------------

def polynomial_real_roots(coeffs: Sequence[float]) -> np.ndarray:
    """Real roots of a low-degree polynomial (coefficients highest first).

    A nearly vanishing leading coefficient degrades the degree instead of
    poisoning the companion matrix.  Roots are Newton-polished and must pass
    a residual check |p(root)| < 1e-9 ||coeffs||.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0 or not np.any(c != 0.0):
        raise ValueError("all-zero polynomial")
    scale = np.max(np.abs(c))
    # trim negligible leading coefficients (degree degradation)
    nz = np.nonzero(np.abs(c) > 1e-14 * scale)[0]
    c = c[nz[0]:]
    if c.size == 1:
        return np.array([])
    roots = np.roots(c)
    dc = np.polyder(c)
    # a few Newton steps to polish near-real roots
    for _ in range(3):
        p = np.polyval(c, roots)
        dp = np.polyval(dc, roots)
        safe = np.abs(dp) > 1e-300
        roots[safe] = roots[safe] - p[safe] / dp[safe]
    real = roots[np.abs(roots.imag) < 1e-10 * np.maximum(1.0, np.abs(roots))].real
    residual = np.abs(np.polyval(c, real))
    real = real[residual < 1e-9 * scale * np.maximum(1.0, np.abs(real)) ** (c.size - 1)]
    return np.sort(real)

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

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse, special
from scipy.sparse.linalg import expm_multiply

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "QuadratureError",
    "TruncationError",
    "TruncatedDensityMatrix",
    "laguerre",
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


def bessel_i0_log(x):
    """ln I_0(x) = ln(e^{-|x|} I_0(x)) + |x|, stable far beyond the overflow
    point of I_0."""
    x = np.abs(np.asarray(x, dtype=float))
    return np.log(special.i0e(x)) + x


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
        if self.max_refinements < 1:  # order escalation compares two orders
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


# Gauss-Kronrod G7/K15 on [-1, 1] (QUADPACK qk15, Piessens et al. 1983) at
# the nonnegative nodes, ascending.  The seven Gauss nodes are every other
# Kronrod node; the Gauss weight is zero at the others.
_GK15_POS = np.array([
    0.0, 0.207784955007898467600689403773245,
    0.405845151377397166906606412076961, 0.586087235467691130294144845693013,
    0.741531185599394439863864773280788, 0.864864423359769072789712788640926,
    0.949107912342758524526189684047851, 0.991455371120812639206854697526329])
_K15_POS = np.array([
    0.209482141084727828012999174891714, 0.204432940075298892414161999234649,
    0.190350578064785409913256402421014, 0.169004726639267902826583426598550,
    0.140653259715525918745189590510238, 0.104790010322250183839876322541518,
    0.063092092629978553290700663189204, 0.022935322010529224963732008058970])
_G7_POS = np.array([
    0.417959183673469387755102040816327, 0.0,
    0.381830050505118944950369775488975, 0.0,
    0.279705391489276667901467771423780, 0.0,
    0.129484966168869693270611432679082, 0.0])
_GK15_X = np.concatenate([-_GK15_POS[:0:-1], _GK15_POS])
_GK15_WK = np.concatenate([_K15_POS[:0:-1], _K15_POS])
_GK15_WG = np.concatenate([_G7_POS[:0:-1], _G7_POS])

_BATCH = 2 ** 18  # most points passed to the integrand in one call


def _gk_panels(f, spec: QuadratureSpec) -> QuadratureResult:
    d = len(spec.extents)
    lo, hi = np.array(spec.extents, dtype=float).T
    nodes = np.stack(np.meshgrid(*[_GK15_X] * d, indexing="ij"),
                     axis=-1).reshape(-1, d)
    w_k = functools.reduce(np.multiply.outer, [_GK15_WK] * d).ravel()
    w_diff = w_k - functools.reduce(np.multiply.outer, [_GK15_WG] * d).ravel()
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    per_call = max(1, _BATCH // len(nodes))
    half = 0.5 * (hi - lo)
    centers = (0.5 * (lo + hi))[None, :]
    retired_value = retired_error = 0.0
    evals = 0
    for _ in range(spec.max_refinements + 1):
        value = np.empty(len(centers))
        error = np.empty(len(centers))
        for s in range(0, len(centers), per_call):
            c = centers[s:s + per_call]
            vals = np.asarray(f((c[:, None, :] + half * nodes).reshape(-1, d)),
                              dtype=float).reshape(len(c), -1)
            value[s:s + per_call] = vals @ w_k
            error[s:s + per_call] = np.abs(vals @ w_diff)
        evals += len(centers) * len(nodes)
        jac = float(np.prod(half))
        value *= jac
        error *= jac
        total_error = retired_error + float(error.sum())
        result = QuadratureResult(retired_value + float(value.sum()), total_error,
                                  total_error <= spec.tol, evals)
        if result.converged:
            return result
        split = error > (spec.tol - retired_error) / len(centers)
        retired_value += float(value[~split].sum())
        retired_error += float(error[~split].sum())
        half = 0.5 * half
        centers = (centers[split][:, None, :] + half * signs).reshape(-1, d)
    raise QuadratureError(
        f"quadrature did not converge to {spec.tol:g} in "
        f"{spec.max_refinements} bisection rounds "
        f"(error estimate {result.error:g})", result)


def _tensor_quad(f, extents, order, chunk=2 ** 20):
    """One tensor Gauss-Legendre panel over the box, evaluated in slabs of
    the first axis so that high orders do not hold every point at once."""
    x, w = np.polynomial.legendre.leggauss(order)
    d = len(extents)
    lo, hi = np.array(extents, dtype=float).T
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * x
    weights = functools.reduce(np.multiply.outer, [h * w for h in half])
    rows = max(1, chunk // order ** (d - 1))
    total = 0.0
    for start in range(0, order, rows):
        axes = [nodes[0, start:start + rows], *nodes[1:]]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        vals = np.asarray(f(pts), dtype=float)
        total += float(np.dot(weights[start:start + rows].ravel(), vals))
    return total, order ** d


def integrate_phase_space(f: Callable[[np.ndarray], np.ndarray],
                          spec: QuadratureSpec) -> QuadratureResult:
    """Adaptive quadrature of ``f`` over a box.

    ``f`` must accept an (N, d) array of points and return N values.

    For d <= 2 the rule is a globally adaptive tensor Gauss-Kronrod G7/K15
    on panels.  Each round evaluates every active panel, at most 2^18
    points per call of ``f``; a panel's value is its K15 sum and its error
    is |K15 - G7|.  A panel whose error exceeds its equal share of the
    tolerance not yet spent on retired panels is bisected along every axis;
    the others are retired with their value and error.  The result is the
    summed value and error of retired and active panels, and it is
    converged once that error is at most ``spec.tol``.
    ``spec.max_refinements`` caps the number of bisection rounds.

    For d > 2 a single tensor Gauss-Legendre panel is raised through the
    orders 8, 12, ..., 48, at most ``spec.max_refinements`` times, and the
    error is the difference between successive orders.

    ``evaluations`` counts every point passed to ``f``.  Raises
    :class:`QuadratureError`, carrying the last unconverged result, if the
    cap is reached before the tolerance is met.
    """
    if len(spec.extents) <= 2:
        return _gk_panels(f, spec)
    evals = 0
    prev = None
    for order in [8, 12, 16, 24, 32, 40, 48][: spec.max_refinements + 1]:
        value, n = _tensor_quad(f, spec.extents, order)
        evals += n
        if prev is not None:
            err = abs(value - prev)
            result = QuadratureResult(value, err, err <= spec.tol, evals)
            if result.converged:
                return result
        prev = value
    raise QuadratureError(
        f"quadrature did not converge to {spec.tol:g} "
        f"(last error estimate {result.error:g})", result)


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

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])


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

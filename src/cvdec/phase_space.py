"""n-mode phase-space formalism for Gaussian states.

Conventions (ħ = 1): canonical operators are ordered (x1, p1, ..., xn, pn),
the vacuum covariance matrix is I/2, and the Wigner function is normalized
as a probability density on quadrature phase space,

    W(X) = exp(-(X-X̄)ᵀ σ⁻¹ (X-X̄)/2) / ((2π)ⁿ √Det σ),

with characteristic function χ(X) = exp(-XᵀΩᵀσΩX/2 + i(ΩX̄)ᵀX).  Under this
convention Tr ρ² = (2π)ⁿ ∫ W² = (2π)⁻ⁿ ∫ |χ|², which for Gaussian states
reduces to 1/(2ⁿ √Det σ).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingleModeParams",
    "GaussianState",
    "symplectic_form",
    "symplectic_eigenvalues",
    "check_physical",
    "require_physical",
    "purity_gaussian",
    "von_neumann_entropy",
    "entropy_function",
    "nonclassical_depth_gaussian",
    "params_from_cm",
    "cm_from_params",
    "wigner_gaussian",
    "char_gaussian",
    "random_symplectic",
    "random_physical_cm",
]

PHYS_TOL = 1e-12
# rounding of eigvalsh on σ + iΩ/2, per unit of max|σ|: the pure two-mode
# squeezed vacuum reaches 2.8 eps for r <= 8
EIGVALSH_ROUNDING = 16.0 * np.finfo(float).eps


def _as_cm_scaled(cm, dim: int | None = None):
    """σ symmetrized, and max(1, max|σ|) per matrix, the scale of its
    rounding errors."""
    m = np.asarray(cm, dtype=float)
    if (m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2
            or m.shape[-1] == 0):
        raise ValueError("covariance matrix must be square with even dimension")
    if dim is not None and m.shape[-1] != dim:
        raise ValueError(f"expected a {dim}x{dim} covariance matrix")
    mt = np.swapaxes(m, -1, -2)
    scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
    if np.any(np.max(np.abs(m - mt), axis=(-2, -1)) > PHYS_TOL * scale):
        raise ValueError("covariance matrix must be symmetric")
    return 0.5 * (m + mt), scale


def _as_cm(cm, dim: int | None = None) -> np.ndarray:
    return _as_cm_scaled(cm, dim)[0]


def symplectic_form(n: int) -> np.ndarray:
    """Block-diagonal symplectic form, n copies of [[0, 1], [-1, 0]]."""
    if n < 1 or n != int(n):
        raise ValueError("mode count must be a positive integer")
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n, 2 * n))
    for i in range(n):
        out[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = omega
    return out


# The functions below take one covariance matrix (2n, 2n) or a stack of
# them (..., 2n, 2n), and their checks hold for every matrix of a stack.  The
# measures also take a GaussianState, checked when it was built, not again,
# and diagonalised at most once.

def _spectrum(m: np.ndarray) -> np.ndarray:
    # with σ = LLᵀ, the Hermitian i LᵀΩL is similar to iΩσ, whose
    # eigenvalues are ±ν; eigvalsh lists them ascending, so the ν are the
    # last n, reversed
    n = m.shape[-1] // 2
    chol = np.linalg.cholesky(m)
    h = 1j * (np.swapaxes(chol, -1, -2) @ symplectic_form(n) @ chol)
    return np.linalg.eigvalsh(h)[..., :n - 1:-1].copy()


def symplectic_eigenvalues(cm) -> np.ndarray:
    """Symplectic spectrum: the n positive eigenvalues of iΩσ, in
    descending order; σ must be positive definite (else LinAlgError, a
    ValueError).  A GaussianState gives its cached, read-only
    ``spectrum``."""
    if isinstance(cm, GaussianState):
        return cm.spectrum
    return _spectrum(_as_cm(cm))


def check_physical(cm) -> bool:
    """True iff σ > 0 and σ + iΩ/2 ⪰ 0, within PHYS_TOL plus
    EIGVALSH_ROUNDING·max(1, max|σ|)."""
    m, scale = _as_cm_scaled(cm)
    # one mode: σ > 0 and Det σ >= 1/4, to the resolution of the test below
    if m.shape[-1] == 2:
        det = np.linalg.det(m)
        if np.any(det <= 0.0) or np.any(m[..., 0, 0] <= 0.0):
            return False
        tol = PHYS_TOL + 2.0 * EIGVALSH_ROUNDING * scale ** 2
        return bool(np.all(det >= 0.25 - tol))
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    # Simon, Mukunda & Dutta (1994): a Hermitian test, whose rounding error
    # is a few eps·max|σ|; a ν below 1/2 moves its smallest eigenvalue only
    # by about (ν² - 1/4)/(2 max|σ|), so the tolerance stays that tight
    h = m + 0.5j * symplectic_form(m.shape[-1] // 2)
    low = np.linalg.eigvalsh(h)[..., 0]
    return bool(np.all(low >= -(PHYS_TOL + EIGVALSH_ROUNDING * scale)))


def require_physical(cm) -> np.ndarray:
    """σ checked to be physical; a GaussianState's σ passes unchecked."""
    if isinstance(cm, GaussianState):
        return cm.cm
    m = _as_cm(cm)
    if not check_physical(m):
        raise ValueError("covariance matrix violates the uncertainty principle")
    return m


def purity_gaussian(cm):
    """Tr ρ² = 1/(2ⁿ √Det σ)."""
    m = require_physical(cm)
    n = m.shape[-1] // 2
    return (1.0 / (2 ** n * np.sqrt(np.linalg.det(m))))[()]


def entropy_function(x) -> np.ndarray:
    """Bosonic entropy function f(x) = (x+1/2)ln(x+1/2) - (x-1/2)ln(x-1/2)."""
    x = np.asarray(x, dtype=float)
    plus = (x + 0.5) * np.log(x + 0.5)
    arg = np.maximum(x - 0.5, 0.0)
    minus = np.where(arg > 0.0, arg * np.log(np.maximum(arg, 1e-300)), 0.0)
    return plus - minus


def von_neumann_entropy(cm):
    """S_V = Σ f(ν_i) in nats; 0 for pure states."""
    if not isinstance(cm, GaussianState):
        cm = require_physical(cm)
    nus = np.maximum(symplectic_eigenvalues(cm), 0.5)
    return np.sum(entropy_function(nus), axis=-1)[()]


def nonclassical_depth_gaussian(cm):
    """τ = max[(1 - 2u)/2, 0] with u the smallest ordinary eigenvalue of σ."""
    m = require_physical(cm)
    u = np.linalg.eigvalsh(m)[..., 0]
    return np.maximum(0.5 * (1.0 - 2.0 * u), 0.0)[()]


# ---------------------------------------------------------------------------
# single-mode parametrization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleModeParams:
    """(purity, squeezing modulus, squeezing angle) of a 2x2 covariance matrix."""

    mu: float
    r: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0 + 1e-12:
            raise ValueError("purity must lie in (0, 1]")
        if self.r < 0.0:
            raise ValueError("squeezing modulus must be nonnegative")
        if not -np.pi / 2 < self.phi <= np.pi / 2 + 1e-12:
            raise ValueError("squeezing angle must lie in (-pi/2, pi/2]")


def _squeezed_thermal_cm(mu, r, cp, sp) -> np.ndarray:
    """2x2 matrix of purity mu, squeezing r and (cos 2φ, sin 2φ) = (cp, sp)."""
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return np.array([[c - s * cp, s * sp],
                     [s * sp, c + s * cp]]) / (2.0 * mu)


def cm_from_params(p: SingleModeParams) -> np.ndarray:
    return _squeezed_thermal_cm(p.mu, p.r, math.cos(2.0 * p.phi),
                                math.sin(2.0 * p.phi))


def params_from_cm(cm) -> SingleModeParams:
    m = require_physical(_as_cm(cm, 2))
    mu = 1.0 / (2.0 * math.sqrt(np.linalg.det(m)))
    # sinh 2r from the anisotropy: acosh of the trace cancels near r = 0
    r = 0.5 * math.asinh(mu * math.hypot(m[1, 1] - m[0, 0], 2.0 * m[0, 1]))
    if math.sinh(2.0 * r) < 1e-12:
        phi = 0.0
    else:
        phi = 0.5 * math.atan2(2.0 * m[0, 1], m[1, 1] - m[0, 0])
        if phi <= -np.pi / 2:
            phi += np.pi
    return SingleModeParams(mu=min(mu, 1.0), r=r, phi=phi)


# ---------------------------------------------------------------------------
# Gaussian states and their phase-space representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianState:
    """First moments and covariance matrix of an n-mode Gaussian state, or
    a stack of states: ``mean`` (..., 2n) and ``cm`` (..., 2n, 2n).  ``cm``
    is checked once, when the state is built, and is read-only; its
    symplectic spectrum ``spectrum`` (..., n) is computed on first use."""

    mean: np.ndarray
    cm: np.ndarray

    def __post_init__(self):
        cm = require_physical(self.cm)
        mean = np.asarray(self.mean, dtype=float).reshape(cm.shape[:-2] + (-1,))
        if mean.shape[-1] != cm.shape[-1]:
            raise ValueError("first-moment vector length must match the CM")
        cm.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cm", cm)

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Symplectic spectrum of ``cm``, descending; read-only."""
        nus = _spectrum(self.cm)
        nus.flags.writeable = False
        return nus

    @property
    def n_modes(self) -> int:
        return self.mean.shape[-1] // 2

    @classmethod
    def vacuum(cls, n: int = 1) -> "GaussianState":
        return cls(np.zeros(2 * n), 0.5 * np.eye(2 * n))

    @classmethod
    def from_params(cls, p: SingleModeParams,
                    mean=(0.0, 0.0)) -> "GaussianState":
        return cls(np.asarray(mean, dtype=float), cm_from_params(p))


def wigner_gaussian(state: GaussianState, point) -> np.ndarray:
    """Wigner density at one point (shape (2n,)) or a batch (N, 2n)."""
    x = np.asarray(point, dtype=float)
    scalar = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != state.mean.size:
        raise ValueError("point dimension does not match the state")
    det = np.linalg.det(state.cm)
    if det <= 0:
        raise ValueError("singular covariance matrix")
    inv = np.linalg.inv(state.cm)
    d = x - state.mean
    quad = np.einsum("ij,ij->i", d @ inv, d)
    norm = (2.0 * np.pi) ** state.n_modes * math.sqrt(det)
    out = np.exp(-0.5 * quad) / norm
    return out[0] if scalar else out


def char_gaussian(state: GaussianState, point) -> np.ndarray:
    """Characteristic function χ(X) = exp(-XᵀΩᵀσΩX/2 + i(ΩX̄)ᵀX)."""
    x = np.asarray(point, dtype=float)
    scalar = x.ndim == 1
    x = np.atleast_2d(x)
    omega = symplectic_form(state.n_modes)
    ox = x @ omega.T  # each row is ΩX
    quad = np.einsum("ij,ij->i", ox @ state.cm, ox)
    phase = x @ (omega @ state.mean)
    out = np.exp(-0.5 * quad + 1j * phase)
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# randomized test helpers
# ---------------------------------------------------------------------------

def random_symplectic(n: int, rng: np.random.Generator,
                      scale: float = 0.5) -> np.ndarray:
    """Random symplectic matrix exp(ΩA) with A symmetric."""
    a = rng.normal(scale=scale, size=(2 * n, 2 * n))
    a = 0.5 * (a + a.T)
    from scipy.linalg import expm

    return expm(symplectic_form(n) @ a)


def random_physical_cm(n: int, rng: np.random.Generator,
                       nu_max: float = 3.0, pure: bool = False,
                       scale: float = 0.5) -> np.ndarray:
    """Random physical covariance matrix S diag(ν)⊗I Sᵀ."""
    if pure:
        nus = np.full(n, 0.5)
    else:
        nus = rng.uniform(0.5, nu_max, size=n)
    s = random_symplectic(n, rng, scale=scale)
    d = np.diag(np.repeat(nus, 2))
    return s @ d @ s.T

"""Gaussian dissipative channels: bath parametrization, exact moment
evolution, and the single-mode closed-form decoherence trackers.

A bath is a squeezed thermal reservoir described either by its asymptotic
purity/squeezing (mu_inf, r_inf, phi_inf) together with the coupling gamma,
or equivalently by the correlation parameters (N, M).  Its covariance
matrix is

    σ∞ = [[1/2 + N + Re M, Im M], [Im M, 1/2 + N - Re M]],

with N = (cosh 2r∞ / μ∞ - 1)/2, |M| = sinh 2r∞ / (2 μ∞), Arg M = -2 φ∞.
Note that relative to the system-state parametrization of
:func:`cvdec.phase_space.cm_from_params` the bath angle is offset by π/2:
a bath with φ∞ = 0 has its *larger* variance along x.  This is the
orientation under which the master-equation fixed point, the evolved purity
formula and the countersqueezing optimality statement are all mutually
consistent (the numerical integrator in :mod:`cvdec.numerics` arbitrates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import (
    GaussianState,
    SingleModeParams,
    check_physical,
    cm_from_params,
    params_from_cm,
    purity_gaussian,
    symplectic_form,
)

__all__ = [
    "BathParams",
    "NMParams",
    "ChannelSpec",
    "PhiResult",
    "env_cm",
    "bath_from_nm",
    "nm_from_bath",
    "gamma_matrix",
    "sigma_inf_t",
    "evolve_moments",
    "gaussian_map_check",
    "single_mode_purity_t",
    "single_mode_r_t",
    "single_mode_phi_t",
    "single_mode_tau_t",
    "t_min",
    "t_nc",
]


@dataclass(frozen=True)
class BathParams:
    """Single-mode squeezed thermal reservoir."""

    gamma: float
    mu_inf: float
    r_inf: float = 0.0
    phi_inf: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("coupling must be positive")
        if not 0.0 < self.mu_inf <= 1.0:
            raise ValueError("asymptotic purity must lie in (0, 1]")
        if self.r_inf < 0:
            raise ValueError("bath squeezing must be nonnegative")
        # the induced (N, M) automatically satisfy |M|^2 <= N(N+1)
        nm = nm_from_bath(self)
        if abs(nm.M) ** 2 > nm.N * (nm.N + 1.0) + 1e-12:
            raise ValueError("bath parameters violate |M|^2 <= N(N+1)")

    @property
    def is_thermal(self) -> bool:
        return self.r_inf == 0.0


@dataclass(frozen=True)
class NMParams:
    """Reservoir correlation parameters (mean photons N, squeezing M)."""

    N: float
    M: complex

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("mean photon number must be nonnegative")
        if abs(self.M) ** 2 > self.N * (self.N + 1.0) + 1e-12:
            raise ValueError("|M|^2 must not exceed N(N+1)")


@dataclass(frozen=True)
class ChannelSpec:
    """Uncorrelated baths, one per mode."""

    baths: tuple[BathParams, ...]

    def __post_init__(self):
        if len(self.baths) == 0:
            raise ValueError("at least one bath is required")
        object.__setattr__(self, "baths", tuple(self.baths))

    @classmethod
    def uniform(cls, bath: BathParams, n: int) -> "ChannelSpec":
        return cls((bath,) * n)

    @property
    def n_modes(self) -> int:
        return len(self.baths)

    @property
    def equal_couplings(self) -> bool:
        g = self.baths[0].gamma
        return all(b.gamma == g for b in self.baths)


def env_cm(bath: BathParams) -> np.ndarray:
    """Asymptotic 2x2 covariance matrix of the reservoir."""
    c, s = math.cosh(2.0 * bath.r_inf), math.sinh(2.0 * bath.r_inf)
    cp, sp = math.cos(2.0 * bath.phi_inf), math.sin(2.0 * bath.phi_inf)
    return np.array([
        [c + s * cp, -s * sp],
        [-s * sp, c - s * cp],
    ]) / (2.0 * bath.mu_inf)


def nm_from_bath(b: BathParams) -> NMParams:
    n = 0.5 * (math.cosh(2.0 * b.r_inf) / b.mu_inf - 1.0)
    m = math.sinh(2.0 * b.r_inf) / (2.0 * b.mu_inf) * np.exp(-2j * b.phi_inf)
    return NMParams(N=n, M=complex(m))


def bath_from_nm(nm: NMParams, gamma: float) -> BathParams:
    disc = (2.0 * nm.N + 1.0) ** 2 - 4.0 * abs(nm.M) ** 2
    if disc <= 0:
        raise ValueError("invalid (N, M): nonpositive purity discriminant")
    mu = 1.0 / math.sqrt(disc)
    cosh2r = math.sqrt(1.0 + 4.0 * mu * mu * abs(nm.M) ** 2)
    r = 0.5 * math.acosh(max(cosh2r, 1.0))
    phi = -0.5 * math.atan2(nm.M.imag, nm.M.real) if nm.M != 0 else 0.0
    return BathParams(gamma=gamma, mu_inf=min(mu, 1.0), r_inf=r, phi_inf=phi)


# math.exp elementwise.  np.exp rounds differently in the last bit for a
# few percent of arguments; math.exp keeps the evolved covariance matrices,
# and so the CSV bytes, as cvdec has written them.
_exp = np.vectorize(math.exp, otypes=[float])


def _times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    return t


def gamma_matrix(ch: ChannelSpec, t) -> np.ndarray:
    """Damping matrix Γ(t) = ⊕ exp(-γ_i t / 2) I₂; a (..., 2n, 2n) stack
    for an array of times."""
    t = _times(t)
    rates = np.repeat([-0.5 * b.gamma for b in ch.baths], 2)
    out = np.zeros(t.shape + (rates.size, rates.size))
    idx = np.arange(rates.size)
    out[..., idx, idx] = _exp(np.multiply.outer(t, rates))
    return out


def sigma_inf_t(ch: ChannelSpec, t) -> np.ndarray:
    """Additive noise σ∞(t) = ⊕ σ_i∞ (1 - exp(-γ_i t)); a (..., 2n, 2n)
    stack for an array of times."""
    t = _times(t)
    n = ch.n_modes
    out = np.zeros(t.shape + (2 * n, 2 * n))
    for i, b in enumerate(ch.baths):
        out[..., 2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = \
            env_cm(b) * (1.0 - _exp(-b.gamma * t))[..., None, None]
    return out


def evolve_moments(state: GaussianState, ch: ChannelSpec, t) -> GaussianState:
    """Exact action of the channel on first and second moments; an array
    of times gives the stack of evolved states."""
    if state.n_modes != ch.n_modes:
        raise ValueError("state and channel mode counts differ")
    g = gamma_matrix(ch, t)
    return GaussianState(g @ state.mean, g @ state.cm @ g + sigma_inf_t(ch, t))


def gaussian_map_check(xm, ym, tol: float = 1e-12) -> bool:
    """Complete positivity of σ → XᵀσX + Y: Y + iΩ - iXᵀΩX ⪰ -tol."""
    x = np.asarray(xm, dtype=float)
    y = np.asarray(ym, dtype=float)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] % 2:
        raise ValueError("X and Y must be equal-size square 2n x 2n matrices")
    if np.max(np.abs(y - y.T)) > 1e-12 * max(1.0, np.max(np.abs(y))):
        raise ValueError("Y must be symmetric")
    omega = symplectic_form(x.shape[0] // 2)
    h = y + 1j * omega - 1j * (x.T @ omega @ x)
    return bool(np.min(np.linalg.eigvalsh(0.5 * (h + h.conj().T))) >= -tol)


# ---------------------------------------------------------------------------
# single-mode closed forms
# ---------------------------------------------------------------------------

def single_mode_purity_t(init: SingleModeParams, bath: BathParams, t):
    """Evolved purity μ(t) in closed form (vectorized over t)."""
    t = _times(t)
    k = np.exp(-bath.gamma * t)
    mu0, mui = init.mu, bath.mu_inf
    cross = (math.cosh(2.0 * bath.r_inf) * math.cosh(2.0 * init.r)
             + math.sinh(2.0 * bath.r_inf) * math.sinh(2.0 * init.r)
             * math.cos(2.0 * bath.phi_inf - 2.0 * init.phi))
    inner = ((mu0 / mui) ** 2 * (1.0 - k) ** 2 + k * k
             + 2.0 * (mu0 / mui) * cross * (1.0 - k) * k)
    return mu0 / np.sqrt(inner)


def _kappa_t(init: SingleModeParams, bath: BathParams, t):
    k = np.exp(-bath.gamma * np.asarray(t, dtype=float))
    return (math.cosh(2.0 * init.r) / init.mu * k
            + math.cosh(2.0 * bath.r_inf) / bath.mu_inf * (1.0 - k))


def single_mode_r_t(init: SingleModeParams, bath: BathParams, t):
    """Evolved squeezing modulus r(t), from cosh 2r(t) = μ(t) κ(t)."""
    mu = single_mode_purity_t(init, bath, t)
    cosh2r = np.maximum(mu * _kappa_t(init, bath, t), 1.0)
    return 0.5 * np.arccosh(cosh2r)


@dataclass(frozen=True)
class PhiResult:
    """Evolved squeezing angle; degenerate marks r(t) = 0 where φ is
    conventional."""

    phi: float
    degenerate: bool


def single_mode_phi_t(init: SingleModeParams, bath: BathParams, t: float) -> PhiResult:
    """Evolved squeezing angle φ(t) ∈ (-π/2, π/2] via the two-argument
    arctangent of the evolved off-diagonal/diagonal balance."""
    t = float(t)
    if t < 0:
        raise ValueError("time must be nonnegative")
    k = math.exp(-bath.gamma * t)
    s0 = math.sinh(2.0 * init.r)
    si = math.sinh(2.0 * bath.r_inf)
    ratio = init.mu / bath.mu_inf
    num = s0 * math.sin(2.0 * init.phi) * k \
        - si * math.sin(2.0 * bath.phi_inf) * ratio * (1.0 - k)
    den = s0 * math.cos(2.0 * init.phi) * k \
        - si * math.cos(2.0 * bath.phi_inf) * ratio * (1.0 - k)
    if math.hypot(num, den) < 1e-14:
        return PhiResult(phi=0.0, degenerate=True)
    phi = 0.5 * math.atan2(num, den)
    if phi <= -np.pi / 2:
        phi += np.pi
    return PhiResult(phi=phi, degenerate=False)


def single_mode_tau_t(init: SingleModeParams, bath: BathParams, t):
    """Evolved nonclassical depth τ(t) = [1 - κ + √(κ² - 1/μ²)]/2, clamped."""
    mu = single_mode_purity_t(init, bath, t)
    kappa = _kappa_t(init, bath, t)
    disc = np.maximum(kappa * kappa - 1.0 / (mu * mu), 0.0)
    return np.maximum(0.5 * (1.0 - kappa + np.sqrt(disc)), 0.0)


def t_min(init: SingleModeParams, bath: BathParams) -> float | None:
    """Time of the interior purity minimum in a thermal bath, if any."""
    if not bath.is_thermal:
        raise ValueError("the purity-minimum formula applies to thermal baths")
    ratio = init.mu / bath.mu_inf
    cosh2r0 = math.cosh(2.0 * init.r)
    if cosh2r0 <= max(ratio, 1.0 / ratio):
        return None
    arg = (ratio - cosh2r0) / (ratio + 1.0 / ratio - 2.0 * cosh2r0)
    if not 0.0 < arg < 1.0:
        return None
    return -math.log(arg) / bath.gamma


def t_nc(bath: BathParams) -> float:
    """State-independent instant at which any pure non-Gaussian input's
    Wigner function becomes nonnegative."""
    if not bath.is_thermal:
        raise ValueError("the positive time applies to thermal baths")
    return math.log(1.0 + bath.mu_inf) / bath.gamma


# convenience re-exports used by higher layers ------------------------------

def evolved_params(init: SingleModeParams, bath: BathParams, t: float) -> SingleModeParams:
    """params_from_cm(evolve_moments(...)) for a centered single-mode input."""
    state = GaussianState(np.zeros(2), cm_from_params(init))
    out = evolve_moments(state, ChannelSpec((bath,)), t)
    return params_from_cm(out.cm)

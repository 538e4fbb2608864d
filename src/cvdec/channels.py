"""Gaussian dissipative channels: bath parametrization, exact moment
evolution, and the single-mode closed-form decoherence trackers.

A bath is a squeezed thermal reservoir described by its asymptotic
purity/squeezing (mu_inf, r_inf, phi_inf) together with the coupling gamma.
Its correlation parameters (N, M), which the master-equation oracle of
:mod:`cvdec.numerics` takes, come from :func:`nm_from_bath`.  Its covariance
matrix is

    σ∞ = [[1/2 + N + Re M, Im M], [Im M, 1/2 + N - Re M]],

with N = (cosh 2r∞ / μ∞ - 1)/2, |M| = sinh 2r∞ / (2 μ∞), Arg M = -2 φ∞.
It is :func:`cvdec.phase_space.cm_from_params` with (cos 2φ, sin 2φ)
negated, so the bath angle is offset by π/2: a bath with φ∞ = 0 has its
*larger* variance along x.  This is the orientation under which the
master-equation fixed point, the evolved purity formula and the
countersqueezing optimality statement are all mutually consistent (the
numerical integrator in :mod:`cvdec.numerics` arbitrates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import (
    GaussianState,
    SingleModeParams,
    _squeezed_thermal_cm,
    params_from_cm,
    symplectic_form,
)

__all__ = [
    "BathParams",
    "ChannelSpec",
    "env_cm",
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
    "t_pos",
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

    @property
    def is_thermal(self) -> bool:
        return self.r_inf == 0.0


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
    return _squeezed_thermal_cm(bath.mu_inf, bath.r_inf,
                                -math.cos(2.0 * bath.phi_inf),
                                -math.sin(2.0 * bath.phi_inf))


def nm_from_bath(b: BathParams) -> tuple[float, complex]:
    """Mean photon number N and squeezing correlation M of the bath; they
    satisfy N(N+1) - |M|² = (1/μ∞² - 1)/4 ≥ 0."""
    n = 0.5 * (math.cosh(2.0 * b.r_inf) / b.mu_inf - 1.0)
    m = math.sinh(2.0 * b.r_inf) / (2.0 * b.mu_inf) * np.exp(-2j * b.phi_inf)
    return n, complex(m)


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
    out[..., idx, idx] = np.exp(np.multiply.outer(t, rates))
    return out


def sigma_inf_t(ch: ChannelSpec, t) -> np.ndarray:
    """Additive noise σ∞(t) = ⊕ σ_i∞ (1 - exp(-γ_i t)); a (..., 2n, 2n)
    stack for an array of times."""
    t = _times(t)
    n = ch.n_modes
    out = np.zeros(t.shape + (2 * n, 2 * n))
    for i, b in enumerate(ch.baths):
        out[..., 2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = \
            env_cm(b) * (1.0 - np.exp(-b.gamma * t))[..., None, None]
    return out


def evolve_moments(state: GaussianState, ch: ChannelSpec, t) -> GaussianState:
    """Exact action of the channel on first and second moments; an array
    of times gives the stack of evolved states."""
    if state.n_modes != ch.n_modes:
        raise ValueError("state and channel mode counts differ")
    g = gamma_matrix(ch, t)
    return GaussianState(g @ state.mean, g @ state.cm @ g + sigma_inf_t(ch, t))


def gaussian_map_check(xm, ym) -> bool:
    """Complete positivity of σ → XᵀσX + Y: Y + iΩ - iXᵀΩX ⪰ -1e-12."""
    x = np.asarray(xm, dtype=float)
    y = np.asarray(ym, dtype=float)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] % 2:
        raise ValueError("X and Y must be equal-size square 2n x 2n matrices")
    if np.max(np.abs(y - y.T)) > 1e-12 * max(1.0, np.max(np.abs(y))):
        raise ValueError("Y must be symmetric")
    omega = symplectic_form(x.shape[0] // 2)
    h = y + 1j * omega - 1j * (x.T @ omega @ x)
    return bool(np.min(np.linalg.eigvalsh(0.5 * (h + h.conj().T))) >= -1e-12)


# ---------------------------------------------------------------------------
# single-mode closed forms
# ---------------------------------------------------------------------------

def single_mode_purity_t(init: SingleModeParams, bath: BathParams, t):
    """Evolved purity μ(t) in closed form, elementwise over an array t."""
    t = _times(t)
    k = np.exp(-bath.gamma * t)
    mu0, mui = init.mu, bath.mu_inf
    cross = (math.cosh(2.0 * bath.r_inf) * math.cosh(2.0 * init.r)
             + math.sinh(2.0 * bath.r_inf) * math.sinh(2.0 * init.r)
             * math.cos(2.0 * bath.phi_inf - 2.0 * init.phi))
    inner = ((mu0 / mui) ** 2 * (1.0 - k) ** 2 + k * k
             + 2.0 * (mu0 / mui) * cross * (1.0 - k) * k)
    return mu0 / np.sqrt(inner)


def _anisotropy(init: SingleModeParams, bath: BathParams, k):
    """μ₀ (2σ₁₂, σ₂₂ - σ₁₁) of the evolved state at k = e^{-γt}, elementwise
    over an array k: linear in k, so exactly 0 when r₀ = r∞ = 0."""
    s0 = math.sinh(2.0 * init.r)
    si = math.sinh(2.0 * bath.r_inf)
    ratio = init.mu / bath.mu_inf
    num = s0 * math.sin(2.0 * init.phi) * k \
        - si * math.sin(2.0 * bath.phi_inf) * ratio * (1.0 - k)
    den = s0 * math.cos(2.0 * init.phi) * k \
        - si * math.cos(2.0 * bath.phi_inf) * ratio * (1.0 - k)
    return num, den


def single_mode_r_t(init: SingleModeParams, bath: BathParams, t):
    """Evolved squeezing modulus r(t), elementwise over an array t, from
    sinh 2r = μ(t)·hypot(num, den)/μ₀ as in params_from_cm: exactly 0 when
    r₀ = r∞ = 0."""
    t = _times(t)
    num, den = _anisotropy(init, bath, np.exp(-bath.gamma * t))
    mu = single_mode_purity_t(init, bath, t)
    return 0.5 * np.arcsinh(mu * np.hypot(num, den) / init.mu)


def single_mode_phi_t(init: SingleModeParams, bath: BathParams, t):
    """Evolved squeezing angle φ(t) ∈ (-π/2, π/2], elementwise over an array
    t, from the two-argument arctangent of the anisotropy; 0 where r(t) = 0
    and the angle is conventional."""
    num, den = _anisotropy(init, bath, np.exp(-bath.gamma * _times(t)))
    phi = 0.5 * np.arctan2(num, den)
    phi = np.where(phi <= -np.pi / 2, phi + np.pi, phi)
    return np.where(np.hypot(num, den) < 1e-14, 0.0, phi)[()]


def single_mode_tau_t(init: SingleModeParams, bath: BathParams, t):
    """Evolved nonclassical depth τ(t) = [1 - κ + √(κ² - 1/μ²)]/2, clamped.
    κ² - 1/μ² = (σ₁₁ - σ₂₂)² + 4σ₁₂², so the root is the length of the
    anisotropy over μ₀, which does not cancel."""
    k = np.exp(-bath.gamma * _times(t))
    num, den = _anisotropy(init, bath, k)
    kappa = (math.cosh(2.0 * init.r) / init.mu * k
             + math.cosh(2.0 * bath.r_inf) / bath.mu_inf * (1.0 - k))
    return np.maximum(0.5 * (1.0 - kappa + np.hypot(num, den) / init.mu), 0.0)


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


def t_pos(bath: BathParams) -> float:
    """Time ln(1 + μ∞e^{2r∞})/γ from which the Wigner function of every
    input state is nonnegative.

    The channel maps W₀ to W_t = (k-scaled W₀) ∗ G_{(1-k)σ∞}, k = e^{-γt}.
    Once (1-k)σ∞ ⪰ (k/2)I, which with λ_min(σ∞) = e^{-2r∞}/(2μ∞) holds
    from this time on, W_t is the k-scaled Husimi function convolved with
    the Gaussian of (1-k)σ∞ - (k/2)I, so W_t ≥ 0.
    """
    return math.log(1.0 + bath.mu_inf * math.exp(2.0 * bath.r_inf)) / bath.gamma


def t_nc(bath: BathParams) -> float:
    """State-independent instant at which any pure non-Gaussian input's
    Wigner function becomes nonnegative in a thermal bath: ln(1 + μ∞)/γ,
    which is :func:`t_pos` at r∞ = 0."""
    if not bath.is_thermal:
        raise ValueError("the positive time applies to thermal baths")
    return t_pos(bath)


def evolved_params(init: SingleModeParams, bath: BathParams, t: float) -> SingleModeParams:
    """params_from_cm(evolve_moments(...)) for a centered single-mode input."""
    out = evolve_moments(GaussianState.from_params(init), ChannelSpec((bath,)), t)
    return params_from_cm(out.cm)

"""Two-mode Gaussian entanglement and correlation dynamics: standard forms,
PPT spectrum, logarithmic negativity, mutual information, nonclassical depth,
entanglement time and teleportation fidelity.

The standard form of a two-mode covariance matrix is

    σ = [[a I₂, C], [Cᵀ, b I₂]],   C = diag(c₁, c₂),

ordered so that |c₂| ≥ |c₁|.  All entanglement quantities are functions of
the local-symplectic invariants Det α, Det β, Det γ and Det σ.  The
coefficient polynomials of :func:`coefficient_set` expand those determinants
in powers of k = e^{-γt}; they are stated in the gauge where bath 1 has zero
squeezing angle, and carry the sign substitutions (sinh 2r₁ → -sinh 2r₁,
cos 2φ₂ → -cos 2φ₂) required by the bath orientation of
:func:`cvdec.channels.env_cm`.  Every coefficient is cross-checkable against
the direct determinants of :func:`cvdec.channels.evolve_moments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .channels import ChannelSpec, _exp, _times, evolve_moments
from .numerics import polynomial_real_roots
from .phase_space import (
    GaussianState,
    require_physical,
    von_neumann_entropy,
)

__all__ = [
    "StandardForm",
    "TwoModeInvariants",
    "SqueezedThermalParams",
    "CoefficientSet",
    "standard_form_to_cm",
    "invariants",
    "ppt_symplectic_eigenvalues",
    "log_negativity",
    "is_separable",
    "mutual_information",
    "smallest_eigenvalue_u",
    "coefficient_set",
    "evolved_invariants",
    "entanglement_time",
    "entanglement_time_symmetric",
    "entanglement_time_bounds",
    "two_mode_tau_t",
    "teleportation_fidelity",
    "fidelity_t",
]


@dataclass(frozen=True)
class StandardForm:
    """Normal form (a, b, c1, c2) of a two-mode covariance matrix."""

    a: float
    b: float
    c1: float
    c2: float

    def __post_init__(self):
        if self.a < 0.5 or self.b < 0.5:
            raise ValueError("local variances must be at least 1/2")
        if abs(self.c2) < abs(self.c1) - 1e-12:
            raise ValueError("canonical ordering requires |c2| >= |c1|")
        require_physical(standard_form_to_cm(self, validate=False))

    @property
    def symmetric(self) -> bool:
        return abs(self.a - self.b) < 1e-12


@dataclass(frozen=True)
class TwoModeInvariants:
    """Local-symplectic invariants of a two-mode covariance matrix, or
    arrays of them over a stack of matrices."""

    det_sigma: float
    det_alpha: float
    det_beta: float
    det_gamma: float

    @property
    def delta(self) -> float:
        return self.det_alpha + self.det_beta + 2.0 * self.det_gamma

    @property
    def delta_tilde(self) -> float:
        return self.det_alpha + self.det_beta - 2.0 * self.det_gamma


@dataclass(frozen=True)
class SqueezedThermalParams:
    """Two-mode squeezed thermal state: global purity μ and squeezing r."""

    mu: float
    r: float

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("global purity must lie in (0, 1]")
        if self.r < 0.0:
            raise ValueError("two-mode squeezing must be nonnegative")

    @property
    def standard_form(self) -> StandardForm:
        a = math.cosh(2.0 * self.r) / (2.0 * math.sqrt(self.mu))
        c = math.sinh(2.0 * self.r) / (2.0 * math.sqrt(self.mu))
        return StandardForm(a=a, b=a, c1=c, c2=-c)


def standard_form_to_cm(sf: StandardForm, validate: bool = True) -> np.ndarray:
    cm = np.array([
        [sf.a, 0.0, sf.c1, 0.0],
        [0.0, sf.a, 0.0, sf.c2],
        [sf.c1, 0.0, sf.b, 0.0],
        [0.0, sf.c2, 0.0, sf.b],
    ])
    return require_physical(cm) if validate else cm


# The functions below take one 4x4 covariance matrix or a stack
# (..., 4, 4) of them, and return one value per matrix.  Their checks hold
# for every matrix of a stack.

# math.log elementwise, for the same reason as channels._exp
_log = np.vectorize(math.log, otypes=[float])


def _blocks(cm):
    m = np.asarray(cm, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 covariance matrix")
    return m[..., :2, :2], m[..., 2:, 2:], m[..., :2, 2:]


def invariants(cm) -> TwoModeInvariants:
    """Determinants of the 2x2 blocks and of the full matrix."""
    alpha, beta, gamma = _blocks(require_physical(cm))
    return TwoModeInvariants(
        det_sigma=np.linalg.det(np.asarray(cm, dtype=float))[()],
        det_alpha=np.linalg.det(alpha)[()],
        det_beta=np.linalg.det(beta)[()],
        det_gamma=np.linalg.det(gamma)[()],
    )


def ppt_symplectic_eigenvalues(cm):
    """(ν̃₋, ν̃₊) of the partially transposed covariance matrix, from the
    closed form 2ν̃∓² = Δ̃ ∓ √(Δ̃² - 4 Det σ)."""
    inv = invariants(cm)
    dt = inv.delta_tilde
    disc = dt * dt - 4.0 * inv.det_sigma
    if np.any(disc < -1e-12):
        raise ArithmeticError("negative PPT discriminant beyond tolerance")
    root = np.sqrt(np.maximum(disc, 0.0))
    nu_minus = np.sqrt(np.maximum(0.5 * (dt - root), 0.0))
    nu_plus = np.sqrt(0.5 * (dt + root))
    return nu_minus[()], nu_plus[()]


def log_negativity(cm):
    """E_N = max(0, -ln 2ν̃₋)."""
    nu_minus, _ = ppt_symplectic_eigenvalues(cm)
    return np.maximum(0.0, -_log(2.0 * nu_minus))[()]


def is_separable(cm, tol: float = 1e-12) -> bool:
    nu_minus, _ = ppt_symplectic_eigenvalues(cm)
    return nu_minus >= 0.5 - tol


def mutual_information(cm):
    """I = S_V(mode 1) + S_V(mode 2) - S_V(joint), in nats."""
    m = require_physical(cm)
    alpha, beta, _ = _blocks(m)
    value = (von_neumann_entropy(alpha) + von_neumann_entropy(beta)
             - von_neumann_entropy(m))
    if np.any(value < -1e-9):
        raise ArithmeticError("subadditivity violated beyond tolerance")
    return np.maximum(value, 0.0)[()]


def smallest_eigenvalue_u(sf: StandardForm) -> float:
    """Smallest ordinary eigenvalue: 2u = a + b - √((a-b)² + 4c₂²)."""
    return 0.5 * (sf.a + sf.b
                  - math.hypot(sf.a - sf.b, 2.0 * sf.c2))


# ---------------------------------------------------------------------------
# coefficient expansion of the evolved invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSet:
    """Polynomial coefficients in k = e^{-γt} of the evolved invariants,
    plus the quartic (u, v, w, y, z) whose root gives the entanglement time."""

    sigma: tuple[float, float, float, float, float]  # Σ₀..Σ₄
    alpha: tuple[float, float, float]                # α₀..α₂
    beta: tuple[float, float, float]                 # β₀..β₂
    gamma_2: float

    def det_sigma(self, k):
        return sum(c * np.asarray(k, dtype=float) ** i for i, c in enumerate(self.sigma))

    def det_alpha(self, k):
        return sum(c * np.asarray(k, dtype=float) ** i for i, c in enumerate(self.alpha))

    def det_beta(self, k):
        return sum(c * np.asarray(k, dtype=float) ** i for i, c in enumerate(self.beta))

    def det_gamma(self, k):
        return self.gamma_2 * np.asarray(k, dtype=float) ** 2

    @property
    def quartic(self) -> tuple[float, float, float, float, float]:
        """(u, v, w, y, z) of u k⁴ + v k³ + w k² + y k + z = 0, the
        separability condition Δ̃(k) = 4 Det σ(k) + 1/4."""
        s0, s1, s2, s3, s4 = self.sigma
        a0, a1, a2 = self.alpha
        b0, b1, b2 = self.beta
        return (
            4.0 * s4,
            4.0 * s3,
            4.0 * s2 - a2 - b2 + 2.0 * self.gamma_2,
            4.0 * s1 - a1 - b1,
            4.0 * s0 - a0 - b0 + 0.25,
        )


def _require_coefficient_channel(ch: ChannelSpec):
    if ch.n_modes != 2:
        raise ValueError("a two-mode channel is required")
    if not ch.equal_couplings:
        raise ValueError("coefficient expansion requires equal couplings")
    if ch.baths[0].phi_inf != 0.0:
        raise ValueError("coefficient expansion is stated in the gauge "
                         "where bath 1 has zero squeezing angle")
    return ch.baths


def coefficient_set(sf: StandardForm, ch: ChannelSpec) -> CoefficientSet:
    """Expansion coefficients of Det σ(t), Det α(t), Det β(t), Det γ(t)."""
    b1, b2 = _require_coefficient_channel(ch)
    a, b, c1, c2 = sf.a, sf.b, sf.c1, sf.c2
    ch1, ch2 = math.cosh(2.0 * b1.r_inf), math.cosh(2.0 * b2.r_inf)
    # sign substitutions matching the env_cm orientation
    s1 = -math.sinh(2.0 * b1.r_inf)
    s2 = math.sinh(2.0 * b2.r_inf)
    cf = -math.cos(2.0 * b2.phi_inf)
    m1, m2 = b1.mu_inf, b2.mu_inf
    cs = c1 * c1 + c2 * c2
    cd = c1 * c1 - c2 * c2

    sigma4 = (a * a * b * b + a * a / (4 * m2 * m2) + b * b / (4 * m1 * m1)
              - a * a * b * ch2 / m2 - a * b * b * ch1 / m1
              + a * b * ch1 * ch2 / (m1 * m2)
              - a * ch1 / (4 * m1 * m2 * m2) - b * ch2 / (4 * m1 * m1 * m2)
              + cs * (a * ch2 / (2 * m2) + b * ch1 / (2 * m1)
                      - ch1 * ch2 / (4 * m1 * m2)
                      - s1 * s2 * cf / (4 * m1 * m2) - a * b)
              + cd * (a * s2 * cf / (2 * m2) + b * s1 / (2 * m1)
                      - s1 * ch2 / (4 * m1 * m2)
                      - ch1 * s2 * cf / (4 * m1 * m2))
              + c1 * c1 * c2 * c2 + 1.0 / (16 * m1 * m1 * m2 * m2))
    sigma3 = (-a * a / (2 * m2 * m2) - b * b / (2 * m1 * m1)
              + a * a * b * ch2 / m2 + a * b * b * ch1 / m1
              - 2 * a * b * ch1 * ch2 / (m1 * m2)
              + 3 * a * ch1 / (4 * m1 * m2 * m2) + 3 * b * ch2 / (4 * m1 * m1 * m2)
              - cd * (a * s2 * cf / (2 * m2) + b * s1 / (2 * m1)
                      - s1 * ch2 / (2 * m1 * m2)
                      - ch1 * s2 * cf / (2 * m1 * m2))
              - cs * (a * ch2 / (2 * m2) + b * ch1 / (2 * m1)
                      - ch1 * ch2 / (2 * m1 * m2)
                      - s1 * s2 * cf / (2 * m1 * m2))
              - 1.0 / (4 * m1 * m1 * m2 * m2))
    sigma2 = (a * a / (4 * m2 * m2) + b * b / (4 * m1 * m1)
              + a * b * ch1 * ch2 / (m1 * m2)
              - 3 * a * ch1 / (4 * m1 * m2 * m2)
              - 3 * b * ch2 / (4 * m1 * m1 * m2)
              - cs * (ch1 * ch2 / (4 * m1 * m2) + s1 * s2 * cf / (4 * m1 * m2))
              - cd * (s1 * ch2 / (4 * m1 * m2) + ch1 * s2 * cf / (4 * m1 * m2))
              + 3.0 / (8 * m1 * m1 * m2 * m2))
    sigma1 = (a * ch1 / (4 * m1 * m2 * m2) + b * ch2 / (4 * m1 * m1 * m2)
              - 1.0 / (4 * m1 * m1 * m2 * m2))
    sigma0 = 1.0 / (16 * m1 * m1 * m2 * m2)

    alpha2 = a * a - a * ch1 / m1 + 1.0 / (4 * m1 * m1)
    alpha1 = a * ch1 / m1 - 1.0 / (2 * m1 * m1)
    alpha0 = 1.0 / (4 * m1 * m1)
    beta2 = b * b - b * ch2 / m2 + 1.0 / (4 * m2 * m2)
    beta1 = b * ch2 / m2 - 1.0 / (2 * m2 * m2)
    beta0 = 1.0 / (4 * m2 * m2)

    return CoefficientSet(
        sigma=(sigma0, sigma1, sigma2, sigma3, sigma4),
        alpha=(alpha0, alpha1, alpha2),
        beta=(beta0, beta1, beta2),
        gamma_2=c1 * c2,
    )


def evolved_invariants(sf0: StandardForm, ch: ChannelSpec, t,
                       method: str = "auto") -> TwoModeInvariants:
    """Invariants of the evolved state, by coefficient polynomials when the
    couplings are equal (and bath 1 is in the zero-angle gauge), otherwise by
    direct determinants of the evolved covariance matrix.  An array of times
    gives arrays of invariants."""
    if method not in ("auto", "coefficients", "direct"):
        raise ValueError("method must be auto, coefficients or direct")
    t = _times(t)
    if method != "direct":
        try:
            coeff = coefficient_set(sf0, ch)
        except ValueError:
            if method == "coefficients":
                raise
        else:
            k = _exp(-ch.baths[0].gamma * t)
            return TwoModeInvariants(
                det_sigma=coeff.det_sigma(k)[()],
                det_alpha=coeff.det_alpha(k)[()],
                det_beta=coeff.det_beta(k)[()],
                det_gamma=coeff.det_gamma(k)[()],
            )
    state = GaussianState(np.zeros(4), standard_form_to_cm(sf0))
    return invariants(evolve_moments(state, ch, t).cm)


# ---------------------------------------------------------------------------
# entanglement time
# ---------------------------------------------------------------------------

def _nu_minus_t(sf0: StandardForm, ch: ChannelSpec, t: float) -> float:
    state = GaussianState(np.zeros(4), standard_form_to_cm(sf0))
    return ppt_symplectic_eigenvalues(evolve_moments(state, ch, t).cm)[0]


def _polish(sf0: StandardForm, ch: ChannelSpec, t_guess: float) -> float | None:
    """Bisection refinement of the separability crossing around t_guess."""
    g = lambda t: _nu_minus_t(sf0, ch, t) - 0.5
    lo, hi = t_guess * (1.0 - 1e-3), t_guess * (1.0 + 1e-3)
    for _ in range(40):
        if g(lo) < 0.0 < g(hi):
            return float(brentq(g, lo, hi, xtol=1e-14, rtol=1e-15))
        lo, hi = max(lo * 0.8, 0.0), hi * 1.25
        if hi > t_guess + 100.0 / ch.baths[0].gamma:
            break
    return None


def entanglement_time(sf0: StandardForm, ch: ChannelSpec) -> float | None:
    """Time at which an initially entangled state becomes separable, or None
    if it stays entangled forever.

    With equal couplings the separability condition is a quartic in
    k = e^{-γt}; the real root in (0, 1] closest to one is refined by
    bisection on ν̃₋(t) - 1/2.  Unequal couplings are handled by monotone
    bracketing on ν̃₋(t) directly.
    """
    if is_separable(standard_form_to_cm(sf0)):
        raise ValueError("initial state is separable")
    gamma = ch.baths[0].gamma

    t_guess = None
    try:
        coeff = coefficient_set(sf0, ch)
    except ValueError:
        pass
    else:
        u, v, w, y, z = coeff.quartic
        roots = [k for k in polynomial_real_roots([u, v, w, y, z])
                 if 0.0 < k <= 1.0 + 1e-12]
        if roots:
            k_ent = min(min(roots, key=lambda k: abs(1.0 - k)), 1.0)
            if k_ent < 1.0 - 1e-15:
                t_guess = -math.log(k_ent) / gamma

    if t_guess is None:
        # direct bracketing: find any t with nu_minus(t) > 1/2
        t_hi = 1.0 / gamma
        for _ in range(60):
            if _nu_minus_t(sf0, ch, t_hi) > 0.5:
                break
            t_hi *= 1.7
        else:
            return None
        t_star = float(brentq(lambda t: _nu_minus_t(sf0, ch, t) - 0.5,
                              0.0, t_hi, xtol=1e-14, rtol=1e-15))
    else:
        t_star = _polish(sf0, ch, t_guess)
    if t_star is None:
        return None
    # reject rounding-level crossings (e.g. pure baths, where nu_minus only
    # reaches 1/2 asymptotically): the state must be strictly separable a
    # finite stretch beyond the candidate time
    t_check = t_star + max(1.0 / gamma, 0.1 * t_star)
    if _nu_minus_t(sf0, ch, t_check) <= 0.5 + 1e-7:
        return None
    return t_star


def entanglement_time_symmetric(params: SqueezedThermalParams,
                                mu_inf_global: float, gamma: float) -> float:
    """Closed-form entanglement time of a squeezed thermal state in equal
    thermal baths with per-mode asymptotic purity √μ∞ (μ∞ is the global
    purity of the asymptotic two-mode state)."""
    if not 0.0 < mu_inf_global < 1.0:
        raise ValueError("a separability transition requires 0 < mu_inf < 1")
    smu = math.sqrt(mu_inf_global)
    arg = 1.0 + smu * (1.0 - math.exp(-2.0 * params.r) / math.sqrt(params.mu)) \
        / (1.0 - smu)
    if arg <= 1.0:
        raise ValueError("initial state is separable")
    return math.log(arg) / gamma


def entanglement_time_bounds(sf: StandardForm, mu_inf_global: float,
                             gamma: float) -> tuple[float, float]:
    """Bounds on the entanglement time of a symmetric state in equal thermal
    baths (per-mode purity √μ∞); they coincide when c1 = -c2."""
    if not sf.symmetric:
        raise ValueError("the bounds apply to symmetric states")
    if not 0.0 < mu_inf_global < 1.0:
        raise ValueError("a separability transition requires 0 < mu_inf < 1")
    smu = math.sqrt(mu_inf_global)

    def bound(c):
        return math.log(1.0 + smu * (2.0 * abs(c) - 2.0 * sf.a + 1.0)
                        / (1.0 - smu)) / gamma

    return bound(sf.c1), bound(sf.c2)


# ---------------------------------------------------------------------------
# nonclassical depth
# ---------------------------------------------------------------------------

def two_mode_tau_t(initial, ch: ChannelSpec, t):
    """Evolved nonclassical depth (closed form, vectorized over t).

    Accepts either a :class:`StandardForm` in equal thermal baths or
    :class:`SqueezedThermalParams` in equal (possibly squeezed, zero-angle)
    baths.
    """
    if ch.n_modes != 2 or not ch.equal_couplings:
        raise ValueError("two equal-coupling baths are required")
    b1, b2 = ch.baths
    t = _times(t)
    k = np.exp(-b1.gamma * t)
    m1, m2 = b1.mu_inf, b2.mu_inf

    if isinstance(initial, StandardForm):
        if not (b1.is_thermal and b2.is_thermal):
            raise ValueError("the standard-form closed form assumes thermal baths")
        tau = (0.5 - 0.5 * (initial.a + initial.b) * k
               - (m1 + m2) / (4.0 * m1 * m2) * (1.0 - k)
               + 0.5 * np.sqrt(((initial.a - initial.b) * k
                                + (m1 - m2) / (2.0 * m1 * m2) * (1.0 - k)) ** 2
                               + 4.0 * initial.c2 ** 2 * k * k))
        return np.maximum(tau, 0.0)

    if isinstance(initial, SqueezedThermalParams):
        if b1.phi_inf != 0.0 or b2.phi_inf != 0.0:
            raise ValueError("the squeezed-bath closed form assumes zero bath angles")
        e1 = math.exp(-2.0 * b1.r_inf)
        e2 = math.exp(-2.0 * b2.r_inf)
        smu = math.sqrt(initial.mu)
        tau = (0.5 - math.cosh(2.0 * initial.r) / (2.0 * smu) * k
               - (e1 * m2 + e2 * m1) / (4.0 * m1 * m2) * (1.0 - k)
               + 0.5 * np.sqrt(((e1 * m2 - e2 * m1) / (2.0 * m1 * m2)
                                * (1.0 - k)) ** 2
                               + math.sinh(2.0 * initial.r) ** 2 / initial.mu
                               * k * k))
        return np.maximum(tau, 0.0)

    raise TypeError("initial must be StandardForm or SqueezedThermalParams")


# ---------------------------------------------------------------------------
# teleportation fidelity
# ---------------------------------------------------------------------------

def teleportation_fidelity(cm):
    """Optimal coherent-state teleportation fidelity F = 1/(1 + 2ν̃₋)."""
    nu_minus, _ = ppt_symplectic_eigenvalues(cm)
    return 1.0 / (1.0 + 2.0 * nu_minus)


def fidelity_t(params: SqueezedThermalParams, ch: ChannelSpec, t):
    """Closed-form F(t) for a squeezed thermal resource decaying in equal
    thermal baths: F = 1/(1 + 2ν̃₋(t)) with
    ν̃₋(t) = e^{-2r-γt}/(2√μ) + (1 - e^{-γt})/(2μ_b)."""
    if ch.n_modes != 2 or not ch.equal_couplings:
        raise ValueError("two equal-coupling baths are required")
    b1, b2 = ch.baths
    if not (b1.is_thermal and b2.is_thermal) or b1.mu_inf != b2.mu_inf:
        raise ValueError("the closed form assumes equal thermal baths")
    t = _times(t)
    k = np.exp(-b1.gamma * t)
    nu = (k * math.exp(-2.0 * params.r) / (2.0 * math.sqrt(params.mu))
          + (1.0 - k) / (2.0 * b1.mu_inf))
    return 1.0 / (1.0 + 2.0 * nu)

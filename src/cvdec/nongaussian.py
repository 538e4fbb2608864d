"""Decoherence of non-Gaussian states: Schrödinger cats, Fock states and the
|0>/|1> superposition, with Wigner-function evolution and the negative-part
indicator.

All closed forms here follow the quadrature-normalized convention of
:mod:`cvdec.phase_space`.  Two bookkeeping points worth spelling out:

* A cat branch is a squeezed state displaced along R X₀ with R =
  diag(e^{r₀}, e^{-r₀}); the branch overlap is exp(-‖X₀‖²), which is what
  makes the four-term Wigner function integrate to one (the quadratic
  exponent sometimes quoted for the overlap does not).
* The Fock characteristic function is χ_n(X) = e^{-‖X‖²/4} L_n(‖X‖²/2);
  this is the unique scaling with χ(0) = 1 and unit purity at t = 0.
  The evolved χ acquires the factor exp(-Xᵀ Ωᵀσ∞(t)Ω X / 2): in
  characteristic-function space the additive noise enters through the
  Ω-conjugated bath matrix, which for a thermal bath is the bath matrix
  itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .channels import BathParams, env_cm
from .numerics import (
    QuadratureError,
    QuadratureResult,
    QuadratureSpec,
    bessel_i0_log,
    integrate_phase_space,
    laguerre,
)

__all__ = [
    "CatState",
    "WignerField",
    "NegativePartResult",
    "cat_wigner_t",
    "cat_purity_t",
    "cat_tdec_estimate",
    "fock_char_t",
    "fock_purity_t",
    "fock_purity_thermal",
    "fock_wigner_t",
    "psi01_purity_t",
    "negative_part",
    "wigner_purity",
]

_OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class CatState:
    """Superposition of two squeezed states displaced to ±R X₀."""

    x0: np.ndarray
    r0: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.size != 2:
            raise ValueError("displacement must be a two-component vector")
        if self.r0 < 0:
            raise ValueError("squeezing must be nonnegative")
        if self.norm_factor() <= 1e-12:
            raise ValueError("degenerate superposition (vanishing norm)")
        object.__setattr__(self, "x0", x0)

    def norm_factor(self) -> float:
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        return 2.0 + 2.0 * math.cos(self.theta) * math.exp(-float(x0 @ x0))


@dataclass(frozen=True)
class WignerField:
    """Evaluable Wigner function plus its integration box.

    ``radial`` is an optional fast path W(ρ) for rotationally symmetric
    fields (used by the negative-part quadrature).
    """

    eval: Callable[[np.ndarray], np.ndarray]
    domain: tuple[tuple[float, float], ...]
    radial: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        for lo, hi in self.domain:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("domain extents must be finite intervals")

    def expanded(self, factor: float) -> "WignerField":
        dom = tuple((lo * factor, hi * factor) for lo, hi in self.domain)
        return WignerField(self.eval, dom, self.radial)


@dataclass(frozen=True)
class NegativePartResult:
    """ξ = ∫|W| - 1 with a quadrature error estimate."""

    xi: float
    est_error: float

    def __post_init__(self):
        if self.xi < -max(self.est_error, 1e-9):
            raise ValueError("negative part below its error bar")


# ---------------------------------------------------------------------------
# cat states
# ---------------------------------------------------------------------------

def _cat_pieces(cat: CatState, bath: BathParams, t: float):
    """Shared geometry of the four Gaussian terms of the evolved cat."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    k = math.exp(-bath.gamma * t)
    c = math.sqrt(k)
    r_mat = np.diag([math.exp(cat.r0), math.exp(-cat.r0)])
    sigma0 = 0.5 * r_mat @ r_mat
    sigma_t = k * sigma0 + (1.0 - k) * env_cm(bath)
    y = c * r_mat @ cat.x0          # real peak centers ±y
    z = c * r_mat @ (_OMEGA @ cat.x0)  # interference centers ∓iz
    e = math.exp(-float(cat.x0 @ cat.x0))
    centers = np.array([y, -y, -1j * z, 1j * z])
    weights = np.array([1.0, 1.0,
                        e * np.exp(1j * cat.theta),
                        e * np.exp(-1j * cat.theta)])
    return sigma_t, centers, weights, e


def cat_wigner_t(cat: CatState, bath: BathParams, t: float) -> WignerField:
    """Evolved cat Wigner function: two Gaussian peaks plus the conjugate
    interference pair, normalized to unit integral."""
    sigma_t, centers, weights, e = _cat_pieces(cat, bath, t)
    inv = np.linalg.inv(sigma_t)
    det = np.linalg.det(sigma_t)
    norm = 4.0 * np.pi * (1.0 + math.cos(cat.theta) * e) * math.sqrt(det)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        total = np.zeros(pts.shape[0], dtype=complex)
        for center, w in zip(centers, weights):
            d = pts - center[None, :]
            quad_form = np.einsum("ij,jk,ik->i", d, inv, d)
            total += w * np.exp(-0.5 * quad_form)
        return total.real / norm

    stds = np.sqrt(np.diag(sigma_t))
    half = np.abs(centers[0].real) + np.abs(centers[2].imag) + 6.0 * np.max(stds)
    domain = tuple((-h, h) for h in half)
    return WignerField(eval=evaluate, domain=domain)


def cat_purity_t(cat: CatState, bath: BathParams, t: float) -> float:
    """Purity of the evolved cat by exact Gaussian integration of (2π)∫W²."""
    sigma_t, centers, weights, e = _cat_pieces(cat, bath, t)
    inv = np.linalg.inv(sigma_t)
    det = np.linalg.det(sigma_t)
    total = 0.0 + 0.0j
    for ci, wi in zip(centers, weights):
        for cj, wj in zip(centers, weights):
            d = ci - cj
            total += wi * wj * np.exp(-0.25 * (d @ inv @ d))
    value = total / (8.0 * (1.0 + math.cos(cat.theta) * e) ** 2 * math.sqrt(det))
    if not abs(value.imag) < 1e-10:
        raise ArithmeticError(f"cat purity has imaginary part {value.imag:.2e}")
    return float(value.real)


def cat_tdec_estimate(cat: CatState, gamma: float) -> float:
    """Decoherence-time estimate 1/(2γ|α₀|²) with |α₀|² = ‖X₀‖²/2."""
    n2 = float(cat.x0 @ cat.x0)
    if n2 == 0.0:
        raise ValueError("the estimate requires a nonzero displacement")
    return 1.0 / (gamma * n2)


# ---------------------------------------------------------------------------
# Fock states
# ---------------------------------------------------------------------------

def _sigma_inf_char(bath: BathParams, t: float) -> np.ndarray:
    """Additive noise matrix as it enters the characteristic function:
    Ωᵀ σ∞ Ω (1 - e^{-γt})."""
    s = env_cm(bath) * (1.0 - math.exp(-bath.gamma * t))
    return _OMEGA.T @ s @ _OMEGA


def fock_char_t(n: int, bath: BathParams, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Evolved characteristic function of |n><n| (batch-evaluable)."""
    if n < 0 or n != int(n):
        raise ValueError("photon number must be a nonnegative integer")
    if t < 0:
        raise ValueError("time must be nonnegative")
    k = math.exp(-bath.gamma * t)
    noise = _sigma_inf_char(bath, t)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        s2 = np.einsum("ij,ij->i", pts, pts)
        quad_form = np.einsum("ij,jk,ik->i", pts, noise, pts)
        return (np.exp(-0.25 * k * s2 - 0.5 * quad_form)
                * laguerre(n, 0.5 * k * s2))

    return evaluate


def fock_purity_t(n: int, bath: BathParams, t: float) -> float:
    """Purity of the evolved Fock state: radial integral with an I₀ weight.

    μ_n(t) = (1/k) ∫₀^∞ e^{-ξ̃ s} L_n(s)² I₀(β s) ds with k = e^{-γt},
    ξ̃ = 1 + (1/k - 1) cosh 2r∞ / μ∞ and β = (1/k - 1) |sinh 2r∞| / μ∞;
    since ξ̃ - β ≥ 1 + (1/k - 1) e^{-2r∞}/μ∞ > 1 the integral always
    converges.
    """
    if n < 0 or n != int(n):
        raise ValueError("photon number must be a nonnegative integer")
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        return 1.0
    k = math.exp(-bath.gamma * t)
    grow = 1.0 / k - 1.0
    xi = 1.0 + grow * math.cosh(2.0 * bath.r_inf) / bath.mu_inf
    beta = grow * abs(math.sinh(2.0 * bath.r_inf)) / bath.mu_inf
    if xi - beta <= 0:
        raise ValueError("non-convergent purity integral (unphysical input)")

    def integrand(s):
        log_weight = -xi * s + (bessel_i0_log(beta * s) if beta > 0 else 0.0)
        return math.exp(log_weight) * float(laguerre(n, s)) ** 2

    upper = (2.0 * n + 40.0) / (xi - beta)
    value, err = quad(integrand, 0.0, upper, limit=200, epsabs=1e-13, epsrel=1e-12)
    tail, terr = quad(integrand, upper, np.inf, limit=200, epsabs=1e-13)
    return (value + tail) / k


def fock_purity_thermal(n: int, mu_inf: float, t: float, gamma: float = 1.0) -> float:
    """Closed-form purity of |n><n| in a thermal bath.

    μ_n(t) = (1/k) e_n / ξ̃^{n+1} with ξ̃ = 1 + (1/k - 1)/μ∞ and
    e_n = (ξ̃-2)^n P_n(1 + 2/(ξ̃² - 2ξ̃)) computed by a recurrence that stays
    finite through ξ̃ = 2 (where the Legendre argument diverges).
    """
    if n < 0 or n != int(n):
        raise ValueError("photon number must be a nonnegative integer")
    if not 0.0 < mu_inf <= 1.0:
        raise ValueError("asymptotic purity must lie in (0, 1]")
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        return 1.0
    k = math.exp(-gamma * t)
    xi = 1.0 + (1.0 / k - 1.0) / mu_inf
    # e_m = (xi-2)^m P_m(q), q = 2(1-xi)^2/(xi(xi-2)) - 1, via the Legendre
    # recurrence rewritten in terms of qC = 2(1-xi)^2/xi - (xi-2), C = xi-2
    qc = 2.0 * (1.0 - xi) ** 2 / xi - (xi - 2.0)
    c2 = (xi - 2.0) ** 2
    e_prev, e = 1.0, qc
    if n == 0:
        e = e_prev
    else:
        for m in range(1, n):
            e, e_prev = ((2 * m + 1) * qc * e - m * c2 * e_prev) / (m + 1), e
    return e / (k * xi ** (n + 1))


def fock_wigner_t(n: int, mu_inf: float, t: float, gamma: float = 1.0) -> WignerField:
    """Evolved Wigner function of |n><n| in a thermal bath (radial closed
    form, written as an explicit polynomial so it stays finite where the
    Laguerre argument blows up)."""
    if n < 0 or n != int(n):
        raise ValueError("photon number must be a nonnegative integer")
    if not 0.0 < mu_inf <= 1.0:
        raise ValueError("asymptotic purity must lie in (0, 1]")
    if t < 0:
        raise ValueError("time must be nonnegative")
    k = math.exp(-gamma * t)
    zeta = (1.0 - (1.0 - mu_inf) * k) / mu_inf
    eta = (1.0 - (1.0 + mu_inf) * k) / mu_inf
    # eta^n L_n(-2k s / (zeta eta)) = sum_m C(n,m) (2k s / zeta)^m eta^{n-m} / m!
    coeffs = np.array([
        math.comb(n, m) * (2.0 * k / zeta) ** m * eta ** (n - m) / math.factorial(m)
        for m in range(n + 1)
    ])

    def radial(rho):
        rho = np.asarray(rho, dtype=float)
        s2 = rho * rho
        poly = np.zeros_like(s2)
        for m in range(n, -1, -1):
            poly = poly * s2 + coeffs[m]
        return poly * np.exp(-s2 / zeta) / (np.pi * zeta ** (n + 1))

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return radial(np.sqrt(np.einsum("ij,ij->i", pts, pts)))

    half = math.sqrt(zeta) * (math.sqrt(2.0 * n + 1.0) + 7.0)
    return WignerField(eval=evaluate, domain=((-half, half), (-half, half)),
                       radial=radial)


# ---------------------------------------------------------------------------
# |0>/|1> superposition
# ---------------------------------------------------------------------------

def psi01_purity_t(vartheta: float, bath: BathParams, t: float) -> float:
    """Purity of (|0> + e^{iϑ}|1>)/√2 evolved in the channel (closed form).

    Derived by Gaussian moments from the evolved characteristic function
    χ(X,t) = e^{-k‖X‖²/4} [1 - k‖X‖²/4 + i√k Im(α e^{-iϑ})] e^{-XᵀAX/2 + k‖X‖²/4}
    with α = (x + ip)/√2 and A = (k/2)I + Ωᵀσ∞Ω(1-k); the purity is
    (2π)⁻¹ ∫ |χ|².
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    k = math.exp(-bath.gamma * t)
    a_mat = 0.5 * k * np.eye(2) + _sigma_inf_char(bath, t)
    cov = 0.5 * np.linalg.inv(a_mat)
    det_a = np.linalg.det(a_mat)
    tr = float(np.trace(cov))
    tr2 = float(np.trace(cov @ cov))
    v = np.array([-math.sin(vartheta), math.cos(vartheta)])
    vv = float(v @ cov @ v)
    bracket = (1.0 - 0.5 * k * tr + (k * k / 16.0) * (tr * tr + 2.0 * tr2)
               + 0.5 * k * vv)
    return bracket / (2.0 * math.sqrt(det_a))


# ---------------------------------------------------------------------------
# negative part
# ---------------------------------------------------------------------------

def wigner_purity(w: WignerField, n_modes: int = 1, tol: float = 1e-10) -> float:
    """(2π)ⁿ ∫ W² by adaptive quadrature — the purity oracle."""
    spec = QuadratureSpec(extents=w.domain, tol=tol)
    res = integrate_phase_space(lambda p: np.asarray(w.eval(p)) ** 2, spec)
    return (2.0 * np.pi) ** n_modes * res.value


def _radial_negative_part(w: WignerField, r_max: float):
    def absw(rho):
        return 2.0 * np.pi * rho * np.abs(w.radial(rho))

    def signed(rho):
        return 2.0 * np.pi * rho * w.radial(rho)

    total, err1 = quad(absw, 0.0, r_max, limit=300, epsabs=1e-12, epsrel=1e-11)
    mass, err2 = quad(signed, 0.0, r_max, limit=300, epsabs=1e-12, epsrel=1e-11)
    return total, mass, err1 + err2


def _box_negative_part(w: WignerField, tol: float):
    # |W| has gradient kinks along the nodal curves, so the refinement
    # sequence may stall short of a Gaussian-grade tolerance; accept the
    # best estimate as long as its error bar stays below 1e-6.
    spec = QuadratureSpec(extents=w.domain, tol=tol, max_refinements=9)
    try:
        res_abs = integrate_phase_space(lambda p: np.abs(w.eval(p)), spec)
    except QuadratureError as exc:
        if exc.result.error > 1e-6:
            raise
        res_abs = exc.result
    res_sig = integrate_phase_space(lambda p: np.asarray(w.eval(p)), spec)
    return res_abs.value, res_sig.value, res_abs.error + res_sig.error


def negative_part(w: WignerField, tol: float = 1e-9) -> NegativePartResult:
    """ξ = ∫|W| - 1 with the domain auto-expanded until it captures the
    normalization to 1e-8."""
    field = w
    mass = math.nan
    for _ in range(4):
        if field.radial is not None:
            r_max = max(hi for _, hi in field.domain)
            total, mass, err = _radial_negative_part(field, r_max)
        else:
            total, mass, err = _box_negative_part(field, tol)
        if abs(mass - 1.0) <= 1e-8 + err:
            xi = total - 1.0
            return NegativePartResult(xi=max(xi, 0.0), est_error=err)
        field = field.expanded(1.5)
    raise QuadratureError(
        "Wigner normalization defect persists after domain expansion; "
        f"last mass {mass!r}",
        QuadratureResult(value=mass, error=abs(mass - 1.0), converged=False,
                         evaluations=0))

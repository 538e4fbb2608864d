"""Decoherence of non-Gaussian states: Schrödinger cats, Fock states and the
|0>/|1> superposition, with Wigner-function evolution and the negative-part
indicator.  The cat purity, the thermal-bath Fock purity and ξ, and the
|0>/|1> purity are closed forms over arrays of times; the squeezed-bath Fock
purity is one I₀ integral per time; ``negative_part`` and ``wigner_purity``
are box quadratures.

All closed forms here follow the quadrature-normalized convention of
:mod:`cvdec.phase_space`.  Two bookkeeping points worth spelling out:

* A cat branch is a squeezed state displaced along R X₀ with R =
  diag(e^{r₀}, e^{-r₀}); the branch overlap is exp(-‖X₀‖²), which is what
  makes the four-term Wigner function integrate to one (the quadratic
  exponent sometimes quoted for the overlap does not).
* The Fock negative part ξ = ∫|W| - 1 is a sum of incomplete gamma
  functions between the sign changes of W, which sit at the nodes of Lₙ.
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
from scipy import special  # scipy.integrate is imported where it is used

from .channels import BathParams, ChannelSpec, _times, env_cm, sigma_inf_t
from .numerics import (
    QuadratureError,
    QuadratureResult,
    QuadratureSpec,
    bessel_i0_log,
    integrate_phase_space,
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
    "fock_xi_t",
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
    """Evaluable Wigner function plus its integration box.  ``eval`` returns
    a new array, which the quadratures overwrite."""

    eval: Callable[[np.ndarray], np.ndarray]
    domain: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.domain:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("domain extents must be finite intervals")

    def expanded(self, factor: float) -> "WignerField":
        dom = tuple((lo * factor, hi * factor) for lo, hi in self.domain)
        return WignerField(self.eval, dom)


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

def _cat_pieces(cat: CatState, bath: BathParams, t):
    """Shared geometry of the four Gaussian terms of the evolved cat: a
    (..., 2, 2) covariance stack and (..., 4, 2) centers over the times t."""
    k = np.exp(-bath.gamma * _times(t))[..., None, None]
    r_mat = np.diag([math.exp(cat.r0), math.exp(-cat.r0)])
    sigma_t = k * (0.5 * r_mat @ r_mat) + (1.0 - k) * env_cm(bath)
    c = np.sqrt(k[..., 0])
    y = c * (r_mat @ cat.x0)             # real peak centers ±y
    z = c * (r_mat @ (_OMEGA @ cat.x0))  # interference centers ∓iz
    e = math.exp(-float(cat.x0 @ cat.x0))
    centers = np.stack([y, -y, -1j * z, 1j * z], axis=-2)
    weights = np.array([1.0, 1.0,
                        e * np.exp(1j * cat.theta),
                        e * np.exp(-1j * cat.theta)])
    return sigma_t, centers, weights, e


def cat_wigner_t(cat: CatState, bath: BathParams, t: float) -> WignerField:
    """Evolved cat Wigner function: two Gaussian peaks plus the conjugate
    interference pair, normalized to unit integral.  With A = σ_t⁻¹ and
    q = xᵀAx the terms are e^{-(q ∓ 2yᵀAx + yᵀAy)/2} and
    2 e^{-‖X₀‖² + zᵀAz/2 - q/2} cos(θ - zᵀAx), each exponent formed in full:
    e^{-q/2} cosh(yᵀAx) is 0·∞ = NaN far out when ‖X₀‖ is large."""
    sigma_t, centers, _, e = _cat_pieces(cat, bath, t)
    a = np.linalg.inv(sigma_t)
    y, z = centers[0].real, centers[3].imag
    ay, az = a @ y, a @ z
    yay, zaz = float(y @ ay), float(z @ az)
    log_e = -float(cat.x0 @ cat.x0)
    norm = (4.0 * np.pi * (1.0 + math.cos(cat.theta) * e)
            * math.sqrt(np.linalg.det(sigma_t)))

    def evaluate(pts: np.ndarray) -> np.ndarray:
        # in place, each operation in the order of the formula above; the
        # products with A stay matmuls (a column-wise product rounds
        # differently)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        pa = pts @ a
        q = pa[:, 0] * pts[:, 0]
        q += pa[:, 1] * pts[:, 1]
        ly2 = pts @ ay
        ly2 *= 2.0
        out = q - ly2
        out += yay
        out *= -0.5
        np.exp(out, out=out)
        ly2 += q
        ly2 += yay
        ly2 *= -0.5
        out += np.exp(ly2, out=ly2)
        np.subtract(zaz, q, out=q)
        q *= 0.5
        q += log_e
        np.exp(q, out=q)
        q *= 2.0
        lz = pts @ az
        np.subtract(cat.theta, lz, out=lz)
        q *= np.cos(lz, out=lz)
        out += q
        out /= norm
        return out

    stds = np.sqrt(np.diag(sigma_t))
    half = np.abs(y) + np.abs(z) + 6.0 * np.max(stds)
    domain = tuple((-h, h) for h in half)
    return WignerField(eval=evaluate, domain=domain)


def cat_purity_t(cat: CatState, bath: BathParams, t):
    """Purity of the evolved cat by exact Gaussian integration of (2π)∫W²,
    over an array of times."""
    sigma_t, centers, weights, e = _cat_pieces(cat, bath, t)
    d = centers[..., :, None, :] - centers[..., None, :, :]  # (..., 4, 4, 2)
    inv = np.linalg.inv(sigma_t)[..., None, :, :]
    form = np.einsum("...k,...k->...", d @ inv, d)
    total = np.sum(weights[:, None] * weights * np.exp(-0.25 * form),
                   axis=(-2, -1))
    value = total / (8.0 * (1.0 + math.cos(cat.theta) * e) ** 2
                     * np.sqrt(np.linalg.det(sigma_t)))
    worst = np.max(np.abs(value.imag))
    if not worst < 1e-10:
        raise ArithmeticError(f"cat purity has imaginary part {worst:.2e}")
    return value.real[()]


def cat_tdec_estimate(cat: CatState, gamma: float) -> float:
    """Decoherence-time estimate 1/(2γ|α₀|²) with |α₀|² = ‖X₀‖²/2."""
    n2 = float(cat.x0 @ cat.x0)
    if n2 == 0.0:
        raise ValueError("the estimate requires a nonzero displacement")
    return 1.0 / (gamma * n2)


# ---------------------------------------------------------------------------
# Fock states
# ---------------------------------------------------------------------------

def _check_fock(n: int, mu_inf: float = 1.0):
    if n < 0 or n != int(n):
        raise ValueError("photon number must be a nonnegative integer")
    if not 0.0 < mu_inf <= 1.0:
        raise ValueError("asymptotic purity must lie in (0, 1]")


def _sigma_inf_char(bath: BathParams, t) -> np.ndarray:
    """Additive noise matrix as it enters the characteristic function:
    Ωᵀ σ∞(t) Ω; a (..., 2, 2) stack for an array of times."""
    return _OMEGA.T @ sigma_inf_t(ChannelSpec((bath,)), t) @ _OMEGA


def fock_char_t(n: int, bath: BathParams, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Evolved characteristic function of |n><n| (batch-evaluable)."""
    _check_fock(n)
    t = float(_times(t))
    k = math.exp(-bath.gamma * t)
    noise = _sigma_inf_char(bath, t)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        s2 = np.einsum("ij,ij->i", pts, pts)
        quad_form = np.einsum("ij,ij->i", pts @ noise, pts)
        return (np.exp(-0.25 * k * s2 - 0.5 * quad_form)
                * special.eval_laguerre(n, 0.5 * k * s2))

    return evaluate


def fock_purity_t(n: int, bath: BathParams, t):
    """Purity of the evolved Fock state: radial integral with an I₀ weight,
    one adaptive ``quad`` per time of the array t.

    μ_n(t) = (1/k) ∫₀^∞ e^{-ξ̃ s} L_n(s)² I₀(β s) ds with k = e^{-γt},
    ξ̃ = 1 + (1/k - 1) cosh 2r∞ / μ∞ and β = (1/k - 1) |sinh 2r∞| / μ∞;
    since ξ̃ - β ≥ 1 + (1/k - 1) e^{-2r∞}/μ∞ > 1 the integral always
    converges.  In a thermal bath (β = 0) it equals
    :func:`fock_purity_thermal`, which is what ``cvdec run`` evaluates there.

    A squeezed bath keeps the point-by-point ``quad``: on a 2-point grid
    ``scipy.integrate.quad_vec`` took 5.5 ms against 0.5 ms, the Laplace
    expansion of L_n² (∫ sʲ e^{-ps} I₀(βs) ds in Legendre functions) loses
    2.7e-8 relative accuracy at n = 10 to cancellation, and 80-node
    Gauss–Laguerre misses by 7.5e-4 at r∞ = 1.
    """
    _check_fock(n)
    t = _times(t)
    out = np.array([_fock_purity_quad(n, bath, float(ti)) for ti in t.flat])
    return out.reshape(t.shape)[()]


def _fock_purity_quad(n: int, bath: BathParams, t: float) -> float:
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
        return math.exp(log_weight) * special.eval_laguerre(n, s) ** 2

    from scipy.integrate import quad

    upper = (2.0 * n + 40.0) / (xi - beta)
    value, err = quad(integrand, 0.0, upper, limit=200, epsabs=1e-13 * k, epsrel=1e-12)
    tail, terr = quad(integrand, upper, np.inf, limit=200, epsabs=1e-13 * k)
    return (value + tail) / k


def fock_purity_thermal(n: int, mu_inf: float, t, gamma: float = 1.0):
    """Closed-form purity of |n><n| in a thermal bath, over an array of
    times.

    μ_n(t) = (1/k) e_n / ξ̃^{n+1} with ξ̃ = 1 + (1/k - 1)/μ∞ and
    e_n = (ξ̃-2)^n P_n(1 + 2/(ξ̃² - 2ξ̃)).  With u = 1/ξ̃ this is
    ê_n / (k + (1 - k)/μ∞), ê_n = e_n/ξ̃^n = (1-2u)^n P_n(·), and the
    Legendre recurrence for ê has coefficients a = u² + (1-u)² and
    b = (1-2u)² in [0, 1]: it stays finite through ξ̃ = 2 (u = 1/2, where the
    Legendre argument diverges) and as k → 0 (where ξ̃^{n+1} overflows).
    """
    _check_fock(n, mu_inf)
    t = _times(t)
    # one-dimensional throughout: numpy scalars would round x ** 2
    # differently from the array loop
    k = np.exp(-gamma * t.reshape(-1))
    u = k * mu_inf / (k * mu_inf + (1.0 - k))
    a = u ** 2 + (1.0 - u) ** 2
    b = (1.0 - 2.0 * u) ** 2
    e_prev, e = 1.0, a
    for m in range(1, n):
        e, e_prev = ((2 * m + 1) * a * e - m * b * e_prev) / (m + 1), e
    value = (e if n else 1.0) / (k + (1.0 - k) / mu_inf)
    return np.where(t == 0.0, 1.0, value.reshape(t.shape))[()]


def fock_wigner_t(n: int, mu_inf: float, t: float, gamma: float = 1.0) -> WignerField:
    """Evolved Wigner function of |n><n| in a thermal bath (radial closed
    form, written as an explicit polynomial so it stays finite where the
    Laguerre argument blows up)."""
    _check_fock(n, mu_inf)
    t = float(_times(t))
    k = math.exp(-gamma * t)
    zeta = (1.0 - (1.0 - mu_inf) * k) / mu_inf
    eta = (1.0 - (1.0 + mu_inf) * k) / mu_inf
    # eta^n L_n(-2k s / (zeta eta)) = sum_m C(n,m) (2k s / zeta)^m eta^{n-m} / m!
    coeffs = np.array([
        math.comb(n, m) * (2.0 * k / zeta) ** m * eta ** (n - m) / math.factorial(m)
        for m in range(n + 1)
    ])

    norm = np.pi * zeta ** (n + 1)

    def evaluate(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        s2 = x * x
        s2 += y * y
        np.sqrt(s2, out=s2)
        s2 *= s2  # rho², rounded through rho
        poly = np.full_like(s2, coeffs[n])
        for m in range(n - 1, -1, -1):
            poly *= s2
            poly += coeffs[m]
        np.negative(s2, out=s2)
        s2 /= zeta
        poly *= np.exp(s2, out=s2)
        poly /= norm
        return poly

    half = math.sqrt(zeta) * (math.sqrt(2.0 * n + 1.0) + 7.0)
    return WignerField(eval=evaluate, domain=((-half, half), (-half, half)))


# largest n at which fock_xi_t, an alternating sum, is validated: 7.5e-11
# from a 60-digit reference at n = 12, 3.2e-10 at n = 13, worst at t = 0
FOCK_XI_MAX_N = 12


def fock_xi_t(n: int, mu_inf: float, t, gamma: float = 1.0):
    """Negative part ξ = ∫|W| - 1 of |n><n| in a thermal bath, over an
    array of times.  With k, ζ, η of :func:`fock_wigner_t` and v = ρ²/ζ, the
    radial mass density of W is Q(v) e^{-v}, Q(v) = Σₘ aₘ vᵐ/m! with
    aₘ = C(n,m) (2k/ζ)ᵐ (η/ζ)ⁿ⁻ᵐ, i.e. (η/ζ)ⁿ Lₙ(-2kv/η).  Q changes sign
    only while η < 0 (t < t_nc), at v_j = -η x_j/(2k), x_j the nodes of Lₙ;
    between edges 0, v_j, ∞, ∫|W| is |Σₘ aₘ ΔP(m+1, ·)| with P = gammainc.
    """
    _check_fock(n, mu_inf)
    t = _times(t)
    if n == 0:
        return np.zeros_like(t)[()]
    k = np.exp(-gamma * t)[..., None]
    zeta = (1.0 - (1.0 - mu_inf) * k) / mu_inf
    eta = (1.0 - (1.0 + mu_inf) * k) / mu_inf
    m = np.arange(n + 1)
    a = special.comb(n, m) * (2.0 * k / zeta) ** m * (eta / zeta) ** (n - m)
    nodes = np.maximum(-eta / (2.0 * k), 0.0) * special.roots_laguerre(n)[0]
    p = special.gammainc(m + 1, nodes[..., None])  # (..., node, m)
    dp = np.diff(p, axis=-2, prepend=0.0, append=1.0)
    total = np.sum(np.abs(np.sum(a[..., None, :] * dp, axis=-1)), axis=-1)
    return np.where(eta[..., 0] < 0.0, np.maximum(total - 1.0, 0.0), 0.0)[()]


# ---------------------------------------------------------------------------
# |0>/|1> superposition
# ---------------------------------------------------------------------------

def psi01_purity_t(vartheta: float, bath: BathParams, t):
    """Purity of (|0> + e^{iϑ}|1>)/√2 evolved in the channel (closed form,
    over an array of times).

    Derived by Gaussian moments from the evolved characteristic function
    χ(X,t) = e^{-k‖X‖²/4} [1 - k‖X‖²/4 + i√k Im(α e^{-iϑ})] e^{-XᵀAX/2 + k‖X‖²/4}
    with α = (x + ip)/√2 and A = (k/2)I + Ωᵀσ∞Ω(1-k); the purity is
    (2π)⁻¹ ∫ |χ|².
    """
    t = _times(t)
    flat = t.reshape(-1)  # a scalar t takes the array path too
    k = np.exp(-bath.gamma * flat)
    a_mat = 0.5 * k[:, None, None] * np.eye(2) + _sigma_inf_char(bath, flat)
    cov = 0.5 * np.linalg.inv(a_mat)
    det_a = np.linalg.det(a_mat)
    tr = np.trace(cov, axis1=-2, axis2=-1)
    tr2 = np.trace(cov @ cov, axis1=-2, axis2=-1)
    v = np.array([-math.sin(vartheta), math.cos(vartheta)])
    vv = np.sum((v @ cov) * v, axis=-1)  # (T, 2) @ v rounds by batch size
    bracket = (1.0 - 0.5 * k * tr + (k * k / 16.0) * (tr * tr + 2.0 * tr2)
               + 0.5 * k * vv)
    return (bracket / (2.0 * np.sqrt(det_a))).reshape(t.shape)[()]


# ---------------------------------------------------------------------------
# negative part
# ---------------------------------------------------------------------------

def _inplace(ufunc, values) -> np.ndarray:
    """``ufunc`` applied to the values a ``WignerField.eval`` returned,
    overwriting them."""
    values = np.asarray(values, dtype=float)
    return ufunc(values, out=values)


def wigner_purity(w: WignerField, tol: float = 1e-10) -> float:
    """(2π)ⁿ ∫ W² by adaptive quadrature — the purity oracle."""
    spec = QuadratureSpec(extents=w.domain, tol=tol)
    res = integrate_phase_space(lambda p: _inplace(np.square, w.eval(p)), spec)
    return (2.0 * np.pi) ** (len(w.domain) // 2) * res.value


def _box_negative_part(w: WignerField, tol: float, max_refinements: int = 20):
    # |W| has gradient kinks along the nodal curves; the adaptive panels
    # crowd onto them, and at t = 0 the |W| of |1>..|4> needs 13-15
    # bisection rounds to reach 1e-8.  The smooth signed W takes tol/2 and
    # |W| what W leaves of tol, so that the summed error stays within tol.
    res_sig = integrate_phase_space(
        lambda p: np.asarray(w.eval(p)),
        QuadratureSpec(w.domain, tol / 2, max_refinements))
    res_abs = integrate_phase_space(
        lambda p: _inplace(np.abs, w.eval(p)),
        QuadratureSpec(w.domain, tol - res_sig.error, max_refinements))
    return res_abs.value, res_sig.value, res_abs.error + res_sig.error


def negative_part(w: WignerField, tol: float = 1e-9) -> NegativePartResult:
    """ξ = ∫|W| - 1 with the domain auto-expanded until it captures the
    normalization to 1e-8."""
    field = w
    mass = math.nan
    for _ in range(4):
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

"""Acceptance suite: ten numbered criteria pinning the library's closed
forms to independent numerical oracles.

Each criterion function takes no arguments and returns ``(passed, detail)``.
They are consumed both by ``tests/test_acceptance.py`` and by the
``cvdec selftest`` command.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from . import channels as ch
from . import nongaussian as ng
from . import numerics as nm
from . import phase_space as ps
from . import two_mode as tm

__all__ = ["CRITERIA", "run_criterion", "run_all"]


def _min_wigner_fock(n: int, mu_inf: float, t: float) -> float:
    w = ng.fock_wigner_t(n, mu_inf, t)
    rho = np.linspace(0.0, max(hi for _, hi in w.domain), 4001)
    return float(np.min(w.eval(np.stack([rho, np.zeros_like(rho)], axis=-1))))


def _min_wigner_cat(cat: ng.CatState, bath: ch.BathParams, t: float) -> float:
    w = ng.cat_wigner_t(cat, bath, t)
    axes = [np.linspace(lo, hi, 301) for lo, hi in w.domain]
    xx, pp = np.meshgrid(*axes)
    return float(np.min(w.eval(np.stack([xx.ravel(), pp.ravel()], axis=-1))))


def criterion_1() -> tuple[bool, str]:
    """Positive-time universality of the Wigner-negativity disappearance."""
    bath = ch.BathParams(gamma=1.0, mu_inf=0.5)
    t_ref = ch.t_nc(bath)
    crossings = {}
    for n in (1, 2, 3, 4):
        crossings[f"fock{n}"] = brentq(
            lambda t: _min_wigner_fock(n, bath.mu_inf, t), 0.01, 2.0, xtol=1e-8)
    cat = ng.CatState(x0=np.array([1.0, 1.0]), r0=0.0, theta=0.0)
    crossings["cat"] = brentq(
        lambda t: _min_wigner_cat(cat, bath, t), 0.01, 2.0, xtol=1e-6)
    # the crossing instants are exactly where xi(t) reaches zero: xi > 0
    # iff the Wigner minimum is negative
    xi_before = float(ng.fock_xi_t(2, 0.5, 0.9 * t_ref))
    xi_after = float(ng.fock_xi_t(2, 0.5, 1.1 * t_ref))
    worst = max(abs(v - t_ref) for v in crossings.values())
    ok = worst <= 0.02 and xi_before > 1e-4 and xi_after < 1e-9
    return ok, (f"max |crossing - ln(1.5)| = {worst:.2e} (allowed 0.02); "
                f"xi(0.9 t_nc)={xi_before:.2e}, xi(1.1 t_nc)={xi_after:.2e}")


def criterion_2() -> tuple[bool, str]:
    """Gaussian purity closed form vs phase-space quadrature."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n, count in ((1, 70), (2, 35)):
        for _ in range(count):
            cm = ps.random_physical_cm(n, rng, nu_max=2.0, scale=0.35)
            mean = rng.normal(scale=0.5, size=2 * n)
            state = ps.GaussianState(mean, cm)
            # integrate in the principal-axis frame (orthogonal change of
            # variables, unit Jacobian) so the box hugs the distribution
            evals, evecs = np.linalg.eigh(cm)
            extents = tuple((-6.5 * math.sqrt(v), 6.5 * math.sqrt(v))
                            for v in evals)
            spec = nm.QuadratureSpec(extents=extents, tol=1e-9)
            res = nm.integrate_phase_space(
                lambda p: ps.wigner_gaussian(state, mean + p @ evecs.T) ** 2,
                spec)
            mu_quad = (2.0 * np.pi) ** n * res.value
            worst = max(worst, abs(mu_quad - ps.purity_gaussian(cm)))
    return worst < 1e-8, f"105 random CMs (n=1,2); worst |closed - quad| = {worst:.2e} (allowed 1e-8)"


def criterion_3() -> tuple[bool, str]:
    """Single-mode closed forms vs exact moment evolution, 1000 draws."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        init = ps.SingleModeParams(mu=rng.uniform(0.1, 1.0),
                                   r=rng.uniform(0.0, 1.5),
                                   phi=rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2))
        bath = ch.BathParams(gamma=rng.uniform(0.3, 2.0),
                             mu_inf=rng.uniform(0.1, 1.0),
                             r_inf=rng.uniform(0.0, 1.2),
                             phi_inf=rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2))
        t = rng.uniform(0.0, 4.0)
        ref = ch.evolved_params(init, bath, t)
        d_mu = abs(float(ch.single_mode_purity_t(init, bath, t)) - ref.mu)
        d_r = abs(float(ch.single_mode_r_t(init, bath, t)) - ref.r)
        if ref.r < 1e-9:  # the angle is conventional
            d_phi = 0.0
        else:
            raw = abs(float(ch.single_mode_phi_t(init, bath, t)) - ref.phi)
            d_phi = min(raw, abs(raw - np.pi))
        worst = max(worst, d_mu, d_r, d_phi)
    return worst < 1e-9, f"1000 draws; worst |closed - moments| = {worst:.2e} (allowed 1e-9)"


def criterion_4() -> tuple[bool, str]:
    """Fock purity: closed thermal form = integral form = Lindblad oracle."""
    worst_ci = 0.0
    times = np.linspace(0.05, 2.0, 12)
    for n in range(11):
        for mu_inf in (0.25, 0.5, 1.0):
            bath = ch.BathParams(gamma=1.0, mu_inf=mu_inf)
            d = np.abs(ng.fock_purity_thermal(n, mu_inf, times)
                       - ng.fock_purity_t(n, bath, times))
            worst_ci = max(worst_ci, float(np.max(d)))
    worst_lb = 0.0
    t_grid = np.array([0.25, 0.5, 1.0])
    for n in range(11):
        for mu_inf in (0.25, 0.5, 1.0):
            bath = ch.BathParams(gamma=1.0, mu_inf=mu_inf)
            purities = nm.lindblad_purities(nm.fock_state(n), bath.gamma,
                                            *ch.nm_from_bath(bath), t_grid)
            d = np.abs(purities - ng.fock_purity_thermal(n, mu_inf, t_grid))
            worst_lb = max(worst_lb, float(np.max(d)))
    ok = worst_ci < 1e-8 and worst_lb < 1e-4
    return ok, (f"n<=10: worst |closed - integral| = {worst_ci:.2e} (allowed 1e-8); "
                f"worst |closed - Lindblad| = {worst_lb:.2e} (allowed 1e-4)")


def criterion_5() -> tuple[bool, str]:
    """Coefficient polynomials vs direct determinants, 50 draws."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        sf = _random_standard_form(rng)
        g = rng.uniform(0.4, 2.0)
        chan = ch.ChannelSpec((
            ch.BathParams(gamma=g, mu_inf=rng.uniform(0.2, 1.0),
                          r_inf=rng.uniform(0.0, 0.8), phi_inf=0.0),
            ch.BathParams(gamma=g, mu_inf=rng.uniform(0.2, 1.0),
                          r_inf=rng.uniform(0.0, 0.8),
                          phi_inf=rng.uniform(-np.pi / 2 + 0.01, np.pi / 2)),
        ))
        t = rng.uniform(0.0, 3.0)
        poly = tm.coefficient_set(sf, chan).at(math.exp(-g * t))
        direct = tm.invariants(ch.evolve_moments(sf.state, chan, t).cm)
        for field in ("det_sigma", "det_alpha", "det_beta", "det_gamma"):
            worst = max(worst, abs(getattr(poly, field) - getattr(direct, field)))
    return worst < 1e-10, f"50 draws; worst |polynomial - determinant| = {worst:.2e} (allowed 1e-10)"


def criterion_6() -> tuple[bool, str]:
    """Quartic entanglement time vs the symmetric closed form."""
    worst_t = worst_nu = worst_f = 0.0
    for r in (0.5, 1.0, 2.0):
        for mu_inf in (0.25, 0.5):
            params = tm.SqueezedThermalParams(mu=1.0, r=r)
            bath = ch.BathParams(gamma=1.0, mu_inf=math.sqrt(mu_inf))
            chan = ch.ChannelSpec.uniform(bath, 2)
            t_q = tm.entanglement_time(params.standard_form, chan)
            t_c = tm.entanglement_time_symmetric(params, mu_inf, 1.0)
            worst_t = max(worst_t, abs(t_q - t_c))
            cm_t = ch.evolve_moments(params.standard_form.state, chan, t_q).cm
            nu = tm.ppt_symplectic_eigenvalues(cm_t)[0]
            worst_nu = max(worst_nu, abs(nu - 0.5))
            worst_f = max(worst_f, abs(tm.teleportation_fidelity(cm_t) - 0.5))
    ok = worst_t < 1e-9 and worst_nu < 1e-9 and worst_f < 1e-9
    return ok, (f"worst |t_quartic - t_closed| = {worst_t:.2e}, "
                f"|nu-(t_ent) - 1/2| = {worst_nu:.2e}, "
                f"|F(t_ent) - 1/2| = {worst_f:.2e} (all allowed 1e-9)")


def criterion_7() -> tuple[bool, str]:
    """Two-mode squeezed vacuum identities: E_N = 2r and the mutual
    information of the r=1 state."""
    worst = 0.0
    for r in np.linspace(0.0, 3.0, 61):
        params = tm.SqueezedThermalParams(mu=1.0, r=float(r))
        # exact reduction nu- = e^{-2r}/(2 sqrt(mu)) of the symmetric form
        nu = math.exp(-2.0 * params.r) / (2.0 * math.sqrt(params.mu))
        e_n = max(0.0, -math.log(2.0 * nu))
        worst = max(worst, abs(e_n - 2.0 * float(r)))
    cm = tm.SqueezedThermalParams(mu=1.0, r=1.0).standard_form.state.cm
    target = 2.0 * float(ps.entropy_function(math.cosh(2.0) / 2.0))
    d_i = abs(tm.mutual_information(cm) - target)
    ok = worst < 1e-12 and d_i < 1e-10
    return ok, (f"worst |E_N - 2r| = {worst:.2e} (allowed 1e-12); "
                f"|I - 2f(cosh2/2)| = {d_i:.2e} (allowed 1e-10)")


def criterion_8() -> tuple[bool, str]:
    """Cat purity closed form vs quadrature oracle, plus the decoherence
    time convention."""
    bath = ch.BathParams(gamma=1.0, mu_inf=0.5)
    worst = 0.0
    for x0 in ((1.0, 1.0), (4.0, 4.0)):
        for r0 in (0.0, 1.0):
            cat = ng.CatState(x0=np.array(x0), r0=r0, theta=0.0)
            for t in (0.1, 0.5, 1.0):
                w = ng.cat_wigner_t(cat, bath, t)
                mu_q = ng.wigner_purity(w, tol=1e-9)
                worst = max(worst, abs(ng.cat_purity_t(cat, bath, t) - mu_q))
    t_dec = ng.cat_tdec_estimate(
        ng.CatState(x0=np.array([4.0, 4.0]), r0=0.0, theta=0.0), gamma=1.0)
    d_dec = abs(t_dec - 0.031) / 0.031
    ok = worst < 1e-6 and d_dec < 0.05
    return ok, (f"worst |closed - quadrature| = {worst:.2e} (allowed 1e-6); "
                f"t_dec = {t_dec:.4f} vs 0.031 (rel dev {d_dec:.1%}, allowed 5%)")


def criterion_9() -> tuple[bool, str]:
    """Sampled qualitative claims: bath squeezing degrades entanglement,
    helps two-mode nonclassical depth, and helps the |0>/|1> purity."""
    rng = np.random.default_rng(9)
    failures = []
    for _ in range(40):
        params = tm.SqueezedThermalParams(mu=rng.uniform(0.4, 1.0),
                                          r=rng.uniform(0.3, 1.5))
        mu_b = rng.uniform(0.25, 0.9)
        r_b = rng.uniform(0.1, 0.8)
        phi2 = rng.choice([0.0, np.pi / 4])
        t = rng.uniform(0.05, 2.0)
        state = params.standard_form.state

        def en(r_inf, phi):
            chan = ch.ChannelSpec((
                ch.BathParams(gamma=1.0, mu_inf=mu_b, r_inf=r_inf),
                ch.BathParams(gamma=1.0, mu_inf=mu_b, r_inf=r_inf, phi_inf=phi)))
            return tm.log_negativity(ch.evolve_moments(state, chan, t).cm)

        if en(r_b, float(phi2)) > en(0.0, 0.0) + 1e-12:
            failures.append("E_N squeezed > thermal")
        chan_sq = ch.ChannelSpec.uniform(
            ch.BathParams(gamma=1.0, mu_inf=mu_b, r_inf=r_b), 2)
        chan_th = ch.ChannelSpec.uniform(
            ch.BathParams(gamma=1.0, mu_inf=mu_b), 2)
        if (float(tm.two_mode_tau_t(params, chan_sq, t))
                < float(tm.two_mode_tau_t(params, chan_th, t)) - 1e-12):
            failures.append("tau squeezed < thermal")
    b_sq = ch.BathParams(gamma=1.0, mu_inf=0.25, r_inf=0.28)
    b_th = ch.BathParams(gamma=1.0, mu_inf=0.25)
    vt = b_sq.phi_inf + np.pi / 2  # optimal superposition phase
    gain = (ng.psi01_purity_t(vt, b_sq, 0.5) / ng.psi01_purity_t(vt, b_th, 0.5)
            - 1.0)
    if gain <= 0.0:
        failures.append("psi01 purity gain <= 0")
    ok = not failures
    return ok, ("40 sampled comparisons per claim; "
                + (f"psi01 gain = {gain:.2%} > 0" if ok
                   else "violations: " + ", ".join(sorted(set(failures)))))


def criterion_10() -> tuple[bool, str]:
    """Monotone sanity across randomized trajectories."""
    rng = np.random.default_rng(10)
    failures = []
    for _ in range(100):
        init = ps.SingleModeParams(mu=rng.uniform(0.1, 1.0),
                                   r=rng.uniform(0.0, 1.2),
                                   phi=rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2))
        bath = ch.BathParams(gamma=1.0, mu_inf=rng.uniform(0.1, 1.0),
                             r_inf=rng.uniform(0.0, 1.0),
                             phi_inf=rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2))
        times = np.linspace(0.0, 30.0, 40)
        mus = ch.single_mode_purity_t(init, bath, times)
        if not np.all((mus > 0.0) & (mus <= 1.0 + 1e-12)):
            failures.append("purity outside (0, 1]")
        if abs(float(mus[-1]) - bath.mu_inf) > 1e-9:
            failures.append("purity does not approach mu_inf")
        taus = ch.single_mode_tau_t(init, bath, times)
        if not np.all(taus < 0.5):
            failures.append("Gaussian tau >= 1/2")
    for _ in range(40):
        sf = _random_standard_form(rng)
        chan = ch.ChannelSpec.uniform(
            ch.BathParams(gamma=1.0, mu_inf=rng.uniform(0.2, 1.0)), 2)
        for t in rng.uniform(0.0, 4.0, size=4):
            cm = ch.evolve_moments(sf.state, chan, float(t)).cm
            if tm.log_negativity(cm) < 0.0:
                failures.append("E_N < 0")
            if tm.mutual_information(cm) < 0.0:
                failures.append("I < 0")
            mu = ps.purity_gaussian(cm)
            if not 0.0 < mu <= 1.0 + 1e-12:
                failures.append("two-mode purity outside (0, 1]")
    ok = not failures
    return ok, ("100 single-mode + 40 two-mode trajectories clean" if ok
                else "violations: " + ", ".join(sorted(set(failures))))


def _random_standard_form(rng: np.random.Generator) -> tm.StandardForm:
    while True:
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(0.5, 3.0)
        c_max = 0.95 * math.sqrt((a - 0.5) * (b - 0.5))
        c2 = rng.uniform(-c_max, c_max)
        c1 = rng.uniform(-abs(c2), abs(c2))
        try:
            return tm.StandardForm(a=a, b=b, c1=c1, c2=c2)
        except ValueError:
            continue


CRITERIA: dict[int, tuple[str, Callable[[], tuple[bool, str]]]] = {
    1: ("positive-time universality of Wigner negativity", criterion_1),
    2: ("Gaussian purity closed form vs quadrature", criterion_2),
    3: ("single-mode closed forms vs moment evolution", criterion_3),
    4: ("Fock purity triple agreement", criterion_4),
    5: ("two-mode coefficient polynomials vs determinants", criterion_5),
    6: ("entanglement time quartic vs closed form", criterion_6),
    7: ("two-mode squeezed vacuum identities", criterion_7),
    8: ("cat purity vs quadrature and decoherence time", criterion_8),
    9: ("qualitative bath-squeezing claims", criterion_9),
    10: ("monotone sanity suite", criterion_10),
}


def run_criterion(number: int) -> tuple[bool, str]:
    return CRITERIA[number][1]()


def run_all(report: Callable[[str], None] = print) -> bool:
    """Run every criterion, emitting one pass/fail line each."""
    all_ok = True
    for number, (name, _) in sorted(CRITERIA.items()):
        passed, detail = run_criterion(number)
        all_ok = all_ok and passed
        status = "PASS" if passed else "FAIL"
        report(f"{status} criterion {number} ({name}): {detail}")
    return all_ok

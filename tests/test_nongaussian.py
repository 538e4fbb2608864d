import functools
import math

import numpy as np
import pytest
from scipy import integrate, special

from cvdec import nongaussian as ng
from cvdec import numerics as nm
from cvdec import phase_space as ps
from cvdec.channels import BathParams, nm_from_bath, t_pos


THERMAL = BathParams(gamma=1.0, mu_inf=0.5)
SQUEEZED = BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.4, phi_inf=0.3)
SQUEEZED_NM = (SQUEEZED.gamma, *nm_from_bath(SQUEEZED))  # (gamma, N, M)


def _wigner_mass(w: ng.WignerField) -> float:
    spec = nm.QuadratureSpec(extents=w.domain, tol=1e-9)
    return nm.integrate_phase_space(lambda p: np.asarray(w.eval(p)), spec).value


class TestCatStates:
    def test_norm_factor(self):
        cat = ng.CatState(x0=(1.0, 1.0), theta=0.0)
        assert cat.norm_factor() == pytest.approx(2.0 + 2.0 * math.exp(-2.0))

    def test_degenerate_superposition_rejected(self):
        with pytest.raises(ValueError):
            ng.CatState(x0=(0.0, 0.0), theta=math.pi)

    @pytest.mark.parametrize("t", [0.0, 0.2, 1.0])
    def test_wigner_normalized(self, t):
        cat = ng.CatState(x0=(1.5, 0.5), r0=0.3, theta=0.7)
        w = ng.cat_wigner_t(cat, THERMAL, t)
        assert _wigner_mass(w) == pytest.approx(1.0, abs=1e-8)

    def test_initial_state_pure(self):
        cat = ng.CatState(x0=(1.0, 1.0), r0=0.5, theta=0.4)
        assert ng.cat_purity_t(cat, SQUEEZED, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bath", [THERMAL, SQUEEZED])
    @pytest.mark.parametrize("t", [0.15, 0.6])
    def test_purity_matches_wigner_integral(self, bath, t):
        cat = ng.CatState(x0=(1.2, 0.8), r0=0.2, theta=0.3)
        closed = ng.cat_purity_t(cat, bath, t)
        numeric = ng.wigner_purity(ng.cat_wigner_t(cat, bath, t))
        assert closed == pytest.approx(numeric, abs=1e-8)

    def test_interference_decays_faster_than_peaks(self):
        cat = ng.CatState(x0=(3.0, 0.0))
        t = 0.25  # a couple of decoherence times 1/(gamma |X0|^2), << 1/gamma
        w = ng.cat_wigner_t(cat, THERMAL, t)
        k = math.exp(-t)
        peak = float(w.eval(np.array([[math.sqrt(k) * 3.0, 0.0]]))[0])
        fringe = float(abs(w.eval(np.array([[0.0, 0.0]]))[0]))
        assert fringe < 0.25 * peak

    def test_complex_purity_raises(self, monkeypatch):
        sigma_t, centers, weights, e = ng._cat_pieces(
            ng.CatState(x0=(1.0, 0.5)), THERMAL, 0.1)
        weights = weights * np.array([1.0, 1.0, 1.0, 1.0 + 1e-3j])
        monkeypatch.setattr(ng, "_cat_pieces",
                            lambda *args: (sigma_t, centers, weights, e))
        with pytest.raises(ArithmeticError):
            ng.cat_purity_t(ng.CatState(x0=(1.0, 0.5)), THERMAL, 0.1)

    def test_tdec_estimate(self):
        cat = ng.CatState(x0=(4.0, 4.0))
        assert ng.cat_tdec_estimate(cat, gamma=1.0) == pytest.approx(1.0 / 32.0)
        with pytest.raises(ValueError):
            ng.cat_tdec_estimate(ng.CatState(x0=(0.0, 0.0), theta=0.0), 1.0)

    @pytest.mark.parametrize("bath", [THERMAL, SQUEEZED])
    @pytest.mark.parametrize("t", [0.0, 0.3])
    @pytest.mark.parametrize("r0", [0.0, 0.5])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2])
    def test_wigner_matches_complex_four_term_sum(self, bath, t, r0, theta):
        # the reference is the complex form: Gaussians at ±y and ∓iz with
        # weights 1, 1, e^{-|X0|^2 ± i theta}, each exp(-(x-c)^T A (x-c)/2)
        cat = ng.CatState(x0=(1.3, -0.6), r0=r0, theta=theta)
        w = ng.cat_wigner_t(cat, bath, t)
        sigma_t, centers, weights, e = ng._cat_pieces(cat, bath, t)
        inv = np.linalg.inv(sigma_t)
        rng = np.random.default_rng(7)
        pts = rng.uniform([lo for lo, _ in w.domain],
                          [hi for _, hi in w.domain], size=(400, 2))
        terms = []
        for c, wt in zip(centers, weights):
            d = pts - c
            terms.append(wt * np.exp(-0.5 * np.sum((d @ inv) * d, axis=1)))
        norm = (4.0 * math.pi * (1.0 + math.cos(theta) * e)
                * math.sqrt(np.linalg.det(sigma_t)))
        want = sum(terms).real / norm
        scale = sum(np.abs(term) for term in terms) / norm
        assert np.all(np.abs(w.eval(pts) - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("t", [0.01, 0.1])
    def test_wigner_finite_and_normalized_far_out(self, t):
        # ||X0|| = 30: e^{-|X0|^2} underflows and e^{z^T A z / 2} overflows
        # unless the interference exponent is formed in full
        w = ng.cat_wigner_t(ng.CatState(x0=(30.0, 0.0)), THERMAL, t)
        axes = [np.linspace(lo, hi, 201) for lo, hi in w.domain]
        grid = np.stack([a.ravel() for a in np.meshgrid(*axes)], axis=-1)
        assert np.all(np.isfinite(w.eval(grid)))
        assert _wigner_mass(w) == pytest.approx(1.0, abs=1e-8)

    def test_purity_array_matches_scalar_calls(self):
        cat = ng.CatState(x0=(2.0, 0.0), r0=0.3, theta=0.4)
        times = np.linspace(0.0, 2.0, 9)
        values = ng.cat_purity_t(cat, SQUEEZED, times)
        assert values.shape == times.shape
        assert list(values) == [ng.cat_purity_t(cat, SQUEEZED, t)
                                for t in times]

    def test_negative_part_decreases(self):
        cat = ng.CatState(x0=(1.5, 0.0))
        xs = [ng.negative_part(ng.cat_wigner_t(cat, THERMAL, t), tol=1e-6).xi
              for t in (0.0, 0.2, 0.41)]
        assert xs[0] > xs[1] > xs[2] >= 0.0


class TestFockStates:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_initial_purity_one(self, n):
        assert ng.fock_purity_t(n, SQUEEZED, 0.0) == 1.0
        assert ng.fock_purity_thermal(n, 0.5, 0.0) == 1.0

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_thermal_closed_form_matches_integral(self, n, t):
        assert ng.fock_purity_thermal(n, 0.5, t) == pytest.approx(
            ng.fock_purity_t(n, BathParams(gamma=1.0, mu_inf=0.5), t), rel=1e-10)

    @pytest.mark.parametrize("n, mu_inf", [(3, 1.0), (5, 0.5), (10, 0.25)])
    def test_thermal_closed_form_matches_integral_on_grid(self, n, mu_inf):
        # the grid holds t = 0 and crosses xi = 2 at t = ln(1 + mu_inf)
        times = np.append(np.linspace(0.0, 3.0, 31), math.log(1.0 + mu_inf))
        closed = ng.fock_purity_thermal(n, mu_inf, times)
        integral = ng.fock_purity_t(n, BathParams(gamma=1.0, mu_inf=mu_inf),
                                    times)
        assert closed[0] == integral[0] == 1.0
        assert np.all(np.abs(closed - integral) <= 1e-13 * integral)

    def test_vacuum_bath_matches_binomial_distribution(self):
        # |3> after loss 1 - k has photon distribution C(3,m) k^m (1-k)^(3-m);
        # both forms stay within 2e-15 of its sum of squares on this grid
        gamma = 1.3
        times = np.linspace(0.0, 5.0 / gamma, 250)
        k = np.exp(-gamma * times)
        ref = sum((math.comb(3, m) * k ** m * (1.0 - k) ** (3 - m)) ** 2
                  for m in range(4))
        closed = ng.fock_purity_thermal(3, 1.0, times, gamma)
        integral = ng.fock_purity_t(3, BathParams(gamma=gamma, mu_inf=1.0),
                                    times)
        assert np.max(np.abs(closed - ref)) <= 4e-15
        assert np.max(np.abs(integral - ref)) <= 4e-15

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_thermal_closed_form_reaches_mu_inf_at_long_times(self, n):
        # ξ̃^{n+1} overflows from γt ≈ 710/(n+1) on; e^{-γt} underflows at 800
        times = np.array([50.0, 120.0, 800.0, 1e4])
        values = ng.fock_purity_thermal(n, 0.5, times)
        assert np.all(np.abs(values - 0.5) <= 1e-15)

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_integral_reaches_mu_inf_at_long_times(self, n):
        # the integral is about k μ∞ before its division by k, so quad's
        # absolute tolerance must shrink with k
        times = np.array([50.0, 200.0])
        squeezed = ng.fock_purity_t(n, BathParams(1.0, 0.5, r_inf=0.3), times)
        thermal = ng.fock_purity_t(n, THERMAL, times)
        assert np.all(np.abs(squeezed - 0.5) <= 1e-12)
        assert np.all(np.abs(thermal - ng.fock_purity_thermal(n, 0.5, times))
                      <= 1e-12)

    @pytest.mark.parametrize("n", [0, 1, 3, 10])
    def test_thermal_array_matches_scalar_calls(self, n):
        times = np.append(np.linspace(0.0, 3.0, 61), math.log(1.7))
        values = ng.fock_purity_thermal(n, 0.7, times, 1.2)
        assert values.shape == times.shape
        assert list(values) == [ng.fock_purity_thermal(n, 0.7, t, 1.2)
                                for t in times]

    def test_integral_array_matches_scalar_calls(self):
        times = np.linspace(0.0, 2.0, 5)
        values = ng.fock_purity_t(2, SQUEEZED, times)
        assert values.shape == times.shape
        assert list(values) == [ng.fock_purity_t(2, SQUEEZED, t)
                                for t in times]

    def test_closed_form_regular_through_xi_equals_two(self):
        # xi(t) = 1 + (1/k - 1)/mu crosses 2 at t = ln(1 + mu); the closed
        # form must stay continuous there even though the Legendre argument
        # it is equivalent to diverges at that instant
        mu = 0.75
        t_star = math.log(1.0 + mu)
        vals = [ng.fock_purity_thermal(3, mu, t_star + d) for d in (-1e-7, 0.0, 1e-7)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-5)
        assert vals[2] == pytest.approx(vals[1], rel=1e-5)

    @pytest.mark.parametrize("n", [1, 2])
    def test_purity_matches_lindblad(self, n):
        times = [0.25, 0.75]
        num = nm.lindblad_purities(nm.fock_state(n), *SQUEEZED_NM,
                                   times)
        closed = [ng.fock_purity_t(n, SQUEEZED, t) for t in times]
        assert np.allclose(num, closed, atol=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_wigner_normalized_and_consistent_with_char(self, n):
        w = ng.fock_wigner_t(n, 0.5, 0.4)
        assert _wigner_mass(w) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 3])
    def test_wigner_origin_sign_flip_at_tnc(self, n):
        mu_inf = 0.5
        t_nc = math.log(1.0 + mu_inf)
        origin = np.zeros((1, 2))
        before, at, after = (float(ng.fock_wigner_t(n, mu_inf, f * t_nc)
                                   .eval(origin)[0]) for f in (0.9, 1.0, 1.1))
        assert (-1.0) ** n * before > 0.0
        assert after > 0.0
        assert abs(at) < 1e-12
        xi = ng.fock_xi_t(n, mu_inf, np.array([0.9, 1.0, 1.1]) * t_nc)
        assert xi[0] > 0.0 and xi[1] == xi[2] == 0.0

    def test_char_at_origin(self):
        f = ng.fock_char_t(2, SQUEEZED, 0.8)
        assert float(f(np.zeros((1, 2)))[0]) == pytest.approx(1.0)

    def test_char_purity_integral_matches_closed_form(self):
        n, t = 2, 0.6
        f = ng.fock_char_t(n, SQUEEZED, t)
        spec = nm.QuadratureSpec(extents=((-9.0, 9.0), (-9.0, 9.0)), tol=1e-10)
        res = nm.integrate_phase_space(lambda p: np.abs(f(p)) ** 2, spec)
        mu_num = res.value / (2.0 * math.pi)
        assert mu_num == pytest.approx(ng.fock_purity_t(n, SQUEEZED, t), abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ng.fock_purity_t(-1, THERMAL, 0.1)
        with pytest.raises(ValueError):
            ng.fock_purity_thermal(1, 0.5, -0.1)
        with pytest.raises(ValueError):
            ng.fock_wigner_t(1, 1.5, 0.1)


class TestPsi01:
    def test_initial_purity_one(self):
        assert ng.psi01_purity_t(0.7, SQUEEZED, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("vartheta", [0.0, 0.9, math.pi / 2])
    def test_matches_lindblad(self, vartheta):
        t = 0.5
        num = nm.lindblad_purities(nm.psi01_state(vartheta), *SQUEEZED_NM,
                                   [t])[0]
        assert ng.psi01_purity_t(vartheta, SQUEEZED, t) == pytest.approx(num, abs=1e-6)

    @pytest.mark.parametrize("bath", [THERMAL, SQUEEZED])
    def test_array_matches_scalar_calls(self, bath):
        times = np.linspace(0.0, 5.0, 201)
        values = ng.psi01_purity_t(0.9, bath, times)
        assert values.shape == times.shape
        assert list(values) == [ng.psi01_purity_t(0.9, bath, t)
                                for t in times]

    def test_phase_periodicity(self):
        assert ng.psi01_purity_t(0.3, SQUEEZED, 0.7) == pytest.approx(
            ng.psi01_purity_t(0.3 + math.pi, SQUEEZED, 0.7), rel=1e-12)

    def test_thermal_bath_phase_independent(self):
        vals = [ng.psi01_purity_t(v, THERMAL, 0.6) for v in (0.0, 0.7, 1.4)]
        assert max(vals) - min(vals) < 1e-14

    def test_optimal_phase_in_phi_zero_bath(self):
        bath = BathParams(gamma=1.0, mu_inf=0.25, r_inf=0.28, phi_inf=0.0)
        best = ng.psi01_purity_t(math.pi / 2, bath, 0.5)
        for v in np.linspace(0.0, math.pi, 37):
            assert ng.psi01_purity_t(float(v), bath, 0.5) <= best + 1e-12


def _fock_xi_mpmath(n, mu_inf, t, gamma=1.0):
    """40-digit ξ of |n> in a thermal bath: ∫|Q(v)| e^{-v} dv - 1 with Q
    split at its positive roots (see ``fock_xi_t`` for Q)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        k = mp.exp(-gamma * mp.mpf(t))
        mu = mp.mpf(mu_inf)
        zeta = (1 - (1 - mu) * k) / mu
        eta = (1 - (1 + mu) * k) / mu
        c = [mp.binomial(n, m) * (2 * k / zeta) ** m * (eta / zeta) ** (n - m)
             / mp.factorial(m) for m in range(n + 1)]
        roots = mp.polyroots(c[::-1], maxsteps=200, extraprec=200)
        edges = ([mp.mpf(0)]
                 + sorted(mp.re(r) for r in roots
                          if abs(mp.im(r)) < 1e-30 and mp.re(r) > 0)
                 + [mp.inf])
        total = sum(abs(mp.quad(lambda v: mp.polyval(c[::-1], v) * mp.exp(-v),
                                [lo, hi]))
                    for lo, hi in zip(edges, edges[1:]))
        return float(max(total - 1, 0))


@functools.lru_cache(maxsize=None)
def _laguerre_roots(n):
    """The roots of Lₙ to 60 digits, ascending."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        coeffs = [(-1) ** m * mp.binomial(n, m) / mp.factorial(m)
                  for m in range(n, -1, -1)]
        return tuple(sorted(mp.polyroots(coeffs, maxsteps=100, extraprec=60)))


def _fock_xi_gammainc(n, mu_inf, t):
    """60-digit ξ of |n> in a thermal bath at γ = 1: |Σₘ aₘ ΔP(m+1, ·)|
    summed over the intervals between the sign changes v_j = -η x_j/(2k) of
    Q, x_j the roots of Lₙ, with P the regularized lower gammainc (see
    ``fock_xi_t`` for aₘ, k, ζ and η)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        k = mp.exp(-mp.mpf(t))
        mu = mp.mpf(mu_inf)
        zeta = (1 - (1 - mu) * k) / mu
        eta = (1 - (1 + mu) * k) / mu
        a = [mp.binomial(n, m) * (2 * k / zeta) ** m * (eta / zeta) ** (n - m)
             for m in range(n + 1)]
        inner = [-eta * x / (2 * k) for x in _laguerre_roots(n)] if eta < 0 else []
        edges = [mp.mpf(0), *inner, mp.inf]
        total = sum(abs(mp.fsum(am * mp.gammainc(m + 1, lo, hi, regularized=True)
                                for m, am in enumerate(a)))
                    for lo, hi in zip(edges, edges[1:]))
        return total - 1


class TestFockXiClosedForm:
    @pytest.mark.parametrize("n", range(1, ng.FOCK_XI_MAX_N + 1))
    def test_matches_gammainc_reference_up_to_validated_n(self, n):
        # the alternating sum loses digits as n grows; cvdec run rejects xi
        # above ng.FOCK_XI_MAX_N
        for mu_inf in (0.25, 0.5, 0.9):
            t_nc = math.log1p(mu_inf)
            times = np.array([0.0, 0.1, 0.5 * t_nc, 0.9 * t_nc])
            for t, xi in zip(times, ng.fock_xi_t(n, mu_inf, times)):
                assert abs(xi - float(_fock_xi_gammainc(n, mu_inf, t))) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("t", [0.0, 0.05, 0.2, 0.38])
    def test_matches_mpmath(self, n, t):
        # t_nc = ln 1.5 = 0.405 at mu_inf = 0.5
        tol = 1e-13 if n <= 5 else 1e-11
        assert float(ng.fock_xi_t(n, 0.5, t)) == pytest.approx(
            _fock_xi_mpmath(n, 0.5, t), abs=tol)

    def test_matches_mpmath_where_radial_quad_missed(self):
        # second point of a 100-point grid on [0, 2/gamma], t = 0.0122759;
        # the adaptive radial quadrature missed this value by 3.1e-7
        gamma = 1.645661928464921
        t = 2.0 / gamma / 99
        assert float(ng.fock_xi_t(3, 0.7, t, gamma)) == pytest.approx(
            _fock_xi_mpmath(3, 0.7, t, gamma), abs=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_zero_from_tnc_on(self, n):
        t_nc = math.log(1.5)
        xi = ng.fock_xi_t(n, 0.5, t_nc * np.array([1.0, 1.05, 2.0, 40.0]))
        assert np.all(xi == 0.0)

    def test_array_matches_scalar_calls(self):
        times = np.linspace(0.0, 2.0, 41)
        values = ng.fock_xi_t(3, 0.7, times, 1.3)
        assert values.shape == times.shape
        assert list(values) == [ng.fock_xi_t(3, 0.7, t, 1.3) for t in times]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ng.fock_xi_t(2, 0.5, [0.1, -0.1])
        with pytest.raises(ValueError):
            ng.fock_xi_t(-1, 0.5, 0.1)
        with pytest.raises(ValueError):
            ng.fock_xi_t(1, 1.5, 0.1)


class TestPositivityTime:
    @pytest.mark.parametrize("r_inf", [0.3, 0.8])
    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_squeezed_cat_nonnegative_at_t_pos(self, r_inf, theta):
        bath = BathParams(gamma=1.0, mu_inf=0.6, r_inf=r_inf, phi_inf=0.4)
        cat = ng.CatState(x0=(1.5, 0.5), r0=0.4, theta=theta)
        w = ng.cat_wigner_t(cat, bath, t_pos(bath))
        axes = [np.linspace(lo, hi, 401) for lo, hi in w.domain]
        grid = np.stack([a.ravel() for a in np.meshgrid(*axes)], axis=-1)
        assert np.min(w.eval(grid)) >= 0.0
        assert ng.negative_part(w, tol=1e-8).xi <= 1e-8


class TestNegativePart:
    def test_gaussian_has_no_negative_part(self):
        assert ng.fock_xi_t(0, 0.5, 0.3) == 0.0
        res = ng.negative_part(ng.fock_wigner_t(0, 0.5, 0.3))
        assert res.xi == pytest.approx(0.0, abs=1e-8)

    def test_fock1_initial_value(self):
        # for |1> at t=0: int |W| = int_0^inf |2s-1| e^{-s} ds = 4 e^{-1/2} - 1
        expected = 4.0 * math.exp(-0.5) - 2.0  # xi = int |W| - 1
        assert ng.fock_xi_t(1, 0.5, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_vanishes_after_tnc(self):
        mu_inf = 0.5
        t_nc = math.log(1.0 + mu_inf)
        assert ng.fock_xi_t(2, mu_inf, 1.05 * t_nc) == 0.0
        assert ng.fock_xi_t(2, mu_inf, 0.8 * t_nc) > 1e-4

    def test_box_path_agrees_with_closed_form(self):
        w = ng.fock_wigner_t(1, 0.5, 0.2)
        assert ng.negative_part(w).xi == pytest.approx(
            ng.fock_xi_t(1, 0.5, 0.2), abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_box_xi_at_t0_matches_laguerre(self, n):
        # W_n(x) = (-1)^n L_n(2|x|^2) e^{-|x|^2} / pi at t = 0, so with
        # u = |x|^2 the box integral of |W| is int_0^inf |L_n(2u)| e^{-u} du
        nodes = [0.0, *(0.5 * special.roots_laguerre(n)[0]), math.inf]
        expected = sum(
            integrate.quad(lambda u: abs(special.eval_laguerre(n, 2.0 * u))
                           * math.exp(-u), a, b, epsabs=1e-14, epsrel=1e-13)[0]
            for a, b in zip(nodes, nodes[1:])) - 1.0
        w = ng.fock_wigner_t(n, 0.5, 0.0)
        assert ng.negative_part(w, tol=1e-8).xi == pytest.approx(
            expected, abs=1e-8)

    def test_box_error_estimate_within_tolerance(self):
        # the |W| and W integrals share the tolerance instead of each
        # taking all of it
        w = ng.fock_wigner_t(2, 0.5, 0.0)
        assert ng.negative_part(w, tol=1e-8).est_error <= 1e-8

    @pytest.mark.parametrize("batch", [nm._BATCH, 2 ** 12])
    def test_box_xi_pinned_bit_for_bit(self, batch, monkeypatch):
        # the box quadrature's points, weights, panel sums and refinement
        # decisions are pinned by its value, its error estimate and its
        # evaluation counts (signed W, then |W|), whatever the batch size of
        # the integrand.  The bits are those of numpy's bundled OpenBLAS;
        # another BLAS may round the panel sums differently.
        monkeypatch.setattr(nm, "_BATCH", batch)
        counts = []

        def counted(f, spec):
            res = nm.integrate_phase_space(f, spec)
            counts.append(res.evaluations)
            return res

        monkeypatch.setattr(ng, "integrate_phase_space", counted)
        res = ng.negative_part(ng.fock_wigner_t(2, 0.5, 0.0), tol=1e-8)
        assert res.xi.hex() == "0x1.753e147d502c4p-1"
        assert res.est_error.hex() == "0x1.37178b0d8928dp-27"
        assert counts == [26325, 9836325]

    def test_box_negative_part_raises_under_round_cap(self):
        w = ng.fock_wigner_t(2, 0.5, 0.0)
        with pytest.raises(nm.QuadratureError) as err:
            ng._box_negative_part(w, 1e-8, max_refinements=6)
        assert not err.value.result.converged

    def test_domain_expansion_recovers_small_box(self):
        w = ng.fock_wigner_t(1, 0.5, 0.2)
        lo, hi = w.domain[0]
        shrunk = ng.WignerField(eval=w.eval,
                                domain=((lo / 3, hi / 3), (lo / 3, hi / 3)))
        _, mass, _ = ng._box_negative_part(shrunk, 1e-7)
        assert abs(mass - 1.0) > 1e-6  # the small box alone misses mass
        assert ng.negative_part(shrunk, tol=1e-7).xi == pytest.approx(
            ng.fock_xi_t(1, 0.5, 0.2), abs=1e-6)

    def test_purity_oracle_on_gaussian(self):
        p = ps.SingleModeParams(mu=0.6, r=0.4, phi=0.2)
        state = ps.GaussianState.from_params(p)
        w = ng.WignerField(
            eval=lambda pts: ps.wigner_gaussian(state, pts),
            domain=((-9.0, 9.0), (-9.0, 9.0)))
        assert ng.wigner_purity(w) == pytest.approx(0.6, abs=1e-9)

    def test_cat_purity_oracle_pinned_bit_for_bit(self):
        w = ng.cat_wigner_t(ng.CatState(x0=(2.0, 0.0)), THERMAL, 0.2)
        assert ng.wigner_purity(w, tol=1e-9).hex() == "0x1.e641c966ecc37p-2"

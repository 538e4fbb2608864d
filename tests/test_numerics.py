import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from cvdec import nongaussian as ng
from cvdec import numerics as nm
from cvdec.channels import BathParams, nm_from_bath

SQUEEZED = BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.4, phi_inf=0.3)


def _dim(bath, n):
    b = nm_from_bath(bath)
    return max(nm.default_truncation(b.N + abs(b.M), n), 2 * n + 24)


class TestSpecialFunctions:
    @pytest.mark.parametrize("n", range(8))
    def test_laguerre_matches_reference(self, n):
        x = np.linspace(0.0, 20.0, 101)
        assert np.allclose(nm.laguerre(n, x), special.eval_laguerre(n, x),
                           rtol=1e-12, atol=1e-12)

    def test_laguerre_point_value(self):
        # L2(x) = 1 - 2x + x^2/2, so L2(2) = -1
        assert nm.laguerre(2, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_bessel_i0_log_values(self):
        assert nm.bessel_i0_log(0.0) == pytest.approx(0.0, abs=1e-15)
        assert nm.bessel_i0_log(-1.0) == pytest.approx(
            math.log(1.2660658777520084), rel=1e-12)
        # I0(x) ~ e^x / sqrt(2 pi x) (1 + 1/(8x)) far past the overflow of I0
        x = 1e5
        assert nm.bessel_i0_log(x) == pytest.approx(
            x - 0.5 * math.log(2.0 * math.pi * x) + math.log1p(1.0 / (8.0 * x)),
            rel=1e-14)

    @given(st.floats(min_value=0.0, max_value=600.0))
    @settings(max_examples=60, deadline=None)
    def test_bessel_i0_log_matches_reference(self, x):
        # unscaled I0, finite up to x ~ 713
        assert nm.bessel_i0_log(x) == pytest.approx(
            float(np.log(special.i0(x))), rel=1e-12, abs=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            nm.laguerre(-1, 0.5)


class TestQuadrature:
    def test_vacuum_wigner_normalized(self):
        spec = nm.QuadratureSpec(extents=((-8.0, 8.0), (-8.0, 8.0)))

        def vacuum(p):
            return np.exp(-np.sum(p * p, axis=-1)) / np.pi

        res = nm.integrate_phase_space(vacuum, spec)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_4d_gaussian(self):
        spec = nm.QuadratureSpec(extents=tuple([(-7.0, 7.0)] * 4), tol=1e-9)

        def gauss(p):
            return np.exp(-np.sum(p * p, axis=-1)) / np.pi ** 2

        res = nm.integrate_phase_space(gauss, spec)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_error_bracket_against_refined_run(self):
        spec = nm.QuadratureSpec(extents=((-6.0, 6.0),), tol=1e-12,
                                 max_refinements=3)

        def bumpy(p):
            x = p[:, 0]
            return np.exp(-x * x) * (1.0 + 0.5 * np.sin(3.0 * x))

        try:
            coarse = nm.integrate_phase_space(bumpy, spec)
        except nm.QuadratureError as exc:
            coarse = exc.result
        fine = nm.integrate_phase_space(
            bumpy, nm.QuadratureSpec(extents=((-6.0, 6.0),), tol=1e-13,
                                     max_refinements=10))
        assert abs(coarse.value - fine.value) <= coarse.error + 1e-13

    def test_unconverged_raises_with_best_estimate(self):
        spec = nm.QuadratureSpec(extents=((-1.0, 1.0),), tol=1e-300,
                                 max_refinements=2)
        with pytest.raises(nm.QuadratureError) as err:
            nm.integrate_phase_space(lambda p: np.abs(p[:, 0] - 0.3), spec)
        assert err.value.result.value == pytest.approx(1.09, abs=1e-3)
        assert not err.value.result.converged

    def test_kronrod_table_exact(self):
        # K15 integrates polynomials of degree <= 22 exactly, G7 up to 13
        x = nm._GK15_X
        for k in range(24):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert nm._GK15_WK @ x ** k == pytest.approx(exact, abs=1e-15)
            if k <= 13:
                assert nm._GK15_WG @ x ** k == pytest.approx(exact, abs=1e-15)
        assert abs(nm._GK15_WG @ x ** 14 - 2.0 / 15) > 1e-5

    def test_kink_refined_locally(self):
        # uniform bisection down to the smallest panel needed here would cost
        # 15 * 2^17 points; the adaptive panels crowd onto the kink instead
        spec = nm.QuadratureSpec(extents=((-1.0, 1.0),), tol=1e-12,
                                 max_refinements=40)
        res = nm.integrate_phase_space(lambda p: np.abs(p[:, 0] - 0.3), spec)
        assert res.converged
        assert res.value == pytest.approx(1.09, abs=1e-12)
        assert res.evaluations <= 1000

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_evaluations_count_every_point(self, d):
        seen = []

        def gauss(p):
            seen.append(p.shape[0])
            return np.exp(-np.sum(p * p, axis=-1))

        spec = nm.QuadratureSpec(extents=tuple([(-6.0, 6.0)] * d), tol=1e-9)
        res = nm.integrate_phase_space(gauss, spec)
        assert res.converged
        assert res.value == pytest.approx(math.pi ** (d / 2), abs=1e-8)
        assert res.evaluations == sum(seen)

    def test_evaluations_counted_when_unconverged(self):
        seen = []

        def kinked(p):
            seen.append(p.shape[0])
            return np.abs(np.sum(p * p, axis=-1) - 0.5)

        spec = nm.QuadratureSpec(extents=((-1.0, 1.0), (-1.0, 1.0)),
                                 tol=1e-12, max_refinements=8)
        with pytest.raises(nm.QuadratureError) as err:
            nm.integrate_phase_space(kinked, spec)
        assert not err.value.result.converged
        assert err.value.result.evaluations == sum(seen)
        # the last rounds are split into calls of at most 2^18 points
        assert len(seen) > spec.max_refinements + 1
        assert max(seen) <= 2 ** 18

    def test_single_level_rejected(self):
        # order escalation (d > 2) compares two orders
        with pytest.raises(ValueError):
            nm.QuadratureSpec(extents=((-1.0, 1.0),), max_refinements=0)


class TestLindblad:
    def test_trace_preserved(self):
        bath = {"gamma": 1.0, "mu_inf": 0.5, "r_inf": 0.0, "phi_inf": 0.0}
        rho = nm.lindblad_evolve(nm.fock_state(1, 24), _Bath(**bath), 0.7)
        assert rho.trace() == pytest.approx(1.0, abs=1e-8)
        assert rho.min_eigenvalue() >= -1e-10

    def test_vacuum_purity_matches_closed_form(self):
        bath = _Bath(gamma=1.0, mu_inf=0.5, r_inf=0.0, phi_inf=0.0)
        rho = nm.lindblad_evolve(nm.fock_state(0, 24), bath, 1.0)
        mu_inf, k = 0.5, math.exp(-1.0)
        expected = mu_inf / math.sqrt(
            (mu_inf * k) ** 2 + (1.0 - k) ** 2 + 2.0 * mu_inf * k * (1.0 - k))
        assert rho.purity() == pytest.approx(expected, abs=1e-6)

    def test_asymptotic_state_thermal(self):
        bath = _Bath(gamma=1.0, mu_inf=0.5, r_inf=0.0, phi_inf=0.0)
        rho = nm.lindblad_evolve(nm.fock_state(0, 30), bath, 50.0)
        n_mean = float(np.real(np.sum(np.arange(30) * np.diag(rho.matrix))))
        assert n_mean == pytest.approx(0.5, abs=1e-4)  # N = (1/mu - 1)/2
        off_diag = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.max(np.abs(off_diag)) < 1e-8

    def test_tail_failure_reported(self):
        bath = _Bath(gamma=1.0, mu_inf=0.2, r_inf=0.0, phi_inf=0.0)
        with pytest.raises(nm.TruncationError):
            nm.lindblad_evolve(nm.fock_state(0, 6), bath, 30.0)

    def test_tail_failure_reported_along_trajectory(self):
        with pytest.raises(nm.TruncationError):
            nm.lindblad_purities(nm.fock_state(2, 8), SQUEEZED, [0.5, 5.0])

    @pytest.mark.parametrize("t", [0.3, 1.2])
    def test_squeezed_fock_purity_matches_closed_form(self, t):
        rho = nm.lindblad_evolve(nm.fock_state(2, _dim(SQUEEZED, 2)), SQUEEZED, t)
        assert rho.purity() == pytest.approx(ng.fock_purity_t(2, SQUEEZED, t),
                                             abs=1e-9)

    @pytest.mark.parametrize("vartheta", [0.0, 1.1])
    def test_squeezed_psi01_purity_matches_closed_form(self, vartheta):
        rho0 = nm.psi01_state(vartheta, _dim(SQUEEZED, 1))
        rho = nm.lindblad_evolve(rho0, SQUEEZED, 0.8)
        assert rho.purity() == pytest.approx(
            ng.psi01_purity_t(vartheta, SQUEEZED, 0.8), abs=1e-9)

    def test_evolve_matches_trajectory_endpoint(self):
        rho0 = nm.psi01_state(0.6, _dim(SQUEEZED, 1))
        t = 0.9
        end = nm.lindblad_evolve(rho0, SQUEEZED, t)
        purities = nm.lindblad_purities(rho0, SQUEEZED, [t / 2, t])
        assert end.purity() == pytest.approx(purities[-1], abs=1e-12)


class TestRoots:
    def test_constructed_quartic(self):
        # (k - 1/2)(k - 2)(k^2 + 1)
        p = np.polymul(np.polymul([1, -0.5], [1, -2.0]), [1, 0, 1])
        roots = nm.polynomial_real_roots(list(p))
        assert np.allclose(roots, [0.5, 2.0], atol=1e-10)

    def test_degree_degradation(self):
        roots = nm.polynomial_real_roots([0.0, 2.0, -3.0, 1.0])  # 2(k-1)(k-1/2)
        assert np.allclose(roots, [0.5, 1.0], atol=1e-10)

    def test_complex_pair_filtered(self):
        p = np.polymul([1, -0.7], [1, 0, 1])  # (k - 0.7)(k^2 + 1)
        roots = nm.polynomial_real_roots(list(p))
        assert roots.shape == (1,)
        assert roots[0] == pytest.approx(0.7, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            nm.polynomial_real_roots([0.0, 0.0, 0.0])


class _Bath:
    def __init__(self, gamma, mu_inf, r_inf, phi_inf):
        self.gamma = gamma
        self.mu_inf = mu_inf
        self.r_inf = r_inf
        self.phi_inf = phi_inf

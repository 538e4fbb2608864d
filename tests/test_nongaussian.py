import math

import numpy as np
import pytest

from cvdec import nongaussian as ng
from cvdec import numerics as nm
from cvdec import phase_space as ps
from cvdec.channels import BathParams


THERMAL = BathParams(gamma=1.0, mu_inf=0.5)
SQUEEZED = BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.4, phi_inf=0.3)


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
        p_n = 0.5 * (math.cosh(2 * SQUEEZED.r_inf) / SQUEEZED.mu_inf - 1.0)
        m_abs = math.sinh(2 * SQUEEZED.r_inf) / (2 * SQUEEZED.mu_inf)
        dim = max(nm.default_truncation(p_n + m_abs, n), 2 * n + 24)
        times = [0.25, 0.75]
        num = nm.lindblad_purities(nm.fock_state(n, dim), SQUEEZED, times)
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
        before = float(ng.fock_wigner_t(n, mu_inf, 0.9 * t_nc).radial(np.array([0.0]))[0])
        after = float(ng.fock_wigner_t(n, mu_inf, 1.1 * t_nc).radial(np.array([0.0]))[0])
        at = float(ng.fock_wigner_t(n, mu_inf, t_nc).radial(np.array([0.0]))[0])
        assert (-1.0) ** n * before > 0.0
        assert after > 0.0
        assert abs(at) < 1e-12

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
        p_n = 0.5 * (math.cosh(2 * SQUEEZED.r_inf) / SQUEEZED.mu_inf - 1.0)
        m_abs = math.sinh(2 * SQUEEZED.r_inf) / (2 * SQUEEZED.mu_inf)
        dim = max(nm.default_truncation(p_n + m_abs, 1), 32)
        t = 0.5
        num = nm.lindblad_purities(nm.psi01_state(vartheta, dim), SQUEEZED, [t])[0]
        assert ng.psi01_purity_t(vartheta, SQUEEZED, t) == pytest.approx(num, abs=1e-6)

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


class TestNegativePart:
    def test_gaussian_has_no_negative_part(self):
        w = ng.fock_wigner_t(0, 0.5, 0.3)
        res = ng.negative_part(w)
        assert res.xi == pytest.approx(0.0, abs=1e-8)

    def test_fock1_initial_value(self):
        # for |1> at t=0: int |W| = int_0^inf |2s-1| e^{-s} ds = 4 e^{-1/2} - 1
        w = ng.fock_wigner_t(1, 0.5, 0.0)
        res = ng.negative_part(w)
        expected = 4.0 * math.exp(-0.5) - 2.0  # xi = int |W| - 1
        assert res.xi == pytest.approx(expected, abs=1e-8)

    def test_vanishes_after_tnc(self):
        mu_inf = 0.5
        t_nc = math.log(1.0 + mu_inf)
        assert ng.negative_part(ng.fock_wigner_t(2, mu_inf, 1.05 * t_nc)).xi == \
            pytest.approx(0.0, abs=1e-8)
        assert ng.negative_part(ng.fock_wigner_t(2, mu_inf, 0.8 * t_nc)).xi > 1e-4

    def test_box_path_agrees_with_radial(self):
        w = ng.fock_wigner_t(1, 0.5, 0.2)
        boxed = ng.WignerField(eval=w.eval, domain=w.domain, radial=None)
        assert ng.negative_part(boxed).xi == pytest.approx(
            ng.negative_part(w).xi, abs=1e-6)

    def test_domain_expansion_recovers_small_box(self):
        w = ng.fock_wigner_t(1, 0.5, 0.2)
        lo, hi = w.domain[0]
        shrunk = ng.WignerField(eval=w.eval,
                                domain=((lo / 2, hi / 2), (lo / 2, hi / 2)),
                                radial=w.radial)
        assert ng.negative_part(shrunk).xi == pytest.approx(
            ng.negative_part(w).xi, abs=1e-6)

    def test_purity_oracle_on_gaussian(self):
        p = ps.SingleModeParams(mu=0.6, r=0.4, phi=0.2)
        state = ps.GaussianState.from_params(p)
        w = ng.WignerField(
            eval=lambda pts: ps.wigner_gaussian(state, pts),
            domain=((-9.0, 9.0), (-9.0, 9.0)))
        assert ng.wigner_purity(w) == pytest.approx(0.6, abs=1e-9)

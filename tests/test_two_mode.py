import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvdec import two_mode as tm
from cvdec import phase_space as ps
from cvdec.channels import BathParams, ChannelSpec

RNG = np.random.default_rng(20240819)


def _random_standard_form(rng) -> tm.StandardForm:
    """Entangled-leaning random standard forms built from squeezed thermal
    states with mild perturbations of the local variances."""
    r = rng.uniform(0.2, 1.2)
    mu = rng.uniform(0.3, 1.0)
    base = tm.SqueezedThermalParams(mu=mu, r=r).standard_form
    da, db = rng.uniform(0.0, 0.15, size=2)
    scale = rng.uniform(0.8, 1.0)
    return tm.StandardForm(a=base.a + da, b=base.b + db,
                           c1=base.c1 * scale, c2=base.c2 * scale)


def _thermal_pair(gamma=1.0, mu1=0.5, mu2=0.5):
    return ChannelSpec((BathParams(gamma=gamma, mu_inf=mu1),
                        BathParams(gamma=gamma, mu_inf=mu2)))


class TestStandardForm:
    def test_squeezed_thermal_invariants(self):
        p = tm.SqueezedThermalParams(mu=0.5, r=0.8)
        inv = tm.invariants(p.standard_form.state.cm)
        # global purity mu = 1/(4 sqrt(Det sigma))
        assert 1.0 / (4.0 * math.sqrt(inv.det_sigma)) == pytest.approx(0.5, rel=1e-12)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            tm.StandardForm(a=1.0, b=1.0, c1=0.5, c2=0.1)

    def test_unphysical_rejected(self):
        with pytest.raises(ValueError):
            tm.StandardForm(a=0.5, b=0.5, c1=0.3, c2=-0.3)
        with pytest.raises(ValueError):
            tm.StandardForm(a=0.4, b=1.0, c1=0.0, c2=0.0)

    def test_state_built_and_checked_once(self, monkeypatch):
        calls = []
        check = ps.check_physical
        monkeypatch.setattr(ps, "check_physical",
                            lambda cm: calls.append(1) or check(cm))
        sf = tm.StandardForm(a=1.2, b=1.0, c1=0.5, c2=-0.7)
        assert isinstance(sf.state, ps.GaussianState)
        assert sf.state is sf.state
        assert np.array_equal(sf.state.cm, [[1.2, 0.0, 0.5, 0.0],
                                            [0.0, 1.2, 0.0, -0.7],
                                            [0.5, 0.0, 1.0, 0.0],
                                            [0.0, -0.7, 0.0, 1.0]])
        assert not sf.state.mean.any()
        tm.log_negativity(sf.state)
        assert len(calls) == 1

    def test_delta_tilde(self):
        inv = tm.TwoModeInvariants(det_sigma=1.0, det_alpha=2.0,
                                   det_beta=3.0, det_gamma=-0.5)
        assert inv.delta == pytest.approx(4.0)
        assert inv.delta_tilde == pytest.approx(6.0)


class TestEntanglementMeasures:
    @pytest.mark.parametrize("r", [0.3, 1.0, 1.6, 2.2])
    def test_pure_squeezed_log_negativity(self, r):
        cm = tm.SqueezedThermalParams(mu=1.0, r=r).standard_form.state.cm
        assert tm.log_negativity(cm) == pytest.approx(2.0 * r, abs=1e-8)

    def test_ppt_spectrum_pure_squeezed(self):
        r = 0.7
        cm = tm.SqueezedThermalParams(mu=1.0, r=r).standard_form.state.cm
        nu_m, nu_p = tm.ppt_symplectic_eigenvalues(cm)
        assert nu_m == pytest.approx(0.5 * math.exp(-2.0 * r), rel=1e-10)
        assert nu_p == pytest.approx(0.5 * math.exp(2.0 * r), rel=1e-10)
        assert nu_m * nu_p == pytest.approx(0.25, rel=1e-10)

    def test_nu_minus_without_cancellation(self):
        # 2ν̃₋² = 4 Det σ / (Δ̃ + √(Δ̃² - 4 Det σ)) is as accurate as the
        # stored matrix allows: rounding its entries, of size e^{2r}/4,
        # already moves ν̃₋ by up to about eps·e^{4r} (2.0e-8 at r = 4.75,
        # by 60-digit mpmath).  The difference form erred by 6.9e-4 at r = 4.
        for r in np.arange(0.0, 5.01, 0.25):
            state = tm.SqueezedThermalParams(mu=1.0, r=r).standard_form.state
            nu_m, nu_p = tm.ppt_symplectic_eigenvalues(state)
            exact = 0.5 * math.exp(-2.0 * r)
            bound = max(1e-15, np.finfo(float).eps * math.exp(4.0 * r))
            assert abs(nu_m / exact - 1.0) <= bound, r
            assert nu_p == pytest.approx(0.5 * math.exp(2.0 * r), rel=1e-14)

    def test_large_squeezing_keeps_nu_minus(self):
        # at r = 6 the difference form Δ̃ - √(Δ̃² - 4 Det σ) rounded to 0;
        # through Vieta, ν̃₋ = e^{-12}/2 keeps its leading digits
        state = tm.SqueezedThermalParams(mu=1.0, r=6.0).standard_form.state
        assert tm.log_negativity(state) == pytest.approx(12.0, abs=1e-5)
        assert tm.teleportation_fidelity(state) < 1.0

    @pytest.mark.parametrize("f", [tm.log_negativity,
                                   tm.teleportation_fidelity])
    def test_cancelled_nu_minus_raises(self, f):
        # at r = 10, cosh 20 and sinh 20 round to the same float, so the
        # stored matrix has Det σ = 0 although ν̃₋ is e^{-20}/2; its entries,
        # 1.2e8, are too large for the uncertainty check to resolve that.
        # No silent F = 1 or E_N = inf
        state = tm.SqueezedThermalParams(mu=1.0, r=10.0).standard_form.state
        with pytest.raises(ArithmeticError, match="cancelled"):
            f(state)

    def test_product_state_separable(self):
        cm = np.diag([0.7, 0.7, 0.9, 0.9])
        assert tm.is_separable(cm)
        assert tm.log_negativity(cm) == 0.0
        assert tm.mutual_information(cm) == pytest.approx(0.0, abs=1e-10)

    def test_pure_state_mutual_information_is_twice_entropy(self):
        cm = tm.SqueezedThermalParams(mu=1.0, r=0.9).standard_form.state.cm
        alpha = cm[:2, :2]
        assert tm.mutual_information(cm) == pytest.approx(
            2.0 * ps.von_neumann_entropy(alpha), rel=1e-10)

    def test_smallest_eigenvalue_matches_eigh(self):
        for _ in range(20):
            sf = _random_standard_form(RNG)
            cm = sf.state.cm
            assert tm.smallest_eigenvalue_u(sf) == pytest.approx(
                float(np.linalg.eigvalsh(cm)[0]), abs=1e-10)


class TestCoefficientExpansion:
    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_determinants(self, seed):
        rng = np.random.default_rng(seed)
        sf = _random_standard_form(rng)
        ch = ChannelSpec((
            BathParams(gamma=0.8, mu_inf=rng.uniform(0.3, 1.0),
                       r_inf=rng.uniform(0.0, 0.6), phi_inf=0.0),
            BathParams(gamma=0.8, mu_inf=rng.uniform(0.3, 1.0),
                       r_inf=rng.uniform(0.0, 0.6),
                       phi_inf=rng.uniform(-1.5, 1.5)),
        ))
        t = rng.uniform(0.0, 3.0)
        by_coeff = tm.coefficient_set(sf, ch).at(math.exp(-0.8 * t))
        direct = tm.invariants(_evolved_cm(sf, ch, t))
        for name in ("det_sigma", "det_alpha", "det_beta", "det_gamma"):
            assert getattr(by_coeff, name) == pytest.approx(
                getattr(direct, name), rel=1e-9, abs=1e-12)

    def test_unequal_couplings_have_no_expansion(self):
        sf = tm.SqueezedThermalParams(mu=0.8, r=0.6).standard_form
        ch = ChannelSpec((BathParams(gamma=1.0, mu_inf=0.5),
                          BathParams(gamma=2.0, mu_inf=0.5)))
        with pytest.raises(ValueError, match="equal couplings"):
            tm.coefficient_set(sf, ch)

    def test_nonzero_first_bath_angle_rejected(self):
        sf = tm.SqueezedThermalParams(mu=0.8, r=0.6).standard_form
        ch = ChannelSpec((BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.3,
                                     phi_inf=0.4),
                          BathParams(gamma=1.0, mu_inf=0.5)))
        with pytest.raises(ValueError):
            tm.coefficient_set(sf, ch)


class TestEntanglementTime:
    def test_quartic_against_direct_crossing(self):
        for params, baths in [
            (tm.SqueezedThermalParams(0.7, 0.9),
             (BathParams(1.0, 0.6), BathParams(1.0, 0.4))),
            # squeezed baths, the second at a nonzero angle
            (tm.SqueezedThermalParams(0.7, 0.9),
             (BathParams(1.0, 0.5, 0.3, 0.0), BathParams(1.0, 0.6, 0.2, 0.7))),
            (tm.SqueezedThermalParams(0.9, 0.5),
             (BathParams(0.7, 0.4, 0.5, 0.0), BathParams(0.7, 0.4, 0.5, 1.2))),
        ]:
            sf = params.standard_form
            ch = ChannelSpec(baths)
            tm.coefficient_set(sf, ch)  # the quartic seeds the bracket
            t_ent = tm.entanglement_time(sf, ch)
            assert t_ent is not None
            eps = 1e-6
            assert not tm.is_separable(_evolved_cm(sf, ch, t_ent - eps))
            assert tm.is_separable(_evolved_cm(sf, ch, t_ent + eps), tol=1e-9)

    @pytest.mark.parametrize("baths", [
        # unequal couplings: the walk starts at 1/gamma
        (BathParams(gamma=1.0, mu_inf=0.5), BathParams(gamma=2.0, mu_inf=0.4)),
        # a squeezed first bath at a nonzero angle: no coefficient expansion
        (BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.3, phi_inf=0.4),
         BathParams(gamma=1.0, mu_inf=0.5)),
    ])
    def test_direct_crossing_without_quartic(self, baths):
        sf = tm.SqueezedThermalParams(mu=0.7, r=0.9).standard_form
        ch = ChannelSpec(baths)
        with pytest.raises(ValueError):
            tm.coefficient_set(sf, ch)
        t_ent = tm.entanglement_time(sf, ch)
        assert t_ent is not None
        eps = 1e-6
        assert not tm.is_separable(_evolved_cm(sf, ch, t_ent - eps))
        assert tm.is_separable(_evolved_cm(sf, ch, t_ent + eps), tol=1e-9)

    def test_symmetric_closed_form(self):
        params = tm.SqueezedThermalParams(mu=0.7, r=0.9)
        mu_inf_global = 0.25  # per-mode purity 0.5
        ch = _thermal_pair(mu1=0.5, mu2=0.5)
        closed = tm.entanglement_time_symmetric(params, mu_inf_global, 1.0)
        general = tm.entanglement_time(params.standard_form, ch)
        assert general == pytest.approx(closed, rel=1e-9)

    def test_bounds_collapse_for_squeezed_thermal(self):
        sf = tm.SqueezedThermalParams(mu=0.7, r=0.9).standard_form
        lo, hi = tm.entanglement_time_bounds(sf, 0.25, 1.0)
        assert lo == pytest.approx(hi, rel=1e-12)
        assert lo == pytest.approx(
            tm.entanglement_time_symmetric(
                tm.SqueezedThermalParams(mu=0.7, r=0.9), 0.25, 1.0), rel=1e-12)

    def test_pure_bath_keeps_entanglement(self):
        # vacuum baths: nu_minus stays below 1/2 forever
        sf = tm.SqueezedThermalParams(mu=1.0, r=1.0).standard_form
        ch = _thermal_pair(mu1=1.0, mu2=1.0)
        assert tm.entanglement_time(sf, ch) is None

    def test_separable_initial_rejected(self):
        sf = tm.StandardForm(a=1.0, b=1.0, c1=0.0, c2=0.0)
        with pytest.raises(ValueError):
            tm.entanglement_time(sf, _thermal_pair())


class TestNonclassicalDepth:
    def test_standard_form_matches_direct(self):
        sf = tm.SqueezedThermalParams(mu=0.6, r=0.8).standard_form
        ch = _thermal_pair(mu1=0.6, mu2=0.35)
        for t in (0.0, 0.3, 1.2):
            cm = _evolved_cm(sf, ch, t)
            expected = ps.nonclassical_depth_gaussian(cm)
            assert float(tm.two_mode_tau_t(sf, ch, t)) == pytest.approx(
                expected, abs=1e-10)

    def test_squeezed_bath_form_matches_direct(self):
        params = tm.SqueezedThermalParams(mu=0.6, r=0.8)
        ch = ChannelSpec((BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.3),
                          BathParams(gamma=1.0, mu_inf=0.4, r_inf=0.5)))
        for t in (0.0, 0.4, 1.5):
            cm = _evolved_cm(params.standard_form, ch, t)
            expected = ps.nonclassical_depth_gaussian(cm)
            assert float(tm.two_mode_tau_t(params, ch, t)) == pytest.approx(
                expected, abs=1e-10)

    def test_clamped_at_zero(self):
        sf = tm.SqueezedThermalParams(mu=0.8, r=0.5).standard_form
        assert float(tm.two_mode_tau_t(sf, _thermal_pair(), 20.0)) == 0.0

    def test_squeezed_bath_angle_rejected(self):
        params = tm.SqueezedThermalParams(mu=0.6, r=0.8)
        ch = ChannelSpec((BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.3,
                                     phi_inf=0.2),) * 2)
        with pytest.raises(ValueError):
            tm.two_mode_tau_t(params, ch, 0.5)


class TestFidelity:
    def test_fidelity_of_vacuum_resource(self):
        # r = 0, mu = 1: classical boundary F = 1/2
        cm = tm.SqueezedThermalParams(mu=1.0, r=0.0).standard_form.state.cm
        assert tm.teleportation_fidelity(cm) == pytest.approx(0.5, rel=1e-12)

    def test_fidelity_increases_with_squeezing(self):
        fids = [tm.teleportation_fidelity(
            tm.SqueezedThermalParams(mu=1.0, r=r).standard_form.state)
            for r in (0.0, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert fids[-1] > 0.95

    def test_fidelity_t_matches_direct(self):
        params = tm.SqueezedThermalParams(mu=0.8, r=1.0)
        ch = _thermal_pair(mu1=0.5, mu2=0.5)
        for t in (0.0, 0.4, 1.3):
            cm = _evolved_cm(params.standard_form, ch, t)
            assert float(tm.fidelity_t(params, ch, t)) == pytest.approx(
                tm.teleportation_fidelity(cm), rel=1e-10)

    def test_fidelity_t_requires_equal_thermal_baths(self):
        params = tm.SqueezedThermalParams(mu=0.8, r=1.0)
        with pytest.raises(ValueError):
            tm.fidelity_t(params, _thermal_pair(mu1=0.5, mu2=0.4), 0.5)


def _evolved_cm(sf: tm.StandardForm, ch: ChannelSpec, t: float) -> np.ndarray:
    from cvdec.channels import evolve_moments

    return evolve_moments(sf.state, ch, t).cm

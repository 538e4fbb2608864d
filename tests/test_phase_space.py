import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvdec import phase_space as ps
from cvdec import two_mode as tm

RNG = np.random.default_rng(20240817)


class TestSymplectic:
    def test_form_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            omega = ps.symplectic_form(n)
            assert np.allclose(omega @ omega, -np.eye(2 * n))

    def test_vacuum_spectrum(self):
        vacuum = ps.GaussianState.vacuum(2).cm
        assert np.allclose(ps.symplectic_eigenvalues(vacuum), 0.5)

    def test_thermal_spectrum(self):
        cm = np.diag([1.5, 1.5, 0.5, 0.5])
        assert np.allclose(ps.symplectic_eigenvalues(cm), [1.5, 0.5])

    def test_spectrum_invariant_under_symplectic(self):
        for _ in range(10):
            cm = ps.random_physical_cm(2, RNG)
            s = ps.random_symplectic(2, RNG)
            nus = ps.symplectic_eigenvalues(cm)
            nus2 = ps.symplectic_eigenvalues(s @ cm @ s.T)
            assert np.allclose(nus, nus2, atol=1e-10)

    def test_unphysical_detected(self):
        assert not ps.check_physical(0.4 * np.eye(2))
        with pytest.raises(ValueError):
            ps.require_physical(0.4 * np.eye(2))

    @pytest.mark.parametrize("cm", [
        np.diag([1.0, -1.0]), np.diag([-1.0, -1.0]),
        np.diag([1.0, 1.0, -1.0, -1.0]),
    ])
    def test_indefinite_rejected(self, cm):
        # every |eigenvalue| of Ωσ is 1 here, but σ is not positive definite
        assert not ps.check_physical(cm)
        with pytest.raises(ValueError):
            ps.symplectic_eigenvalues(cm)
        vacuum = ps.GaussianState.vacuum(len(cm) // 2).cm
        assert not ps.check_physical(np.stack([vacuum, cm]))
        with pytest.raises(ValueError):
            ps.GaussianState(np.zeros(len(cm)), cm)

    def test_pure_squeezed_vacuum_builds_to_r_8(self):
        # entries of size e^{2r}/4 leave σ + iΩ/2 within rounding of
        # singular; the tolerance scales with them
        for r in np.arange(0.0, 8.01, 0.25):
            sf = tm.SqueezedThermalParams(mu=1.0, r=r).standard_form
            assert ps.check_physical(sf.state.cm), r

    def test_pure_single_mode_squeezed_builds_to_r_8(self):
        # cosh 2r - sinh 2r cos 2φ cancels, so Det σ is 1/4 only to about
        # eps·max|σ|²; the one-mode tolerance scales with that
        for r in np.arange(0.0, 8.01, 0.25):
            for phi in (0.0, 0.3, 0.7, 1.2):
                state = ps.GaussianState.from_params(
                    ps.SingleModeParams(mu=1.0, r=r, phi=phi))
                assert ps.check_physical(state.cm), (r, phi)

    @pytest.mark.parametrize("a, nu", [(1e4, 0.5 * (1.0 - 1e-3)),
                                       (1e2, 0.5 * (1.0 - 1e-9)),
                                       (1e6, 0.1), (1.0, 0.5 * (1.0 - 1e-11))])
    def test_single_mode_below_half_rejected(self, a, nu):
        cm = np.diag([a, nu * nu / a])
        assert not ps.check_physical(cm)
        with pytest.raises(ValueError, match="uncertainty"):
            ps.require_physical(cm)

    def test_symplectic_eigenvalue_below_half_rejected(self):
        # a pure two-mode state, then the same with ν scaled by 1 - 1e-9
        s = ps.random_symplectic(2, np.random.default_rng(1))
        for nu, ok in ((0.5, True), (0.5 * (1.0 - 1e-9), False)):
            cm = nu * s @ s.T
            assert ps.check_physical(cm) is ok
            assert ps.check_physical(np.stack([0.5 * np.eye(4), cm])) is ok

    @pytest.mark.parametrize("a, nu", [(1e6, 0.1), (1e4, 0.5 * (1.0 - 1e-3)),
                                       (1e4, 0.5 * (1.0 - 1e-5)),
                                       (1e2, 0.5 * (1.0 - 1e-9))])
    def test_large_entries_below_half_rejected(self, a, nu):
        # the standard form a = b, c1 = -c2 = √(a² - ν²) has ν below 1/2;
        # σ + iΩ/2 then has an eigenvalue near (ν² - 1/4)/(2a), which the
        # tolerance, a few eps·a, still resolves
        c = math.sqrt(a * a - nu * nu)
        with pytest.raises(ValueError, match="uncertainty"):
            tm.StandardForm(a=a, b=a, c1=c, c2=-c)

    def test_hermitian_pass_without_positive_definite_rejected(self):
        # σ + iΩ/2 ⪰ 0 within the scaled tolerance, but σ has a negative
        # eigenvalue: the Cholesky rejects it
        cm = np.diag([-1e-9, 1e9, 0.5, 0.5])
        low = np.linalg.eigvalsh(cm + 0.5j * ps.symplectic_form(2))[0]
        assert low >= -(ps.PHYS_TOL + ps.EIGVALSH_ROUNDING * np.max(np.abs(cm)))
        assert not ps.check_physical(cm)
        with pytest.raises(ValueError, match="uncertainty"):
            ps.require_physical(cm)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            ps.symplectic_eigenvalues(np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_state_spectrum_cached_and_read_only(self):
        # a state is diagonalised once, and neither its matrix nor its
        # spectrum can change under the cache
        cms = np.stack([ps.random_physical_cm(2, RNG) for _ in range(5)])
        state = ps.GaussianState(np.zeros((5, 4)), cms)
        assert not state.cm.flags.writeable
        assert not state.spectrum.flags.writeable
        with pytest.raises(ValueError):
            state.cm[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            state.spectrum[0, 0] = 1.0
        assert ps.symplectic_eigenvalues(state) is state.spectrum
        raw = ps.symplectic_eigenvalues(state.cm)
        assert raw.flags.writeable
        assert raw.tobytes() == state.spectrum.tobytes()
        assert np.array_equal(ps.von_neumann_entropy(state),
                              ps.von_neumann_entropy(state.cm))
        # the caller's array is copied, not frozen
        assert cms.flags.writeable


class TestScalarFunctionals:
    def test_vacuum_is_pure_and_zero_entropy(self):
        vacuum = ps.GaussianState.vacuum().cm
        assert ps.purity_gaussian(vacuum) == pytest.approx(1.0)
        assert ps.von_neumann_entropy(vacuum) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_purity_and_entropy(self):
        nu = 1.5  # thermal with N = 1
        cm = nu * np.eye(2)
        assert ps.purity_gaussian(cm) == pytest.approx(1.0 / (2 * nu))
        expected = 2.0 * math.log(2.0) - 0.5 * math.log(1.0)  # f(3/2) = 2ln2 - 1*ln1
        assert ps.von_neumann_entropy(cm) == pytest.approx(expected, rel=1e-12)

    def test_entropy_additive_over_modes(self):
        cm = np.diag([1.5, 1.5, 2.5, 2.5])
        s1 = ps.von_neumann_entropy(cm[:2, :2])
        s2 = ps.von_neumann_entropy(cm[2:, 2:])
        assert ps.von_neumann_entropy(cm) == pytest.approx(s1 + s2, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.0])
    def test_nonclassical_depth_squeezed_vacuum(self, r):
        cm = 0.5 * np.diag([math.exp(-2 * r), math.exp(2 * r)])
        expected = max(0.5 * (1.0 - math.exp(-2 * r)), 0.0)
        assert ps.nonclassical_depth_gaussian(cm) == pytest.approx(expected, abs=1e-12)

    def test_nonclassical_depth_zero_for_thermal(self):
        assert ps.nonclassical_depth_gaussian(1.2 * np.eye(2)) == 0.0


class TestParametrization:
    @given(mu=st.floats(min_value=0.05, max_value=1.0),
           r=st.floats(min_value=0.0, max_value=2.5),
           phi=st.floats(min_value=-1.5, max_value=math.pi / 2))
    @settings(max_examples=80, deadline=None)
    @example(mu=0.25, r=2.0 ** -24, phi=0.25)  # acosh of the trace lost r here
    def test_round_trip(self, mu, r, phi):
        p = ps.SingleModeParams(mu=mu, r=r, phi=phi)
        q = ps.params_from_cm(cm_from := ps.cm_from_params(p))
        assert q.mu == pytest.approx(mu, rel=1e-9)
        assert q.r == pytest.approx(r, abs=1e-7)
        if r > 1e-6:
            # angle defined modulo pi; undefined at r = 0
            dphi = (q.phi - phi + math.pi / 2) % math.pi - math.pi / 2
            assert abs(dphi) == pytest.approx(0.0, abs=1e-7)
        assert np.allclose(ps.cm_from_params(q), cm_from, atol=1e-9)

    def test_purity_consistency(self):
        p = ps.SingleModeParams(mu=0.3, r=0.8, phi=0.4)
        assert ps.purity_gaussian(ps.cm_from_params(p)) == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(mu=0.0, r=0.0), dict(mu=1.2, r=0.0),
        dict(mu=0.5, r=-0.1), dict(mu=0.5, r=0.0, phi=3.0),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ps.SingleModeParams(**kwargs)


class TestPhaseSpaceFunctions:
    def test_wigner_peak_value(self):
        state = ps.GaussianState.vacuum()
        # at the mean, W = 1/(2 pi sqrt(det sigma)) = 1/pi for vacuum
        assert ps.wigner_gaussian(state, np.zeros(2)) == pytest.approx(1.0 / math.pi)

    def test_wigner_normalized_numerically(self):
        p = ps.SingleModeParams(mu=0.6, r=0.7, phi=-0.5)
        state = ps.GaussianState.from_params(p, mean=(0.4, -0.9))
        xs = np.linspace(-12, 12, 601)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        w = ps.wigner_gaussian(state, grid)
        dx = xs[1] - xs[0]
        assert float(np.sum(w)) * dx * dx == pytest.approx(1.0, abs=1e-8)

    def test_char_at_origin_and_decay(self):
        state = ps.GaussianState.vacuum()
        assert ps.char_gaussian(state, np.zeros(2)) == pytest.approx(1.0)
        assert abs(ps.char_gaussian(state, np.array([2.0, 0.0]))) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_char_phase_carries_displacement(self):
        state = ps.GaussianState(np.array([1.0, 0.0]),
                                 ps.GaussianState.vacuum().cm)
        x = np.array([0.5, 0.25])
        base = ps.char_gaussian(ps.GaussianState.vacuum(), x)
        omega = ps.symplectic_form(1)
        expected = base * np.exp(1j * float(x @ omega @ state.mean))
        assert ps.char_gaussian(state, x) == pytest.approx(expected, rel=1e-12)

    def test_purity_from_char_integral(self):
        # (2 pi)^{-1} \int |chi|^2 = Tr rho^2
        p = ps.SingleModeParams(mu=0.45, r=0.6, phi=0.3)
        state = ps.GaussianState.from_params(p)
        xs = np.linspace(-10, 10, 501)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        chi2 = np.abs(ps.char_gaussian(state, grid)) ** 2
        dx = xs[1] - xs[0]
        val = float(np.sum(chi2)) * dx * dx / (2.0 * math.pi)
        assert val == pytest.approx(0.45, abs=1e-8)


class TestRandomHelpers:
    def test_random_symplectic_preserves_form(self):
        for n in (1, 2):
            s = ps.random_symplectic(n, RNG)
            omega = ps.symplectic_form(n)
            assert np.allclose(s @ omega @ s.T, omega, atol=1e-10)

    def test_random_cm_physical(self):
        for _ in range(20):
            cm = ps.random_physical_cm(2, RNG)
            assert ps.check_physical(cm)

    def test_random_pure_cm(self):
        cm = ps.random_physical_cm(1, RNG, pure=True)
        assert ps.purity_gaussian(cm) == pytest.approx(1.0, rel=1e-10)

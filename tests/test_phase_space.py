import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvdec import phase_space as ps

RNG = np.random.default_rng(20240817)


class TestSymplectic:
    def test_form_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            omega = ps.symplectic_form(n)
            assert np.allclose(omega @ omega, -np.eye(2 * n))

    def test_vacuum_spectrum(self):
        assert np.allclose(ps.symplectic_eigenvalues(ps.vacuum_cm(2)), 0.5)

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

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            ps.symplectic_eigenvalues(np.array([[1.0, 0.3], [0.0, 1.0]]))


class TestScalarFunctionals:
    def test_vacuum_is_pure_and_zero_entropy(self):
        assert ps.purity_gaussian(ps.vacuum_cm()) == pytest.approx(1.0)
        assert ps.von_neumann_entropy(ps.vacuum_cm()) == pytest.approx(0.0, abs=1e-12)

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
        state = ps.GaussianState(np.array([1.0, 0.0]), ps.vacuum_cm())
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

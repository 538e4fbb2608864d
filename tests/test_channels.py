import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvdec import channels as ch
from cvdec import numerics as nm
from cvdec import phase_space as ps

RNG = np.random.default_rng(20240818)


def _random_params(rng):
    return ps.SingleModeParams(
        mu=rng.uniform(0.2, 1.0), r=rng.uniform(0.0, 1.5),
        phi=rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2))


def _random_bath(rng, squeezed=True):
    return ch.BathParams(
        gamma=rng.uniform(0.3, 2.0), mu_inf=rng.uniform(0.2, 1.0),
        r_inf=rng.uniform(0.0, 0.8) if squeezed else 0.0,
        phi_inf=rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2) if squeezed else 0.0)


class TestBathParametrization:
    def test_env_cm_purity_and_physicality(self):
        b = ch.BathParams(gamma=1.0, mu_inf=0.4, r_inf=0.6, phi_inf=0.3)
        cm = ch.env_cm(b)
        assert ps.check_physical(cm)
        assert ps.purity_gaussian(cm) == pytest.approx(0.4, rel=1e-12)

    def test_env_cm_matches_nm(self):
        b = ch.BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.4, phi_inf=0.2)
        N, M = ch.nm_from_bath(b)
        cm = ch.env_cm(b)
        assert cm[0, 0] == pytest.approx(0.5 + N + M.real, rel=1e-12)
        assert cm[1, 1] == pytest.approx(0.5 + N - M.real, rel=1e-12)
        assert cm[0, 1] == pytest.approx(M.imag, abs=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=0.0, mu_inf=0.5), dict(gamma=1.0, mu_inf=0.0),
        dict(gamma=1.0, mu_inf=1.5), dict(gamma=1.0, mu_inf=0.5, r_inf=-1.0),
    ])
    def test_invalid_bath_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ch.BathParams(**kwargs)


class TestMomentEvolution:
    def test_identity_at_t0(self):
        state = ps.GaussianState(np.array([0.3, -0.2]),
                                 ps.cm_from_params(_random_params(RNG)))
        out = ch.evolve_moments(state, ch.ChannelSpec((_random_bath(RNG),)), 0.0)
        assert np.allclose(out.mean, state.mean)
        assert np.allclose(out.cm, state.cm)

    def test_asymptotic_state_is_bath(self):
        b = ch.BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.5, phi_inf=0.4)
        state = ps.GaussianState(np.array([2.0, -1.0]),
                                 ps.cm_from_params(ps.SingleModeParams(0.8, 0.3, 0.1)))
        out = ch.evolve_moments(state, ch.ChannelSpec((b,)), 40.0)
        assert np.allclose(out.mean, 0.0, atol=1e-8)
        assert np.allclose(out.cm, ch.env_cm(b), atol=1e-8)

    def test_semigroup_composition(self):
        b = _random_bath(RNG)
        spec = ch.ChannelSpec((b,))
        state = ps.GaussianState(np.array([1.0, 0.5]),
                                 ps.cm_from_params(_random_params(RNG)))
        once = ch.evolve_moments(state, spec, 0.9)
        twice = ch.evolve_moments(ch.evolve_moments(state, spec, 0.4), spec, 0.5)
        assert np.allclose(once.mean, twice.mean, atol=1e-12)
        assert np.allclose(once.cm, twice.cm, atol=1e-12)

    def test_map_is_completely_positive(self):
        spec = ch.ChannelSpec((_random_bath(RNG), _random_bath(RNG)))
        for t in (0.0, 0.3, 2.0):
            assert ch.gaussian_map_check(ch.gamma_matrix(spec, t),
                                         ch.sigma_inf_t(spec, t))

    def test_two_mode_blocks_independent(self):
        b1, b2 = _random_bath(RNG), _random_bath(RNG)
        spec = ch.ChannelSpec((b1, b2))
        cm = ps.random_physical_cm(2, RNG)
        state = ps.GaussianState(np.zeros(4), cm)
        out = ch.evolve_moments(state, spec, 0.7)
        for i, b in enumerate((b1, b2)):
            sl = slice(2 * i, 2 * i + 2)
            single = ch.evolve_moments(
                ps.GaussianState(np.zeros(2), cm[sl, sl]),
                ch.ChannelSpec((b,)), 0.7)
            assert np.allclose(out.cm[sl, sl], single.cm, atol=1e-12)

    def test_mode_count_mismatch(self):
        state = ps.GaussianState.vacuum(2)
        with pytest.raises(ValueError):
            ch.evolve_moments(state, ch.ChannelSpec((_random_bath(RNG),)), 0.1)

    def test_time_array_gives_stack(self):
        # the same bits as one time at a time: np.exp rounds each decay
        # factor the same way whatever the length of the array
        b1 = ch.BathParams(gamma=0.7, mu_inf=0.4, r_inf=0.3, phi_inf=0.2)
        b2 = ch.BathParams(gamma=1.9, mu_inf=0.8)
        spec = ch.ChannelSpec((b1, b2))
        state = ps.GaussianState(np.array([0.3, -0.2, 1.0, 0.5]),
                                 ps.random_physical_cm(
                                     2, np.random.default_rng(5)))
        times = np.linspace(0.0, 30.0, 400)
        stack = ch.evolve_moments(state, spec, times)
        assert stack.cm.shape == (400, 4, 4)
        assert stack.mean.shape == (400, 4)
        for i, t in enumerate(times):
            one = ch.evolve_moments(state, spec, float(t))
            assert np.array_equal(stack.cm[i], one.cm)
            assert np.array_equal(stack.mean[i], one.mean)
        g = ch.gamma_matrix(spec, times)
        noise = ch.sigma_inf_t(spec, times)
        for i, t in enumerate(times):
            assert g[i, 2, 2] == np.exp(-0.5 * b2.gamma * t)
            assert np.array_equal(
                noise[i, :2, :2], ch.env_cm(b1) * (1.0 - np.exp(-b1.gamma * t)))


class TestClosedForms:
    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_purity_r_phi_tau_match_moments(self, seed):
        rng = np.random.default_rng(seed)
        init, bath = _random_params(rng), _random_bath(rng)
        t = rng.uniform(0.0, 4.0)
        evolved = ch.evolved_params(init, bath, t)
        assert ch.single_mode_purity_t(init, bath, t) == pytest.approx(
            evolved.mu, rel=1e-9)
        assert ch.single_mode_r_t(init, bath, t) == pytest.approx(
            evolved.r, abs=1e-12)
        cm = ps.cm_from_params(evolved)
        assert ch.single_mode_tau_t(init, bath, t) == pytest.approx(
            ps.nonclassical_depth_gaussian(cm), abs=1e-9)
        if evolved.r > 1e-6:
            phi = float(ch.single_mode_phi_t(init, bath, t))
            dphi = (phi - evolved.phi + math.pi / 2) % math.pi - math.pi / 2
            assert abs(dphi) < 1e-7

    @pytest.mark.parametrize("mu_inf", [0.5, 1.0])
    def test_vacuum_r_is_exactly_0(self, mu_inf):
        # r₀ = r∞ = 0: the anisotropy is 0 at every t, and so is r
        vacuum = ps.SingleModeParams(mu=1.0, r=0.0)
        bath = ch.BathParams(gamma=1.0, mu_inf=mu_inf)
        times = np.linspace(0.0, 5.0, 101)
        assert np.all(ch.single_mode_r_t(vacuum, bath, times) == 0.0)
        assert np.all(ch.single_mode_phi_t(vacuum, bath, times) == 0.0)

    def test_r_near_0_matches_moments(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            init = replace(_random_params(rng), r=rng.choice([0.0, 1e-7]))
            bath = replace(_random_bath(rng), r_inf=rng.choice([0.0, 1e-7]))
            t = rng.uniform(0.0, 4.0)
            assert abs(float(ch.single_mode_r_t(init, bath, t))
                       - ch.evolved_params(init, bath, t).r) < 1e-14

    def test_r_phi_over_an_array_match_point_calls(self):
        init, bath = _random_params(RNG), _random_bath(RNG)
        times = np.linspace(0.0, 4.0, 41)
        for f in (ch.single_mode_r_t, ch.single_mode_phi_t):
            values = f(init, bath, times)
            assert values.shape == times.shape
            assert list(values) == [f(init, bath, t) for t in times]

    def test_purity_against_lindblad(self):
        bath = ch.BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.3, phi_inf=0.2)
        N, M = ch.nm_from_bath(bath)
        init0 = ps.SingleModeParams(mu=1.0, r=0.0, phi=0.0)
        times = [0.25, 0.75, 1.5]
        num = nm.lindblad_purities(nm.fock_state(0), bath.gamma, N, M,
                                   times)
        closed = ch.single_mode_purity_t(init0, bath, np.array(times))
        assert np.allclose(num, closed, atol=1e-6)

    def test_purity_monotone_into_matching_thermal_bath(self):
        init = ps.SingleModeParams(mu=1.0, r=0.0, phi=0.0)
        bath = ch.BathParams(gamma=1.0, mu_inf=0.3)
        ts = np.linspace(0.0, 6.0, 200)
        mus = ch.single_mode_purity_t(init, bath, ts)
        assert np.all(np.diff(mus) < 1e-12)
        assert mus[-1] == pytest.approx(0.3, abs=1e-3)

    def test_t_min_is_a_minimum(self):
        init = ps.SingleModeParams(mu=0.9, r=1.2, phi=0.0)
        bath = ch.BathParams(gamma=1.0, mu_inf=0.8)
        tm = ch.t_min(init, bath)
        assert tm is not None and tm > 0
        eps = 1e-4
        mu_at = ch.single_mode_purity_t(init, bath, tm)
        assert mu_at < ch.single_mode_purity_t(init, bath, tm - eps)
        assert mu_at < ch.single_mode_purity_t(init, bath, tm + eps)

    def test_t_min_absent_without_squeezing(self):
        init = ps.SingleModeParams(mu=0.9, r=0.0, phi=0.0)
        bath = ch.BathParams(gamma=1.0, mu_inf=0.8)
        assert ch.t_min(init, bath) is None

    def test_t_min_requires_thermal_bath(self):
        init = ps.SingleModeParams(mu=0.9, r=1.0, phi=0.0)
        bath = ch.BathParams(gamma=1.0, mu_inf=0.8, r_inf=0.5)
        with pytest.raises(ValueError):
            ch.t_min(init, bath)

    def test_tau_vanishes_beyond_threshold(self):
        init = ps.SingleModeParams(mu=1.0, r=1.0, phi=0.0)
        bath = ch.BathParams(gamma=1.0, mu_inf=0.5)
        # tau(0) > 0 for a squeezed input, and it must vanish at large times
        assert ch.single_mode_tau_t(init, bath, 0.0) > 0.4
        assert ch.single_mode_tau_t(init, bath, 10.0) == 0.0

    def test_t_nc_value(self):
        bath = ch.BathParams(gamma=2.0, mu_inf=0.5)
        assert ch.t_nc(bath) == pytest.approx(math.log(1.5) / 2.0, rel=1e-12)
        with pytest.raises(ValueError):
            ch.t_nc(ch.BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.1))

    @pytest.mark.parametrize("mu_inf", [0.1, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.7])
    def test_t_pos_is_t_nc_in_thermal_baths(self, mu_inf, gamma):
        bath = ch.BathParams(gamma=gamma, mu_inf=mu_inf)
        assert ch.t_pos(bath) == ch.t_nc(bath) == math.log(1.0 + mu_inf) / gamma

    @pytest.mark.parametrize("r_inf", [0.0, 0.3, 0.8])
    def test_t_pos_is_where_noise_covers_scaled_vacuum(self, r_inf):
        # (1 - k) σ∞ - (k/2) I turns positive semidefinite at t_pos
        bath = ch.BathParams(gamma=1.3, mu_inf=0.6, r_inf=r_inf, phi_inf=0.4)

        def margin(t):
            k = math.exp(-bath.gamma * t)
            return np.min(np.linalg.eigvalsh(
                (1.0 - k) * ch.env_cm(bath) - 0.5 * k * np.eye(2)))

        t_pos = ch.t_pos(bath)
        assert abs(margin(t_pos)) < 1e-14
        assert margin(0.99 * t_pos) < 0.0 < margin(1.01 * t_pos)

    def test_negative_time_rejected(self):
        init, bath = _random_params(RNG), _random_bath(RNG)
        with pytest.raises(ValueError):
            ch.single_mode_purity_t(init, bath, -0.1)
        for f in (ch.single_mode_r_t, ch.single_mode_phi_t):
            with pytest.raises(ValueError):
                f(init, bath, [0.1, -0.1])
        with pytest.raises(ValueError):
            ch.gamma_matrix(ch.ChannelSpec((bath,)), -1.0)

import math

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
    def test_nm_round_trip(self):
        for _ in range(30):
            b = _random_bath(RNG)
            b2 = ch.bath_from_nm(ch.nm_from_bath(b), b.gamma)
            assert b2.mu_inf == pytest.approx(b.mu_inf, rel=1e-10)
            assert b2.r_inf == pytest.approx(b.r_inf, abs=1e-10)
            if b.r_inf > 1e-8:
                dphi = (b2.phi_inf - b.phi_inf + math.pi / 2) % math.pi - math.pi / 2
                assert abs(dphi) < 1e-10

    def test_env_cm_purity_and_physicality(self):
        b = ch.BathParams(gamma=1.0, mu_inf=0.4, r_inf=0.6, phi_inf=0.3)
        cm = ch.env_cm(b)
        assert ps.check_physical(cm)
        assert ps.purity_gaussian(cm) == pytest.approx(0.4, rel=1e-12)

    def test_env_cm_matches_nm(self):
        b = ch.BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.4, phi_inf=0.2)
        p = ch.nm_from_bath(b)
        cm = ch.env_cm(b)
        assert cm[0, 0] == pytest.approx(0.5 + p.N + p.M.real, rel=1e-12)
        assert cm[1, 1] == pytest.approx(0.5 + p.N - p.M.real, rel=1e-12)
        assert cm[0, 1] == pytest.approx(p.M.imag, abs=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=0.0, mu_inf=0.5), dict(gamma=1.0, mu_inf=0.0),
        dict(gamma=1.0, mu_inf=1.5), dict(gamma=1.0, mu_inf=0.5, r_inf=-1.0),
    ])
    def test_invalid_bath_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ch.BathParams(**kwargs)

    def test_nm_constraint_enforced(self):
        with pytest.raises(ValueError):
            ch.NMParams(N=0.1, M=1.0)


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
        # the same bits as one time at a time, with the decay factors
        # rounded as math.exp rounds them (np.exp differs for some t)
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
            assert g[i, 2, 2] == math.exp(-0.5 * b2.gamma * t)
            assert np.array_equal(
                noise[i, :2, :2], ch.env_cm(b1) * (1.0 - math.exp(-b1.gamma * t)))


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
            evolved.r, abs=1e-7)
        cm = ps.cm_from_params(evolved)
        assert ch.single_mode_tau_t(init, bath, t) == pytest.approx(
            ps.nonclassical_depth_gaussian(cm), abs=1e-9)
        res = ch.single_mode_phi_t(init, bath, t)
        if not res.degenerate and evolved.r > 1e-6:
            dphi = (res.phi - evolved.phi + math.pi / 2) % math.pi - math.pi / 2
            assert abs(dphi) < 1e-7

    def test_purity_against_lindblad(self):
        bath = ch.BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.3, phi_inf=0.2)
        p = ch.nm_from_bath(bath)
        dim = nm.default_truncation(p.N + abs(p.M), 2.0)
        init0 = ps.SingleModeParams(mu=1.0, r=0.0, phi=0.0)
        times = [0.25, 0.75, 1.5]
        num = nm.lindblad_purities(nm.fock_state(0, dim), bath, times)
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

    def test_negative_time_rejected(self):
        init, bath = _random_params(RNG), _random_bath(RNG)
        with pytest.raises(ValueError):
            ch.single_mode_purity_t(init, bath, -0.1)
        with pytest.raises(ValueError):
            ch.gamma_matrix(ch.ChannelSpec((bath,)), -1.0)

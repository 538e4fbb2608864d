import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from cvdec import nongaussian as ng
from cvdec import numerics as nm
from cvdec.channels import BathParams, nm_from_bath

SQUEEZED = BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.4, phi_inf=0.3)


def _gamma_nm(bath):
    """(gamma, N, M) of a bath, as the master-equation oracle takes them."""
    return (bath.gamma, *nm_from_bath(bath))


class TestSpecialFunctions:
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
        # the last rounds are split into calls of at most _BATCH points
        assert len(seen) > spec.max_refinements + 1
        assert max(seen) <= nm._BATCH

    @pytest.mark.parametrize("d", [1, 2])
    def test_panel_points_match_meshgrid_construction(self, d, monkeypatch):
        # 2 panels per call of f and 5 per panel sum, so that rounds are
        # split both ways
        monkeypatch.setattr(nm, "_BATCH", 2 * 15 ** d)
        monkeypatch.setattr(nm, "_SUMS", 5 * 15 ** d)
        seen = []

        def f(p):
            seen.append(p.copy())
            return np.cos(np.sum(p, axis=-1)) + 2.0

        # every panel has a nonzero error, so every round splits them all
        spec = nm.QuadratureSpec(((-1.3, 2.1), (-0.7, 0.4))[:d], tol=1e-300,
                                 max_refinements=2)
        with pytest.raises(nm.QuadratureError):
            nm.integrate_phase_space(f, spec)
        nodes = np.stack(np.meshgrid(*[nm._GK15_X] * d, indexing="ij"),
                         axis=-1).reshape(-1, d)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        lo, hi = np.array(spec.extents).T
        half, centers = 0.5 * (hi - lo), (0.5 * (lo + hi))[None, :]
        expected = []
        for _ in range(spec.max_refinements + 1):
            expected.append((centers[:, None, :] + half * nodes).reshape(-1, d))
            half = 0.5 * half
            centers = (centers[:, None, :] + half * signs).reshape(-1, d)
        assert max(len(p) for p in seen) == 2 * 15 ** d
        assert (np.concatenate(seen).tobytes()
                == np.concatenate(expected).tobytes())
        assert not any(a.flags.writeable for a in nm._gk_rule(d))

    def test_single_level_rejected(self):
        # order escalation (d > 2) compares two orders
        with pytest.raises(ValueError):
            nm.QuadratureSpec(extents=((-1.0, 1.0),), max_refinements=0)


class TestLindblad:
    def test_trace_preserved(self):
        bath = BathParams(gamma=1.0, mu_inf=0.5)
        rho = nm.lindblad_evolve(nm.fock_state(1), *_gamma_nm(bath), 0.7)
        assert rho.trace() == pytest.approx(1.0, abs=1e-8)
        assert rho.min_eigenvalue() >= -1e-10

    def test_vacuum_purity_matches_closed_form(self):
        bath = BathParams(gamma=1.0, mu_inf=0.5)
        rho = nm.lindblad_evolve(nm.fock_state(0), *_gamma_nm(bath), 1.0)
        mu_inf, k = 0.5, math.exp(-1.0)
        expected = mu_inf / math.sqrt(
            (mu_inf * k) ** 2 + (1.0 - k) ** 2 + 2.0 * mu_inf * k * (1.0 - k))
        assert rho.purity() == pytest.approx(expected, abs=1e-6)

    def test_asymptotic_state_thermal(self):
        bath = BathParams(gamma=1.0, mu_inf=0.5)
        rho = nm.lindblad_evolve(nm.fock_state(0), *_gamma_nm(bath), 50.0)
        n_mean = float(np.real(np.sum(np.arange(rho.dim)
                                      * np.diag(rho.matrix))))
        assert n_mean == pytest.approx(0.5, abs=1e-4)  # N = (1/mu - 1)/2
        off_diag = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.max(np.abs(off_diag)) < 1e-8

    def test_tail_failure_reported(self):
        # the trajectory on 6 levels, far below what the oracle would pick
        bath = BathParams(gamma=1.0, mu_inf=0.2)
        with pytest.raises(nm.TruncationError):
            list(nm._trajectory(np.pad(nm.fock_state(0).matrix, (0, 5)),
                                *_gamma_nm(bath), [30.0]))

    def test_tail_failure_reported_along_trajectory(self):
        with pytest.raises(nm.TruncationError):
            list(nm._trajectory(np.pad(nm.fock_state(2).matrix, (0, 5)),
                                *_gamma_nm(SQUEEZED), [0.5, 5.0]))

    def test_tail_failure_names_the_chosen_dimension(self):
        # no caller sets the dimension, so the message reports it rather
        # than asking for a larger one
        rho = np.zeros((20, 20), dtype=complex)
        rho[0, 0], rho[19, 19] = 1.0 - 2e-6, 2e-6
        with pytest.raises(nm.TruncationError) as info:
            nm._check_truncation(rho)
        assert "top 2 of the 20 Fock levels" in str(info.value)
        assert "increase" not in str(info.value)

    def test_check_truncation_limits(self):
        rho = np.zeros((20, 20), dtype=complex)
        rho[0, 0], rho[19, 19] = 1.0 - 2e-6, 2e-6
        with pytest.raises(nm.TruncationError, match="tail mass"):
            nm._check_truncation(rho)
        rho[0, 0], rho[19, 19] = 1.0 - 5e-7, 5e-7
        nm._check_truncation(rho)
        rho[0, 0] = 1.0 + 1e-7
        with pytest.raises(nm.TruncationError, match="trace drift"):
            nm._check_truncation(rho)

    @pytest.mark.parametrize("n, bath, dim", [
        (4, BathParams(gamma=1.0, mu_inf=1.0), 7),
        (0, BathParams(gamma=1.0, mu_inf=0.25), 47),
        (10, BathParams(gamma=1.0, mu_inf=0.5), 53),
        (1, BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.5, phi_inf=0.4), 74)])
    def test_dimension_sized_from_support_and_bath(self, n, bath, dim):
        N, M = nm_from_bath(bath)
        padded = nm._padded(nm.fock_state(n), N, M)
        assert padded.shape == (dim, dim) and padded[n, n] == 1.0
        # the photon tail beyond level dim - dim // 10 is at most 1e-9
        x = (N + abs(M)) / (N + abs(M) + 1.0)
        assert special.nbdtrc(dim - dim // 10 - n - 1, n + 1, 1.0 - x) <= 1e-9

    def test_caller_dimension_does_not_matter(self):
        # empty levels above the support are dropped or added alike
        gamma, N, M = _gamma_nm(BathParams(gamma=1.0, mu_inf=0.5, r_inf=0.2))
        small = nm.lindblad_evolve(nm.fock_state(2), gamma, N, M, 0.6)
        padded = nm.TruncatedDensityMatrix(np.pad(nm.fock_state(2).matrix, (0, 87)))
        large = nm.lindblad_evolve(padded, gamma, N, M, 0.6)
        assert small.dim == large.dim
        assert small.matrix.tobytes() == large.matrix.tobytes()

    def test_unphysical_bath_rejected(self):
        # |M|^2 > N(N+1): no squeezed thermal bath has these correlations
        with pytest.raises(ValueError):
            nm.lindblad_evolve(nm.fock_state(0), 1.0, 0.1, 1.0, 0.5)

    @pytest.mark.parametrize("t", [0.3, 1.2])
    def test_squeezed_fock_purity_matches_closed_form(self, t):
        rho0 = nm.fock_state(2)
        rho = nm.lindblad_evolve(rho0, *_gamma_nm(SQUEEZED), t)
        assert rho.purity() == pytest.approx(ng.fock_purity_t(2, SQUEEZED, t),
                                             abs=1e-9)

    @pytest.mark.parametrize("vartheta", [0.0, 1.1])
    def test_squeezed_psi01_purity_matches_closed_form(self, vartheta):
        rho0 = nm.psi01_state(vartheta)
        rho = nm.lindblad_evolve(rho0, *_gamma_nm(SQUEEZED), 0.8)
        assert rho.purity() == pytest.approx(
            ng.psi01_purity_t(vartheta, SQUEEZED, 0.8), abs=1e-9)

    def test_evolve_matches_trajectory_endpoint(self):
        rho0 = nm.psi01_state(0.6)
        t = 0.9
        end = nm.lindblad_evolve(rho0, *_gamma_nm(SQUEEZED), t)
        purities = nm.lindblad_purities(rho0, *_gamma_nm(SQUEEZED), [t / 2, t])
        assert end.purity() == pytest.approx(purities[-1], abs=1e-12)


def test_numerics_imports_no_cvdec_module():
    # the oracles share no code with the closed forms they check
    tree = ast.parse(Path(nm.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert not [name for name in imported
                if name.startswith(".") or name.split(".")[0] == "cvdec"]

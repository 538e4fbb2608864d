import json
import math

import numpy as np
import pytest

from cvdec import channels as ch
from cvdec import cli
from cvdec import nongaussian as ng
from cvdec import numerics as nm
from cvdec import phase_space as ps
from cvdec import two_mode as tm


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def _single_config(**overrides):
    cfg = {
        "kind": "single-gaussian",
        "initial": {"mu": 0.8, "r": 0.6, "phi": 0.2},
        "baths": [{"gamma": 1.0, "mu_inf": 0.5, "r_inf": 0.3, "phi_inf": 0.1}],
        "grid": {"start": 0.0, "stop": 2.0, "points": 5},
        "quantities": ["purity", "entropy", "tau"],
    }
    cfg.update(overrides)
    return cfg


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\r\n") for line in fh if line.strip()]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestParsing:
    def test_minimal_scenario(self):
        s = cli.parse_scenario(_single_config())
        assert s.kind == "single-gaussian"
        assert s.times.shape == (5,)
        assert s.quantities == ("purity", "entropy", "tau")
        assert not s.oracle

    def test_log_grid(self):
        s = cli.parse_scenario(_single_config(
            grid={"start": 0.1, "stop": 10.0, "points": 3, "spacing": "log"}))
        assert np.allclose(s.times, [0.1, 1.0, 10.0])

    @pytest.mark.parametrize("mutation", [
        {"kind": "unknown"},
        {"baths": []},
        {"baths": [{"gamma": 1.0, "mu_inf": 0.5}] * 2},
        {"baths": [{"gamma": -1.0, "mu_inf": 0.5}]},
        {"grid": {"start": -1.0, "stop": 2.0, "points": 5}},
        {"grid": {"start": 0.0, "stop": 2.0, "points": 0}},
        {"grid": {"start": 0.0, "stop": 2.0, "points": 5, "spacing": "cubic"}},
        {"quantities": ["logneg"]},
        {"quantities": ["nonsense"]},
        {"kind": ["single-gaussian"]},
    ])
    def test_invalid_configs_rejected(self, mutation):
        with pytest.raises(cli.ConfigError):
            cli.parse_scenario(_single_config(**mutation))

    def test_log_grid_requires_positive_start(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_scenario(_single_config(
                grid={"start": 0.0, "stop": 2.0, "points": 3, "spacing": "log"}))

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.load_scenario("/nonexistent/scenario.json")


class TestRunScenario:
    def test_columns_without_oracle(self):
        table = cli.run_scenario(cli.parse_scenario(_single_config()))
        assert table.columns == ["t", "purity", "entropy", "tau"]
        assert len(table.rows) == 5
        assert table.max_deviation() is None

    def test_columns_with_oracle(self):
        table = cli.run_scenario(cli.parse_scenario(
            _single_config(oracle=True, quantities=["purity"])))
        assert table.columns == ["t", "purity", "purity_oracle",
                                 "purity_absdiff"]
        assert table.max_deviation() < 1e-9

    def test_initial_row_values(self):
        table = cli.run_scenario(cli.parse_scenario(_single_config()))
        t0 = table.rows[0]
        assert t0[0] == 0.0
        assert t0[1] == pytest.approx(0.8, rel=1e-12)  # initial purity

    def test_path_labels(self):
        table = cli.run_scenario(cli.parse_scenario(_single_config()))
        assert table.paths == {"purity": "CM determinant",
                               "entropy": "CM spectrum",
                               "tau": "CM eigenvalues"}

    def test_repeated_oracles_labelled(self):
        for (kind, q), row in cli._TABLE.items():
            assert (row.path == "none") == (row.oracle is row.closed), (kind, q)


class TestEndToEnd:
    def test_single_gaussian_run(self, tmp_path):
        cfg = _write(tmp_path, "s.json", _single_config())
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["t", "purity", "entropy", "tau"]
        assert len(rows) == 5

    def test_deterministic_output(self, tmp_path):
        cfg = _write(tmp_path, "s.json", _single_config(oracle=True))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["run", cfg, "--out", str(out1)]) == 0
        assert cli.main(["run", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_precision(self, tmp_path):
        cfg = _write(tmp_path, "s.json", _single_config())
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        table = cli.run_scenario(cli.load_scenario(cfg))
        for written, computed in zip(rows, table.rows):
            assert written == computed  # 17 significant digits round-trip

    def test_oracle_flag_adds_columns(self, tmp_path):
        cfg = _write(tmp_path, "s.json", _single_config(quantities=["purity"]))
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out), "--oracle"]) == 0
        header, rows = _read_csv(out)
        assert header == ["t", "purity", "purity_oracle", "purity_absdiff"]
        assert max(r[3] for r in rows) < 1e-9

    def test_tolerance_gate(self, tmp_path):
        cfg = _write(tmp_path, "s.json", _single_config(quantities=["purity"]))
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out), "--oracle",
                         "--tolerance", "1e-6"]) == 0
        assert cli.main(["run", cfg, "--out", str(out), "--oracle",
                         "--tolerance", "1e-30"]) == 2

    def test_config_error_exit_code(self, tmp_path):
        cfg = _write(tmp_path, "bad.json", _single_config(kind="unknown"))
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    def test_fock_run_with_oracle(self, tmp_path):
        cfg = _write(tmp_path, "fock.json", {
            "kind": "fock",
            "initial": {"n": 2},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5}],
            "grid": {"start": 0.2, "stop": 1.0, "points": 3},
            "quantities": ["purity"],
            "oracle": True,
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert max(r[header.index("purity_absdiff")] for r in rows) < 1e-6

    def test_fock_xi_oracle_at_t0(self, tmp_path):
        # the box-quadrature oracle of xi must converge on the kinked |W|
        cfg = _write(tmp_path, "fock.json", {
            "kind": "fock",
            "initial": {"n": 2},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5}],
            "grid": {"start": 0.0, "stop": 0.0, "points": 1},
            "quantities": ["xi"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out), "--oracle",
                         "--tolerance", "1e-6"]) == 0
        header, rows = _read_csv(out)
        assert rows[0][header.index("xi_absdiff")] <= 1e-6

    def test_fock_xi_requires_thermal_bath(self, tmp_path):
        cfg = _write(tmp_path, "fock.json", {
            "kind": "fock",
            "initial": {"n": 1},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5, "r_inf": 0.4}],
            "grid": {"start": 0.1, "stop": 0.1, "points": 1},
            "quantities": ["xi"],
        })
        assert cli.main(["run", cfg, "--out",
                         str(tmp_path / "out.csv")]) == 1

    @pytest.mark.parametrize("quantities", [["xi"], ["purity", "xi"]])
    @pytest.mark.parametrize("oracle", [False, True])
    def test_fock_xi_squeezed_bath_is_config_error(self, tmp_path, quantities,
                                                   oracle):
        # exit 1 on a grid, with or without --oracle and a purity column
        # computed before it, and no CSV
        cfg = _write(tmp_path, "fock.json", {
            "kind": "fock",
            "initial": {"n": 1},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5, "r_inf": 0.4}],
            "grid": {"start": 0.1, "stop": 0.5, "points": 3},
            "quantities": quantities,
            "oracle": oracle,
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    def test_error_in_mid_grid_exits_2(self, tmp_path):
        # the Lindblad trajectory of |0> + |1> in a strongly squeezed bath
        # leaks out of its Fock truncation at t = 2, the 5th of 7 points
        cfg = _write(tmp_path, "psi.json", {
            "kind": "psi01",
            "initial": {"vartheta": 0.3},
            "baths": [{"gamma": 1.0, "mu_inf": 1.0, "r_inf": 1.0}],
            "grid": {"start": 0.0, "stop": 3.0, "points": 7},
            "quantities": ["purity"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        assert cli.main(["run", cfg, "--out", str(out), "--oracle"]) == 2

    def test_psi01_run(self, tmp_path):
        cfg = _write(tmp_path, "psi.json", {
            "kind": "psi01",
            "initial": {"vartheta": 1.2},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5, "r_inf": 0.3}],
            "grid": {"start": 0.0, "stop": 1.0, "points": 3},
            "quantities": ["purity"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_two_mode_run_with_oracle(self, tmp_path):
        cfg = _write(tmp_path, "tm.json", {
            "kind": "two-mode",
            "initial": {"mu": 0.7, "r": 0.9},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5},
                      {"gamma": 1.0, "mu_inf": 0.5}],
            "grid": {"start": 0.0, "stop": 1.5, "points": 4},
            "quantities": ["purity", "logneg"],
            "oracle": True,
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        for q in ("purity", "logneg"):
            assert max(r[header.index(f"{q}_absdiff")] for r in rows) < 1e-9

    def test_fidelity_run(self, tmp_path):
        cfg = _write(tmp_path, "fid.json", {
            "kind": "fidelity",
            "initial": {"mu": 1.0, "r": 1.0},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5},
                      {"gamma": 1.0, "mu_inf": 0.5}],
            "grid": {"start": 0.0, "stop": 2.0, "points": 4},
            "quantities": ["fidelity"],
            "oracle": True,
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert rows[0][header.index("fidelity")] == pytest.approx(
            1.0 / (1.0 + math.exp(-2.0)), rel=1e-10)
        assert max(r[header.index("fidelity_absdiff")] for r in rows) < 1e-9

    def test_cat_run(self, tmp_path):
        cfg = _write(tmp_path, "cat.json", {
            "kind": "cat",
            "initial": {"x0": [1.0, 1.0], "theta": 0.0},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5}],
            "grid": {"start": 0.0, "stop": 0.5, "points": 2},
            "quantities": ["purity"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert rows[0][1] == pytest.approx(1.0, abs=1e-10)
        assert rows[1][1] < 1.0


# ---------------------------------------------------------------------------
# the table's columns against the public functions called point by point
# ---------------------------------------------------------------------------

_BATH = {"gamma": 1.3, "mu_inf": 0.6, "r_inf": 0.3, "phi_inf": 0.4}
_THERMAL = {"gamma": 0.8, "mu_inf": 0.5}
_KIND_CONFIGS = {
    "single-gaussian": _single_config(
        quantities=["purity", "entropy", "tau", "xi"],
        grid={"start": 0.0, "stop": 3.0, "points": 7}),
    "cat": {"kind": "cat", "initial": {"x0": [1.0, 0.5], "r0": 0.2},
            "baths": [_THERMAL], "grid": {"start": 0.6, "stop": 1.2,
                                          "points": 2},
            "quantities": ["purity", "xi"]},
    "fock": {"kind": "fock", "initial": {"n": 2}, "baths": [_THERMAL],
             "grid": {"start": 0.25, "stop": 1.5, "points": 4},
             "quantities": ["purity", "xi"]},
    "psi01": {"kind": "psi01", "initial": {"vartheta": 0.7},
              "baths": [_BATH], "grid": {"start": 0.0, "stop": 1.5,
                                         "points": 4},
              "quantities": ["purity"]},
    "two-mode": {"kind": "two-mode", "initial": {"mu": 0.8, "r": 0.7},
                 "baths": [dict(_BATH, phi_inf=0.0), _BATH],
                 "grid": {"start": 0.0, "stop": 2.0, "points": 6},
                 "quantities": ["purity", "entropy", "tau", "logneg",
                                "mutual-info", "fidelity"]},
    "fidelity": {"kind": "fidelity", "initial": {"mu": 0.9, "r": 0.8},
                 "baths": [_THERMAL, _THERMAL],
                 "grid": {"start": 0.0, "stop": 2.0, "points": 6},
                 "quantities": ["fidelity", "logneg"]},
}


def _pointwise(s, t):
    """(closed, oracle) per quantity at one time, by scalar calls."""
    bath, init = s.baths[0], s.initial
    if s.kind == "single-gaussian":
        p = ps.SingleModeParams(init["mu"], init["r"], init["phi"])
        cm = ch.evolve_moments(ps.GaussianState(np.zeros(2),
                                                ps.cm_from_params(p)),
                               s.channel, t).cm
        mu = ch.evolved_params(p, bath, t).mu
        return {"purity": (ch.single_mode_purity_t(p, bath, t),
                           ps.purity_gaussian(cm)),
                "entropy": (ps.entropy_function(1.0 / (2.0 * mu)),
                            ps.von_neumann_entropy(cm)),
                "tau": (ch.single_mode_tau_t(p, bath, t),
                        ps.nonclassical_depth_gaussian(cm)),
                "xi": (0.0, 0.0)}
    if s.kind == "cat":
        cat = ng.CatState(np.array(init["x0"]), init["r0"])
        xi = ng.negative_part(ng.cat_wigner_t(cat, bath, t), tol=1e-8).xi
        return {"purity": (ng.cat_purity_t(cat, bath, t),
                           ng.wigner_purity(ng.cat_wigner_t(cat, bath, t),
                                            tol=1e-9)),
                "xi": (xi, xi)}
    if s.kind in ("fock", "psi01"):
        b = ch.nm_from_bath(bath)
        if s.kind == "psi01":
            dim = max(nm.default_truncation(b.N + abs(b.M), 1), 32)
            rho0 = nm.psi01_state(init["vartheta"], dim)
            return {"purity": (ng.psi01_purity_t(init["vartheta"], bath, t),
                               nm.lindblad_evolve(rho0, bath, t).purity())}
        n = init["n"]
        dim = max(nm.default_truncation(b.N + abs(b.M), n), 2 * n + 24)
        w = ng.fock_wigner_t(n, bath.mu_inf, t, bath.gamma)
        box = ng.WignerField(eval=w.eval, domain=w.domain)
        return {"purity": (ng.fock_purity_t(n, bath, t),
                           nm.lindblad_evolve(nm.fock_state(n, dim), bath,
                                              t).purity()),
                "xi": (ng.negative_part(w).xi,
                       ng.negative_part(box, tol=1e-8).xi)}
    params = tm.SqueezedThermalParams(init["mu"], init["r"])
    sf = params.standard_form
    cm = ch.evolve_moments(ps.GaussianState(np.zeros(4),
                                            tm.standard_form_to_cm(sf)),
                           s.channel, t).cm
    mirror = np.diag([1.0, 1.0, 1.0, -1.0])
    nu = np.min(ps.symplectic_eigenvalues(mirror @ cm @ mirror))
    logneg = tm.log_negativity(cm)
    if s.kind == "fidelity":
        return {"fidelity": (tm.fidelity_t(params, s.channel, t),
                             tm.teleportation_fidelity(cm)),
                "logneg": (logneg, logneg)}
    det_sigma = tm.evolved_invariants(sf, s.channel, t).det_sigma
    same = lambda f: (f(cm), f(cm))  # noqa: E731
    return {"purity": (1.0 / (4.0 * math.sqrt(det_sigma)),
                       ps.purity_gaussian(cm)),
            "entropy": same(ps.von_neumann_entropy),
            "tau": same(ps.nonclassical_depth_gaussian),
            "logneg": (logneg, max(0.0, -math.log(2.0 * nu))),
            "mutual-info": same(tm.mutual_information),
            "fidelity": same(tm.teleportation_fidelity)}


@pytest.mark.parametrize("kind", sorted(_KIND_CONFIGS))
def test_table_matches_pointwise_functions(kind):
    s = cli.parse_scenario(dict(_KIND_CONFIGS[kind], oracle=True))
    table = cli.run_scenario(s)
    cols = {c: [row[i] for row in table.rows]
            for i, c in enumerate(table.columns)}
    assert cols["t"] == list(s.times)
    for i, t in enumerate(s.times):
        for q, (closed, oracle) in _pointwise(s, float(t)).items():
            assert cols[q][i] == closed, (q, t)
            if cli._TABLE[(kind, q)].path == "Lindblad trajectory":
                assert cols[f"{q}_oracle"][i] == pytest.approx(oracle,
                                                               abs=1e-12)
            else:
                assert cols[f"{q}_oracle"][i] == oracle, (q, t)


def test_unphysical_matrix_in_stack_raises():
    stack = np.stack([0.5 * np.eye(2), 0.7 * np.eye(2), 0.4 * np.eye(2),
                      0.6 * np.eye(2)])
    assert np.array_equal(ps.require_physical(stack[:2]), stack[:2])
    with pytest.raises(ValueError, match="uncertainty"):
        ps.require_physical(stack)
    with pytest.raises(ValueError, match="uncertainty"):
        ps.purity_gaussian(stack)

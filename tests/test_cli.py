import json
import math

import numpy as np
import pytest

from cvdec import cli


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

    def test_thread_count_from_environment(self, monkeypatch):
        monkeypatch.setenv("CVDEC_THREADS", "2")
        assert cli._thread_count() == 2
        monkeypatch.setenv("CVDEC_THREADS", "0")
        with pytest.raises(cli.ConfigError):
            cli._thread_count()
        monkeypatch.setenv("CVDEC_THREADS", "many")
        with pytest.raises(cli.ConfigError):
            cli._thread_count()


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

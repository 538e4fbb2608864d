import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
        {"grid": {"start": 0.0, "stop": 2.0, "points": 3.5}},
        {"grid": {"start": 0.0, "stop": 2.0, "points": True}},
        {"grid": {"start": 0.0, "stop": 2.0, "points": "3"}},
        # numbers must be JSON numbers: float() parses these strings
        {"baths": [{"gamma": "inf", "mu_inf": 0.5}]},
        {"baths": [{"gamma": 1.0, "mu_inf": "0.5"}]},
        {"baths": [{"gamma": 1.0, "mu_inf": 0.5, "r_inf": True}]},
        {"grid": {"start": 0.0, "stop": "inf", "points": 5}},
        {"grid": {"start": False, "stop": 2.0, "points": 5}},
        # bool("false") is True: the oracle flag must be a JSON boolean
        {"oracle": "false"},
        {"oracle": "no"},
        {"oracle": 1},
        # a repeated quantity would repeat a CSV header
        {"quantities": ["purity", "purity"]},
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
        assert table.max_deviation is None

    def test_columns_with_oracle(self):
        table = cli.run_scenario(cli.parse_scenario(
            _single_config(oracle=True, quantities=["purity"])))
        assert table.columns == ["t", "purity", "purity_oracle",
                                 "purity_absdiff"]
        assert table.max_deviation < 1e-9

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

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tmp_path, capsys,
                                                      tolerance):
        # worst > nan is always false: a nan tolerance would pass any run
        cfg = _write(tmp_path, "s.json", _single_config(quantities=["purity"]))
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out), "--oracle",
                         "--tolerance", tolerance]) == 1
        assert "config error: --tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = _write(tmp_path, "bad.json", _single_config(kind="unknown"))
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("mutation", [
        {"baths": [{"gamma": math.inf, "mu_inf": 0.5}]},
        {"baths": [{"gamma": math.nan, "mu_inf": 0.5}]},
        {"baths": [{"gamma": 1.0, "mu_inf": 0.5, "r_inf": math.nan}]},
        {"grid": {"start": 0.0, "stop": math.inf, "points": 5}},
        {"initial": {"mu": 0.8, "r": math.nan}},
        {"baths": [{"gamma": 10 ** 400, "mu_inf": 0.5}]},
        {"grid": {"start": 0.0, "stop": -10 ** 400, "points": 5}},
        # strings that float() parses, and bools, are not JSON numbers
        {"baths": [{"gamma": "inf", "mu_inf": 0.5}]},
        {"grid": {"start": 0.0, "stop": "inf", "points": 5}},
        {"initial": {"mu": 0.8, "r": "nan"}},
        {"initial": {"mu": True}},
        {"kind": "psi01", "initial": {"vartheta": "nan"},
         "quantities": ["purity"]},
        {"kind": "cat", "initial": {"x0": ["nan", 0]},
         "quantities": ["purity"]},
        {"kind": "cat", "initial": {"x0": [1.0, 0.0], "r0": "0"},
         "quantities": ["purity"]},
        {"kind": "two-mode", "initial": {"mu": 0.8, "r": "0.5"},
         "baths": [{"gamma": 1.0, "mu_inf": 0.5}] * 2,
         "quantities": ["purity"]},
        # the photon number must be a JSON integer
        {"kind": "fock", "initial": {"n": 2.5}, "quantities": ["purity"]},
        {"kind": "fock", "initial": {"n": True}, "quantities": ["purity"]},
        {"kind": "fock", "initial": {"n": "2"}, "quantities": ["purity"]},
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, mutation):
        # json writes and reads these as NaN, Infinity and integers beyond
        # the float range, or as strings and bools
        cfg = _write(tmp_path, "bad.json", _single_config(**mutation))
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

    def test_oracle_csv_independent_of_blas_threads(self, tmp_path):
        # the rounding of the quadrature's panel sums must not depend on how
        # many threads the BLAS splits them over
        cfg = _write(tmp_path, "fock.json", {
            "kind": "fock",
            "initial": {"n": 2},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5}],
            "grid": {"start": 0.3, "stop": 0.3, "points": 1},
            "quantities": ["xi"],
        })
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        written = []
        for threads in (None, "1"):
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"out-{threads}.csv"
            subprocess.run([sys.executable, "-m", "cvdec.cli", "run", cfg,
                            "--out", str(out), "--oracle"],
                           env=env, check=True, capture_output=True)
            written.append(out.read_bytes())
        assert written[0] == written[1]

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

    def test_error_in_mid_grid_exits_2(self, tmp_path, capsys, monkeypatch):
        # a truncation check that fails at t = 2, the 5th of 7 points
        calls = []

        def check(rho):
            calls.append(rho)
            if len(calls) == 5:
                raise nm.TruncationError("tail mass 1e-3 in the top level")

        cfg = _write(tmp_path, "psi.json", {
            "kind": "psi01",
            "initial": {"vartheta": 0.3},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5}],
            "grid": {"start": 0.0, "stop": 3.0, "points": 7},
            "quantities": ["purity"],
        })
        out = tmp_path / "out.csv"
        monkeypatch.setattr(nm, "_check_truncation", check)
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        out.unlink()
        assert cli.main(["run", cfg, "--out", str(out), "--oracle"]) == 2
        assert len(calls) == 5
        err = capsys.readouterr().err
        assert "numerical/IO failure: tail mass" in err
        assert "Traceback" not in err
        assert not out.exists()

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

    def test_two_mode_purity_oracle_unequal_couplings(self, tmp_path):
        # direct-determinant path: the oracle must not repeat the same det
        cfg = _write(tmp_path, "tm.json", {
            "kind": "two-mode",
            "initial": {"a": 1.2, "b": 1.0, "c1": 0.5, "c2": -0.7},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5},
                      {"gamma": 2.2, "mu_inf": 0.7, "r_inf": 0.4,
                       "phi_inf": 0.9}],
            "grid": {"start": 0.0, "stop": 5.0, "points": 40},
            "quantities": ["purity"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out), "--oracle"]) == 0
        header, rows = _read_csv(out)
        absdiff = [r[header.index("purity_absdiff")] for r in rows]
        assert 0.0 < max(absdiff) < 1e-9

    def test_large_squeezing_ppt_spectrum_run(self, tmp_path):
        # a pure state squeezed r = 6: ν̃₋ = e^{-12}/2 keeps its leading
        # digits at t = 0, so E_N is finite and F < 1
        cfg = _write(tmp_path, "tm.json", {
            "kind": "two-mode",
            "initial": {"mu": 1.0, "r": 6.0},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5}] * 2,
            "grid": {"start": 0.0, "stop": 1.0, "points": 3},
            "quantities": ["logneg", "fidelity"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert rows[0][header.index("logneg")] == pytest.approx(12.0, abs=1e-5)
        assert all(r[header.index("fidelity")] < 1.0 for r in rows)

    def test_cancelled_ppt_spectrum_exits_2(self, tmp_path, capsys):
        # at r = 10 the stored matrix has Det σ = 0 and ν̃₋ rounds to 0 at
        # t = 0: a numerical failure, not a traceback, an infinite E_N or
        # F = 1
        cfg = _write(tmp_path, "tm.json", {
            "kind": "two-mode",
            "initial": {"mu": 1.0, "r": 10.0},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5}] * 2,
            "grid": {"start": 0.0, "stop": 1.0, "points": 3},
            "quantities": ["logneg", "fidelity"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "numerical/IO failure" in err and "Traceback" not in err
        assert not out.exists()

    def test_unphysical_large_entries_config_exits_1(self, tmp_path, capsys):
        # ν = 0.1 behind entries of 1e6: the uncertainty check resolves it
        cfg = _write(tmp_path, "tm.json", {
            "kind": "two-mode",
            "initial": {"a": 1e6, "b": 1e6, "c1": 999999.999999995,
                        "c2": -999999.999999995},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5}] * 2,
            "grid": {"start": 0.0, "stop": 1.0, "points": 3},
            "quantities": ["purity"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        assert "uncertainty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("quantities", [["purity"], ["entropy"]])
    def test_rejected_single_mode_initial_state_exits_1(self, tmp_path, capsys,
                                                        quantities):
        # at r = 10 Det σ of the initial state rounds to 0: the state is
        # checked before any column, whether a column needs it or not
        cfg = _write(tmp_path, "s.json", _single_config(
            initial={"mu": 1.0, "r": 10.0}, quantities=quantities))
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    def test_squeezed_vacuum_r_3_5_oracle_run(self, tmp_path):
        # the pure state at r = 3.5 passes the uncertainty check, whose
        # tolerance scales with max|σ|
        cfg = _write(tmp_path, "tm.json", {
            "kind": "two-mode",
            "initial": {"mu": 1.0, "r": 3.5},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5}] * 2,
            "grid": {"start": 0.0, "stop": 1.0, "points": 3},
            "quantities": ["purity", "entropy", "tau", "logneg",
                           "mutual-info", "fidelity"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out), "--oracle"]) == 0
        header, rows = _read_csv(out)
        assert rows[0][header.index("logneg")] == pytest.approx(7.0,
                                                                abs=1e-9)

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

    @pytest.mark.parametrize("baths", [
        [{"gamma": 1.0, "mu_inf": 0.5}, {"gamma": 2.0, "mu_inf": 0.5}],
        [{"gamma": 1.0, "mu_inf": 0.5, "r_inf": 0.3},
         {"gamma": 1.0, "mu_inf": 0.5}],
        [{"gamma": 1.0, "mu_inf": 0.5}, {"gamma": 1.0, "mu_inf": 0.6}],
    ], ids=["unequal-couplings", "squeezed-bath", "unequal-mu-inf"])
    def test_fidelity_outside_closed_form_exits_1(self, tmp_path, capsys,
                                                  baths):
        # tm.fidelity_t holds in equal thermal baths alone; logneg does not
        # use it and runs in the same baths
        config = {"kind": "fidelity", "initial": {"mu": 1.0, "r": 1.0},
                  "baths": baths,
                  "grid": {"start": 0.0, "stop": 1.0, "points": 3}}
        cfg = _write(tmp_path, "fid.json", dict(config,
                                                quantities=["fidelity"]))
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()
        cfg = _write(tmp_path, "logneg.json", dict(config,
                                                   quantities=["logneg"]))
        assert cli.main(["run", cfg, "--out", str(out), "--oracle"]) == 0

    @pytest.mark.parametrize("quantity", ["purity", "xi"])
    def test_negative_fock_n_exits_1(self, tmp_path, capsys, quantity):
        cfg = _write(tmp_path, "fock.json", {
            "kind": "fock", "initial": {"n": -1},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5}],
            "grid": {"start": 0.0, "stop": 1.0, "points": 3},
            "quantities": [quantity],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    def test_fock_xi_above_validated_n_exits_1(self, tmp_path, capsys):
        # fock_xi_t is validated for n <= 12; the purity is sound beyond it
        config = {"kind": "fock", "baths": [{"gamma": 1.0, "mu_inf": 0.5}],
                  "grid": {"start": 0.0, "stop": 1.0, "points": 3}}
        out = tmp_path / "out.csv"
        cfg = _write(tmp_path, "xi13.json", dict(
            config, initial={"n": 13}, quantities=["xi"]))
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()
        for n, quantity in ((13, "purity"), (12, "xi")):
            cfg = _write(tmp_path, "ok.json", dict(
                config, initial={"n": n}, quantities=[quantity]))
            assert cli.main(["run", cfg, "--out", str(out)]) == 0

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

    def test_cat_xi_straddling_t_pos_within_oracle_tolerance(self, tmp_path):
        # 1e-8 is the cat xi oracle tolerance of the benchmark checks; in
        # this squeezed bath t_pos = ln(1 + 0.6 e^0.6) = 0.739 > t_nc
        bath = {"gamma": 1.0, "mu_inf": 0.6, "r_inf": 0.3, "phi_inf": 0.4}
        cfg = _write(tmp_path, "cat.json", {
            "kind": "cat",
            "initial": {"x0": [1.0, 0.5], "r0": 0.2},
            "baths": [bath],
            "grid": {"start": 0.2, "stop": 1.0, "points": 5},
            "quantities": ["xi"],
        })
        out = tmp_path / "out.csv"
        assert cli.main(["run", cfg, "--out", str(out), "--oracle",
                         "--tolerance", "1e-8"]) == 0
        header, rows = _read_csv(out)
        t_pos = ch.t_pos(ch.BathParams(**bath))
        late = [r for r in rows if r[0] >= t_pos]
        assert 0 < len(late) < len(rows)
        assert all(r[header.index("xi")] == 0.0 for r in late)
        assert rows[0][header.index("xi")] > 0.0


# ---------------------------------------------------------------------------
# the table's columns against the public functions called point by point
# ---------------------------------------------------------------------------

_BATH = {"gamma": 1.3, "mu_inf": 0.6, "r_inf": 0.3, "phi_inf": 0.4}
_THERMAL = {"gamma": 0.8, "mu_inf": 0.5}
_KIND_CONFIGS = {
    "single-gaussian": _single_config(
        quantities=["purity", "entropy", "tau", "xi"],
        grid={"start": 0.0, "stop": 3.0, "points": 7}),
    # t_pos = ln 1.5 / 0.8 = 0.507 lies inside the grid
    "cat": {"kind": "cat", "initial": {"x0": [1.0, 0.5], "r0": 0.2},
            "baths": [_THERMAL], "grid": {"start": 0.4, "stop": 0.6,
                                          "points": 3},
            "quantities": ["purity", "xi"]},
    "fock": {"kind": "fock", "initial": {"n": 2}, "baths": [_THERMAL],
             "grid": {"start": 0.25, "stop": 1.5, "points": 4},
             "quantities": ["purity", "xi"]},
    "fock-squeezed": {"kind": "fock", "initial": {"n": 2}, "baths": [_BATH],
                      "grid": {"start": 0.0, "stop": 1.5, "points": 4},
                      "quantities": ["purity"]},
    "psi01": {"kind": "psi01", "initial": {"vartheta": 0.7},
              "baths": [_BATH], "grid": {"start": 0.0, "stop": 1.5,
                                         "points": 4},
              "quantities": ["purity"]},
    "two-mode": {"kind": "two-mode", "initial": {"mu": 0.8, "r": 0.7},
                 "baths": [dict(_BATH, phi_inf=0.0), _BATH],
                 "grid": {"start": 0.0, "stop": 2.0, "points": 6},
                 "quantities": ["purity", "entropy", "tau", "logneg",
                                "mutual-info", "fidelity"]},
    # no coefficient expansion: the purity is the evolved state's determinant
    "two-mode-unequal": {"kind": "two-mode",
                         "initial": {"a": 1.2, "b": 1.0, "c1": 0.5, "c2": -0.7},
                         "baths": [_THERMAL, _BATH],
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
                "xi": (0.0 if t >= ch.t_pos(bath) else xi, xi)}
    if s.kind in ("fock", "psi01"):
        N, M = ch.nm_from_bath(bath)
        if s.kind == "psi01":
            rho0 = nm.psi01_state(init["vartheta"])
            return {"purity": (ng.psi01_purity_t(init["vartheta"], bath, t),
                               nm.lindblad_evolve(rho0, bath.gamma, N, M,
                                                  t).purity())}
        n = init["n"]
        closed = (ng.fock_purity_thermal(n, bath.mu_inf, t, bath.gamma)
                  if bath.is_thermal else ng.fock_purity_t(n, bath, t))
        out = {"purity": (closed,
                          nm.lindblad_evolve(nm.fock_state(n), bath.gamma,
                                             N, M, t).purity())}
        if "xi" in s.quantities:
            w = ng.fock_wigner_t(n, bath.mu_inf, t, bath.gamma)
            out["xi"] = (ng.fock_xi_t(n, bath.mu_inf, t, bath.gamma),
                         ng.negative_part(w, tol=1e-8).xi)
        return out
    if "a" in init:
        sf = tm.StandardForm(init["a"], init["b"], init["c1"], init["c2"])
    else:
        params = tm.SqueezedThermalParams(init["mu"], init["r"])
        sf = params.standard_form
    cm = ch.evolve_moments(sf.state, s.channel, t).cm
    mirror = np.diag([1.0, 1.0, 1.0, -1.0])
    nu = np.min(ps.symplectic_eigenvalues(mirror @ cm @ mirror))
    logneg = tm.log_negativity(cm)
    if s.kind == "fidelity":
        return {"fidelity": (tm.fidelity_t(params, s.channel, t),
                             tm.teleportation_fidelity(cm)),
                "logneg": (logneg, logneg)}
    same = lambda f: (f(cm), f(cm))  # noqa: E731
    nu_plus, nu_minus = ps.symplectic_eigenvalues(cm)
    return {"purity": (ps.purity_gaussian(cm),
                       1.0 / (4.0 * nu_plus * nu_minus)),
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
            if cli._TABLE[(s.kind, q)].path == "Lindblad trajectory":
                assert cols[f"{q}_oracle"][i] == pytest.approx(oracle,
                                                               abs=1e-12)
            else:
                assert cols[f"{q}_oracle"][i] == oracle, (q, t)


_GAUSSIAN_KINDS = ["single-gaussian", "two-mode", "two-mode-unequal",
                   "fidelity"]


@pytest.mark.parametrize("kind", _GAUSSIAN_KINDS)
def test_evolved_stack_checked_once(kind, monkeypatch):
    # the evolved GaussianState is checked when built; the columns computed
    # from it do not check its (T, 2n, 2n) stack again
    s = cli.parse_scenario(dict(_KIND_CONFIGS[kind], oracle=True))
    dim = 2 if kind == "single-gaussian" else 4
    shapes = []
    check = ps.check_physical

    def counted(cm):
        shapes.append(np.shape(cm))
        return check(cm)

    monkeypatch.setattr(ps, "check_physical", counted)
    cli.run_scenario(s)
    assert shapes.count((len(s.times), dim, dim)) == 1


@pytest.mark.parametrize("kind", ["two-mode", "two-mode-unequal", "fidelity"])
def test_initial_state_checked_and_evolved_once(kind, monkeypatch):
    # the initial 4x4 matrix is checked once, by its StandardForm, and the
    # state is evolved once, whatever the couplings
    s = cli.parse_scenario(dict(_KIND_CONFIGS[kind], oracle=True))
    checks, evolved = [], []
    check, evolve = ps.check_physical, ch.evolve_moments

    def counted_check(cm):
        checks.append(np.shape(cm))
        return check(cm)

    def counted_evolve(*args):
        evolved.append(1)
        return evolve(*args)

    monkeypatch.setattr(ps, "check_physical", counted_check)
    monkeypatch.setattr(ch, "evolve_moments", counted_evolve)
    monkeypatch.setattr(tm, "evolve_moments", counted_evolve)
    cli.run_scenario(s)
    assert checks.count((4, 4)) == 1
    assert len(evolved) == 1


@pytest.mark.parametrize("kind", _GAUSSIAN_KINDS)
def test_spectrum_computed_once(kind, monkeypatch):
    # symplectic spectra of an --oracle run, per stack shape: the evolved
    # state's once, the mirrored matrix's and the two local blocks' of the
    # mutual information once each, and none for the invariants-only
    # fidelity kind
    s = cli.parse_scenario(dict(_KIND_CONFIGS[kind], oracle=True))
    T = len(s.times)
    expected = {"single-gaussian": {(T, 2, 2): 1},
                "two-mode": {(T, 4, 4): 2, (T, 2, 2): 2},
                "two-mode-unequal": {(T, 4, 4): 2, (T, 2, 2): 2},
                "fidelity": {}}[kind]
    shapes = []
    spectrum = ps._spectrum

    def counted(m):
        shapes.append(np.shape(m))
        return spectrum(m)

    monkeypatch.setattr(ps, "_spectrum", counted)
    cli.run_scenario(s)
    assert {sh: shapes.count(sh) for sh in set(shapes)} == expected


@pytest.mark.parametrize("kind", sorted(_KIND_CONFIGS))
def test_no_general_eigensolver(kind, monkeypatch):
    # the check and the spectrum use Hermitian eigensolvers only
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    s = cli.parse_scenario(dict(_KIND_CONFIGS[kind], oracle=True))
    cli.run_scenario(s)
    assert calls == []


_NONE_ROWS = sorted(key for key, row in cli._TABLE.items()
                    if row.path == "none")


@pytest.mark.parametrize("kind,quantity", _NONE_ROWS)
def test_none_row_evaluated_once(kind, quantity, monkeypatch):
    # a row whose oracle is its closed form is computed once per --oracle
    # run, and its oracle column is its plain column
    row = cli._TABLE[(kind, quantity)]
    calls = []

    def counted(g):
        calls.append(1)
        return row.closed(g)

    monkeypatch.setitem(cli._TABLE, (kind, quantity), cli._repeated(counted))
    s = cli.parse_scenario(dict(_KIND_CONFIGS[kind], oracle=True,
                                quantities=[quantity]))
    table = cli.run_scenario(s)
    assert len(calls) == 1
    cols = table.columns
    for r in table.rows:
        assert r[cols.index(f"{quantity}_oracle")] == r[cols.index(quantity)]
        assert r[cols.index(f"{quantity}_absdiff")] == 0.0
    assert table.max_deviation == 0.0


def test_max_deviation_is_largest_absdiff():
    s = cli.parse_scenario(dict(_KIND_CONFIGS["two-mode"], oracle=True))
    table = cli.run_scenario(s)
    diff = [i for i, c in enumerate(table.columns) if c.endswith("_absdiff")]
    assert table.max_deviation == max(r[i] for r in table.rows for i in diff)
    assert table.max_deviation > 0.0


def test_import_loads_only_what_a_run_uses():
    # a Gaussian run needs neither scipy's dense linear algebra, nor the
    # sparse master equation, nor quadrature, nor root finding, nor the
    # acceptance suite
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, cvdec.cli; print(' '.join(m for m in "
            "('scipy.linalg', 'scipy.sparse', 'scipy.sparse.linalg', "
            "'scipy.integrate', 'scipy.optimize', 'cvdec.acceptance') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_unphysical_matrix_in_stack_raises():
    stack = np.stack([0.5 * np.eye(2), 0.7 * np.eye(2), 0.4 * np.eye(2),
                      0.6 * np.eye(2)])
    assert np.array_equal(ps.require_physical(stack[:2]), stack[:2])
    with pytest.raises(ValueError, match="uncertainty"):
        ps.require_physical(stack)
    with pytest.raises(ValueError, match="uncertainty"):
        ps.purity_gaussian(stack)
    # raw two-mode stacks are still checked by every measure
    stack4 = np.stack([0.5 * np.eye(4), 0.45 * np.eye(4), 0.6 * np.eye(4)])
    for f in (tm.invariants, tm.log_negativity, tm.mutual_information,
              ps.von_neumann_entropy):
        with pytest.raises(ValueError, match="uncertainty"):
            f(stack4)

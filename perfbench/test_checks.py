"""Tests of the benchmark's own output checks and failure accounting.

    python3 -m pytest perfbench/test_checks.py -q

Each check must pass on the CSV that cvdec writes and fail once one value
is moved past the check's tolerance.
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cvdec import cli  # noqa: E402

SINGLE = {
    "kind": "single-gaussian",
    "initial": {"mu": 0.8, "r": 0.6, "phi": 0.2},
    "baths": [{"gamma": 1.0, "mu_inf": 0.5, "r_inf": 0.3, "phi_inf": 0.1}],
    "grid": {"start": 0.0, "stop": 30.0, "points": 7},
    "quantities": ["purity", "entropy", "tau"],
}
# without the entropy column, which would also catch a changed purity
SINGLE_PURITY = {**SINGLE, "quantities": ["purity"]}
TWO_MODE = {
    "kind": "two-mode",
    "initial": {"mu": 0.9, "r": 0.7},
    "baths": [{"gamma": 1.0, "mu_inf": 0.6}, {"gamma": 1.0, "mu_inf": 0.8}],
    "grid": {"start": 0.0, "stop": 3.0, "points": 7},
    "quantities": ["purity", "entropy", "tau", "logneg", "mutual-info",
                   "fidelity"],
}
FIDELITY = {
    "kind": "fidelity",
    "initial": {"mu": 0.9, "r": 0.7},
    "baths": [{"gamma": 1.0, "mu_inf": 0.6}, {"gamma": 1.0, "mu_inf": 0.6}],
    "grid": {"start": 0.0, "stop": 3.0, "points": 7},
    "quantities": ["fidelity", "logneg"],
}
FOCK_VACUUM = {
    "kind": "fock", "initial": {"n": 3},
    "baths": [{"gamma": 1.0, "mu_inf": 1.0}],
    "grid": {"start": 0.0, "stop": 0.2, "points": 3},
    "quantities": ["purity"],
}
FOCK_XI = {
    "kind": "fock", "initial": {"n": 2},
    "baths": [{"gamma": 1.0, "mu_inf": 0.5}],
    "grid": {"start": 0.0, "stop": 1.0, "points": 6},
    "quantities": ["xi"],
}
CAT = {
    "kind": "cat", "initial": {"x0": [2.0, 0.0]},
    "baths": [{"gamma": 1.0, "mu_inf": 0.5}],
    "grid": {"start": 0.0, "stop": 1.0, "points": 3},
    "quantities": ["purity"],
}
CAT_XI = {
    "kind": "cat", "initial": {"x0": [2.0, 0.0]},
    "baths": [{"gamma": 1.0, "mu_inf": 0.5}],
    "grid": {"start": 0.5, "stop": 1.5, "points": 3},
    "quantities": ["xi"],
}
PSI01 = {
    "kind": "psi01", "initial": {"vartheta": 0.4},
    "baths": [{"gamma": 1.0, "mu_inf": 0.7}],
    "grid": {"start": 0.0, "stop": 0.2, "points": 3},
    "quantities": ["purity"],
}

_cache = {}


def produce(config, oracle, tmp_path_factory):
    key = (json.dumps(config, sort_keys=True), oracle)
    if key not in _cache:
        d = tmp_path_factory.mktemp("csv")
        cfg = d / "s.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = d / "s.csv"
        argv = ["run", str(cfg), "--out", str(out)] + (["--oracle"] * oracle)
        code, err = run.invoke(cli, argv)
        assert code == 0, err
        _cache[key] = out.read_text(encoding="utf-8")
    return _cache[key]


def perturb(text, column, row, change):
    header, rows = checks.parse_csv(text)
    j = header.index(column)
    rows[row][j] = repr(change(float(rows[row][j])))
    return "\r\n".join(",".join(r) for r in [header, *rows]) + "\r\n"


CONFIGS = [SINGLE, TWO_MODE, FIDELITY, FOCK_VACUUM, FOCK_XI, CAT, CAT_XI,
           PSI01]
# the box-quadrature Fock ξ oracle takes seconds per point; the workload
# runs it
CLEAN = [(c, False) for c in CONFIGS] + [(c, True) for c in CONFIGS
                                         if c is not FOCK_XI]


@pytest.mark.parametrize("config,oracle", CLEAN,
                         ids=lambda v: v["kind"] if isinstance(v, dict)
                         else ("oracle" if v else "plain"))
def test_clean_output_passes(config, oracle, tmp_path_factory):
    text = produce(config, oracle, tmp_path_factory)
    assert checks.check_table(config, oracle, text) == []
    if oracle:
        plain = produce(config, False, tmp_path_factory)
        assert checks.check_pair(config, plain, text) == []


# (config, oracle, column, row, change): each moves one value just past the
# tolerance of the check that guards it
PERTURBATIONS = {
    "oracle-absdiff": (SINGLE, True, "purity_absdiff", 2, lambda v: v + 2e-10),
    "oracle-column": (SINGLE, True, "entropy_oracle", 3, lambda v: v + 2e-10),
    "fock-oracle": (FOCK_VACUUM, True, "purity_oracle", 1, lambda v: v + 2e-9),
    "single-purity-range": (SINGLE_PURITY, False, "purity", 1,
                            lambda v: 1.0 + 1e-9),
    "single-purity-t0": (SINGLE, False, "purity", 0, lambda v: v + 1e-11),
    "single-purity-long-t": (SINGLE_PURITY, False, "purity", 6,
                             lambda v: v + 2e-8),
    "single-entropy": (SINGLE, False, "entropy", 4, lambda v: v + 2e-9),
    "two-mode-logneg": (TWO_MODE, False, "logneg", 6, lambda v: -1e-15),
    "two-mode-mutual-info": (TWO_MODE, False, "mutual-info", 6,
                             lambda v: -1e-15),
    "two-mode-fidelity-sign": (TWO_MODE, False, "fidelity", 3, lambda v: -v),
    "two-mode-fidelity-t0": (TWO_MODE, False, "fidelity", 0,
                             lambda v: v + 1e-11),
    "fidelity-t0": (FIDELITY, False, "fidelity", 0, lambda v: v - 1e-11),
    "fidelity-logneg": (FIDELITY, False, "logneg", 6, lambda v: -1e-15),
    "fock-vacuum-purity": (FOCK_VACUUM, False, "purity", 2,
                           lambda v: v + 2e-9),
    "fock-purity-t0": (FOCK_VACUUM, False, "purity", 0, lambda v: v - 1e-11),
    "fock-xi-negative": (FOCK_XI, False, "xi", 1, lambda v: -1e-15),
    "fock-xi-after-tnc": (FOCK_XI, False, "xi", 5, lambda v: v + 2e-8),
    "fock-xi-t0": (FOCK_XI, False, "xi", 0, lambda v: v + 2e-8),
    "cat-xi-after-tnc": (CAT_XI, False, "xi", 2, lambda v: v + 2e-8),
    "cat-purity-t0": (CAT, False, "purity", 0, lambda v: v - 1e-11),
    "cat-purity-oracle": (CAT, True, "purity_oracle", 1, lambda v: v + 2e-8),
    "psi01-purity-t0": (PSI01, False, "purity", 0, lambda v: v - 1e-11),
    "psi01-purity-range": (PSI01, False, "purity", 2, lambda v: -v),
}


@pytest.mark.parametrize("case", sorted(PERTURBATIONS))
def test_perturbed_output_fails(case, tmp_path_factory):
    config, oracle, column, row, change = PERTURBATIONS[case]
    text = produce(config, oracle, tmp_path_factory)
    assert checks.check_table(config, oracle, text) == []
    bad = perturb(text, column, row, change)
    assert checks.check_table(config, oracle, bad) != []


def test_closed_form_columns_must_match_under_oracle(tmp_path_factory):
    plain = produce(SINGLE, False, tmp_path_factory)
    oracle = produce(SINGLE, True, tmp_path_factory)
    # one ulp in one closed-form cell
    bad = perturb(oracle, "tau", 3, lambda v: math.nextafter(v, math.inf))
    assert checks.check_pair(SINGLE, plain, bad) != []


def test_wrong_shape_fails(tmp_path_factory):
    text = produce(SINGLE, False, tmp_path_factory)
    lines = text.splitlines()
    assert checks.check_table(SINGLE, False, "\n".join(lines[:-1])) != []
    assert checks.check_table(SINGLE, True, text) != []


def test_fock_xi_reference():
    assert checks.fock_xi_t0(1) == pytest.approx(4 * math.exp(-0.5) - 2,
                                                 abs=1e-13)


def _one_scenario_plan(tmp_path, modes=workloads.BOTH):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(SINGLE), encoding="utf-8")
    return [(workloads.Scenario("s", SINGLE, modes), cfg)]


@pytest.mark.parametrize("outcome", [2, RuntimeError("boom")],
                         ids=["exit-2", "exception"])
def test_failed_run_is_counted_not_incorrect(outcome, tmp_path):
    def main(argv):
        if "--oracle" not in argv:
            return cli.main(argv)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    rnd = run.run_round(types.SimpleNamespace(main=main), checks,
                        _one_scenario_plan(tmp_path), tmp_path)
    assert (rnd.attempted, rnd.failed, rnd.problems) == (2, 1, [])


def test_failures_are_reported_per_round_not_per_run(tmp_path):
    def main(argv):
        return 2 if "--oracle" in argv else cli.main(argv)

    plan = _one_scenario_plan(tmp_path)
    rounds = [run.run_round(types.SimpleNamespace(main=main), checks, plan,
                            tmp_path) for _ in range(2)]
    assert run.per_round_counts(rounds) == (2, 1)


def test_config_error_is_incorrect(tmp_path):
    rnd = run.run_round(types.SimpleNamespace(main=lambda argv: 1), checks,
                        _one_scenario_plan(tmp_path, workloads.PLAIN),
                        tmp_path)
    assert (rnd.attempted, rnd.failed) == (1, 0) and rnd.problems


def test_workload_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        a = [s.config for s in workloads.scenarios(name, 7)]
        assert a == [s.config for s in workloads.scenarios(name, 7)]
        assert a != [s.config for s in workloads.scenarios(name, 8)]

"""Edge configs run through ``cvdec run --oracle`` in process: for the
Lindblad rows hot and squeezed baths, the vacuum, large n and a pure bath;
for the Gaussian rows large squeezing and the vacuum in a pure bath."""

import csv
import json

import pytest

from cvdec import cli


def _fock(n, **bath):
    return {"kind": "fock", "initial": {"n": n}, "baths": [bath]}


def _run(tmp_path, config, quantities):
    """Rows of the --oracle CSV of config over γt ∈ [0, 5], 6 points."""
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({
        **config, "grid": {"start": 0.0, "stop": 5.0, "points": 6},
        "quantities": quantities}), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main(["run", str(cfg), "--out", str(out), "--oracle"]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    return rows


EDGES = {
    # N = 1.5: the photon tail of the vacuum reaches past level 40
    "fock0-hot": _fock(0, gamma=1.0, mu_inf=0.25),
    "psi01-squeezed": {"kind": "psi01", "initial": {"vartheta": 0.7},
                       "baths": [{"gamma": 1.0, "mu_inf": 0.5, "r_inf": 0.5,
                                  "phi_inf": 0.4}]},
    "fock10-thermal": _fock(10, gamma=1.0, mu_inf=0.5),
    "fock4-vacuum": _fock(4, gamma=1.0, mu_inf=1.0),
}


@pytest.mark.parametrize("name", EDGES)
def test_lindblad_oracle_within_1e_10(tmp_path, name):
    rows = _run(tmp_path, EDGES[name], ["purity"])
    assert max(float(row["purity_absdiff"]) for row in rows) <= 1e-10


@pytest.mark.parametrize("mu_inf", [1.0, 0.5])
def test_two_mode_purity_at_r_3(tmp_path, mu_inf):
    # the pure squeezed vacuum's entries reach e^6/4: Det σ = 1/16 must not
    # be a sum of terms of size e^24/16
    rows = _run(tmp_path, {
        "kind": "two-mode", "initial": {"mu": 1.0, "r": 3.0},
        "baths": [{"gamma": 1.0, "mu_inf": mu_inf}] * 2}, ["purity"])
    assert abs(float(rows[0]["purity"]) - 1.0) <= 1e-10
    assert max(float(row["purity_absdiff"]) for row in rows) <= 1e-10


def test_vacuum_tau_in_pure_bath_is_0(tmp_path):
    rows = _run(tmp_path, {
        "kind": "single-gaussian", "initial": {"mu": 1.0, "r": 0.0},
        "baths": [{"gamma": 1.0, "mu_inf": 1.0}]}, ["tau"])
    assert all(float(row["tau"]) == 0.0 for row in rows)
    assert all(float(row["tau_absdiff"]) == 0.0 for row in rows)


def test_pure_two_mode_purity_at_t0_up_to_r_3_5():
    for r in [0.25 * i for i in range(15)]:
        s = cli.parse_scenario({
            "kind": "two-mode", "initial": {"mu": 1.0, "r": r},
            "baths": [{"gamma": 1.0, "mu_inf": 0.5}] * 2,
            "grid": {"start": 0.0, "stop": 0.0, "points": 1},
            "quantities": ["purity"]})
        assert abs(cli.run_scenario(s).rows[0][1] - 1.0) <= 1e-10, r

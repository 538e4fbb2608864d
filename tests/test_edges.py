"""Edge configs of the Lindblad rows, run through ``cvdec run --oracle``
in process: hot and squeezed baths, the vacuum, large n and a pure bath."""

import csv
import json

import pytest

from cvdec import cli


def _fock(n, **bath):
    return {"kind": "fock", "initial": {"n": n}, "baths": [bath]}


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
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({
        **EDGES[name], "grid": {"start": 0.0, "stop": 5.0, "points": 6},
        "quantities": ["purity"]}), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main(["run", str(cfg), "--out", str(out), "--oracle"]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert max(float(row["purity_absdiff"]) for row in rows) <= 1e-10

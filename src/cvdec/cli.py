"""Scenario runner: declarative JSON configs to time-series CSV.

A scenario names an initial state, one bath per mode, a time grid and the
quantities to tabulate; ``--oracle`` adds independently computed reference
columns and absolute deviations.  Each (kind, quantity) is one row of
``_TABLE``: a closed form and an oracle, each computed over the whole time
grid, and the label of the oracle's path.  Output is deterministic: the same
config always yields byte-identical CSV.

Exit codes: 0 success, 1 configuration error, 2 numerical/oracle failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import acceptance
from . import channels as ch
from . import nongaussian as ng
from . import numerics as nm
from . import phase_space as ps
from . import two_mode as tm

__all__ = ["Scenario", "ResultTable", "load_scenario", "run_scenario",
           "emit", "main"]


class ConfigError(ValueError):
    """Invalid scenario configuration."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    initial: dict
    baths: tuple[ch.BathParams, ...]
    times: np.ndarray
    quantities: tuple[str, ...]
    oracle: bool = False

    @property
    def channel(self) -> ch.ChannelSpec:
        return ch.ChannelSpec(self.baths)


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[list[float]] = field(default_factory=list)
    paths: dict[str, str] = field(default_factory=dict)  # quantity -> path

    def max_deviation(self) -> float | None:
        diff_idx = [i for i, c in enumerate(self.columns)
                    if c.endswith("_absdiff")]
        if not diff_idx:
            return None
        return max((row[i] for row in self.rows for i in diff_idx),
                   default=0.0)


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> Scenario:
    _require(isinstance(raw, dict), "scenario must be a JSON object")
    kind = raw.get("kind")
    _require(isinstance(kind, str) and kind in _INITIAL,
             f"kind must be one of {tuple(_INITIAL)}")
    initial = raw.get("initial")
    _require(isinstance(initial, dict), "initial parameters are required")

    baths_raw = raw.get("baths")
    _require(isinstance(baths_raw, list) and baths_raw,
             "at least one bath is required")
    n_expected = 2 if kind in ("two-mode", "fidelity") else 1
    _require(len(baths_raw) == n_expected,
             f"kind {kind!r} requires exactly {n_expected} bath(s)")
    baths = []
    for item in baths_raw:
        _require(isinstance(item, dict) and "gamma" in item and "mu_inf" in item,
                 "each bath needs explicit gamma and mu_inf")
        try:
            baths.append(ch.BathParams(
                gamma=float(item["gamma"]), mu_inf=float(item["mu_inf"]),
                r_inf=float(item.get("r_inf", 0.0)),
                phi_inf=float(item.get("phi_inf", 0.0))))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid bath parameters: {exc}") from exc

    grid = raw.get("grid")
    _require(isinstance(grid, dict), "a time grid is required")
    try:
        start, stop = float(grid["start"]), float(grid["stop"])
        points = int(grid["points"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid time grid: {exc}") from exc
    _require(points >= 1 and stop >= start >= 0.0,
             "grid needs points >= 1 and 0 <= start <= stop")
    spacing = grid.get("spacing", "linear")
    if spacing == "linear":
        times = np.linspace(start, stop, points)
    elif spacing == "log":
        _require(start > 0.0, "log spacing requires start > 0")
        times = np.geomspace(start, stop, points)
    else:
        raise ConfigError("grid spacing must be 'linear' or 'log'")

    quantities = raw.get("quantities")
    known = tuple(dict.fromkeys(q for _, q in _TABLE))
    _require(isinstance(quantities, list) and
             all(q in known for q in quantities),
             f"quantities must be a list drawn from {known}")
    bad = [q for q in quantities if (kind, q) not in _TABLE]
    _require(not bad, f"quantities {bad} not defined for kind {kind!r}")
    _require(not (kind == "fock" and "xi" in quantities
                  and not baths[0].is_thermal),
             "xi for Fock states requires a thermal bath")
    if kind == "single-gaussian" and "xi" in quantities:
        print("warning: xi of a Gaussian state is identically 0",
              file=sys.stderr)

    return Scenario(kind=kind, initial=dict(initial), baths=tuple(baths),
                    times=times, quantities=tuple(quantities),
                    oracle=bool(raw.get("oracle", False)))


# ---------------------------------------------------------------------------
# the (kind, quantity) table: each quantity of each kind is a closed form and
# an oracle, both computed over the whole time grid
# ---------------------------------------------------------------------------

def _two_mode_initial(p: dict) -> tm.StandardForm:
    if "a" in p:
        return tm.StandardForm(a=float(p["a"]), b=float(p["b"]),
                               c1=float(p["c1"]), c2=float(p["c2"]))
    return tm.SqueezedThermalParams(mu=float(p["mu"]),
                                    r=float(p["r"])).standard_form


# kind -> parser of its initial parameters
_INITIAL = {
    "single-gaussian": lambda p: ps.SingleModeParams(
        mu=float(p["mu"]), r=float(p.get("r", 0.0)),
        phi=float(p.get("phi", 0.0))),
    "cat": lambda p: ng.CatState(
        x0=np.asarray(p["x0"], dtype=float), r0=float(p.get("r0", 0.0)),
        theta=float(p.get("theta", 0.0))),
    "fock": lambda p: int(p["n"]),
    "psi01": lambda p: float(p["vartheta"]),
    "two-mode": _two_mode_initial,
    "fidelity": lambda p: tm.SqueezedThermalParams(
        mu=float(p.get("mu", 1.0)), r=float(p["r"])),
}

# Gaussian kind -> initial covariance matrix of its parsed initial state
_INITIAL_CM = {
    "single-gaussian": ps.cm_from_params,
    "two-mode": tm.standard_form_to_cm,
    "fidelity": lambda p: tm.standard_form_to_cm(p.standard_form),
}


@dataclass
class _Grid:
    """What a column is computed from: the scenario, its parsed initial
    state, and the evolved covariance matrices, built on first use."""

    s: Scenario
    init: object

    @property
    def t(self) -> np.ndarray:
        return self.s.times

    @property
    def bath(self) -> ch.BathParams:
        return self.s.baths[0]

    @functools.cached_property
    def cm(self) -> np.ndarray:
        """(T, 2n, 2n) stack of evolved covariance matrices."""
        cm0 = _INITIAL_CM[self.s.kind](self.init)
        state = ps.GaussianState(np.zeros(len(cm0)), cm0)
        return ch.evolve_moments(state, self.s.channel, self.t).cm


_Column = Callable[[_Grid], np.ndarray]


@dataclass(frozen=True)
class _Row:
    """One (kind, quantity): its closed form and its oracle over the grid,
    and the path the oracle takes ("none" when it repeats the closed form)."""

    closed: _Column
    oracle: _Column
    path: str


def _each(f: Callable[[_Grid, float], float]) -> _Column:
    """A column computed point by point: quadratures, and closed forms
    written for one t."""
    return lambda g: np.array([f(g, float(t)) for t in g.t])


def _single_entropy(g: _Grid) -> np.ndarray:
    # f(1/2μ) with μ = 1/(2√Det σ) capped at 1, as params_from_cm gives it
    mu = np.minimum(1.0 / (2.0 * np.sqrt(np.linalg.det(g.cm))), 1.0)
    return ps.entropy_function(1.0 / (2.0 * mu))


def _mirrored_log_negativity(g: _Grid) -> np.ndarray:
    # symplectic spectrum of the mirror-reflected covariance matrix; the log
    # is math.log elementwise, as in tm.log_negativity
    mirror = np.diag([1.0, 1.0, 1.0, -1.0])
    nu = np.min(ps.symplectic_eigenvalues(mirror @ g.cm @ mirror), axis=-1)
    return np.maximum(0.0, -np.vectorize(math.log, otypes=[float])(2.0 * nu))


def _two_mode_purity(g: _Grid) -> np.ndarray:
    inv = tm.evolved_invariants(g.init, g.s.channel, g.t)
    return 1.0 / (4.0 * np.sqrt(inv.det_sigma))


def _fock_dim(g: _Grid, n: int, floor: int) -> int:
    b = ch.nm_from_bath(g.bath)
    return max(nm.default_truncation(b.N + abs(b.M), n), floor)


def _fock_lindblad(g: _Grid) -> np.ndarray:
    dim = _fock_dim(g, g.init, 2 * g.init + 24)
    return nm.lindblad_purities(nm.fock_state(g.init, dim), g.bath, g.t)


def _psi01_lindblad(g: _Grid) -> np.ndarray:
    dim = _fock_dim(g, 1, 32)
    return nm.lindblad_purities(nm.psi01_state(g.init, dim), g.bath, g.t)


def _fock_xi(g: _Grid, t: float) -> float:
    return ng.negative_part(
        ng.fock_wigner_t(g.init, g.bath.mu_inf, t, g.bath.gamma)).xi


def _fock_xi_box(g: _Grid, t: float) -> float:
    # full 2-D quadrature instead of the radial reduction
    w = ng.fock_wigner_t(g.init, g.bath.mu_inf, t, g.bath.gamma)
    return ng.negative_part(ng.WignerField(eval=w.eval, domain=w.domain),
                            tol=1e-8).xi


def _cat_xi(g: _Grid, t: float) -> float:
    return ng.negative_part(ng.cat_wigner_t(g.init, g.bath, t), tol=1e-8).xi


def _cat_box_purity(g: _Grid, t: float) -> float:
    return ng.wigner_purity(ng.cat_wigner_t(g.init, g.bath, t), tol=1e-9)


def _repeated(f: _Column) -> _Row:
    """A row whose oracle repeats its closed form: no independent check."""
    return _Row(f, f, "none")


_TABLE: dict[tuple[str, str], _Row] = {
    ("single-gaussian", "purity"): _Row(
        lambda g: ch.single_mode_purity_t(g.init, g.bath, g.t),
        lambda g: ps.purity_gaussian(g.cm), "CM determinant"),
    ("single-gaussian", "entropy"): _Row(
        _single_entropy, lambda g: ps.von_neumann_entropy(g.cm),
        "CM spectrum"),
    ("single-gaussian", "tau"): _Row(
        lambda g: ch.single_mode_tau_t(g.init, g.bath, g.t),
        lambda g: ps.nonclassical_depth_gaussian(g.cm), "CM eigenvalues"),
    ("single-gaussian", "xi"): _repeated(lambda g: np.zeros_like(g.t)),
    ("cat", "purity"): _Row(
        _each(lambda g, t: ng.cat_purity_t(g.init, g.bath, t)),
        _each(_cat_box_purity), "box quadrature"),
    ("cat", "xi"): _repeated(_each(_cat_xi)),
    ("fock", "purity"): _Row(
        _each(lambda g, t: ng.fock_purity_t(g.init, g.bath, t)),
        _fock_lindblad, "Lindblad trajectory"),
    ("fock", "xi"): _Row(_each(_fock_xi), _each(_fock_xi_box),
                         "box quadrature"),
    ("psi01", "purity"): _Row(
        _each(lambda g, t: ng.psi01_purity_t(g.init, g.bath, t)),
        _psi01_lindblad, "Lindblad trajectory"),
    ("two-mode", "purity"): _Row(
        _two_mode_purity, lambda g: ps.purity_gaussian(g.cm),
        "CM determinant"),
    ("two-mode", "entropy"): _repeated(
        lambda g: ps.von_neumann_entropy(g.cm)),
    ("two-mode", "tau"): _repeated(
        lambda g: ps.nonclassical_depth_gaussian(g.cm)),
    ("two-mode", "logneg"): _Row(
        lambda g: tm.log_negativity(g.cm), _mirrored_log_negativity,
        "mirrored CM spectrum"),
    ("two-mode", "mutual-info"): _repeated(
        lambda g: tm.mutual_information(g.cm)),
    ("two-mode", "fidelity"): _repeated(
        lambda g: tm.teleportation_fidelity(g.cm)),
    ("fidelity", "fidelity"): _Row(
        lambda g: tm.fidelity_t(g.init, g.s.channel, g.t),
        lambda g: tm.teleportation_fidelity(g.cm), "CM invariants"),
    ("fidelity", "logneg"): _repeated(lambda g: tm.log_negativity(g.cm)),
}


def run_scenario(s: Scenario) -> ResultTable:
    """Evaluate the scenario over its whole time grid: every closed-form
    column, then every oracle column, each from one row of the table."""
    try:
        grid = _Grid(s, _INITIAL[s.kind](s.initial))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {s.kind} parameters: {exc}") from exc
    rows = [_TABLE[(s.kind, q)] for q in s.quantities]
    plain = [np.asarray(row.closed(grid), dtype=float) for row in rows]
    oracle = ([np.asarray(row.oracle(grid), dtype=float) for row in rows]
              if s.oracle else [])
    columns, values = ["t"], [s.times]
    for i, q in enumerate(s.quantities):
        columns.append(q)
        values.append(plain[i])
        if s.oracle:
            columns.extend([f"{q}_oracle", f"{q}_absdiff"])
            values.extend([oracle[i], np.abs(plain[i] - oracle[i])])
    data = np.column_stack(values)
    if not np.all(np.isfinite(data)):
        raise ArithmeticError("non-finite entry in result table")
    paths = {q: row.path for q, row in zip(s.quantities, rows)}
    return ResultTable(columns=columns, rows=data.tolist(), paths=paths)


def emit(table: ResultTable, path: str):
    """Write the table as UTF-8 CSV with 17 significant digits."""
    line = ",".join(["%.17g"] * len(table.columns)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(table.columns)  # csv ends lines in \r\n
        fh.write("".join(line % tuple(row) for row in table.rows))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.config)
        if args.oracle and not scenario.oracle:
            scenario = dataclasses.replace(scenario, oracle=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        table = run_scenario(scenario)
        emit(table, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (nm.TruncationError, nm.QuadratureError, ArithmeticError,
            OSError) as exc:
        print(f"numerical/IO failure: {exc}", file=sys.stderr)
        return 2
    worst = table.max_deviation()
    if worst is not None:
        print(f"max oracle deviation: {worst:.3e}")
        if args.tolerance is not None and worst > args.tolerance:
            print(f"deviation exceeds tolerance {args.tolerance:g}",
                  file=sys.stderr)
            return 2
    print(f"wrote {len(table.rows)} rows to {args.out}")
    return 0


def _cmd_selftest(_args) -> int:
    return 0 if acceptance.run_all(report=print) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cvdec",
        description="Decoherence of continuous-variable states in Gaussian "
                    "baths: scenario runner and self tests.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate a scenario config to CSV")
    run_p.add_argument("config", help="path to a JSON scenario")
    run_p.add_argument("--out", required=True, help="output CSV path")
    run_p.add_argument("--oracle", action="store_true",
                       help="add independent oracle columns")
    run_p.add_argument("--tolerance", type=float, default=None,
                       help="fail (exit 2) if any oracle deviation exceeds this")
    run_p.set_defaults(func=_cmd_run)

    self_p = sub.add_parser("selftest", help="run the acceptance suite")
    self_p.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

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
    max_deviation: float | None = None  # largest *_absdiff, if any


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


def _finite(x) -> bool:
    """True iff every number in a parsed JSON value is a finite float, or an
    integer that converts to one."""
    if isinstance(x, (dict, list)):
        return all(map(_finite, x.values() if isinstance(x, dict) else x))
    try:
        return not isinstance(x, (int, float)) or math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(p: dict, key: str, default: float | None = None) -> float:
    """p[key], or the default when it is absent, as a float.  It must be a
    JSON number: float() would also parse a string such as "inf", and a
    bool is an int to Python."""
    x = p[key] if default is None else p.get(key, default)
    _require(type(x) in (int, float), f"{key} must be a JSON number")
    return float(x)


def _integer(p: dict, key: str) -> int:
    """p[key], which must be a JSON integer (not 2.5, "2" or true) >= 0."""
    x = p[key]
    _require(type(x) is int and x >= 0,
             f"{key} must be a nonnegative JSON integer")
    return x


def parse_scenario(raw: dict) -> Scenario:
    _require(isinstance(raw, dict), "scenario must be a JSON object")
    _require(_finite(raw), "every number in the scenario must be finite")
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
                gamma=_number(item, "gamma"), mu_inf=_number(item, "mu_inf"),
                r_inf=_number(item, "r_inf", 0.0),
                phi_inf=_number(item, "phi_inf", 0.0)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid bath parameters: {exc}") from exc

    grid = raw.get("grid")
    _require(isinstance(grid, dict), "a time grid is required")
    try:
        start, stop = _number(grid, "start"), _number(grid, "stop")
        points = _integer(grid, "points")
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
    _require(len(set(quantities)) == len(quantities),
             "quantities must not repeat")
    bad = [q for q in quantities if (kind, q) not in _TABLE]
    _require(not bad, f"quantities {bad} not defined for kind {kind!r}")
    if kind == "fock" and "xi" in quantities:
        _require(baths[0].is_thermal,
                 "xi for Fock states requires a thermal bath")
        n = initial.get("n")
        _require(type(n) is not int or n <= ng.FOCK_XI_MAX_N,
                 f"xi for Fock states needs n <= {ng.FOCK_XI_MAX_N}")
    first = baths[0]
    _require(kind != "fidelity" or "fidelity" not in quantities
             or all(b.is_thermal and b.gamma == first.gamma
                    and b.mu_inf == first.mu_inf for b in baths),
             "fidelity of kind 'fidelity' requires equal thermal baths")
    oracle = raw.get("oracle", False)
    _require(type(oracle) is bool, "oracle must be a JSON boolean")
    if kind == "single-gaussian" and "xi" in quantities:
        print("warning: xi of a Gaussian state is identically 0",
              file=sys.stderr)

    return Scenario(kind=kind, initial=dict(initial), baths=tuple(baths),
                    times=times, quantities=tuple(quantities),
                    oracle=oracle)


# ---------------------------------------------------------------------------
# the (kind, quantity) table: each quantity of each kind is a closed form and
# an oracle, both computed over the whole time grid
# ---------------------------------------------------------------------------

def _two_mode_initial(p: dict) -> tm.StandardForm:
    if "a" in p:
        return tm.StandardForm(a=_number(p, "a"), b=_number(p, "b"),
                               c1=_number(p, "c1"), c2=_number(p, "c2"))
    return tm.SqueezedThermalParams(mu=_number(p, "mu"),
                                    r=_number(p, "r")).standard_form


def _cat_initial(p: dict) -> ng.CatState:
    x0 = p["x0"]
    _require(isinstance(x0, list)
             and all(type(x) in (int, float) for x in x0),
             "x0 must be a list of JSON numbers")
    return ng.CatState(x0=np.asarray(x0, dtype=float),
                       r0=_number(p, "r0", 0.0), theta=_number(p, "theta", 0.0))


# kind -> parser of its initial parameters
_INITIAL = {
    "single-gaussian": lambda p: ps.SingleModeParams(
        mu=_number(p, "mu"), r=_number(p, "r", 0.0),
        phi=_number(p, "phi", 0.0)),
    "cat": _cat_initial,
    "fock": lambda p: _integer(p, "n"),
    "psi01": lambda p: _number(p, "vartheta"),
    "two-mode": _two_mode_initial,
    "fidelity": lambda p: tm.SqueezedThermalParams(
        mu=_number(p, "mu", 1.0), r=_number(p, "r")),
}

# Gaussian kind -> checked initial state of its parsed initial parameters
_INITIAL_STATE = {
    "single-gaussian": ps.GaussianState.from_params,
    "two-mode": lambda sf: sf.state,
    "fidelity": lambda p: p.standard_form.state,
}


@dataclass
class _Grid:
    """What a column is computed from: the scenario, its parsed and checked
    initial states, and the evolved Gaussian states, built on first use."""

    s: Scenario
    init: object
    state0: ps.GaussianState | None

    @property
    def t(self) -> np.ndarray:
        return self.s.times

    @property
    def bath(self) -> ch.BathParams:
        return self.s.baths[0]

    @functools.cached_property
    def state(self) -> ps.GaussianState:
        """Evolved states, checked once: a (T, 2n, 2n) stack of matrices."""
        return ch.evolve_moments(self.state0, self.s.channel, self.t)


_Column = Callable[[_Grid], np.ndarray]


@dataclass(frozen=True)
class _Row:
    """One (kind, quantity): its closed form and its oracle over the grid,
    and the path the oracle takes ("none" when it repeats the closed form)."""

    closed: _Column
    oracle: _Column
    path: str


def _each(f: Callable[[_Grid, float], float]) -> _Column:
    """A column computed point by point: the box quadratures, which have
    no form over an array of times."""
    return lambda g: np.array([f(g, float(t)) for t in g.t])


def _single_entropy(g: _Grid) -> np.ndarray:
    # f(1/2μ) with μ = 1/(2√Det σ) capped at 1, as params_from_cm gives it
    mu = np.minimum(ps.purity_gaussian(g.state), 1.0)
    return ps.entropy_function(1.0 / (2.0 * mu))


def _mirrored_log_negativity(g: _Grid) -> np.ndarray:
    # symplectic spectrum of the mirror-reflected covariance matrix
    mirror = np.diag([1.0, 1.0, 1.0, -1.0])
    nu = np.min(ps.symplectic_eigenvalues(mirror @ g.state.cm @ mirror), axis=-1)
    return np.maximum(0.0, -np.log(2.0 * nu))


def _spectral_purity(g: _Grid) -> np.ndarray:
    # 1/(4 ν₊ν₋), from the state's spectrum rather than from a determinant
    nu = ps.symplectic_eigenvalues(g.state)
    return 1.0 / (4.0 * nu[..., 0] * nu[..., 1])


def _lindblad_purities(g: _Grid, rho0: nm.TruncatedDensityMatrix) -> np.ndarray:
    return nm.lindblad_purities(rho0, g.bath.gamma, *ch.nm_from_bath(g.bath), g.t)


def _fock_purity(g: _Grid) -> np.ndarray:
    if g.bath.is_thermal:
        return ng.fock_purity_thermal(g.init, g.bath.mu_inf, g.t, g.bath.gamma)
    return ng.fock_purity_t(g.init, g.bath, g.t)


def _fock_xi_box(g: _Grid, t: float) -> float:
    w = ng.fock_wigner_t(g.init, g.bath.mu_inf, t, g.bath.gamma)
    return ng.negative_part(w, tol=1e-8).xi


def _cat_xi_box(g: _Grid, t: float) -> float:
    return ng.negative_part(ng.cat_wigner_t(g.init, g.bath, t), tol=1e-8).xi


def _cat_xi(g: _Grid) -> np.ndarray:
    # exactly 0 from ch.t_pos on, where W_t >= 0 for every input state;
    # the box quadrature before it
    t_pos = ch.t_pos(g.bath)
    return np.array([_cat_xi_box(g, t) if t < t_pos else 0.0
                     for t in map(float, g.t)])


def _cat_box_purity(g: _Grid, t: float) -> float:
    return ng.wigner_purity(ng.cat_wigner_t(g.init, g.bath, t), tol=1e-9)


def _repeated(f: _Column) -> _Row:
    """A row whose oracle repeats its closed form: no independent check."""
    return _Row(f, f, "none")


_TABLE: dict[tuple[str, str], _Row] = {
    ("single-gaussian", "purity"): _Row(
        lambda g: ch.single_mode_purity_t(g.init, g.bath, g.t),
        lambda g: ps.purity_gaussian(g.state), "CM determinant"),
    ("single-gaussian", "entropy"): _Row(
        _single_entropy, lambda g: ps.von_neumann_entropy(g.state),
        "CM spectrum"),
    ("single-gaussian", "tau"): _Row(
        lambda g: ch.single_mode_tau_t(g.init, g.bath, g.t),
        lambda g: ps.nonclassical_depth_gaussian(g.state), "CM eigenvalues"),
    ("single-gaussian", "xi"): _repeated(lambda g: np.zeros_like(g.t)),
    ("cat", "purity"): _Row(
        lambda g: ng.cat_purity_t(g.init, g.bath, g.t),
        _each(_cat_box_purity), "box quadrature"),
    ("cat", "xi"): _Row(_cat_xi, _each(_cat_xi_box),
                        "box quadrature, independent from t_pos on"),
    ("fock", "purity"): _Row(
        _fock_purity,
        lambda g: _lindblad_purities(g, nm.fock_state(g.init)),
        "Lindblad trajectory"),
    ("fock", "xi"): _Row(
        lambda g: ng.fock_xi_t(g.init, g.bath.mu_inf, g.t, g.bath.gamma),
        _each(_fock_xi_box), "box quadrature"),
    ("psi01", "purity"): _Row(
        lambda g: ng.psi01_purity_t(g.init, g.bath, g.t),
        lambda g: _lindblad_purities(g, nm.psi01_state(g.init)),
        "Lindblad trajectory"),
    ("two-mode", "purity"): _Row(
        lambda g: ps.purity_gaussian(g.state), _spectral_purity,
        "CM spectrum"),
    ("two-mode", "entropy"): _repeated(
        lambda g: ps.von_neumann_entropy(g.state)),
    ("two-mode", "tau"): _repeated(
        lambda g: ps.nonclassical_depth_gaussian(g.state)),
    ("two-mode", "logneg"): _Row(
        lambda g: tm.log_negativity(g.state), _mirrored_log_negativity,
        "mirrored CM spectrum"),
    ("two-mode", "mutual-info"): _repeated(
        lambda g: tm.mutual_information(g.state)),
    ("two-mode", "fidelity"): _repeated(
        lambda g: tm.teleportation_fidelity(g.state)),
    ("fidelity", "fidelity"): _Row(
        lambda g: tm.fidelity_t(g.init, g.s.channel, g.t),
        lambda g: tm.teleportation_fidelity(g.state), "CM invariants"),
    ("fidelity", "logneg"): _repeated(lambda g: tm.log_negativity(g.state)),
}


def run_scenario(s: Scenario) -> ResultTable:
    """Evaluate the scenario over its whole time grid: every closed-form
    column, then every oracle column, each from one row of the table.  A
    row labelled "none" is evaluated once: its oracle column is its plain
    column."""
    try:
        init = _INITIAL[s.kind](s.initial)
        grid = _Grid(s, init, _INITIAL_STATE.get(s.kind, lambda _: None)(init))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {s.kind} parameters: {exc}") from exc
    rows = [_TABLE[(s.kind, q)] for q in s.quantities]
    plain = [np.asarray(row.closed(grid), dtype=float) for row in rows]
    oracle = ([p if row.oracle is row.closed
               else np.asarray(row.oracle(grid), dtype=float)
               for row, p in zip(rows, plain)] if s.oracle else [])
    diffs = [np.abs(p - o) for p, o in zip(plain, oracle)]
    columns, values = ["t"], [s.times]
    for i, q in enumerate(s.quantities):
        columns.append(q)
        values.append(plain[i])
        if s.oracle:
            columns.extend([f"{q}_oracle", f"{q}_absdiff"])
            values.extend([oracle[i], diffs[i]])
    data = np.column_stack(values)
    if not np.all(np.isfinite(data)):
        raise ArithmeticError("non-finite entry in result table")
    paths = {q: row.path for q, row in zip(s.quantities, rows)}
    worst = float(np.max(diffs)) if diffs else None
    return ResultTable(columns=columns, rows=data.tolist(), paths=paths,
                       max_deviation=worst)


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
        _require(args.tolerance is None or 0.0 <= args.tolerance < math.inf,
                 f"--tolerance must be a finite number >= 0: {args.tolerance}")
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
    worst = table.max_deviation
    if worst is not None:
        print(f"max oracle deviation: {worst:.3e}")
        if args.tolerance is not None and worst > args.tolerance:
            print(f"deviation exceeds tolerance {args.tolerance:g}",
                  file=sys.stderr)
            return 2
    print(f"wrote {len(table.rows)} rows to {args.out}")
    return 0


def _cmd_selftest(_args) -> int:
    from . import acceptance  # imported for selftest alone

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

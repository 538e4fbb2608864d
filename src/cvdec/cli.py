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
    """A checked config, its initial block parsed; the columns read it."""

    kind: str
    initial: object
    baths: tuple[ch.BathParams, ...]
    times: np.ndarray
    quantities: tuple[str, ...]
    oracle: bool = False
    state0: ps.GaussianState | None = None

    @property
    def channel(self) -> ch.ChannelSpec:
        return ch.ChannelSpec(self.baths)

    @property
    def bath(self) -> ch.BathParams:
        return self.baths[0]

    @functools.cached_property
    def state(self) -> ps.GaussianState:
        """Evolved states, checked once: a (T, 2n, 2n) stack of matrices."""
        return ch.evolve_moments(self.state0, self.channel, self.times)


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


def _only(p: dict, *keys: str) -> dict:
    """p, once every key of it is one of keys."""
    unknown = [k for k in p if k not in keys]
    _require(not unknown, f"unknown key(s) {unknown}, expected {list(keys)}")
    return p


def _numbers(p: dict, **defaults: float | None) -> dict[str, float]:
    """The keys of defaults, each read from p as a JSON number (required
    where its default is None), once p has no other key."""
    _only(p, *defaults)
    return {k: _number(p, k, d) for k, d in defaults.items()}


def _two_mode_initial(p: dict) -> tm.StandardForm:
    if "a" in p:
        return tm.StandardForm(**_numbers(p, a=None, b=None, c1=None, c2=None))
    return tm.SqueezedThermalParams(
        **_numbers(p, mu=None, r=None)).standard_form


def _cat_initial(p: dict) -> ng.CatState:
    x0 = _only(p, "x0", "r0", "theta")["x0"]
    _require(isinstance(x0, list)
             and all(type(x) in (int, float) for x in x0),
             "x0 must be a list of JSON numbers")
    return ng.CatState(x0=np.asarray(x0, dtype=float),
                       r0=_number(p, "r0", 0.0), theta=_number(p, "theta", 0.0))


# kind -> (its bath count, the parser of its initial block, and the checked
# initial GaussianState of the parsed block, or None for a non-Gaussian kind)
_KINDS = {
    "single-gaussian": (1, lambda p: ps.SingleModeParams(
        **_numbers(p, mu=None, r=0.0, phi=0.0)), ps.GaussianState.from_params),
    "cat": (1, _cat_initial, None),
    "fock": (1, lambda p: _integer(_only(p, "n"), "n"), None),
    "psi01": (1, lambda p: _numbers(p, vartheta=None)["vartheta"], None),
    "two-mode": (2, _two_mode_initial, lambda sf: sf.state),
    "fidelity": (2, lambda p: tm.SqueezedThermalParams(
        **_numbers(p, mu=1.0, r=None)), lambda p: p.standard_form.state),
}


def parse_scenario(raw: dict) -> Scenario:
    """Check the whole config, the initial state's physicality included."""
    _require(isinstance(raw, dict), "scenario must be a JSON object")
    _only(raw, "kind", "initial", "baths", "grid", "quantities", "oracle")
    _require(_finite(raw), "every number in the scenario must be finite")
    kind = raw.get("kind")
    _require(isinstance(kind, str) and kind in _KINDS,
             f"kind must be one of {tuple(_KINDS)}")
    n_baths, parse, initial_state = _KINDS[kind]
    initial = raw.get("initial")
    _require(isinstance(initial, dict), "initial parameters are required")
    try:
        initial = parse(initial)
        state0 = initial_state(initial) if initial_state else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind} parameters: {exc}") from exc

    baths_raw = raw.get("baths")
    _require(isinstance(baths_raw, list) and baths_raw,
             "at least one bath is required")
    _require(len(baths_raw) == n_baths,
             f"kind {kind!r} requires exactly {n_baths} bath(s)")
    baths = []
    for item in baths_raw:
        _require(isinstance(item, dict) and "gamma" in item and "mu_inf" in item,
                 "each bath needs explicit gamma and mu_inf")
        try:
            baths.append(ch.BathParams(**_numbers(
                item, gamma=None, mu_inf=None, r_inf=0.0, phi_inf=0.0)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid bath parameters: {exc}") from exc

    grid = raw.get("grid")
    _require(isinstance(grid, dict), "a time grid is required")
    try:
        _only(grid, "start", "stop", "points", "spacing")
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
        _require(initial <= ng.FOCK_XI_MAX_N,
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

    return Scenario(kind=kind, initial=initial, baths=tuple(baths),
                    times=times, quantities=tuple(quantities),
                    oracle=oracle, state0=state0)


# ---------------------------------------------------------------------------
# the (kind, quantity) table: each quantity of each kind is a closed form and
# an oracle, both computed over the whole time grid of a Scenario
# ---------------------------------------------------------------------------

_Column = Callable[[Scenario], np.ndarray]


@dataclass(frozen=True)
class _Row:
    """One (kind, quantity): its closed form and its oracle over the grid,
    and the path the oracle takes ("none" when it repeats the closed form)."""

    closed: _Column
    oracle: _Column
    path: str


def _each(f: Callable[[Scenario, float], float]) -> _Column:
    """A column computed point by point: the box quadratures, which have
    no form over an array of times."""
    return lambda s: np.array([f(s, float(t)) for t in s.times])


def _single_entropy(s: Scenario) -> np.ndarray:
    # f(1/2μ) with μ = 1/(2√Det σ) capped at 1, as params_from_cm gives it
    mu = np.minimum(ps.purity_gaussian(s.state), 1.0)
    return ps.entropy_function(1.0 / (2.0 * mu))


def _mirrored_log_negativity(s: Scenario) -> np.ndarray:
    # symplectic spectrum of the mirror-reflected covariance matrix
    mirror = np.diag([1.0, 1.0, 1.0, -1.0])
    nu = np.min(ps.symplectic_eigenvalues(mirror @ s.state.cm @ mirror), axis=-1)
    return np.maximum(0.0, -np.log(2.0 * nu))


def _spectral_purity(s: Scenario) -> np.ndarray:
    # 1/(4 ν₊ν₋), from the state's spectrum rather than from a determinant
    nu = ps.symplectic_eigenvalues(s.state)
    return 1.0 / (4.0 * nu[..., 0] * nu[..., 1])


def _lindblad_purities(s: Scenario,
                       rho0: nm.TruncatedDensityMatrix) -> np.ndarray:
    return nm.lindblad_purities(rho0, s.bath.gamma, *ch.nm_from_bath(s.bath),
                                s.times)


def _fock_purity(s: Scenario) -> np.ndarray:
    if s.bath.is_thermal:
        return ng.fock_purity_thermal(s.initial, s.bath.mu_inf, s.times,
                                      s.bath.gamma)
    return ng.fock_purity_t(s.initial, s.bath, s.times)


def _fock_xi_box(s: Scenario, t: float) -> float:
    w = ng.fock_wigner_t(s.initial, s.bath.mu_inf, t, s.bath.gamma)
    return ng.negative_part(w, tol=1e-8).xi


def _cat_xi_box(s: Scenario, t: float) -> float:
    return ng.negative_part(ng.cat_wigner_t(s.initial, s.bath, t), tol=1e-8).xi


def _cat_xi(s: Scenario, t: float) -> float:
    # exactly 0 from ch.t_pos on, where W_t >= 0 for every input state;
    # the box quadrature before it
    return _cat_xi_box(s, t) if t < ch.t_pos(s.bath) else 0.0


def _cat_box_purity(s: Scenario, t: float) -> float:
    return ng.wigner_purity(ng.cat_wigner_t(s.initial, s.bath, t), tol=1e-9)


def _repeated(f: _Column) -> _Row:
    """A row whose oracle repeats its closed form: no independent check."""
    return _Row(f, f, "none")


_TABLE: dict[tuple[str, str], _Row] = {
    ("single-gaussian", "purity"): _Row(
        lambda s: ch.single_mode_purity_t(s.initial, s.bath, s.times),
        lambda s: ps.purity_gaussian(s.state), "CM determinant"),
    ("single-gaussian", "entropy"): _Row(
        _single_entropy, lambda s: ps.von_neumann_entropy(s.state),
        "CM spectrum"),
    ("single-gaussian", "tau"): _Row(
        lambda s: ch.single_mode_tau_t(s.initial, s.bath, s.times),
        lambda s: ps.nonclassical_depth_gaussian(s.state), "CM eigenvalues"),
    ("single-gaussian", "xi"): _repeated(lambda s: np.zeros_like(s.times)),
    ("cat", "purity"): _Row(
        lambda s: ng.cat_purity_t(s.initial, s.bath, s.times),
        _each(_cat_box_purity), "box quadrature"),
    ("cat", "xi"): _Row(_each(_cat_xi), _each(_cat_xi_box),
                        "box quadrature, independent from t_pos on"),
    ("fock", "purity"): _Row(
        _fock_purity,
        lambda s: _lindblad_purities(s, nm.fock_state(s.initial)),
        "Lindblad trajectory"),
    ("fock", "xi"): _Row(
        lambda s: ng.fock_xi_t(s.initial, s.bath.mu_inf, s.times,
                               s.bath.gamma),
        _each(_fock_xi_box), "box quadrature"),
    ("psi01", "purity"): _Row(
        lambda s: ng.psi01_purity_t(s.initial, s.bath, s.times),
        lambda s: _lindblad_purities(s, nm.psi01_state(s.initial)),
        "Lindblad trajectory"),
    ("two-mode", "purity"): _Row(
        lambda s: ps.purity_gaussian(s.state), _spectral_purity,
        "CM spectrum"),
    ("two-mode", "entropy"): _repeated(
        lambda s: ps.von_neumann_entropy(s.state)),
    ("two-mode", "tau"): _repeated(
        lambda s: ps.nonclassical_depth_gaussian(s.state)),
    ("two-mode", "logneg"): _Row(
        lambda s: tm.log_negativity(s.state), _mirrored_log_negativity,
        "mirrored CM spectrum"),
    ("two-mode", "mutual-info"): _repeated(
        lambda s: tm.mutual_information(s.state)),
    ("two-mode", "fidelity"): _repeated(
        lambda s: tm.teleportation_fidelity(s.state)),
    ("fidelity", "fidelity"): _Row(
        lambda s: tm.fidelity_t(s.initial, s.channel, s.times),
        lambda s: tm.teleportation_fidelity(s.state), "CM invariants"),
    ("fidelity", "logneg"): _repeated(lambda s: tm.log_negativity(s.state)),
}


def run_scenario(s: Scenario) -> ResultTable:
    """Evaluate the scenario over its whole time grid: every closed-form
    column, then every oracle column, each from one row of the table.  A
    row labelled "none" is evaluated once: its oracle column is its plain
    column."""
    rows = [_TABLE[(s.kind, q)] for q in s.quantities]
    plain = [np.asarray(row.closed(s), dtype=float) for row in rows]
    oracle = ([p if row.oracle is row.closed
               else np.asarray(row.oracle(s), dtype=float)
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

"""Checks of the CSVs that ``cvdec run`` writes.

Every check returns a list of problems (empty when the output is right).
The references are properties of the method or computations made here,
apart from cvdec: the bosonic entropy function, the binomial photon
distribution of a Fock state in a vacuum bath, and ∫|L_n(2u)| e^{-u} du
by ``scipy``.
"""

from __future__ import annotations

import csv
import io
import math
from functools import lru_cache

from scipy import integrate, special

# Largest |closed form - oracle| accepted, per (kind, quantity).  Gaussian
# closed forms and moment evolution agree to rounding; the truncated-Fock
# RK4 oracle to ~1e-11; the box quadratures to the tolerance they accept
# (1e-6 for the kinked |W| of ξ, 1e-9 requested for the smooth W²).  The
# cat ξ "oracle" is the closed-form call repeated, so it reads 0.
ORACLE_TOL = {
    **{("single-gaussian", q): 1e-10 for q in ("purity", "entropy", "tau")},
    **{("two-mode", q): 1e-10 for q in ("purity", "entropy", "tau", "logneg",
                                        "mutual-info", "fidelity")},
    ("fidelity", "fidelity"): 1e-10,
    ("fidelity", "logneg"): 1e-10,
    ("fock", "purity"): 1e-9,
    ("psi01", "purity"): 1e-9,
    ("fock", "xi"): 1e-6,
    ("cat", "purity"): 1e-8,
    ("cat", "xi"): 1e-8,
}

EXACT_TOL = 1e-12      # values fixed exactly at t = 0
FORMULA_TOL = 1e-9     # closed forms against a reference formula here
XI_TOL = 1e-8          # ξ against its reference, and ξ = 0 past t_nc
LONG_TIME_TOL = 1e-8   # μ(t) - μ∞ once γt >= 25


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def expected_columns(config: dict, oracle: bool) -> list[str]:
    cols = ["t"]
    for q in config["quantities"]:
        cols.append(q)
        if oracle:
            cols += [f"{q}_oracle", f"{q}_absdiff"]
    return cols


def entropy_f(x: float) -> float:
    """f(x) = (x+½)ln(x+½) - (x-½)ln(x-½)."""
    minus = x - 0.5
    return (x + 0.5) * math.log(x + 0.5) - (minus * math.log(minus)
                                            if minus > 0 else 0.0)


def fock_vacuum_purity(n: int, k: float) -> float:
    """Σ p_m², p_m = C(n,m) k^m (1-k)^(n-m): |n> after loss 1 - k."""
    return sum((math.comb(n, m) * k ** m * (1.0 - k) ** (n - m)) ** 2
               for m in range(n + 1))


@lru_cache(maxsize=None)
def fock_xi_t0(n: int) -> float:
    """ξ of |n> = ∫₀^∞ |L_n(2u)| e^{-u} du - 1, split at the nodes of L_n."""
    if n == 0:
        return 0.0
    nodes = [0.0] + [0.5 * x for x in special.roots_laguerre(n)[0]] + [math.inf]
    total = 0.0
    for lo, hi in zip(nodes, nodes[1:]):
        val, _ = integrate.quad(
            lambda u: abs(special.eval_laguerre(n, 2.0 * u)) * math.exp(-u),
            lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)
        total += val
    return total - 1.0


def _t_nc(bath: dict) -> float:
    return math.log(1.0 + bath["mu_inf"]) / bath["gamma"]


def _properties(config: dict, t: list[float], col: dict[str, list[float]]):
    """Yield (ok, message) for every property of the closed-form columns."""
    kind, init, baths = config["kind"], config["initial"], config["baths"]
    b0 = baths[0]
    at0 = [i for i, ti in enumerate(t) if ti == 0.0]

    def unit_range(q):
        bad = [v for v in col[q] if not 0.0 < v <= 1.0 + EXACT_TOL]
        yield not bad, f"{q} outside (0, 1]: {bad[:3]}"

    def equals_at_0(q, want, tol=EXACT_TOL):
        for i in at0:
            yield (abs(col[q][i] - want) <= tol,
                   f"{q}(0) = {col[q][i]!r}, expected {want!r}")

    def nonnegative(q):
        bad = [v for v in col[q] if v < 0.0]
        yield not bad, f"{q} negative: {bad[:3]}"

    if kind == "single-gaussian" and "purity" in col:
        yield from unit_range("purity")
        yield from equals_at_0("purity", init["mu"])
        if b0["gamma"] * t[-1] >= 25.0:
            dev = abs(col["purity"][-1] - b0["mu_inf"])
            yield (dev <= LONG_TIME_TOL,
                   f"purity at γt = {b0['gamma'] * t[-1]:.3g} is "
                   f"{dev:.3g} away from μ∞")
        if "entropy" in col:
            worst = max(abs(s - entropy_f(1.0 / (2.0 * mu)))
                        for s, mu in zip(col["entropy"], col["purity"]))
            yield worst <= FORMULA_TOL, f"entropy - f(1/2μ) reaches {worst:.3g}"

    if kind in ("two-mode", "fidelity"):
        for q in ("logneg", "mutual-info", "fidelity"):
            if q in col:
                yield from nonnegative(q)
        if "fidelity" in col and "mu" in init and "r" in init:
            want = 1.0 / (1.0 + math.exp(-2.0 * init["r"]) / math.sqrt(init["mu"]))
            yield from equals_at_0("fidelity", want)

    if kind in ("fock", "psi01", "cat") and "purity" in col:
        yield from unit_range("purity")
        yield from equals_at_0("purity", 1.0)
        if kind == "fock" and b0["mu_inf"] == 1.0 and not b0.get("r_inf"):
            worst = max(abs(p - fock_vacuum_purity(
                init["n"], math.exp(-b0["gamma"] * ti)))
                for p, ti in zip(col["purity"], t))
            yield (worst <= FORMULA_TOL,
                   f"Fock purity in a vacuum bath off Σp_m² by {worst:.3g}")

    if kind in ("fock", "cat") and "xi" in col:
        yield from nonnegative("xi")
        t_nc = _t_nc(b0)
        late = [x for x, ti in zip(col["xi"], t) if ti >= t_nc]
        yield (all(x <= XI_TOL for x in late),
               f"xi nonzero after t_nc: {max(late, default=0.0):.3g}")
        if kind == "fock":
            yield from equals_at_0("xi", fock_xi_t0(init["n"]), XI_TOL)


def check_table(config: dict, oracle: bool, text: str) -> list[str]:
    """Check one CSV written by ``cvdec run`` for ``config``."""
    header, rows = parse_csv(text)
    want = expected_columns(config, oracle)
    if header != want:
        return [f"columns {header}, expected {want}"]
    points = config["grid"]["points"]
    if len(rows) != points:
        return [f"{len(rows)} rows, expected {points}"]
    try:
        values = [[float(v) for v in row] for row in rows]
    except ValueError as exc:
        return [f"unparsable value: {exc}"]
    if not all(math.isfinite(v) for row in values for v in row):
        return ["non-finite value"]
    col = {name: [row[i] for row in values] for i, name in enumerate(header)}

    problems = []
    if oracle:
        for q in config["quantities"]:
            tol = ORACLE_TOL[(config["kind"], q)]
            recomputed = max(abs(a - b) for a, b in
                             zip(col[q], col[f"{q}_oracle"]))
            reported = max(col[f"{q}_absdiff"])
            if reported > tol or recomputed > tol:
                problems.append(
                    f"{q} oracle deviation {max(reported, recomputed):.3g} "
                    f"above {tol:g}")
    problems += [msg for ok, msg in _properties(config, col["t"], col)
                 if not ok]
    return problems


def check_pair(config: dict, plain_text: str, oracle_text: str) -> list[str]:
    """The closed-form columns of the plain and the ``--oracle`` run of
    one scenario must be byte-identical."""
    ph, prow = parse_csv(plain_text)
    oh, orow = parse_csv(oracle_text)
    names = ["t", *config["quantities"]]
    try:
        pi = [ph.index(n) for n in names]
        oi = [oh.index(n) for n in names]
    except ValueError:
        return ["closed-form column missing"]
    if len(prow) != len(orow):
        return ["plain and oracle runs differ in length"]
    for k, (p, o) in enumerate(zip(prow, orow)):
        if [p[i] for i in pi] != [o[i] for i in oi]:
            return [f"closed-form columns differ under --oracle at row {k}"]
    return []

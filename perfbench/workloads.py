"""The three workloads, each a list of ``cvdec run`` scenarios.

A scenario is one JSON config plus the modes it runs in: plain (closed
forms only) and/or ``--oracle``.  Seeded draws only touch inputs that leave
the amount of work unchanged: state and bath parameters on the Gaussian
workload, where every point costs the same; couplings (with the grid
scaled by 1/γ, so γt is fixed), squeezing angles and phases elsewhere.
Photon numbers, purities and squeezing moduli of the non-Gaussian baths
and all grid sizes are fixed, because the master-equation dimension, the
RK4 step count and the quadrature depth depend on them.  The Fock ξ oracle
points are fixed inputs: whether the box quadrature converges there is
erratic in (n, t), so they are not drawn.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PLAIN = (False,)
BOTH = (False, True)


@dataclass(frozen=True)
class Scenario:
    name: str
    config: dict
    modes: tuple[bool, ...] = BOTH


def _grid(start: float, stop: float, points: int) -> dict:
    return {"start": start, "stop": stop, "points": points}


def _bath(gamma, mu_inf, r_inf=0.0, phi_inf=0.0) -> dict:
    return {"gamma": gamma, "mu_inf": mu_inf, "r_inf": r_inf,
            "phi_inf": phi_inf}


def _nu_minus(a, b, c1, c2) -> float:
    """Smallest symplectic eigenvalue of a standard-form covariance matrix."""
    det = (a * b - c1 * c1) * (a * b - c2 * c2)
    delta = a * a + b * b + 2.0 * c1 * c2
    return math.sqrt(max(0.5 * (delta - math.sqrt(max(delta * delta - 4.0 * det,
                                                       0.0))), 0.0))


def _standard_form(rng: random.Random) -> dict:
    """A physical standard form with a != b and |c1| < |c2| (rejection)."""
    while True:
        a = rng.uniform(0.8, 1.6)
        b = rng.uniform(0.8, 1.6)
        c2 = -rng.uniform(0.2, 0.9) * min(a, b)
        c1 = -c2 * rng.uniform(0.4, 0.95)
        if abs(a - b) > 0.05 and _nu_minus(a, b, c1, c2) >= 0.5 + 1e-6:
            return {"a": a, "b": b, "c1": c1, "c2": c2}


def gaussian_grid(rng: random.Random) -> list[Scenario]:
    two_mode_q = ["purity", "entropy", "tau", "logneg", "mutual-info",
                  "fidelity"]
    out = []
    for name, r_inf in (("single-squeezed-bath", rng.uniform(0.1, 0.8)),
                        ("single-thermal-bath", 0.0)):
        g = rng.uniform(0.5, 2.0)
        out.append(Scenario(name, {
            "kind": "single-gaussian",
            "initial": {"mu": rng.uniform(0.5, 1.0), "r": rng.uniform(0.0, 1.0),
                        "phi": rng.uniform(-1.5, 1.5)},
            "baths": [_bath(g, rng.uniform(0.3, 1.0), r_inf,
                            rng.uniform(0.0, math.pi))],
            # γ t_max = 30: the purity has reached μ∞ to ~1e-13
            "grid": _grid(0.0, 30.0 / g, 400),
            "quantities": ["purity", "entropy", "tau"]}))

    g = rng.uniform(0.5, 2.0)
    # equal couplings, bath 1 at zero angle: coefficient-polynomial path
    out.append(Scenario("two-mode-equal", {
        "kind": "two-mode",
        "initial": {"mu": rng.uniform(0.5, 1.0), "r": rng.uniform(0.2, 1.2)},
        "baths": [_bath(g, rng.uniform(0.3, 1.0), rng.uniform(0.0, 0.6)),
                  _bath(g, rng.uniform(0.3, 1.0), rng.uniform(0.0, 0.6),
                        rng.uniform(0.0, math.pi))],
        "grid": _grid(0.0, 10.0 / g, 250),
        "quantities": two_mode_q}))

    g = rng.uniform(0.5, 1.5)
    # unequal couplings: direct-determinant path
    out.append(Scenario("two-mode-unequal", {
        "kind": "two-mode",
        "initial": _standard_form(rng),
        "baths": [_bath(g, rng.uniform(0.3, 1.0)),
                  _bath(g * rng.uniform(1.5, 3.0), rng.uniform(0.3, 1.0),
                        rng.uniform(0.0, 0.6), rng.uniform(0.0, math.pi))],
        "grid": _grid(0.0, 10.0 / g, 175),
        "quantities": two_mode_q}))

    g = rng.uniform(0.5, 2.0)
    mu_b = rng.uniform(0.3, 1.0)
    out.append(Scenario("fidelity", {
        "kind": "fidelity",
        "initial": {"mu": rng.uniform(0.5, 1.0), "r": rng.uniform(0.2, 1.2)},
        "baths": [_bath(g, mu_b), _bath(g, mu_b)],
        "grid": _grid(0.0, 10.0 / g, 250),
        "quantities": ["fidelity", "logneg"]}))
    return out


def fock_lindblad(rng: random.Random) -> list[Scenario]:
    def fock(name, n, mu_inf, r_inf, stop, points, modes, kind="fock"):
        g = rng.uniform(0.5, 2.0)
        initial = ({"n": n} if kind == "fock"
                   else {"vartheta": rng.uniform(0.0, 2.0 * math.pi)})
        phi = rng.uniform(0.0, math.pi) if r_inf else 0.0
        return Scenario(name, {
            "kind": kind, "initial": initial,
            "baths": [_bath(g, mu_inf, r_inf, phi)],
            "grid": _grid(0.0, stop / g, points),
            "quantities": ["purity"]}, modes)

    return [
        # oracle on short grids (each point restarts RK4 from t = 0)
        fock("fock2-thermal", 2, 0.5, 0.0, 1.0, 4, BOTH),
        fock("fock4-vacuum", 4, 1.0, 0.0, 1.0, 4, BOTH),
        fock("fock1-squeezed", 1, 0.8, 0.2, 1.0, 2, BOTH),
        fock("psi01-squeezed", None, 0.8, 0.2, 1.0, 2, BOTH, kind="psi01"),
        # closed forms on long grids
        fock("fock5-thermal-long", 5, 0.5, 0.0, 5.0, 250, PLAIN),
        fock("fock3-vacuum-long", 3, 1.0, 0.0, 5.0, 250, PLAIN),
        fock("fock2-squeezed-long", 2, 0.8, 0.2, 5.0, 16, PLAIN),
        fock("psi01-squeezed-long", None, 0.8, 0.2, 5.0, 1000, PLAIN,
             kind="psi01"),
    ]


# Fock ξ box-quadrature oracle points (n, μ∞, t) at γ = 1, all before
# t_nc = ln 1.5.  The first exits 2 today: the |W| quadrature stops at an
# error estimate of 1.12e-6, above the 1e-6 that _box_negative_part accepts.
FOCK_XI_ORACLE_POINTS = ((2, 0.5, 0.0), (2, 0.5, 0.3))


def wigner_negativity(rng: random.Random) -> list[Scenario]:
    out = []
    for n, mu_inf in ((1, 0.5), (2, 0.5), (3, 0.7)):
        g = rng.uniform(0.5, 2.0)
        out.append(Scenario(f"fock{n}-xi-long", {
            "kind": "fock", "initial": {"n": n},
            "baths": [_bath(g, mu_inf)],
            "grid": _grid(0.0, 2.0 / g, 100),
            "quantities": ["xi"]}, PLAIN))
    for n, mu_inf, t in FOCK_XI_ORACLE_POINTS:
        out.append(Scenario(f"fock{n}-xi-oracle-t{t:g}", {
            "kind": "fock", "initial": {"n": n},
            "baths": [_bath(1.0, mu_inf)],
            "grid": _grid(t, t, 1),
            "quantities": ["xi"]}, BOTH))

    g = rng.uniform(0.5, 2.0)
    t_nc = math.log(1.5) / g
    out.append(Scenario("cat-xi-after-tnc", {
        "kind": "cat", "initial": {"x0": [2.0, 0.0]},
        "baths": [_bath(g, 0.5)],
        "grid": _grid(1.01 * t_nc, 3.0 / g, 100),
        "quantities": ["xi"]}, PLAIN))

    g = rng.uniform(0.5, 2.0)
    out.append(Scenario("cat-purity", {
        "kind": "cat", "initial": {"x0": [2.0, 0.0]},
        "baths": [_bath(g, 0.5)],
        "grid": _grid(0.0, 2.0 / g, 250),
        "quantities": ["purity"]}, BOTH))
    return out


WORKLOADS = {
    "gaussian-grid": gaussian_grid,
    "fock-lindblad": fock_lindblad,
    "wigner-negativity": wigner_negativity,
}


def scenarios(workload: str, seed: int) -> list[Scenario]:
    return WORKLOADS[workload](random.Random(seed))

"""Span tracing of cvdec from outside the package.

:func:`install` wraps every public function of the cvdec modules at each
place where callers look it up: the defining module's attribute and every
module that bound the same object by ``from ... import`` (``nongaussian``
binds ``integrate_phase_space``, ``two_mode`` binds ``evolve_moments``).
Each call records a span (id, name, start, end, parent, thread, scenario)
in memory; :meth:`Tracer.metrics` reduces them to the per-layer metrics
and :meth:`Tracer.write` dumps them once the run ends.
"""

from __future__ import annotations

import csv
import functools
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field

MODULES = ("phase_space", "channels", "numerics", "nongaussian", "two_mode",
           "cli")

# the span under which pool threads attach their top-level spans
ROOT_SPAN = "cli.run_scenario"

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("cli.run_scenario.self_s", "s"),
    ("cli.emit.s", "s"),
    ("channels.evolve_moments.calls", "count"),
    ("channels.evolve_moments.s", "s"),
    ("channels.single_mode_purity_t.calls", "count"),
    ("phase_space.symplectic_eigenvalues.calls", "count"),
    ("phase_space.symplectic_eigenvalues.s", "s"),
    ("two_mode.evolved_invariants.calls", "count"),
    ("two_mode.evolved_invariants.s", "s"),
    ("nongaussian.fock_purity_t.calls", "count"),
    ("nongaussian.fock_purity_t.s", "s"),
    ("numerics.lindblad_evolve.calls", "count"),
    ("numerics.lindblad_evolve.s", "s"),
    ("numerics.lindblad_evolve.sim_time", "1"),
    ("numerics.lindblad_evolve.dim_max", "count"),
    ("nongaussian.negative_part.calls", "count"),
    ("nongaussian.negative_part.s", "s"),
    ("nongaussian.wigner_purity.s", "s"),
    ("numerics.integrate_phase_space.calls", "count"),
    ("numerics.integrate_phase_space.s", "s"),
    ("numerics.integrate_phase_space.points", "count"),
    ("numerics.integrate_phase_space.unconverged", "count"),
    ("trace.overhead", "1"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    scenario: str | None


def _observe_lindblad(counters, args, kwargs, result, exc):
    rho0 = kwargs.get("rho0", args[0] if args else None)
    bath = kwargs.get("bath", args[1] if len(args) > 1 else None)
    t = kwargs.get("t", args[2] if len(args) > 2 else None)
    counters["numerics.lindblad_evolve.sim_time"] += bath.gamma * float(t)
    counters["numerics.lindblad_evolve.dim_max"] = max(
        counters["numerics.lindblad_evolve.dim_max"], rho0.dim)


def _observe_quadrature(counters, args, kwargs, result, exc):
    if exc is not None:
        res = getattr(exc, "result", None)
        if type(exc).__name__ == "QuadratureError":
            counters["numerics.integrate_phase_space.unconverged"] += 1
    else:
        res = result
    if res is not None:
        counters["numerics.integrate_phase_space.points"] += res.evaluations


# counters read from the arguments or result of one function
OBSERVERS = {
    "numerics.lindblad_evolve": _observe_lindblad,
    "numerics.integrate_phase_space": _observe_quadrature,
}


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(
        default_factory=lambda: {name: 0 for name, _ in PER_LAYER})
    scenario: str | None = None
    _root: int | None = None
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)

    def reset(self):
        with self._lock:
            self.spans = []
            self.counters = {name: 0 for name, _ in PER_LAYER}

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        is_root = name == ROOT_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else self._root
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            if is_root:
                self._root = sid
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
                span = Span(sid, name, start, end, parent,
                            threading.get_ident(), self.scenario)
                with self._lock:
                    self.spans.append(span)
                    if observe is not None:
                        observe(self.counters, args, kwargs, result, exc)

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        by_name: dict[str, list[Span]] = {}
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = dict(self.counters)
        for name, _ in PER_LAYER:
            layer, _, stat = name.rpartition(".")
            spans = by_name.get(layer, [])
            if stat == "calls":
                out[name] = len(spans)
            elif stat == "s":
                out[name] = sum(s.end - s.start for s in spans)
            elif stat == "self_s":
                out[name] = sum(
                    (s.end - s.start) - covered(s, children.get(s.id, []))
                    for s in spans)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "thread",
                        "scenario"])
            for s in self.spans:
                w.writerow([s.id, s.name, f"{s.start:.9f}", f"{s.end:.9f}",
                            "" if s.parent is None else s.parent, s.thread,
                            s.scenario or ""])


def covered(span: Span, kids: list[Span]) -> float:
    """Length of the part of ``span`` covered by the union of ``kids``,
    which may overlap when they ran on different pool threads."""
    total = 0.0
    cur_lo = cur_hi = None
    for k in sorted(kids, key=lambda s: s.start):
        lo, hi = max(k.start, span.start), min(k.end, span.end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def install(tracer: Tracer, package):
    """Wrap the public functions of cvdec's modules; returns a function
    that puts the original ones back."""
    modules = {m: getattr(package, m) for m in MODULES}
    wrapped = {}
    for mname, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(f"{mname}.{attr}", obj))
    replaced = []
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                replaced.append((mod, attr, obj))

    def uninstall():
        for mod, attr, obj in replaced:
            setattr(mod, attr, obj)

    return uninstall

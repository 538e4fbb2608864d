"""Tests of the span reduction behind the per-layer metrics.

    python3 -m pytest perfbench/test_spans.py -q
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import cvdec  # noqa: E402
from cvdec import nongaussian, numerics, two_mode  # noqa: E402


def _span(sid, name, start, end, parent=None):
    return spans.Span(sid, name, start, end, parent, 0, None)


def test_covered_merges_overlapping_children():
    root = _span(1, "cli.run_scenario", 0.0, 10.0)
    kids = [_span(2, "a", 1.0, 3.0, 1), _span(3, "b", 2.0, 4.0, 1),
            _span(4, "c", 6.0, 7.0, 1), _span(5, "d", 9.5, 12.0, 1)]
    assert spans.covered(root, kids) == pytest.approx(3.0 + 1.0 + 0.5)


def test_metrics_count_time_and_self_time():
    tracer = spans.Tracer()
    tracer.spans = [
        _span(1, "cli.run_scenario", 0.0, 10.0),
        _span(2, "channels.evolve_moments", 1.0, 4.0, 1),
        _span(3, "channels.evolve_moments", 2.0, 5.0, 1),
        _span(4, "phase_space.symplectic_eigenvalues", 2.5, 3.0, 3),
    ]
    m = tracer.metrics()
    assert m["channels.evolve_moments.calls"] == 2
    assert m["channels.evolve_moments.s"] == pytest.approx(6.0)
    assert m["phase_space.symplectic_eigenvalues.calls"] == 1
    # children cover [1, 5]; grandchildren do not count again
    assert m["cli.run_scenario.self_s"] == pytest.approx(6.0)


def test_pool_thread_spans_attach_to_the_running_scenario():
    tracer = spans.Tracer()
    leaf = tracer.wrap("channels.evolve_moments", lambda: None)

    def run_scenario():
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap("cli.run_scenario", run_scenario)()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["channels.evolve_moments"].parent == \
        by_name["cli.run_scenario"].id
    assert by_name["cli.run_scenario"].parent is None


def test_raised_quadrature_counts_points_and_unconverged():
    tracer = spans.Tracer()
    best = numerics.QuadratureResult(value=1.0, error=1e-6, converged=False,
                                     evaluations=123)

    def integrate(f, spec):
        raise numerics.QuadratureError("did not converge", best)

    wrapped = tracer.wrap("numerics.integrate_phase_space", integrate)
    with pytest.raises(numerics.QuadratureError):
        wrapped(None, None)
    m = tracer.metrics()
    assert m["numerics.integrate_phase_space.points"] == 123
    assert m["numerics.integrate_phase_space.unconverged"] == 1
    assert m["numerics.integrate_phase_space.calls"] == 1


def test_uninstall_restores_every_binding():
    before = (numerics.integrate_phase_space,
              nongaussian.integrate_phase_space, two_mode.evolve_moments)
    uninstall = spans.install(spans.Tracer(), cvdec)
    try:
        assert nongaussian.integrate_phase_space is not before[1]
        assert two_mode.evolve_moments is not before[2]
    finally:
        uninstall()
    assert (numerics.integrate_phase_space,
            nongaussian.integrate_phase_space,
            two_mode.evolve_moments) == before

"""Benchmark of ``cvdec run``: one workload of scenarios in one process.

    python3 perfbench/run.py --workload gaussian-grid --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each round calls
``cvdec.cli.main(["run", ...])`` once per scenario and mode (plain,
``--oracle``) with the program's default thread pool, then checks every CSV
the round wrote.  Rounds repeat while the next one is expected to end
within ``--seconds`` (at least one).  A call's time is the CPU time the
process spends in it, summed over all its threads; its median across rounds
is reported.  The last line of standard output is a JSON object with
``correct``, ``attempted`` (scenario runs per round), ``failed`` (runs per
round that exited 2 or raised) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


@dataclass
class Round:
    """One pass over every (scenario, mode) call of a workload."""

    times: dict = field(default_factory=dict)  # (scenario, oracle) -> CPU s
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return sum(self.times.values())


def summed_median(rounds: list[Round], oracle: bool) -> float:
    """Σ over the calls of one mode of each call's median time across
    rounds, which damps a burst of machine noise in a single round."""
    keys = [k for k in rounds[0].times if k[1] == oracle]
    return sum(statistics.median(r.times[k] for r in rounds) for k in keys)


def invoke(cli, argv) -> tuple[int | str, str]:
    """Call the CLI entry point; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an escaped error is a failed run
            code = f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


def run_round(cli, checks, plan, workdir: Path, tracer=None) -> Round:
    """Run every scenario of the plan once per mode, then check the CSVs."""
    rnd = Round()
    written = []
    for sc, cfg_path in plan:
        for oracle in sc.modes:
            label = f"{sc.name}{'-oracle' if oracle else ''}"
            if tracer is not None:
                tracer.scenario = label
            csv_path = workdir / f"{label}.csv"
            argv = ["run", str(cfg_path), "--out", str(csv_path)]
            if oracle:
                argv.append("--oracle")
            # CPU time, not wall time: the pool threads' waits for the GIL
            # and the time the host steals lengthen a call's wall time by a
            # different amount on every call; CPU time counts neither
            start = time.process_time()
            code, err = invoke(cli, argv)
            rnd.times[(sc.name, oracle)] = time.process_time() - start
            rnd.attempted += 1
            if code == 0:
                written.append((sc, oracle, csv_path))
            elif code == 2 or isinstance(code, str):
                rnd.failed += 1
                print(f"failed: {sc.name} oracle={oracle}: "
                      f"{err.strip() or code}", file=sys.stderr)
            else:
                rnd.problems.append(f"{sc.name}: exit {code}: {err.strip()}")
    rnd.problems += check_outputs(checks, written)
    return rnd


def check_outputs(checks, written) -> list[str]:
    problems = []
    texts = {}
    for sc, oracle, path in written:
        text = path.read_text(encoding="utf-8")
        texts[(sc.name, oracle)] = text
        problems += [f"{path.name}: {p}"
                     for p in checks.check_table(sc.config, oracle, text)]
    for sc, oracle, _ in written:
        if oracle and (sc.name, False) in texts:
            problems += [f"{sc.name}: {p}" for p in checks.check_pair(
                sc.config, texts[(sc.name, False)], texts[(sc.name, True)])]
    return problems


def run_rounds(round_fn, seconds) -> list:
    """Whole rounds while the next one is expected to end within
    ``seconds`` of the first one's start; at least one."""
    rounds = []
    start = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        rounds.append(round_fn())
        last = time.perf_counter() - t0
    return rounds


def per_round_counts(rounds: list[Round]) -> tuple[int, int]:
    """(attempted, failed) of one round.  Every round makes the same calls,
    so the counts do not depend on how many rounds fit in a run; ``failed``
    is the most runs that failed in any one round."""
    return rounds[0].attempted, max(r.failed for r in rounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cvdec" / "cli.py").is_file():
        print(f"perfbench: no cvdec sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the program's default pool size, whatever the caller's environment
    os.environ.pop("CVDEC_THREADS", None)

    import cvdec
    import cvdec.cli as cli

    import checks
    import spans
    import workloads

    if Path(cvdec.__file__).resolve().parent != (src / "cvdec").resolve():
        print(f"perfbench: cvdec imported from {cvdec.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    plan = []
    for sc in workloads.scenarios(args.workload, args.seed):
        path = workdir / f"{sc.name}.json"
        path.write_text(json.dumps(sc.config, indent=1), encoding="utf-8")
        plan.append((sc, path))
    setup_s = time.perf_counter() - _T0

    # ru_maxrss after each round.  The peak is read after the first one: a
    # second round adds ~7% on wigner-negativity, and how many rounds fit
    # in --seconds depends on speed, so a later peak would be counted as
    # memory used by a faster program.
    peaks_kb = []

    def one_round(tracer=None):
        rnd = run_round(cli, checks, plan, workdir, tracer)
        peaks_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return rnd

    if args.trace:
        # a warm-up pass over the plain calls takes the first-call costs
        # (lazy imports, pool start-up), then untraced and traced rounds
        # alternate; the overhead compares their medians
        warm_up = run_round(cli, checks, [
            (dataclasses.replace(sc, modes=workloads.PLAIN), path)
            for sc, path in plan], workdir)
        tracer = spans.Tracer()
        per_round = []

        def pair():
            untraced = one_round()
            tracer.reset()
            uninstall = spans.install(tracer, cvdec)
            try:
                traced = one_round(tracer)
            finally:
                uninstall()
            per_round.append(tracer.metrics())
            return untraced, traced

        pairs = run_rounds(pair, args.seconds)
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        # the warm-up's CSVs are checked too; it comes last because it
        # makes only the plain calls, and the counts come from rounds[0]
        rounds = [*untraced, *traced, warm_up]
        layer = {name: statistics.median(m[name] for m in per_round)
                 for name, _ in spans.PER_LAYER if name != "trace.overhead"}
        untraced_s = statistics.median(r.cpu_s for r in untraced)
        traced_s = statistics.median(r.cpu_s for r in traced)
        layer["trace.overhead"] = traced_s / untraced_s - 1.0
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.PER_LAYER}
        tracer.write(workdir / "spans.csv")
        (workdir / "layers.json").write_text(json.dumps(
            {"untraced_s": untraced_s, "traced_s": traced_s,
             "metrics": metrics}, indent=1), encoding="utf-8")
    else:
        rounds = run_rounds(one_round, args.seconds)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "plain_s": {"value": summed_median(rounds, False), "unit": "s"},
            "oracle_s": {"value": summed_median(rounds, True), "unit": "s"},
            "peak_rss_mb": {"value": peaks_kb[0] / 1024.0, "unit": "MB"},
        }

    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    attempted, failed = per_round_counts(rounds)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(f"rounds: {len(rounds)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

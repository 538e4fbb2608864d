"""Write the CSV and the exit code of every benchmark scenario, or list
how two such outputs differ.

    python3 tools/golden_csvs.py SRC OUT
    python3 tools/golden_csvs.py --compare OUT_A OUT_B

SRC is the root of a cvdec source checkout; the ``cvdec`` under its
``src/`` is the one that runs.  The scenarios come from
``perfbench/workloads.py`` beside this script: the three workloads at seeds
1-3, each scenario in every mode it runs in (plain, ``--oracle``).  OUT gets
one directory per workload and seed, holding each scenario's JSON config,
its ``<scenario>[-oracle].csv`` and ``exit_codes.txt``.

To see what a change does to the output, run the script against a checkout
of the parent commit and one of the change, then compare the two OUT
directories with ``--compare``.  It prints one line per differing CSV cell
(file, row, column, both values as ``float.hex`` and their distance in
units in the last place), per differing header or row count, per differing
exit code and per file that only one side has, and exits 1 if there is any.
It ends with one line per CSV column that changed: how many cells, the
largest |Δ| and the largest |Δ| relative to the larger magnitude (ulps
mislead across 0, as for an ``*_absdiff`` cell that was 0); then with one
line per CSV file that changed and how many of its cells did.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import io
import json
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def _ordinal(x: float) -> int:
    """Position of x among the doubles, so that adjacent doubles differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _cell(path: str, row: int, column: str, a: str, b: str) -> str:
    x, y = float(a), float(b)
    ulps = abs(_ordinal(x) - _ordinal(y))
    return f"{path}: row {row}, {column}: {x.hex()} vs {y.hex()} ({ulps} ulp)"


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _compare_csv(name: str, a: Path, b: Path, cells: list) -> list[str]:
    ra, rb = _read_csv(a), _read_csv(b)
    if not ra or not rb or ra[0] != rb[0]:
        return [f"{name}: header {ra[:1]} vs {rb[:1]}"]
    out = []
    if len(ra) != len(rb):
        out.append(f"{name}: {len(ra) - 1} vs {len(rb) - 1} rows")
    for r, (row_a, row_b) in enumerate(zip(ra[1:], rb[1:]), start=1):
        for col, x, y in zip(ra[0], row_a, row_b):
            if x != y:
                out.append(_cell(name, r, col, x, y))
                cells.append((name, col, float(x), float(y)))
    return out


def _compare_codes(name: str, a: Path, b: Path) -> list[str]:
    la = a.read_text(encoding="utf-8").splitlines()
    lb = b.read_text(encoding="utf-8").splitlines()
    out = [f"{name}: {x!r} vs {y!r}" for x, y in zip(la, lb) if x != y]
    out.extend(f"{name}: {x!r} vs nothing" for x in la[len(lb):])
    out.extend(f"{name}: nothing vs {y!r}" for y in lb[len(la):])
    return out


def compare(out_a: Path, out_b: Path, cells: list | None = None) -> list[str]:
    """One line per difference between two OUT directories; each differing
    CSV cell is also appended to ``cells`` as (file, column, a, b)."""
    cells = [] if cells is None else cells
    names = lambda d: {p.relative_to(d).as_posix() for p in d.rglob("*")
                       if p.suffix == ".csv" or p.name == "exit_codes.txt"}
    in_a, in_b = names(out_a), names(out_b)
    lines = []
    for name in sorted(in_a | in_b):
        if name not in in_b or name not in in_a:
            side = out_a if name in in_a else out_b
            lines.append(f"{name}: only in {side}")
        elif name.endswith(".csv"):
            lines.extend(_compare_csv(name, out_a / name, out_b / name, cells))
        else:
            lines.extend(_compare_codes(name, out_a / name, out_b / name))
    return lines


def column_summary(cells: list) -> list[str]:
    """One line per column of (file, column, a, b) cells: the cells changed,
    the largest |a - b| and the largest |a - b| / max(|a|, |b|)."""
    by_column: dict[str, list[tuple[float, float]]] = {}
    for _, col, x, y in cells:
        d, scale = abs(x - y), max(abs(x), abs(y))
        by_column.setdefault(col, []).append((d, d / scale if scale else 0.0))
    return [f"{col}: {len(ds)} cell(s) changed, max |Δ| "
            f"{max(d for d, _ in ds):.3g}, max relative Δ "
            f"{max(r for _, r in ds):.3g}"
            for col, ds in sorted(by_column.items())]


def file_summary(cells: list) -> list[str]:
    """One line per file of (file, column, a, b) cells: the cells changed."""
    counts = collections.Counter(name for name, *_ in cells)
    return [f"{name}: {n} cell(s) changed" for name, n in sorted(counts.items())]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--compare", action="store_true",
                    help="compare two OUT directories instead of writing one")
    ap.add_argument("src", type=Path,
                    help="root of a cvdec source checkout (OUT_A to compare)")
    ap.add_argument("out", type=Path,
                    help="directory to write into (OUT_B to compare)")
    args = ap.parse_args(argv)

    if args.compare:
        cells = []
        lines = compare(args.src, args.out, cells)
        for line in (lines + [f"{len(lines)} difference(s)"]
                     + column_summary(cells) + file_summary(cells)):
            print(line)
        return 1 if lines else 0

    pkg = (args.src / "src" / "cvdec").resolve()
    if not (pkg / "cli.py").is_file():
        print(f"golden_csvs: no cvdec sources under {args.src}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(pkg.parent), str(ROOT / "perfbench")]
    import cvdec.cli as cli
    import workloads

    if Path(cli.__file__).resolve().parent != pkg:
        print(f"golden_csvs: cvdec imported from {cli.__file__}, not from "
              f"{pkg}", file=sys.stderr)
        return 2

    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            outdir = args.out / f"{workload}-seed{seed}"
            outdir.mkdir(parents=True, exist_ok=True)
            codes = []
            for sc in workloads.scenarios(workload, seed):
                cfg = outdir / f"{sc.name}.json"
                cfg.write_text(json.dumps(sc.config, indent=1),
                               encoding="utf-8")
                for oracle in sc.modes:
                    label = f"{sc.name}{'-oracle' if oracle else ''}"
                    argv = ["run", str(cfg), "--out", str(outdir / f"{label}.csv")]
                    if oracle:
                        argv.append("--oracle")
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                    codes.append(f"{label} {code}\n")
            (outdir / "exit_codes.txt").write_text("".join(codes),
                                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

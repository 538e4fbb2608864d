"""Write the CSV and the exit code of every benchmark scenario.

    python3 tools/golden_csvs.py SRC OUT

SRC is the root of a cvdec source checkout; the ``cvdec`` under its
``src/`` is the one that runs.  The scenarios come from
``perfbench/workloads.py`` beside this script: the three workloads at seeds
1-3, each scenario in every mode it runs in (plain, ``--oracle``).  OUT gets
one directory per workload and seed, holding each scenario's JSON config,
its ``<scenario>[-oracle].csv`` and ``exit_codes.txt``.

To see what a change does to the output, run the script against a checkout
of the parent commit and one of the change, then ``diff -r`` the two OUT
directories.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("src", type=Path, help="root of a cvdec source checkout")
    ap.add_argument("out", type=Path, help="directory to write into")
    args = ap.parse_args(argv)

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

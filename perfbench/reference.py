"""Reference timings that the benchmark leaves out because they are too
long to repeat: cat ξ before t_nc per grid point, and ``cvdec selftest``
per criterion.  Not gated; printed for the README.

    python3 perfbench/reference.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from cvdec import acceptance  # noqa: E402
from cvdec import nongaussian as ng  # noqa: E402
from cvdec.channels import BathParams  # noqa: E402


def main() -> int:
    cat = ng.CatState(x0=np.array([2.0, 0.0]))
    start = time.perf_counter()
    res = ng.negative_part(ng.cat_wigner_t(cat, BathParams(1.0, 0.5), 0.2),
                           tol=1e-8)
    print(f"cat xi at t=0.2 (before t_nc = ln 1.5): xi={res.xi:.9g} "
          f"est_error={res.est_error:.3g} "
          f"{time.perf_counter() - start:.1f} s")
    total = 0.0
    for number in range(1, 11):
        start = time.perf_counter()
        ok, detail = acceptance.run_criterion(number)
        elapsed = time.perf_counter() - start
        total += elapsed
        print(f"selftest criterion {number}: {'PASS' if ok else 'FAIL'} "
              f"{elapsed:.1f} s")
    print(f"selftest total: {total:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

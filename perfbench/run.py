"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload para300 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` next
to this directory and from nowhere else.  Generated inputs live in a
temporary directory inside the checkout and are removed at exit.  The last
line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds the
environment, the number of rounds, quality figures and any failures.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` its per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one BLAS thread, at or below nproc: with two, a 64x64 GEMM was seen to take
# 300x its usual time, and the architecture ranking moved
BLAS_THREADS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "argseg" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'argseg'} is missing",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy loads BLAS
    sys.path.insert(0, str(src))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")
    out = harness.run_in_checkout(harness.WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace), ROOT)
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one process.

Usage, from the repository root::

    python3 bench/run.py --workload {train,backtest,predict} --seed N \\
        --seconds S --trace {0,1}

Prints a JSON report (environment fingerprint, the named metrics, sample
counts, any failed checks) and, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. Work files go under
``.bench_work/`` and are removed at exit, except the span file of a traced
run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "backtest", "predict"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the reference case's outputs instead of checking them")
    args = parser.parse_args(argv)

    # One process, one BLAS thread (read when numpy loads). The batch-7
    # training GEMMs are too small to split, and a second thread on a shared
    # core makes every GEMM wait for the slower of two cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if not (ROOT / "src" / "priceband" / "cli.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import measure

    report, result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, ROOT, args.write_reference
    )
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

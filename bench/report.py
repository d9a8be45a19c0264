"""Print every metric of every workload by name, with its unit.

Usage, from the repository root::

    python3 bench/report.py [--seed N] [--seconds S]

Each workload runs twice, each time in its own process: untraced for the
end-to-end metrics and traced for the per-layer ones. That is every workload
of ``run.py``, ``predict`` included, which ``BENCHMARK.json`` leaves out
while its artifacts fail their checks (see README.md). The table also shows
the named metrics each workload's command time stands for, the error rate
and every failed check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("train", "backtest", "predict")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run every workload and print every metric.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]

    rows, problems, fingerprint = [], [], None
    for workload in WORKLOADS:
        for trace in (0, 1):
            report, result = run(workload, args.seed, seconds, trace)
            fingerprint = fingerprint or report["fingerprint"]
            kind = "per-layer" if trace else "end-to-end"
            metrics = dict(result["metrics"])
            if not trace:
                metrics.update(report["named"])
            for name, m in metrics.items():
                rows.append((workload, kind, name, m["value"], m["unit"]))
            rows.append((workload, kind, "failed/attempted", f"{result['failed']}/{result['attempted']}", "count"))
            problems += [f"{workload} (trace {trace}): {p}" for p in report["problems"]]

    print(json.dumps(fingerprint))
    width = max(len(r[2]) for r in rows)
    for workload, kind, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<9} {kind:<10} {name:<{width}} {shown:>14} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

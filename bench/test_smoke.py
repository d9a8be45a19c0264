"""Tiny-dims smoke run of every workload, untraced and traced, ``predict``
included although ``BENCHMARK.json`` leaves it out for now.

Asserts that each metric BENCHMARK.json names is emitted with its unit and
that every check passes; it asserts nothing about timings. One known
program defect is let through: under numpy 2 the predict artifacts hold
``np.float64(x)`` fields, and predict checks may fail for that cause only.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train", "backtest", "predict"])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert math.isfinite(emitted["value"])

    assert result["attempted"] >= 1
    problems = report["problems"]
    assert result["correct"] == (result["failed"] == 0)
    if workload == "predict":
        # the one known program defect; any other failed check fails this test
        assert all("written as 'np.float64(...)'" in p for p in problems), problems
    else:
        assert result["failed"] == 0, problems

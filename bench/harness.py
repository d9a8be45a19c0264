"""One benchmark run: set-up, the timed window, checks and the result line.

End-to-end metrics come from an untraced run (``--trace 0``). A traced run
(``--trace 1``) sets up once under tracing, alternates untraced and traced
commands, and reports the per-layer metrics plus the difference between the
two kinds as the tracing overhead. One last traced command records the
allocation peak of generation, which is too slow to time.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from tracer import LAYER_METRICS, Tracer, layer_metrics
from workloads import SCALES, WORKLOADS, Op, Workload, reference_params, roles

# (name, unit, better) of the end-to-end metrics every untraced run reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("command_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Set-up is repeated and its median reported, so a one-off stall in one
# repetition does not move ``setup_s``.
SETUP_REPEATS = 3
MIN_OPS = 3

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 20250114
# float64 rounding (2**-53) may grow through a few SGD steps, long GEMM sums
# and quantile interpolation; 1e-9 (about 2**-30) leaves 2**23 of headroom
# while any change in the arithmetic itself shows.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12

def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def run_ops(wl: Workload, seconds: float, tracer: Tracer | None = None) -> list[Op]:
    """Repeat the workload's command until ``seconds`` have passed (at least
    ``MIN_OPS`` times), checking each command's outputs outside its timing.
    With a tracer, each input runs untraced and then traced, so both kinds
    see the same inputs and the same machine load."""
    ops = []
    min_ops = 2 * MIN_OPS if tracer else MIN_OPS
    began = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - began < seconds:
        traced = tracer is not None and len(ops) % 2 == 1
        gc.collect()
        with tracer.window("bench.op") if traced else nullcontext():
            op = wl.op(len(ops) // 2 if tracer else len(ops))
        op.traced = traced
        wl.check(op)
        remove(op.out_dir)
        ops.append(op)
    return ops


def reference_check(cls, params, scale: str, root: Path, write: bool) -> list[str]:
    """Run the fixed reference case and compare its key outputs with the
    stored ones (or store them with ``write``)."""
    wl = cls(reference_params(params), REFERENCE_SEED, root)
    wl.setup(warm_up=False)
    problems, keys = [], {}
    for index in range(cls.reference_ops):
        op = wl.op(index)
        wl.check(op)
        remove(op.out_dir)
        problems += [f"reference op {index}: {p}" for p in op.problems]
        keys.update({f"op{index}.{k}": v for k, v in op.keys.items()})

    stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8")) if REFERENCE_FILE.exists() else {}
    if write:
        stored.setdefault(scale, {})[cls.name] = keys
        REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return problems
    expected = stored.get(scale, {}).get(cls.name)
    if expected is None:
        return problems + [f"no stored reference for {scale}/{cls.name}"]
    if set(expected) != set(keys):
        return problems + [f"reference keys {sorted(keys)} != stored {sorted(expected)}"]
    for key, want in expected.items():
        got, want = np.asarray(keys[key], dtype=np.float64), np.asarray(want, dtype=np.float64)
        if got.shape != want.shape or not np.allclose(got, want, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL):
            worst = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
            problems.append(f"reference {key} differs from stored value (max abs diff {worst:.3e})")
    return problems


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(root: Path, seed: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((root / "src" / "priceband").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(root),
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def _timing_summary(samples_ms: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples_ms)
    summary = {"p50_ms": statistics.median(samples_ms), "samples": n}
    for q in (99, 95, 90):
        if n * (100 - q) / 100 >= 10:
            summary[f"p{q}_ms"] = float(np.percentile(samples_ms, q))
            break
    return summary


def measure(workload: str, seed: int, seconds: int, trace: bool, scale: str, root: Path,
            write_reference: bool = False) -> tuple[dict, dict]:
    """Returns (report, result): a descriptive report and the result object."""
    cls = WORKLOADS[workload]
    params = SCALES[scale][workload]
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    remove(work)
    tracer = Tracer(roles(params)) if trace else None
    setup_s = []
    try:
        repeats = 1 if trace else SETUP_REPEATS
        for r in range(repeats):
            wl = cls(params, seed, work / f"setup{r}")
            started = time.perf_counter()
            with tracer.window("bench.setup") if tracer else nullcontext():
                wl.setup()
            setup_s.append(time.perf_counter() - started)
            if r + 1 < repeats:
                remove(wl.root)
        ops = run_ops(wl, seconds, tracer)
        plain = [op for op in ops if not op.traced]
        traced = [op for op in ops if op.traced]
        if tracer and wl.day_runs_per_op:  # only workloads that generate scenarios
            with tracer.window("bench.memory", track_alloc=True):
                memory = wl.op(len(ops) // 2)
            wl.check(memory)
            remove(memory.out_dir)
            ops.append(memory)
        ref_problems = reference_check(cls, params, scale, work / "reference", write_reference)
    finally:
        remove(work)

    failed = sum(1 for op in ops if op.problems) + (1 if ref_problems else 0)
    attempted = len(ops) + 1
    problems = [f"op {op.index} ({op.label}): {p}" for op in ops for p in op.problems] + ref_problems
    command_ms = [1e3 * op.seconds for op in plain]
    timing = _timing_summary(command_ms)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer:
        values = layer_metrics(tracer, wl.day_runs_per_op)
        values["trace.overhead_ms"] = 1e3 * (
            statistics.median(op.seconds for op in traced) - statistics.median(op.seconds for op in plain)
        )
        values["error_rate"] = failed / attempted
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        trace_path = root / ".bench_work" / f"trace-{workload}-{seed}.jsonl"
        tracer.write_jsonl(trace_path)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "command_p50_ms": timing["p50_ms"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: unit for name, unit, _ in END_TO_END}

    # each workload's own name for what its command time stands for
    p50_ms = timing["p50_ms"]
    named_name, named_value, named_unit = {
        "train": ("train_s", p50_ms / 1e3, "s"),
        "backtest": ("backtest_day_runs_per_s", 1e3 * wl.day_runs_per_op / p50_ms, "1/s"),
        "predict": ("predict_p50_ms", p50_ms, "ms"),
    }[workload]
    report = {
        "workload": workload,
        "scale": scale,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fingerprint(root, seed),
        "inputs": wl.describe(ops),
        "named": {
            named_name: {"value": named_value, "unit": named_unit},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "error_rate": {"value": failed / attempted, "unit": "ratio"},
        },
        "command": {**timing, "samples_ms": command_ms},
        "setup_samples_s": setup_s,
        "problems": problems,
    }
    if tracer:
        report["tracing"] = {
            "file": str(trace_path.relative_to(root)),
            "spans": len(tracer.spans),
            "untraced_entry_points": tracer.missing,
            "hook_errors": tracer.hook_errors,
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    return report, result

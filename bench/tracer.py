"""Spans around the public entry points of each priceband module.

The traced run swaps every entry point listed in ``ENTRY_POINTS`` for a
wrapper that records a span (name, start, end, parent) in memory. The swap
is made in every loaded priceband module that holds the function, so names
imported with ``from .x import f`` are traced too. A span's self time is its
duration minus the time its child spans cover.

An entry point that no longer exists is skipped and listed in
``Tracer.missing``, so a refactor that renames one shows up in the report
instead of stopping the benchmark.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("cli", "data_ingest", "weather_volatility", "seqnet", "ctsgan", "intervals", "metrics")

ENTRY_POINTS = {
    "cli": ("main", "_atomic_write"),
    "data_ingest": ("load_dataset", "build_conditions"),
    "weather_volatility": (
        "window_variance",
        "classify_volatility",
        "sigma_from_levels",
        "calibrate_thresholds",
    ),
    "seqnet": ("rnn_forward", "backward", "sgd_step"),
    "ctsgan": (
        "train_phase1_autoencoder",
        "train_phase2_supervised",
        "train_phase3_joint",
        "generate_scenarios",
        "save_model",
        "load_model",
    ),
    "intervals": ("predict_pipeline", "build_interval", "stack_density"),
    "metrics": ("repeated_sampling_harness",),
}

ROLES = ("embedder", "recovery", "generator", "discriminator")

# (name, unit, better); every name is emitted by every traced run, as 0 where
# the layer does not run in the workload.
LAYER_METRICS = (
    ("data_ingest.load_dataset_ms", "ms", "lower"),
    ("data_ingest.rows_per_s", "rows/s", "higher"),
    ("data_ingest.load_dataset_calls", "count", "lower"),
    ("ctsgan.load_model_ms", "ms", "lower"),
    ("ctsgan.save_model_ms", "ms", "lower"),
    ("ctsgan.checkpoint_mb", "MB", "lower"),
    ("ctsgan.phase1_iter_ms", "ms", "lower"),
    ("ctsgan.phase2_iter_ms", "ms", "lower"),
    ("ctsgan.phase3_iter_ms", "ms", "lower"),
    ("ctsgan.phase3_self_ms", "ms", "lower"),
    ("seqnet.backward_ms", "ms", "lower"),
    ("seqnet.backward_gflops", "GFLOP/s", "higher"),
    ("seqnet.sgd_step_ms", "ms", "lower"),
    *((f"seqnet.forward_ms.{role}", "ms", "lower") for role in ROLES),
    ("seqnet.forward_calls", "count", "lower"),
    ("seqnet.forward_gflops", "GFLOP/s", "higher"),
    ("ctsgan.generate_ms", "ms", "lower"),
    ("ctsgan.generate_self_ms", "ms", "lower"),
    ("ctsgan.generate_calls_per_day_run", "count", "lower"),
    ("ctsgan.generate_peak_alloc_mb", "MB", "lower"),
    ("intervals.predict_pipeline_self_ms", "ms", "lower"),
    ("intervals.build_interval_ms", "ms", "lower"),
    ("intervals.stack_density_ms", "ms", "lower"),
    ("metrics.harness_self_ms", "ms", "lower"),
    ("cli.artifact_write_ms", "ms", "lower"),
    ("cli.artifact_bytes", "count", "lower"),
    ("weather_volatility.busy_ms", "ms", "lower"),
    *((f"{module}.share", "ratio", "lower") for module in MODULES),
    ("trace.overhead_ms", "ms", "lower"),
    ("error_rate", "ratio", "lower"),
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def gemm_flops(specs, steps: int, batch: int) -> int:
    """Multiply-add FLOPs (2 per MAC) of the GEMMs in one forward pass;
    gate nonlinearities are not counted."""
    per_row = 0
    for spec in specs:
        if spec.kind == "lstm":
            per_row += 2 * (spec.input_dim + spec.output_dim) * 4 * spec.output_dim
        else:
            per_row += 2 * spec.input_dim * spec.output_dim
    return per_row * steps * batch


def _steps_batch(shape) -> tuple[int, int]:
    return (shape[0], shape[1]) if len(shape) == 3 else (shape[0], 1)


class Span:
    __slots__ = ("name", "module", "parent", "start", "end", "attrs")

    def __init__(self, name: str, module: str, parent: int | None):
        self.name = name
        self.module = module
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: dict = {}


class Tracer:
    """In-memory span recorder; ``roles`` maps a network's (input, output)
    dims to its role in the model."""

    def __init__(self, roles: dict[tuple[int, int], str]):
        self.roles = roles
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.hook_errors = 0
        self.track_alloc = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "seqnet.rnn_forward": self._forward_attrs,
            "seqnet.backward": self._backward_attrs,
            "data_ingest.load_dataset": lambda a, k, r: {"rows": r.report.rows_consumed},
            "ctsgan.save_model": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
            "cli._atomic_write": lambda a, k, r: {"bytes": len(_arg(a, k, 1, "text").encode("utf-8"))},
            **{
                f"ctsgan.{fn}": lambda a, k, r: {"iterations": _arg(a, k, 2, "config").iterations_per_phase}
                for fn in ENTRY_POINTS["ctsgan"][:3]
            },
        }

    def _forward_attrs(self, args, kwargs, result):
        params = _arg(args, kwargs, 0, "params")
        steps, batch = _steps_batch(_arg(args, kwargs, 1, "inputs").shape)
        return {
            "role": self.roles.get((params.input_dim, params.output_dim), "other"),
            "flops": gemm_flops(params.specs, steps, batch),
        }

    def _backward_attrs(self, args, kwargs, result):
        cache = _arg(args, kwargs, 0, "cache")
        steps, batch = _steps_batch(cache.output_shape)
        # dW and dX GEMMs each cost as much as the forward GEMM
        return {"flops": 2 * gemm_flops(cache.params.specs, steps, batch)}

    @contextmanager
    def span(self, name: str, module: str = "bench"):
        span = Span(name, module, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def window(self, name: str, track_alloc: bool = False):
        """Trace everything under one root span named ``name``; with
        ``track_alloc``, also the tracemalloc peak of each generation call,
        which slows generation too much to share a window with timings."""
        self._install()
        self.track_alloc = track_alloc
        try:
            with self.span(name):
                yield
        finally:
            self.track_alloc = False
            self._uninstall()

    def _wrap(self, module: str, fname: str, fn):
        name = f"{module}.{fname}"
        hook = self._hooks.get(name)
        is_generate = name == "ctsgan.generate_scenarios"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            track_alloc = is_generate and self.track_alloc
            with self.span(name, module) as span:
                if track_alloc:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if track_alloc:
                        span.attrs["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            if hook is not None:
                try:
                    span.attrs.update(hook(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    self.hook_errors += 1
            return result

        return wrapper

    def _install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n.startswith("priceband.")]
        self.missing = []
        for module, names in ENTRY_POINTS.items():
            home = sys.modules.get(f"priceband.{module}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{module}.{fname}")
                    continue
                wrapper = self._wrap(module, fname, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def _uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, day_runs_per_op: int) -> dict[str, float]:
    """Per-layer metrics of the ``bench.op`` windows (one per timed command).
    ``weather_volatility.busy_ms`` comes from the CLI commands of the
    ``bench.setup`` window, and ``ctsgan.generate_peak_alloc_mb`` from any
    window that tracked allocations.

    ``*_ms`` of a function is its mean wall time per call; counts, bytes and
    ``artifact_write_ms`` are per timed command; a share is the module's self
    time over the wall time of the timed commands.
    """
    spans = tracer.spans
    root, in_cli = [], []
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        root.append(i if span.parent is None else root[span.parent])
        in_cli.append(span.name == "cli.main" or (span.parent is not None and in_cli[span.parent]))
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start

    ops = [i for i, s in enumerate(spans) if s.parent is None and s.name == "bench.op"]
    op_set = set(ops)
    n_ops = max(len(ops), 1)
    op_wall = sum(spans[i].end - spans[i].start for i in ops)

    dur = defaultdict(list)
    self_time = defaultdict(list)
    attrs = defaultdict(list)
    module_self = defaultdict(float)
    setup_wv = 0.0
    peak_alloc = max((s.attrs.get("peak_alloc", 0) for s in spans), default=0)
    for i, span in enumerate(spans):
        if span.parent is None:
            continue
        d = span.end - span.start
        if root[i] not in op_set:
            top_level_wv = span.module == "weather_volatility" and spans[span.parent].module != span.module
            if spans[root[i]].name == "bench.setup" and in_cli[i] and top_level_wv:
                setup_wv += d
            continue
        key = span.name
        if key == "seqnet.rnn_forward":
            key = f"{key}.{span.attrs.get('role', 'other')}"
            dur["seqnet.rnn_forward"].append(d)
        dur[key].append(d)
        self_time[key].append(d - child_time[i])
        attrs[span.name].append(span.attrs)
        module_self[span.module] += d - child_time[i]

    def mean_ms(name, table=dur):
        values = table.get(name, [])
        return 1e3 * sum(values) / len(values) if values else 0.0

    def total(name, attr):
        return sum(a.get(attr, 0) for a in attrs.get(name, []))

    def per_iteration_ms(fn):
        name = f"ctsgan.{fn}"
        iterations = total(name, "iterations")
        return 1e3 * sum(dur.get(name, [])) / iterations if iterations else 0.0

    def rate(name, attr, scale=1.0):
        busy = sum(dur.get(name, []))
        return total(name, attr) / busy / scale if busy else 0.0

    generate_calls = len(dur.get("ctsgan.generate_scenarios", []))
    out = {
        "data_ingest.load_dataset_ms": mean_ms("data_ingest.load_dataset"),
        "data_ingest.rows_per_s": rate("data_ingest.load_dataset", "rows"),
        "data_ingest.load_dataset_calls": len(dur.get("data_ingest.load_dataset", [])) / n_ops,
        "ctsgan.load_model_ms": mean_ms("ctsgan.load_model"),
        "ctsgan.save_model_ms": mean_ms("ctsgan.save_model"),
        "ctsgan.checkpoint_mb": (
            total("ctsgan.save_model", "bytes") / len(attrs["ctsgan.save_model"]) / 1e6
            if attrs.get("ctsgan.save_model")
            else 0.0
        ),
        "ctsgan.phase1_iter_ms": per_iteration_ms("train_phase1_autoencoder"),
        "ctsgan.phase2_iter_ms": per_iteration_ms("train_phase2_supervised"),
        "ctsgan.phase3_iter_ms": per_iteration_ms("train_phase3_joint"),
        "ctsgan.phase3_self_ms": mean_ms("ctsgan.train_phase3_joint", self_time),
        "seqnet.backward_ms": mean_ms("seqnet.backward"),
        "seqnet.backward_gflops": rate("seqnet.backward", "flops", 1e9),
        "seqnet.sgd_step_ms": mean_ms("seqnet.sgd_step"),
        **{f"seqnet.forward_ms.{r}": mean_ms(f"seqnet.rnn_forward.{r}") for r in ROLES},
        "seqnet.forward_calls": len(dur.get("seqnet.rnn_forward", [])) / n_ops,
        "seqnet.forward_gflops": rate("seqnet.rnn_forward", "flops", 1e9),
        "ctsgan.generate_ms": mean_ms("ctsgan.generate_scenarios"),
        "ctsgan.generate_self_ms": mean_ms("ctsgan.generate_scenarios", self_time),
        "ctsgan.generate_calls_per_day_run": (
            generate_calls / (n_ops * day_runs_per_op) if day_runs_per_op else 0.0
        ),
        "ctsgan.generate_peak_alloc_mb": peak_alloc / 1e6,
        "intervals.predict_pipeline_self_ms": mean_ms("intervals.predict_pipeline", self_time),
        "intervals.build_interval_ms": mean_ms("intervals.build_interval"),
        "intervals.stack_density_ms": mean_ms("intervals.stack_density"),
        "metrics.harness_self_ms": mean_ms("metrics.repeated_sampling_harness", self_time),
        "cli.artifact_write_ms": 1e3 * sum(dur.get("cli._atomic_write", [])) / n_ops,
        "cli.artifact_bytes": total("cli._atomic_write", "bytes") / n_ops,
        "weather_volatility.busy_ms": 1e3 * setup_wv,
        **{f"{m}.share": (module_self[m] / op_wall if op_wall else 0.0) for m in MODULES},
    }
    return out

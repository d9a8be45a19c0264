"""Reliability and sharpness indicators with repeated-sampling confidence.

Coverage (the fraction of actuals inside their intervals, boundary-inclusive)
and mean width are computed per prediction run, over the run's whole
``[days, T]`` block of bounds, and per run and day. Across repeated runs
with fresh noise streams, the confidence level for a coverage target counts
runs at or above it, while the width target counts runs strictly below (the
two comparisons are deliberately asymmetric). The harness also reports the
achieved-at-90%-confidence values: the largest coverage target met by at
least 90% of runs and the smallest width target met by at least 90% of runs.

``repeated_sampling_harness`` returns its scores as plain data: a summary
dict holding, in this order, ``runs`` (``{"s", "ecpas", "eawapi"}`` per run,
s from 1), ``targets`` (``delta_prime`` and ``xi_prime``), ``phi_coverage``,
``phi_width``, ``achieved_delta_90`` and ``achieved_xi_90``, then the
``[runs, D]`` arrays of per-day ECPAS and EAWAPI. ``evaluate`` writes the
summary as the first keys of ``metrics_report.json``, so a new score is one
more key of that dict.

The harness predicts its (run, day) requests on the calling thread plus one
helper thread per further CPU the process may run on. Generation spends its
time in numpy and BLAS calls that release the GIL, so independent requests
overlap. The caller takes a share of the requests instead of waiting,
because each further thread allocates from its own glibc malloc arena and
keeps that arena's pages: a fresh 2-CPU ``evaluate`` of 7 days x 2 runs x
500 scenarios peaked at 47.8 MB RSS at toy dims and 68.0 MB at paper dims,
against 50.2 and 76.8 MB with one pool thread per CPU beside an idle caller.
Each request draws from its own derived seed and the bounds are gathered in
request order, so the report does not depend on the thread count.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import InputError
from .intervals import predict_pipeline
from .seeding import derive_seed


def _checked_bounds(actuals, lower, upper) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three arrays as float64, after checking that ``lower`` and
    ``upper`` share one non-empty shape ending in ``actuals``'s shape and
    that L_t <= U_t everywhere."""
    actuals = np.asarray(actuals, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.shape != upper.shape or lower.shape[lower.ndim - actuals.ndim :] != actuals.shape:
        raise InputError(
            f"actuals/lower/upper shapes differ: "
            f"{actuals.shape}/{lower.shape}/{upper.shape}"
        )
    if lower.size < 1:
        raise InputError("need at least one sample")
    if (lower > upper).any():
        raise InputError("interval bounds must satisfy L_t <= U_t")
    return actuals, lower, upper


def ecpas(actuals, lower, upper, axis=None):
    """Empirical coverage: fraction of t with L_t <= actual_t <= U_t, taken
    over ``axis`` of the bounds (every axis by default). ``actuals`` lines up
    with the trailing axes, so ``[D, T]`` actuals score a ``[runs, D, T]``
    block of bounds."""
    actuals, lower, upper = _checked_bounds(actuals, lower, upper)
    return ((actuals >= lower) & (actuals <= upper)).mean(axis=axis)


def eawapi(actuals, lower, upper, axis=None):
    """Empirical average width: mean of (U_t - L_t) over ``axis``, with the
    bounds checked against ``actuals`` as in :func:`ecpas`."""
    _, lower, upper = _checked_bounds(actuals, lower, upper)
    return (upper - lower).mean(axis=axis)


def confidence_level_ecpas(run_coverages, target: float) -> float:
    """Fraction of runs whose coverage is at or above ``target``."""
    values = np.asarray(run_coverages, dtype=np.float64)
    if values.size == 0:
        raise InputError("no coverage values supplied")
    return float((values >= target).mean())


def confidence_level_eawapi(run_widths, target: float) -> float:
    """Fraction of runs whose average width is strictly below ``target``."""
    values = np.asarray(run_widths, dtype=np.float64)
    if values.size == 0:
        raise InputError("no width values supplied")
    return float((values < target).mean())


def achieved_coverage_at(run_coverages, confidence: float = 0.9) -> float:
    """Largest coverage target met by at least ``confidence`` of runs.

    With S runs this is the (S - ceil(confidence*S) + 1)-th smallest value:
    every target at or below it keeps >= ceil(confidence*S) runs passing.
    """
    values = np.sort(np.asarray(run_coverages, dtype=np.float64))
    if values.size == 0:
        raise InputError("no coverage values supplied")
    k = values.size - math.ceil(confidence * values.size)
    return float(values[k])


def achieved_width_at(run_widths, confidence: float = 0.9) -> float:
    """Smallest width target with at least ``confidence`` of runs below it
    (up to the strict inequality): the ceil(confidence*S)-th smallest value."""
    values = np.sort(np.asarray(run_widths, dtype=np.float64))
    if values.size == 0:
        raise InputError("no width values supplied")
    k = math.ceil(confidence * values.size) - 1
    return float(values[k])


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(request, n: int) -> list:
    """``[request(0), ..., request(n - 1)]``, computed by the calling thread
    and ``min(_available_cpus(), n) - 1`` helper threads.

    Every thread takes the next index from one shared counter and writes its
    result into that index's slot. The first failure stops every thread from
    starting another request, and it is raised here once every helper has
    returned. With one CPU or one request no thread starts.
    """
    results = [None] * n
    failures = []
    next_index = 0
    lock = threading.Lock()

    def drain():
        nonlocal next_index
        while True:
            with lock:
                if failures or next_index == n:
                    return
                index = next_index
                next_index += 1
            # BaseException too: an interrupt in the caller must also stop
            # the helpers, and it is re-raised below like any failure
            try:
                results[index] = request(index)
            except BaseException as exc:
                with lock:
                    failures.append(exc)
                return

    helpers = [threading.Thread(target=drain) for _ in range(min(_available_cpus(), n) - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[0]
    return results


def repeated_sampling_harness(
    model,
    conditions,
    actuals,
    sigmas,
    runs: int,
    count: int,
    nominal: float,
    delta_target: float,
    xi_target: float,
    master_seed: int = 0,
) -> tuple[dict, np.ndarray, np.ndarray]:
    """Score ``runs`` repeated predictions over the same D days.

    Day d is predicted from the condition row ``conditions[d]`` under the
    noise std ``sigmas[d]`` and scored against the normalized path
    ``actuals[d]``. Each run re-generates scenarios with its own derived
    noise seed stream (the only stochastic element once the model is
    trained). The ``[2, T]`` bounds of all runs stack into one
    ``[runs, D, 2, T]`` block, and a run's coverage and width reduce its
    whole ``[D, T]`` blocks of lower and upper bounds.

    Returns the summary, a plain dict in the key order ``metrics_report.json``
    writes it (see the module docstring), then the ``[runs, D]`` per-day
    ECPAS and EAWAPI. Everything is reproducible from ``master_seed``.
    """
    if runs < 1:
        raise InputError(f"need at least one run, got {runs}")
    if len(conditions) == 0:
        raise InputError("no evaluation days supplied")

    days = len(conditions)
    seeds = []
    for s in range(runs):
        run_seed = derive_seed(master_seed, f"run-{s}")
        seeds.extend(derive_seed(run_seed, f"day-{d}") for d in range(days))

    def bounds(request: int) -> np.ndarray:
        d = request % days
        return predict_pipeline(model, conditions[d], sigmas[d], count, nominal, seeds[request])[0]

    block = np.reshape(_in_order(bounds, len(seeds)), (runs, days, 2, -1))
    lower, upper = block[:, :, 0], block[:, :, 1]
    coverages = ecpas(actuals, lower, upper, axis=(1, 2))
    widths = eawapi(actuals, lower, upper, axis=(1, 2))
    summary = {
        "runs": [
            {"s": s + 1, "ecpas": c, "eawapi": w}
            for s, (c, w) in enumerate(zip(coverages.tolist(), widths.tolist()))
        ],
        "targets": {"delta_prime": delta_target, "xi_prime": xi_target},
        "phi_coverage": confidence_level_ecpas(coverages, delta_target),
        "phi_width": confidence_level_eawapi(widths, xi_target),
        "achieved_delta_90": achieved_coverage_at(coverages),
        "achieved_xi_90": achieved_width_at(widths),
    }
    return summary, ecpas(actuals, lower, upper, axis=2), eawapi(actuals, lower, upper, axis=2)

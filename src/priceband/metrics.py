"""Reliability and sharpness indicators with repeated-sampling confidence.

Coverage (the fraction of actuals inside their intervals, boundary-inclusive)
and mean width are computed per prediction run, over the run's whole
``[days, T]`` block of bounds, and per run and day. Across repeated runs
with fresh noise streams, the confidence level for a coverage target counts
runs at or above it, while the width target counts runs strictly below (the
two comparisons are deliberately asymmetric). The harness also reports the
achieved-at-90%-confidence values: the largest coverage target met by at
least 90% of runs and the smallest width target met by at least 90% of runs.

The harness predicts its (run, day) requests on a pool of threads, one per
CPU the process may run on. Generation spends its time in numpy, BLAS and
scipy calls that release the GIL, so independent requests overlap. Each
request draws from its own derived seed and the bounds are gathered in
request order, so the report does not depend on the thread count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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


@dataclass(frozen=True)
class RepeatedSamplingReport:
    """Coverage and width per run (``[runs]``) and per run and day
    (``[runs, D]``), with confidence levels for the supplied targets."""

    coverages: np.ndarray
    widths: np.ndarray
    day_coverages: np.ndarray
    day_widths: np.ndarray
    delta_target: float
    xi_target: float
    phi_coverage: float
    phi_width: float
    achieved_delta_90: float
    achieved_xi_90: float

    def to_json(self, **extra) -> str:
        """The per-run indicators and the confidence summary, then ``extra``
        as further top-level keys."""
        return json.dumps(
            {
                "runs": [
                    {"s": s + 1, "ecpas": c, "eawapi": w}
                    for s, (c, w) in enumerate(zip(self.coverages.tolist(), self.widths.tolist()))
                ],
                "targets": {"delta_prime": self.delta_target, "xi_prime": self.xi_target},
                "phi_coverage": self.phi_coverage,
                "phi_width": self.phi_width,
                "achieved_delta_90": self.achieved_delta_90,
                "achieved_xi_90": self.achieved_xi_90,
                **extra,
            },
            allow_nan=False,
        )


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
) -> RepeatedSamplingReport:
    """Score ``runs`` repeated predictions over the same D days.

    Day d is predicted from the condition row ``conditions[d]`` under the
    noise std ``sigmas[d]`` and scored against the normalized path
    ``actuals[d]``. Each run re-generates scenarios with its own derived
    noise seed stream (the only stochastic element once the model is
    trained). The ``[2, T]`` bounds of all runs stack into one
    ``[runs, D, 2, T]`` block, and a run's coverage and width reduce its
    whole ``[D, T]`` blocks of lower and upper bounds. The report is
    reproducible from ``master_seed``.
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

    # map yields in request order; a failed request cancels the pending ones
    # and re-raises here, and leaving the block joins every worker.
    with ThreadPoolExecutor(max_workers=min(_available_cpus(), len(seeds))) as pool:
        block = np.reshape(list(pool.map(bounds, range(len(seeds)))), (runs, days, 2, -1))
    lower, upper = block[:, :, 0], block[:, :, 1]
    coverages = ecpas(actuals, lower, upper, axis=(1, 2))
    widths = eawapi(actuals, lower, upper, axis=(1, 2))
    return RepeatedSamplingReport(
        coverages=coverages,
        widths=widths,
        day_coverages=ecpas(actuals, lower, upper, axis=2),
        day_widths=eawapi(actuals, lower, upper, axis=2),
        delta_target=delta_target,
        xi_target=xi_target,
        phi_coverage=confidence_level_ecpas(coverages, delta_target),
        phi_width=confidence_level_eawapi(widths, xi_target),
        achieved_delta_90=achieved_coverage_at(coverages),
        achieved_xi_90=achieved_width_at(widths),
    )

"""Reliability and sharpness indicators with repeated-sampling confidence.

Coverage (the fraction of actuals inside their intervals, boundary-inclusive)
and mean width are computed per prediction run; across repeated runs with
fresh noise streams, the confidence level for a coverage target counts runs
at or above it, while the width target counts runs strictly below (the two
comparisons are deliberately asymmetric). The harness also reports the
achieved-at-90%-confidence values: the largest coverage target met by at
least 90% of runs and the smallest width target met by at least 90% of runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .intervals import predict_pipeline
from .seeding import derive_seed
from .weather_volatility import VolatilityThresholds


@dataclass(frozen=True)
class EvaluationRun:
    """Actuals paired with interval bounds for one prediction run."""

    actuals: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        actuals = np.asarray(self.actuals, dtype=np.float64)
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        for name, arr in (("actuals", actuals), ("lower", lower), ("upper", upper)):
            object.__setattr__(self, name, arr)
        if not (actuals.shape == lower.shape == upper.shape) or actuals.ndim != 1:
            raise InputError(
                f"actuals/lower/upper shapes differ: "
                f"{actuals.shape}/{lower.shape}/{upper.shape}"
            )
        if actuals.size < 1:
            raise InputError("need at least one sample")
        if (lower > upper).any():
            raise InputError("interval bounds must satisfy L_t <= U_t")


def ecpas(run: EvaluationRun) -> float:
    """Empirical coverage: fraction of t with L_t <= actual_t <= U_t."""
    covered = (run.actuals >= run.lower) & (run.actuals <= run.upper)
    return float(covered.mean())


def eawapi(run: EvaluationRun) -> float:
    """Empirical average width: mean of (U_t - L_t)."""
    return float((run.upper - run.lower).mean())


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


@dataclass(frozen=True)
class RepeatedSamplingReport:
    """Per-run indicators plus confidence levels for the supplied targets."""

    coverages: tuple[float, ...]
    widths: tuple[float, ...]
    delta_target: float
    xi_target: float
    phi_coverage: float
    phi_width: float
    achieved_delta_90: float
    achieved_xi_90: float
    day_breakdown: tuple = field(default=(), repr=False)

    def to_json(self) -> str:
        return json.dumps(
            {
                "runs": [
                    {"s": s + 1, "ecpas": c, "eawapi": w}
                    for s, (c, w) in enumerate(zip(self.coverages, self.widths))
                ],
                "targets": {"delta_prime": self.delta_target, "xi_prime": self.xi_target},
                "phi_coverage": self.phi_coverage,
                "phi_width": self.phi_width,
                "achieved_delta_90": self.achieved_delta_90,
                "achieved_xi_90": self.achieved_xi_90,
            },
            allow_nan=False,
        )


@dataclass(frozen=True)
class EvalDay:
    """One evaluation day: condition row, actual path, forecast-weather variances."""

    condition: np.ndarray
    actuals: np.ndarray
    variances: dict[str, float]
    day_label: str = ""


def summarize_runs(
    coverages,
    widths,
    delta_target: float,
    xi_target: float,
    day_breakdown=(),
) -> RepeatedSamplingReport:
    return RepeatedSamplingReport(
        coverages=tuple(float(c) for c in coverages),
        widths=tuple(float(w) for w in widths),
        delta_target=delta_target,
        xi_target=xi_target,
        phi_coverage=confidence_level_ecpas(coverages, delta_target),
        phi_width=confidence_level_eawapi(widths, xi_target),
        achieved_delta_90=achieved_coverage_at(coverages),
        achieved_xi_90=achieved_width_at(widths),
        day_breakdown=tuple(day_breakdown),
    )


def repeated_sampling_harness(
    model,
    eval_days: list[EvalDay],
    thresholds: VolatilityThresholds,
    runs: int,
    count: int,
    nominal: float,
    delta_target: float,
    xi_target: float,
    master_seed: int = 0,
) -> RepeatedSamplingReport:
    """Score ``runs`` repeated predictions over the same days.

    Each run re-generates scenarios with its own derived noise seed stream
    (the only stochastic element once the model is trained), concatenates all
    days into one evaluation run, and records coverage and width. The report
    is reproducible from ``master_seed``.
    """
    if runs < 1:
        raise InputError(f"need at least one run, got {runs}")
    if not eval_days:
        raise InputError("no evaluation days supplied")

    coverages = []
    widths = []
    breakdown = []
    for s in range(runs):
        run_seed = derive_seed(master_seed, f"run-{s}")
        actual_parts = []
        lower_parts = []
        upper_parts = []
        day_rows = []
        for d, day in enumerate(eval_days):
            interval, _, _ = predict_pipeline(
                model,
                day.condition,
                day.variances,
                thresholds,
                count,
                nominal,
                seed=derive_seed(run_seed, f"day-{d}"),
            )
            actual_parts.append(np.asarray(day.actuals, dtype=np.float64))
            lower_parts.append(interval.lower)
            upper_parts.append(interval.upper)
            day_run = EvaluationRun(
                actuals=actual_parts[-1], lower=interval.lower, upper=interval.upper
            )
            day_rows.append(
                {"day": day.day_label, "ecpas": ecpas(day_run), "eawapi": eawapi(day_run)}
            )
        run = EvaluationRun(
            actuals=np.concatenate(actual_parts),
            lower=np.concatenate(lower_parts),
            upper=np.concatenate(upper_parts),
        )
        coverages.append(ecpas(run))
        widths.append(eawapi(run))
        breakdown.append(tuple(day_rows))

    return summarize_runs(coverages, widths, delta_target, xi_target, breakdown)

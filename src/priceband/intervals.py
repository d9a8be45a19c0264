"""Stacked densities, prediction intervals, and the one-day prediction.

Scenarios are normalized price paths: the rows of an ``[M, T]`` float64
array with values in [0, 1], as ``ctsgan.generate_scenarios`` returns them.
Densities are per-timestep histograms over equal-width bins; intervals are
symmetric empirical quantiles with linear interpolation between order
statistics. The caller decides a day's noise sigma
(``weather_volatility.noise_sigma``); on a reinforced day (sigma > 1) the
baseline rows and the wide-noise rows are stacked into one matrix, so the
afternoon spike window picks up extra spread.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .ctsgan import generate_scenarios
from .errors import InputError
from .seeding import derive_seed

DEFAULT_BINS = 50


@dataclass(frozen=True)
class DensityGrid:
    """Per-timestep probability mass over equal-width bins on [0, 1]."""

    bin_edges: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        mass = np.asarray(self.mass, dtype=np.float64)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "mass", mass)
        if mass.shape[1] != edges.size - 1:
            raise InputError("mass columns must match bin count")
        if (mass < 0).any():
            raise InputError("density mass must be non-negative")
        if not np.allclose(mass.sum(axis=1), 1.0, atol=1e-9):
            raise InputError("each density row must sum to 1")

    def to_json(self) -> str:
        return json.dumps(
            {"bin_edges": self.bin_edges.tolist(), "mass": self.mass.tolist()},
            allow_nan=False,
        )


@dataclass(frozen=True)
class PredictionInterval:
    """Per-timestep bounds [L_t, U_t] on the normalized price scale."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape:
            raise InputError("lower and upper must have equal length")
        if (lo > hi).any():
            raise InputError("interval bounds must satisfy L_t <= U_t")


def _scenario_rows(scenarios, what: str) -> np.ndarray:
    """``scenarios`` as a float64 ``[M, T]`` matrix holding at least one row."""
    arr = np.asarray(scenarios, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"scenarios must be a 2-D matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InputError(f"cannot {what} an empty scenario set")
    return arr


def stack_density(scenarios: np.ndarray, bins: int = DEFAULT_BINS) -> DensityGrid:
    """Per-timestep normalized histogram of the ``[M, T]`` ``scenarios`` over
    ``bins`` equal-width bins on [0, 1]."""
    arr = _scenario_rows(scenarios, "stack")
    if bins < 2:
        raise InputError(f"need at least 2 bins, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    mass = np.empty((arr.shape[1], bins))
    for t in range(arr.shape[1]):
        counts, _ = np.histogram(arr[:, t], bins=edges)
        mass[t] = counts / arr.shape[0]
    return DensityGrid(bin_edges=edges, mass=mass)


def min_scenarios_for(nominal: float) -> int:
    # epsilon guards float artifacts like 2/(1-0.8) = 10.000000000000002
    return math.ceil(2.0 / (1.0 - nominal) - 1e-9)


def build_interval(scenarios: np.ndarray, nominal: float) -> PredictionInterval:
    """Symmetric empirical-quantile interval of the ``[M, T]`` ``scenarios``
    at ``nominal`` coverage.

    Quantiles interpolate linearly between adjacent order statistics.
    """
    if not 0.0 < nominal < 1.0:
        raise InputError(f"nominal coverage must be in (0, 1), got {nominal}")
    arr = _scenario_rows(scenarios, "build an interval from")
    needed = min_scenarios_for(nominal)
    if arr.shape[0] < needed:
        raise InputError(
            f"{arr.shape[0]} scenarios < {needed} required for nominal {nominal}"
        )
    tail = (1.0 - nominal) / 2.0
    lower, upper = np.quantile(arr, [tail, 1.0 - tail], axis=0)
    return PredictionInterval(lower=lower, upper=upper)


def predict_pipeline(
    model,
    condition: np.ndarray,
    sigma: float,
    count: int,
    nominal: float,
    seed: int = 0,
) -> tuple[PredictionInterval, np.ndarray]:
    """Full prediction for one day under the noise std ``sigma``: generate
    scenarios (baseline plus reinforced when ``sigma`` exceeds 1) and reduce
    them to an interval.

    Returns ``(interval, scenarios)``. ``scenarios`` holds ``count``
    baseline rows, then, on a reinforced day (``sigma > 1``), ``count``
    wide-noise rows.
    """
    scenarios = generate_scenarios(
        model, condition, 1.0, count, seed=derive_seed(seed, "scenarios-normal")
    )
    if sigma > 1.0:
        volatile = generate_scenarios(
            model, condition, sigma, count, seed=derive_seed(seed, "scenarios-volatile")
        )
        scenarios = np.vstack([scenarios, volatile])
    return build_interval(scenarios, nominal), scenarios

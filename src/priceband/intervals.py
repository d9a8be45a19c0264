"""Stacked densities, prediction intervals, and the one-day prediction.

Scenarios are normalized price paths (rows of the M x T matrix of a
``ctsgan.ScenarioSet``, values in [0, 1]). Densities are per-timestep
histograms over equal-width bins; intervals are symmetric empirical
quantiles with linear interpolation between order statistics. The reinforced
combination unions a baseline set with a wide-noise set so the afternoon
spike window picks up extra spread.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .ctsgan import NoiseSpec, ScenarioSet, generate_scenarios
from .errors import InputError
from .seeding import derive_seed
from .weather_volatility import (
    FACTORS,
    VolatilityThresholds,
    classify_volatility,
    sigma_from_levels,
)

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
    nominal_coverage: float

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape:
            raise InputError("lower and upper must have equal length")
        if (lo > hi).any():
            raise InputError("interval bounds must satisfy L_t <= U_t")

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower


def stack_density(scenario_set: ScenarioSet, bins: int = DEFAULT_BINS) -> DensityGrid:
    """Per-timestep normalized histogram over ``bins`` equal-width bins on [0, 1]."""
    if scenario_set.count < 1:
        raise InputError("cannot stack an empty scenario set")
    if bins < 2:
        raise InputError(f"need at least 2 bins, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    mass = np.empty((scenario_set.horizon, bins))
    for t in range(scenario_set.horizon):
        counts, _ = np.histogram(scenario_set.scenarios[:, t], bins=edges)
        mass[t] = counts / scenario_set.count
    return DensityGrid(bin_edges=edges, mass=mass)


def min_scenarios_for(nominal: float) -> int:
    # epsilon guards float artifacts like 2/(1-0.8) = 10.000000000000002
    return math.ceil(2.0 / (1.0 - nominal) - 1e-9)


def build_interval(scenario_set: ScenarioSet, nominal: float) -> PredictionInterval:
    """Symmetric empirical-quantile interval at ``nominal`` coverage.

    Quantiles interpolate linearly between adjacent order statistics.
    """
    if not 0.0 < nominal < 1.0:
        raise InputError(f"nominal coverage must be in (0, 1), got {nominal}")
    if scenario_set.count < 1:
        raise InputError("cannot build an interval from an empty scenario set")
    needed = min_scenarios_for(nominal)
    if scenario_set.count < needed:
        raise InputError(
            f"{scenario_set.count} scenarios < {needed} required for "
            f"nominal {nominal}"
        )
    tail = (1.0 - nominal) / 2.0
    lower = np.quantile(scenario_set.scenarios, tail, axis=0)
    upper = np.quantile(scenario_set.scenarios, 1.0 - tail, axis=0)
    return PredictionInterval(lower=lower, upper=upper, nominal_coverage=nominal)


def combine_normal_volatile(normal: ScenarioSet, volatile: ScenarioSet) -> ScenarioSet:
    """Union of the baseline and wide-noise sets, provenance retained.

    Volatile members contribute their full paths; the widening shows up in
    the afternoon window because that is where the wide-noise generator
    spreads.
    """
    if normal.condition_id != volatile.condition_id:
        raise InputError(
            f"condition ids differ: {normal.condition_id!r} vs {volatile.condition_id!r}"
        )
    if volatile.count == 0:
        return normal
    if normal.count == 0:
        return volatile
    if normal.horizon != volatile.horizon:
        raise InputError("scenario horizons differ")
    return ScenarioSet(
        scenarios=np.vstack([normal.scenarios, volatile.scenarios]),
        condition_id=normal.condition_id,
        noise_sigma=max(normal.noise_sigma, volatile.noise_sigma),
        provenance=np.concatenate([normal.provenance, volatile.provenance]),
    )


def predict_pipeline(
    model,
    condition,
    forecast_variances: dict[str, float],
    thresholds: VolatilityThresholds,
    count: int,
    nominal: float,
    bins: int = DEFAULT_BINS,
    seed: int = 0,
) -> tuple[PredictionInterval, DensityGrid, ScenarioSet]:
    """Full prediction for one day: classify forecast-weather volatility,
    pick the noise std, generate scenarios (baseline plus reinforced when the
    std exceeds 1), and reduce to interval and density.

    ``count`` scenarios are generated per branch, so a reinforced day yields a
    combined set of 2 * count paths.
    """
    levels = {
        factor: classify_volatility(factor, forecast_variances[factor], thresholds)
        for factor in FACTORS
    }
    sigma = sigma_from_levels(levels)

    normal = generate_scenarios(
        model,
        condition,
        NoiseSpec(std=1.0, length=model.data_horizon, dim=model.latent_dim),
        count,
        seed=derive_seed(seed, "scenarios-normal"),
    )
    if sigma > 1.0:
        volatile = generate_scenarios(
            model,
            condition,
            NoiseSpec(std=sigma, length=model.data_horizon, dim=model.latent_dim),
            count,
            seed=derive_seed(seed, "scenarios-volatile"),
        )
        combined = combine_normal_volatile(normal, volatile)
    else:
        combined = normal

    interval = build_interval(combined, nominal)
    density = stack_density(combined, bins)
    return interval, density, combined

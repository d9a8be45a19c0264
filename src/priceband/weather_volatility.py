"""Weather-factor volatility over the spike-prone afternoon window.

A factor's daily variance (computed on normalized values) is classified
against percentile thresholds into Normal/Low/Medium/High and the per-factor
levels map to the reinforced-noise standard deviation; ``noise_sigma`` takes
a day's variances to its sigma in one call. Half-hour index ranges:
12:00-19:00 is ``range(24, 39)`` (temperature and wind); irradiance stops at
17:00, ``range(24, 35)``, because there is little light after that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from scipy.special import stdtr

from .data_ingest import HALF_HOURS_PER_DAY
from .errors import InputError

FACTORS = ("temperature", "irradiance", "wind")

TEMPERATURE_WINDOW = range(24, 39)
IRRADIANCE_WINDOW = range(24, 35)
WIND_WINDOW = range(24, 39)

FACTOR_WINDOWS = {
    "temperature": TEMPERATURE_WINDOW,
    "irradiance": IRRADIANCE_WINDOW,
    "wind": WIND_WINDOW,
}

# Dataset channel behind each factor.
FACTOR_CHANNELS = {
    "temperature": "temperature",
    "irradiance": "irradiance",
    "wind": "wind_speed",
}

# Afternoon half-hours where extreme spikes concentrate (12:00-19:00).
AFTERNOON_WINDOW = range(24, 39)

SPIKE_THRESHOLD_AUD = 350.0

# Percentile split of historical variances: 60% Normal, then 25/10/5.
NORMAL_PERCENTILE = 0.60
LOW_PERCENTILE = 0.85
MEDIUM_PERCENTILE = 0.95

# Fewest variance samples per factor that calibration accepts.
MIN_CALIBRATION_SAMPLES = 100


class VolatilityLevel(IntEnum):
    NORMAL = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3


@dataclass(frozen=True)
class FactorCuts:
    """Variance thresholds for one factor, in normalized-units variance."""

    low_cut: float
    med_cut: float
    high_cut: float

    def __post_init__(self):
        if not (0 < self.low_cut < self.med_cut < self.high_cut):
            raise InputError(
                f"cuts must satisfy 0 < low < med < high, got "
                f"({self.low_cut}, {self.med_cut}, {self.high_cut})"
            )


@dataclass(frozen=True)
class VolatilityThresholds:
    """Per-factor variance cuts separating the four volatility levels."""

    cuts: dict[str, FactorCuts]

    def __post_init__(self):
        missing = [f for f in FACTORS if f not in self.cuts]
        if missing:
            raise InputError(f"thresholds missing factors: {missing}")

    def to_json(self) -> str:
        payload = {
            factor: {
                "low_cut": cuts.low_cut,
                "med_cut": cuts.med_cut,
                "high_cut": cuts.high_cut,
            }
            for factor, cuts in self.cuts.items()
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VolatilityThresholds":
        payload = json.loads(text)
        return cls(
            {
                factor: FactorCuts(v["low_cut"], v["med_cut"], v["high_cut"])
                for factor, v in payload.items()
            }
        )


def default_thresholds() -> VolatilityThresholds:
    """Bundled reference cuts for the three factors on normalized series
    (derived from five years of New South Wales market weather)."""
    return VolatilityThresholds(
        {
            "temperature": FactorCuts(0.0019, 0.0030, 0.0058),
            "irradiance": FactorCuts(0.0246, 0.0419, 0.0622),
            "wind": FactorCuts(0.0052, 0.0079, 0.0173),
        }
    )


# Noise-std increment per level, the same for every factor.
LEVEL_INCREMENTS = {
    VolatilityLevel.NORMAL: 0.0,
    VolatilityLevel.LOW: 0.333,
    VolatilityLevel.MEDIUM: 0.667,
    VolatilityLevel.HIGH: 1.0,
}


def window_variance(values, window: range = TEMPERATURE_WINDOW) -> float:
    """Population variance of one day's normalized channel over ``window``.

    ``values`` holds the day's samples indexed by half-hour; every index in
    the window must be present and finite.
    """
    vals = np.asarray(values, dtype=np.float64)
    idx = np.fromiter(window, dtype=np.intp)
    if idx.size == 0:
        raise InputError("window selects no samples")
    if vals.ndim != 1 or idx.max() >= vals.size:
        raise InputError(
            f"window needs index {idx.max()} but series has {vals.size} samples"
        )
    selected = vals[idx]
    if not np.isfinite(selected).all():
        raise InputError("window contains missing samples")
    if np.ptp(selected) == 0.0:
        return 0.0
    return float(selected.var())


def factor_variances(dataset, rec) -> dict[str, float]:
    """Window variance of each factor's normalized channel on the day ``rec``
    of ``dataset`` (a ``data_ingest.Dataset``)."""
    return {
        factor: window_variance(
            dataset.normalized_channel(rec, FACTOR_CHANNELS[factor]), FACTOR_WINDOWS[factor]
        )
        for factor in FACTORS
    }


def classify_volatility(
    factor: str, variance: float, thresholds: VolatilityThresholds
) -> VolatilityLevel:
    """Band a variance into a level; bands are lower-inclusive, so a variance
    exactly on a cut belongs to the higher level."""
    if variance < 0:
        raise InputError(f"variance must be non-negative, got {variance}")
    cuts = thresholds.cuts[factor]
    if variance < cuts.low_cut:
        return VolatilityLevel.NORMAL
    if variance < cuts.med_cut:
        return VolatilityLevel.LOW
    if variance < cuts.high_cut:
        return VolatilityLevel.MEDIUM
    return VolatilityLevel.HIGH


def sigma_from_levels(levels: dict[str, VolatilityLevel]) -> float:
    """Noise std: max(1, sum of per-factor increments).

    The floor keeps the all-Normal case at the baseline N(0,1) noise; summed
    increments alone would give 0 there.
    """
    total = sum(LEVEL_INCREMENTS[levels[factor]] for factor in FACTORS)
    return max(1.0, total)


def noise_sigma(variances: dict[str, float], thresholds: VolatilityThresholds) -> float:
    """Noise std for one day from its afternoon window variance per factor."""
    return sigma_from_levels(
        {factor: classify_volatility(factor, variances[factor], thresholds) for factor in FACTORS}
    )


def calibrate_thresholds(variances: dict[str, np.ndarray]) -> VolatilityThresholds:
    """Empirical 60th/85th/95th percentile cuts per factor."""
    cuts = {}
    for factor in FACTORS:
        if factor not in variances:
            raise InputError(f"no variance samples for factor {factor!r}")
        sample = np.asarray(variances[factor], dtype=np.float64)
        if sample.size < MIN_CALIBRATION_SAMPLES:
            raise InputError(
                f"{factor}: {sample.size} samples < required {MIN_CALIBRATION_SAMPLES}"
            )
        low, med, high = np.quantile(
            sample, (NORMAL_PERCENTILE, LOW_PERCENTILE, MEDIUM_PERCENTILE)
        )
        if not low < med < high:
            raise InputError(
                f"{factor}: percentile cuts not strictly increasing "
                f"({low}, {med}, {high})"
            )
        cuts[factor] = FactorCuts(float(low), float(med), float(high))
    return VolatilityThresholds(cuts)


def pearson_correlation(x, y) -> tuple[float, float]:
    """Sample Pearson r and the two-sided p-value from the t statistic
    t = r * sqrt((n-2)/(1-r^2)) with n-2 degrees of freedom, whose upper
    tail is the Student t CDF at -|t|."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise InputError(f"x has shape {xa.shape}, y has shape {ya.shape}")
    n = xa.size
    if n < 3:
        raise InputError(f"need at least 3 paired samples, got {n}")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise InputError("both inputs need nonzero variance")
    r = float(xc @ yc) / (sx * sy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return r, p


def spike_histogram(prices) -> np.ndarray:
    """Counts of prices at or above ``SPIKE_THRESHOLD_AUD`` per half-hour of
    day, over a ``[days, 48]`` array of A$/MWh prices."""
    arr = np.asarray(prices, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != HALF_HOURS_PER_DAY:
        raise InputError(f"prices must be [days, {HALF_HOURS_PER_DAY}], got {arr.shape}")
    return (arr >= SPIKE_THRESHOLD_AUD).sum(axis=0)

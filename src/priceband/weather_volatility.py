"""Weather-factor volatility over the spike-prone afternoon window.

A factor's daily variance (computed on normalized values) is banded by the
factor's row of a ``[3 factors, 3 cuts]`` threshold array into a level 0-3
(Normal/Low/Medium/High), the number of cuts at or below it. Each level adds
``LEVEL_INCREMENTS[level]`` to the reinforced-noise standard deviation,
summed over factors and floored at 1; ``noise_sigma`` takes a day's
variances to its sigma in one call. Half-hour index ranges: 12:00-19:00 is
``range(24, 39)`` (temperature and wind); irradiance stops at 17:00,
``range(24, 35)``, because there is little light after that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import jsonread
from .data_ingest import HALF_HOURS_PER_DAY, normalize
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

# Noise-std increment per volatility level 0-3, the same for every factor.
LEVEL_INCREMENTS = np.array([0.0, 0.333, 0.667, 1.0])

_CUT_NAMES = ("low_cut", "med_cut", "high_cut")


@dataclass(frozen=True)
class VolatilityThresholds:
    """Variance cuts separating the four volatility levels: ``cuts[k]`` holds
    the low, med and high cut of ``FACTORS[k]``, in normalized-units
    variance."""

    cuts: np.ndarray

    def __post_init__(self):
        for factor, (low, med, high) in zip(FACTORS, self.cuts.tolist()):
            if not 0 < low < med < high:
                raise InputError(
                    f"{factor}: cuts must satisfy 0 < low < med < high, got ({low}, {med}, {high})"
                )

    def by_factor(self) -> dict[str, dict[str, float]]:
        """``{factor: {"low_cut": .., "med_cut": .., "high_cut": ..}}``."""
        return {f: dict(zip(_CUT_NAMES, row)) for f, row in zip(FACTORS, self.cuts.tolist())}

    def to_json(self) -> str:
        return json.dumps(self.by_factor(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VolatilityThresholds":
        """The thresholds ``to_json`` wrote; a missing or malformed cut raises
        ``InputError`` naming it."""
        payload = jsonread.parse(text, "thresholds", InputError)
        return cls(np.array([[payload[f][name].number() for name in _CUT_NAMES] for f in FACTORS]))


def window_variance(values, window: range = TEMPERATURE_WINDOW):
    """Population variance over ``window`` of the last axis of normalized
    half-hourly samples, every one present and finite: a day's ``[48]`` give
    a float, a ``[days, 48]`` array one variance per day, each day's bits."""
    vals = np.asarray(values, dtype=np.float64)
    idx = np.fromiter(window, dtype=np.intp)
    if idx.size == 0:
        raise InputError("window selects no samples")
    if vals.ndim not in (1, 2) or idx.max() >= vals.shape[-1]:
        raise InputError(f"window needs index {idx.max()} of [48] or [days, 48] samples, got {vals.shape}")
    # contiguous along the window, so numpy sums each day in the order it sums
    # one day alone (``vals[..., idx]`` is strided there and sums otherwise)
    selected = np.take(vals, idx, axis=-1)
    if not np.isfinite(selected).all():
        raise InputError("window contains missing samples")
    variance = np.where(np.ptp(selected, axis=-1) == 0.0, 0.0, selected.var(axis=-1))
    return float(variance) if vals.ndim == 1 else variance


def factor_variances(dataset) -> dict[str, np.ndarray]:
    """Window variance of each factor's normalized channel on every complete
    day of ``dataset`` (a ``data_ingest.Dataset``), in one reduction per
    factor: ``[days]`` per factor, entry k for ``dataset.days[k]``."""
    return {
        f: window_variance(normalize(dataset.channels[c], dataset.norm[c]), FACTOR_WINDOWS[f])
        for f, c in FACTOR_CHANNELS.items()
    }


def classify_volatility(factor: str, variance: float, thresholds: VolatilityThresholds) -> int:
    """Band a variance into a level 0-3, the number of the factor's cuts at or
    below it: bands are lower-inclusive, so a variance exactly on a cut
    belongs to the higher level."""
    if variance < 0:
        raise InputError(f"variance must be non-negative, got {variance}")
    return int(np.searchsorted(thresholds.cuts[FACTORS.index(factor)], variance, side="right"))


def sigma_from_levels(levels: dict[str, int]) -> float:
    """Noise std: max(1, sum of per-factor increments).

    The floor keeps the all-Normal case at the baseline N(0,1) noise; summed
    increments alone would give 0 there.
    """
    return max(1.0, float(LEVEL_INCREMENTS[[levels[f] for f in FACTORS]].sum()))


def noise_sigma(variances: dict[str, float], thresholds: VolatilityThresholds) -> float:
    """Noise std for one day from its afternoon window variance per factor."""
    return sigma_from_levels(
        {factor: classify_volatility(factor, variances[factor], thresholds) for factor in FACTORS}
    )


def calibrate_thresholds(variances: dict[str, np.ndarray]) -> VolatilityThresholds:
    """Empirical 60th/85th/95th percentile cuts per factor; cuts that are not
    ``0 < low < med < high`` fail in ``VolatilityThresholds``, naming the
    factor."""
    cuts = []
    for factor in FACTORS:
        if factor not in variances:
            raise InputError(f"no variance samples for factor {factor!r}")
        sample = np.asarray(variances[factor], dtype=np.float64)
        if sample.size < MIN_CALIBRATION_SAMPLES:
            raise InputError(
                f"{factor}: {sample.size} samples < required {MIN_CALIBRATION_SAMPLES}"
            )
        cuts.append(np.quantile(sample, (NORMAL_PERCENTILE, LOW_PERCENTILE, MEDIUM_PERCENTILE)))
    return VolatilityThresholds(np.array(cuts))


def pearson_correlation(x, y) -> tuple[float, float]:
    """Sample Pearson r and the two-sided p-value from the t statistic
    t = r * sqrt((n-2)/(1-r^2)) with n-2 degrees of freedom."""
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
    return r, _student_t_two_sided(t, n - 2)


def _student_t_two_sided(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with a whole number ``dof`` of degrees
    of freedom: one minus the finite series A(t|dof) of Abramowitz & Stegun
    26.7.3 (odd dof) and 26.7.4 (even dof) in theta = atan(|t|/sqrt(dof))."""
    cos2 = dof / (dof + t * t)
    sin = abs(t) / math.sqrt(dof + t * t)
    if dof % 2:
        term, total = math.sqrt(cos2), 0.0
        for k in range(1, (dof - 1) // 2 + 1):  # empty for dof = 1
            total += term
            term *= cos2 * 2 * k / (2 * k + 1)
        inside = 2.0 / math.pi * (math.atan2(abs(t), math.sqrt(dof)) + sin * total)
    else:
        term, total = 1.0, 0.0
        for k in range(1, dof // 2 + 1):
            total += term
            term *= cos2 * (2 * k - 1) / (2 * k)
        inside = sin * total
    return min(1.0, max(0.0, 1.0 - inside))


def spike_histogram(prices) -> np.ndarray:
    """Counts of prices at or above ``SPIKE_THRESHOLD_AUD`` per half-hour of
    day, over a ``[days, 48]`` array of A$/MWh prices."""
    arr = np.asarray(prices, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != HALF_HOURS_PER_DAY:
        raise InputError(f"prices must be [days, {HALF_HOURS_PER_DAY}], got {arr.shape}")
    return (arr >= SPIKE_THRESHOLD_AUD).sum(axis=0)

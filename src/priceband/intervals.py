"""Stacked densities, prediction intervals, and the one-day prediction.

Scenarios are normalized price paths: the rows of an ``[M, T]`` float64
array with values in [0, 1], as ``ctsgan.generate_scenarios`` returns them.
A density is the pair ``(edges, mass)`` that ``np.histogram`` gives, with
one row of ``mass`` per timestep: the ``bins + 1`` equal-width edges on
[0, 1] and a ``[T, bins]`` array whose rows sum to 1. An interval is a
``[2, T]`` array of symmetric empirical quantiles, lower bounds in row 0
and upper bounds in row 1, with linear interpolation between order
statistics. The caller decides a day's noise sigma
(``weather_volatility.noise_sigma``); on a reinforced day (sigma > 1) the
baseline rows and the wide-noise rows are stacked into one matrix, so the
afternoon spike window picks up extra spread.
"""

from __future__ import annotations

import math

import numpy as np

from .ctsgan import generate_scenarios
from .errors import InputError
from .seeding import derive_seed

DEFAULT_BINS = 50


def _scenario_rows(scenarios, what: str) -> np.ndarray:
    """``scenarios`` as a float64 ``[M, T]`` matrix holding at least one row."""
    arr = np.asarray(scenarios, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"scenarios must be a 2-D matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InputError(f"cannot {what} an empty scenario set")
    return arr


def stack_density(scenarios: np.ndarray, bins: int = DEFAULT_BINS) -> tuple[np.ndarray, np.ndarray]:
    """Per-timestep normalized histogram of the ``[M, T]`` ``scenarios`` over
    ``bins`` equal-width bins on [0, 1]: ``(edges, mass)`` with ``bins + 1``
    edges and a ``[T, bins]`` mass whose rows sum to 1. A value outside
    [0, 1], or NaN, would fall in no bin and raises ``InputError``."""
    arr = _scenario_rows(scenarios, "stack")
    if bins < 2:
        raise InputError(f"need at least 2 bins, got {bins}")
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise InputError("scenario values must lie in [0, 1]")
    edges = np.linspace(0.0, 1.0, bins + 1)
    mass = np.empty((arr.shape[1], bins))
    for t in range(arr.shape[1]):
        counts, _ = np.histogram(arr[:, t], bins=edges)
        mass[t] = counts / arr.shape[0]
    return edges, mass


def build_interval(scenarios: np.ndarray, nominal: float) -> np.ndarray:
    """Symmetric empirical-quantile interval of the ``[M, T]`` ``scenarios``
    at ``nominal`` coverage: a ``[2, T]`` array holding the lower bounds in
    row 0 and the upper bounds in row 1.

    Quantiles interpolate linearly between adjacent order statistics.
    """
    if not 0.0 < nominal < 1.0:
        raise InputError(f"nominal coverage must be in (0, 1), got {nominal}")
    arr = _scenario_rows(scenarios, "build an interval from")
    # epsilon guards float artifacts like 2/(1-0.8) = 10.000000000000002
    needed = math.ceil(2.0 / (1.0 - nominal) - 1e-9)
    if arr.shape[0] < needed:
        raise InputError(
            f"{arr.shape[0]} scenarios < {needed} required for nominal {nominal}"
        )
    tail = (1.0 - nominal) / 2.0
    return np.quantile(arr, [tail, 1.0 - tail], axis=0)


def predict_pipeline(
    model,
    condition: np.ndarray,
    sigma: float,
    count: int,
    nominal: float,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Full prediction for one day under the noise std ``sigma``: generate
    scenarios (baseline plus reinforced when ``sigma`` exceeds 1) and reduce
    them to an interval.

    Returns ``(bounds, scenarios)``: the ``[2, T]`` interval of
    :func:`build_interval` and the scenario matrix. ``scenarios`` holds
    ``count`` baseline rows, then, on a reinforced day (``sigma > 1``),
    ``count`` wide-noise rows.
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

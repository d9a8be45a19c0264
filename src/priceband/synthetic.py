"""Synthetic half-hourly market data for tests and demos.

Prices follow a daily sinusoid plus demand coupling; a share of days are
"volatile": their afternoon weather channels (12:00-19:00) get choppy and the
price path picks up spikes of several hundred dollars in the same window.
That coupling is what the reinforced prediction mechanism exploits, so the
toy corpus exercises the full pipeline end to end. Everything is
deterministic given the seed.
"""

from __future__ import annotations

import csv
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

from .data_ingest import CSV_COLUMNS, HALF_HOURS_PER_DAY

_T = np.arange(HALF_HOURS_PER_DAY)

START = date(2021, 1, 1)
VOLATILE_SHARE = 0.15


def _day_channels(rng: np.random.Generator, day_index: int, volatile: bool) -> dict[str, np.ndarray]:
    season = np.sin(2 * np.pi * (day_index % 365) / 365.0)
    # volatile days vary in severity; severity drives both the afternoon
    # weather chop and the spike intensity, mirroring the spike/weather link
    severity = float(rng.uniform(0.6, 1.8)) if volatile else 0.0

    temperature = (
        16.0
        + 6.0 * season
        + 5.0 * np.sin(2 * np.pi * (_T - 16) / HALF_HOURS_PER_DAY)
        + rng.normal(0.0, 0.4, HALF_HOURS_PER_DAY)
    )
    if volatile:
        temperature[24:39] += rng.normal(0.0, 2.5 * severity, 15)

    daylight = np.clip(np.sin(np.pi * (_T - 12) / 24.0), 0.0, None)
    irradiance = 900.0 * (0.8 + 0.2 * season) * daylight**2
    if volatile:
        chop = 1.0 - rng.uniform(0.0, 0.8, 11) * min(severity, 1.0)
        irradiance[24:35] *= chop
    else:
        irradiance *= rng.uniform(0.92, 1.0)
    irradiance = np.clip(irradiance, 0.0, None)

    wind = 5.0 + 2.0 * np.sin(2 * np.pi * (_T - 30) / HALF_HOURS_PER_DAY)
    wind += rng.normal(0.0, 0.5, HALF_HOURS_PER_DAY)
    if volatile:
        wind[24:39] += rng.uniform(0.0, 6.0 * severity, 15)
    wind = np.clip(wind, 0.0, None)

    demand = (
        6500.0
        + 1200.0 * np.sin(2 * np.pi * (_T - 30) / HALF_HOURS_PER_DAY)
        + 25.0 * (temperature - 16.0)
        + rng.normal(0.0, 50.0, HALF_HOURS_PER_DAY)
    )

    # Sinusoidal daily shape, scaled by an unpredictable day-level regime
    # factor and perturbed by smooth intra-day bumps: the condition set cannot
    # explain these, so the conditional price distribution has real spread.
    level = float(np.exp(rng.normal(0.0, 0.28)))
    bumps = np.empty(HALF_HOURS_PER_DAY)
    bumps[0] = rng.normal(0.0, 10.0)
    for k in range(1, HALF_HOURS_PER_DAY):
        bumps[k] = 0.85 * bumps[k - 1] + rng.normal(0.0, 5.3)
    price = (
        level * (45.0 + 30.0 * np.sin(2 * np.pi * (_T - 30) / HALF_HOURS_PER_DAY))
        + bumps
        + 0.01 * (demand - 6500.0)
        + rng.normal(0.0, 2.0, HALF_HOURS_PER_DAY)
    )
    if volatile:
        for _ in range(int(rng.integers(1, 4))):
            start = int(rng.integers(24, 36))
            width = int(rng.integers(2, 5))
            price[start : start + width] += rng.uniform(150.0, 300.0) * severity
    price = np.clip(price, 0.0, 500.0)

    gas = np.full(HALF_HOURS_PER_DAY, 8.0 + 1.5 * season + rng.normal(0.0, 0.3))
    coal = np.full(HALF_HOURS_PER_DAY, 90.0 + 10.0 * season + rng.normal(0.0, 2.0))

    return {
        "price": price,
        "demand": demand,
        "temperature": temperature,
        "irradiance": irradiance,
        "wind_speed": wind,
        "gas_price": gas,
        "coal_price": coal,
    }


def generate_market_csv(path, days: int = 60, seed: int = 0) -> Path:
    """Write a schema-conforming CSV of ``days`` days from ``START``; returns
    the path."""
    rng = np.random.default_rng(seed)
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for d in range(days):
            volatile = bool(rng.random() < VOLATILE_SHARE)
            channels = _day_channels(rng, d, volatile)
            columns = [channels[name].tolist() for name in CSV_COLUMNS[1:]]
            day_start = datetime.combine(START + timedelta(days=d), datetime.min.time())
            for k, values in enumerate(zip(*columns)):
                ts = day_start + timedelta(minutes=30 * k)
                writer.writerow([ts.isoformat(), *map(repr, values)])
    return path

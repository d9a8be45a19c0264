import json
import math

import numpy as np
import pytest
from scipy import stats

from priceband import weather_volatility as wv
from priceband.data_ingest import normalize
from priceband.errors import InputError


# --- window variance -----------------------------------------------------------

def test_constant_series_zero_variance():
    assert wv.window_variance(np.full(48, 0.3)) == 0.0


def test_alternating_samples_quarter_variance():
    values = np.zeros(48)
    values[24:39] = np.tile([0.0, 1.0], 8)[:15]
    # population variance of {0,1} split 8/7 over 15 samples
    expected = np.var(values[24:39])
    assert wv.window_variance(values) == pytest.approx(expected, abs=1e-15)
    even = np.zeros(48)
    even[24:38] = np.tile([0.0, 1.0], 7)
    assert wv.window_variance(even, range(24, 38)) == pytest.approx(0.25, abs=1e-15)


def test_variance_matches_two_pass_oracle():
    rng = np.random.default_rng(7)
    values = np.full(48, np.nan)
    window = range(10, 24)  # 14 samples
    samples = rng.uniform(0, 1, 14)
    values[10:24] = samples
    mean = sum(samples) / len(samples)
    oracle = sum((s - mean) ** 2 for s in samples) / len(samples)
    assert wv.window_variance(values, window) == pytest.approx(oracle, abs=1e-12)


def test_incomplete_window_rejected():
    values = np.full(48, 0.5)
    values[30] = np.nan
    with pytest.raises(InputError, match="missing samples"):
        wv.window_variance(values)
    with pytest.raises(InputError, match="window needs index 38"):
        wv.window_variance(np.ones(10), range(24, 39))


# --- classification -------------------------------------------------------------

def test_classification_reference_bands(reference_thresholds):
    assert wv.classify_volatility("temperature", 0.001, reference_thresholds) == 0
    assert wv.classify_volatility("temperature", 0.004, reference_thresholds) == 2
    assert wv.classify_volatility("irradiance", 0.07, reference_thresholds) == 3
    assert wv.classify_volatility("wind", 0.02, reference_thresholds) == 3


@pytest.mark.parametrize("cut", [0, 1, 2], ids=["low_cut", "med_cut", "high_cut"])
@pytest.mark.parametrize("factor", wv.FACTORS)
def test_classification_boundary_is_lower_inclusive(reference_thresholds, factor, cut):
    """A variance exactly on a cut takes the higher level; the float just
    below it keeps the lower one."""
    value = reference_thresholds.cuts[wv.FACTORS.index(factor), cut]
    assert wv.classify_volatility(factor, value, reference_thresholds) == cut + 1
    below = np.nextafter(value, 0.0)
    assert wv.classify_volatility(factor, below, reference_thresholds) == cut


def test_classification_nan_is_high_and_negative_is_refused(reference_thresholds):
    assert wv.classify_volatility("wind", float("nan"), reference_thresholds) == 3
    with pytest.raises(InputError, match="variance must be non-negative"):
        wv.classify_volatility("wind", -1e-12, reference_thresholds)


def test_classification_monotone(reference_thresholds):
    rng = np.random.default_rng(3)
    variances = np.sort(rng.uniform(0, 0.03, 100))
    levels = [wv.classify_volatility("temperature", v, reference_thresholds) for v in variances]
    assert all(a <= b for a, b in zip(levels, levels[1:]))


def test_threshold_cuts_must_increase():
    cuts = np.array([[0.1, 0.2, 0.3], [0.1, 0.3, 0.2], [0.1, 0.2, 0.3]])
    message = r"^irradiance: cuts must satisfy 0 < low < med < high, got \(0.1, 0.3, 0.2\)"
    with pytest.raises(InputError, match=message):
        wv.VolatilityThresholds(cuts)


# --- sigma selection -------------------------------------------------------------

def test_sigma_worked_example(reference_thresholds):
    levels = {
        "temperature": wv.classify_volatility("temperature", 0.004, reference_thresholds),
        "irradiance": wv.classify_volatility("irradiance", 0.07, reference_thresholds),
        "wind": wv.classify_volatility("wind", 0.02, reference_thresholds),
    }
    assert wv.sigma_from_levels(levels) == pytest.approx(2.667, abs=1e-9)


def test_sigma_floor_and_ceiling():
    assert wv.sigma_from_levels({f: 0 for f in wv.FACTORS}) == 1.0
    assert wv.sigma_from_levels({f: 3 for f in wv.FACTORS}) == 3.0


def test_sigma_monotone_in_each_factor():
    for factor in wv.FACTORS:
        previous = 0.0
        for level in range(4):
            levels = {f: 0 for f in wv.FACTORS}
            levels[factor] = level
            sigma = wv.sigma_from_levels(levels)
            assert 1.0 <= sigma <= 3.0
            assert sigma >= previous
            previous = sigma


def test_benchmark_sigma_route_matches_noise_sigma(toy_dataset, toy_thresholds):
    """The route bench/workloads.py takes to each day's expected sigma
    (thresholds read back from JSON, the window variance of the day's
    normalized samples, then ``classify_volatility`` and
    ``sigma_from_levels``) gives ``noise_sigma``'s value on the day's
    ``factor_variances`` bit for bit on every day of the toy corpus."""
    thresholds = wv.VolatilityThresholds.from_json(toy_thresholds.to_json())
    variances = wv.factor_variances(toy_dataset)
    for k, day in enumerate(toy_dataset.days):
        levels = {}
        for f in wv.FACTORS:
            name = wv.FACTOR_CHANNELS[f]
            normed = normalize(toy_dataset.channels[name][k], toy_dataset.norm[name])
            variance = wv.window_variance(normed, wv.FACTOR_WINDOWS[f])
            levels[f] = wv.classify_volatility(f, variance, thresholds)
        day_variances = {f: v[k] for f, v in variances.items()}
        assert wv.sigma_from_levels(levels) == wv.noise_sigma(day_variances, toy_thresholds), day


def test_factor_variances_equal_each_day_alone(toy_dataset):
    """One window variance over all days gives, bit for bit, the variance of
    each day's normalized samples taken alone, for every factor."""
    variances = wv.factor_variances(toy_dataset)
    assert list(variances) == list(wv.FACTORS)
    for f in wv.FACTORS:
        name = wv.FACTOR_CHANNELS[f]
        assert variances[f].shape == (toy_dataset.n_days,)
        for k in range(toy_dataset.n_days):
            day = normalize(toy_dataset.channels[name][k], toy_dataset.norm[name])
            single = wv.window_variance(day, wv.FACTOR_WINDOWS[f])
            assert type(single) is float
            assert variances[f][k].tobytes() == np.float64(single).tobytes(), (f, k)


def test_window_variance_over_days():
    """A ``[days, 48]`` array gives one variance per day: a constant window
    gives 0, and a missing sample anywhere in the window is refused."""
    rng = np.random.default_rng(5)
    days = rng.uniform(0, 1, (4, 48))
    days[2, 24:39] = 0.3
    got = wv.window_variance(days)
    assert got.shape == (4,) and got[2] == 0.0
    for k in range(4):
        assert got[k] == wv.window_variance(days[k])
    days[3, 30] = np.nan
    with pytest.raises(InputError, match="missing samples"):
        wv.window_variance(days)
    with pytest.raises(InputError, match=r"or \[days, 48\] samples, got \(2, 2, 48\)"):
        wv.window_variance(np.ones((2, 2, 48)))


@pytest.mark.parametrize(
    "factor, cut, value",
    [("temperature", "low_cut", "0.01"), ("irradiance", "med_cut", True), ("wind", "high_cut", None)],
)
def test_thresholds_json_refuses_non_numbers(reference_thresholds, factor, cut, value):
    """A cut read from JSON must be a JSON number: a string, a boolean or
    null is refused by factor and cut name, not converted."""
    payload = reference_thresholds.by_factor()
    payload[factor][cut] = value
    message = rf"^thresholds {factor}\.{cut}: expected a finite number, got {json.dumps(value)}$"
    with pytest.raises(InputError, match=message):
        wv.VolatilityThresholds.from_json(json.dumps(payload))


# --- calibration ------------------------------------------------------------------

def test_calibrate_uniform_quantiles():
    rng = np.random.default_rng(5)
    sample = rng.uniform(0, 1, 10_000)
    thresholds = wv.calibrate_thresholds({f: sample for f in wv.FACTORS})
    low, med, high = thresholds.cuts[wv.FACTORS.index("temperature")]
    assert low == pytest.approx(0.60, abs=0.02)
    assert med == pytest.approx(0.85, abs=0.02)
    assert high == pytest.approx(0.95, abs=0.02)


def test_calibrate_matches_reference_temperature_band():
    # piecewise-linear quantile function through the reference temperature cuts
    rng = np.random.default_rng(11)
    u = rng.uniform(0, 1, 20_000)
    knots_p = np.array([0.0, 0.60, 0.85, 0.95, 1.0])
    knots_v = np.array([0.0, 0.0019, 0.0030, 0.0058, 0.02])
    sample = np.interp(u, knots_p, knots_v)
    thresholds = wv.calibrate_thresholds({f: sample for f in wv.FACTORS})
    low, med, high = thresholds.cuts[wv.FACTORS.index("temperature")]
    assert low == pytest.approx(0.0019, rel=0.05)
    assert med == pytest.approx(0.0030, rel=0.05)
    assert high == pytest.approx(0.0058, rel=0.05)


def test_calibrate_normal_share():
    rng = np.random.default_rng(13)
    sample = rng.uniform(0, 1, 5000)
    thresholds = wv.calibrate_thresholds({f: sample for f in wv.FACTORS})
    share = np.mean(sample < thresholds.cuts[wv.FACTORS.index("wind"), 0])
    assert share == pytest.approx(0.60, abs=1.0 / np.sqrt(sample.size))


def test_calibrate_degenerate_and_insufficient():
    with pytest.raises(InputError, match="temperature: cuts must satisfy 0 < low < med < high"):
        wv.calibrate_thresholds({f: np.full(200, 0.5) for f in wv.FACTORS})
    with pytest.raises(InputError, match="50 samples < required 100"):
        wv.calibrate_thresholds({f: np.linspace(0, 1, 50) for f in wv.FACTORS})


def test_calibrate_zero_heavy_factor_is_named():
    """A factor whose afternoon variance is zero on 60% of days or more has a
    low cut of 0, which no level can sit below; the error names it."""
    rng = np.random.default_rng(17)
    sample = rng.uniform(0, 1, 500)
    wind = np.where(np.arange(500) < 350, 0.0, sample)
    message = r"^wind: cuts must satisfy 0 < low < med < high, got \(0\.0, "
    with pytest.raises(InputError, match=message):
        wv.calibrate_thresholds({"temperature": sample, "irradiance": sample, "wind": wind})


def test_thresholds_json_round_trip(reference_thresholds):
    again = wv.VolatilityThresholds.from_json(reference_thresholds.to_json())
    assert np.array_equal(again.cuts, reference_thresholds.cuts)


# --- correlation --------------------------------------------------------------------

def test_pearson_perfect_lines():
    x = np.arange(10.0)
    r, p = wv.pearson_correlation(x, 2 * x + 1)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert p == 0.0
    r, _ = wv.pearson_correlation(x, -x)
    assert r == pytest.approx(-1.0, abs=1e-12)


def test_pearson_matches_scipy():
    rng = np.random.default_rng(17)
    x = rng.normal(size=50)
    y = 0.4 * x + rng.normal(size=50)
    r, p = wv.pearson_correlation(x, y)
    expected = stats.pearsonr(x, y)
    assert r == pytest.approx(expected.statistic, abs=1e-10)
    assert p == pytest.approx(expected.pvalue, abs=1e-8)


@pytest.mark.parametrize("n", [3, 4, 303, 304])
def test_pearson_p_value_matches_scipy_at_few_and_many_dof(n):
    """The closed-form Student t tail at n - 2 = 1, 2 (the shortest odd and
    even series) and 301, 302 degrees of freedom, on data whose p-value is
    neither near 0 nor near 1."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    y = 2.0 / math.sqrt(n) * x + rng.normal(size=n)
    r, p = wv.pearson_correlation(x, y)
    expected = stats.pearsonr(x, y)
    assert 0.01 < expected.pvalue < 0.99
    assert r == pytest.approx(expected.statistic, abs=1e-10)
    assert p == pytest.approx(expected.pvalue, abs=1e-8)


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(19)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    r_xy, _ = wv.pearson_correlation(x, y)
    r_yx, _ = wv.pearson_correlation(y, x)
    r_affine, _ = wv.pearson_correlation(3.0 * x + 7.0, y)
    assert r_xy == pytest.approx(r_yx, abs=1e-12)
    assert r_xy == pytest.approx(r_affine, abs=1e-10)


def test_pearson_errors():
    with pytest.raises(InputError, match="y has shape"):
        wv.pearson_correlation([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputError, match="at least 3 paired samples"):
        wv.pearson_correlation([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(InputError, match="nonzero variance"):
        wv.pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# --- spike histogram ----------------------------------------------------------------

def test_spike_histogram_empty():
    assert wv.spike_histogram(np.full((2, 48), 100.0)).sum() == 0


def test_spike_histogram_single_spike_at_1400():
    values = np.full((1, 48), 100.0)
    values[0, 28] = 420.0  # 14:00
    counts = wv.spike_histogram(values)
    assert counts[28] == 1
    assert counts.sum() == 1


def test_spike_histogram_afternoon_only_fixture():
    rng = np.random.default_rng(23)
    values = np.full((30, 48), 80.0)
    for day in range(30):
        if rng.random() < 0.5:
            slot = int(rng.integers(24, 39))
            values[day, slot] = 400.0
    counts = wv.spike_histogram(values)
    assert counts.sum() > 0
    assert counts[:24].sum() == 0
    assert counts[39:].sum() == 0


def test_spike_threshold_is_inclusive():
    values = np.full((1, 48), 100.0)
    values[0, 30] = 350.0
    assert wv.spike_histogram(values)[30] == 1
    with pytest.raises(InputError, match=r"\[days, 48\]"):
        wv.spike_histogram(values[0])

import tracemalloc

import numpy as np
import pytest

from priceband import ctsgan
from priceband import intervals as iv
from priceband import weather_volatility as wv
from priceband.errors import InputError
from priceband.seeding import derive_seed

HORIZON = 48


def ar1_paths(count, phi=0.8, mean=0.5, stat_std=0.08, steps=HORIZON, seed=0):
    """Stationary Gaussian AR(1), mapped well inside [0, 1]."""
    rng = np.random.default_rng(seed)
    innov_std = stat_std * np.sqrt(1.0 - phi * phi)
    paths = np.empty((count, steps))
    paths[:, 0] = rng.normal(mean, stat_std, count)
    for t in range(1, steps):
        paths[:, t] = mean + phi * (paths[:, t - 1] - mean) + rng.normal(0, innov_std, count)
    return np.clip(paths, 0.0, 1.0)


# --- density stacking -----------------------------------------------------------

def test_point_mass_density():
    _, mass = iv.stack_density(np.full((20, HORIZON), 0.5), bins=10)
    assert mass.shape == (HORIZON, 10)
    assert (mass[:, 5] == 1.0).all()
    assert mass.sum() == HORIZON


def test_single_scenario_one_hot_rows():
    rng = np.random.default_rng(1)
    _, mass = iv.stack_density(rng.uniform(0, 1, (1, HORIZON)), bins=25)
    assert ((mass == 0.0) | (mass == 1.0)).all()
    assert np.array_equal(mass.sum(axis=1), np.ones(HORIZON))


def test_uniform_scenarios_binomial_tolerance():
    rng = np.random.default_rng(2)
    count, bins = 100_000, 10
    _, mass = iv.stack_density(rng.uniform(0, 1, (count, HORIZON)), bins=bins)
    tolerance = 3.0 * np.sqrt(0.1 * 0.9 / count)
    assert np.abs(mass - 1.0 / bins).max() <= tolerance


def test_density_rejects_empty_and_bad_bins():
    with pytest.raises(InputError, match="empty scenario set"):
        iv.stack_density(np.empty((0, HORIZON)), bins=10)
    with pytest.raises(InputError, match="at least 2 bins"):
        iv.stack_density(np.full((3, HORIZON), 0.5), bins=1)
    for bad in (1.5, -0.1, np.nan):
        scenarios = np.full((3, HORIZON), 0.5)
        scenarios[1, 7] = bad
        with pytest.raises(InputError, match=r"scenario values must lie in \[0, 1\]"):
            iv.stack_density(scenarios, bins=10)


def test_boundary_value_lands_in_last_bin():
    _, mass = iv.stack_density(np.ones((4, HORIZON)), bins=10)
    assert (mass[:, -1] == 1.0).all()


# --- interval construction ---------------------------------------------------------

def test_interval_matches_hand_computed_order_statistics():
    ladder = np.tile(np.linspace(0.1, 1.0, 10)[:, None], (1, HORIZON))
    bounds = iv.build_interval(ladder, nominal=0.8)
    assert bounds.shape == (2, HORIZON)
    lower, upper = bounds
    # quantile 0.1 of {0.1..1.0}: position 0.9 between 0.1 and 0.2 -> 0.19
    assert np.allclose(lower, 0.19, atol=1e-12)
    assert np.allclose(upper, 0.91, atol=1e-12)


def test_interval_too_few_scenarios():
    ladder = np.tile(np.linspace(0.1, 0.9, 9)[:, None], (1, HORIZON))
    with pytest.raises(InputError, match="9 scenarios < 10 required"):
        iv.build_interval(ladder, nominal=0.8)  # needs ceil(2/0.2) = 10


def test_interval_zero_width_on_identical_scenarios():
    lower, upper = iv.build_interval(np.full((50, HORIZON), 0.3), nominal=0.9)
    assert np.array_equal(lower, upper)
    assert ((upper - lower) == 0.0).all()


def test_interval_approaches_envelope_as_nominal_grows():
    rng = np.random.default_rng(3)
    scenarios = rng.uniform(0.2, 0.8, (5000, HORIZON))
    lower, upper = iv.build_interval(scenarios, nominal=0.9995)
    assert np.abs(lower - scenarios.min(axis=0)).max() < 0.01
    assert np.abs(upper - scenarios.max(axis=0)).max() < 0.01


def test_interval_nested_in_nominal():
    rng = np.random.default_rng(4)
    scenarios = rng.normal(0.5, 0.1, (400, HORIZON)).clip(0, 1)
    narrow_lower, narrow_upper = iv.build_interval(scenarios, nominal=0.6)
    wide_lower, wide_upper = iv.build_interval(scenarios, nominal=0.9)
    assert (wide_lower <= narrow_lower + 1e-12).all()
    assert (wide_upper >= narrow_upper - 1e-12).all()


def test_density_interval_consistency():
    rng = np.random.default_rng(5)
    count, bins, nominal = 500, 50, 0.9
    scenarios = rng.beta(2, 3, (count, HORIZON))
    lower, upper = iv.build_interval(scenarios, nominal)
    edges, mass = iv.stack_density(scenarios, bins)
    for t in range(HORIZON):
        inside = (edges[:-1] >= lower[t] - 1.0 / bins) & (edges[1:] <= upper[t] + 1.0 / bins)
        mass_inside = mass[t][inside].sum()
        assert mass_inside >= nominal - 2.0 / bins - 2.0 / count


# --- combination of the baseline and wide-noise rows ---------------------------------

CALM = {"temperature": 0.0001, "irradiance": 0.001, "wind": 0.0001}
WORKED = {"temperature": 0.004, "irradiance": 0.07, "wind": 0.02}


def branch_rows(model, condition, std, count, seed, branch):
    return ctsgan.generate_scenarios(
        model, condition, std, count, seed=derive_seed(seed, f"scenarios-{branch}")
    )


def test_combine_with_empty_volatile_is_identity(mini_model, toy_dataset, reference_thresholds):
    """A calm day adds no wide-noise rows: the pipeline's scenarios are the
    baseline branch, bit for bit."""
    condition = toy_dataset.conditions[0]
    sigma = wv.noise_sigma(CALM, reference_thresholds)
    _, scenarios = iv.predict_pipeline(mini_model, condition, sigma, 30, 0.9, seed=14)
    assert sigma == 1.0
    baseline = branch_rows(mini_model, condition, 1.0, 30, 14, "normal")
    assert scenarios.tobytes() == baseline.tobytes()


def test_combine_counts_and_provenance(mini_model, toy_dataset, reference_thresholds):
    """A reinforced day stacks ``count`` baseline rows, then ``count``
    wide-noise rows: a row's index tells which branch produced it."""
    condition = toy_dataset.conditions[0]
    sigma = wv.noise_sigma(WORKED, reference_thresholds)
    _, scenarios = iv.predict_pipeline(mini_model, condition, sigma, 30, 0.9, seed=15)
    assert scenarios.shape == (60, HORIZON)
    baseline = branch_rows(mini_model, condition, 1.0, 30, 15, "normal")
    volatile = branch_rows(mini_model, condition, sigma, 30, 15, "volatile")
    assert scenarios[:30].tobytes() == baseline.tobytes()
    assert scenarios[30:].tobytes() == volatile.tobytes()


def test_paper_dims_reinforced_pipeline_memory():
    """A reinforced paper-dims day with 500 scenarios per branch peaks at
    10.5 MB of tracemalloc (17.3 MB with one bias and gate-affine row per
    path, 50.5 MB with the stacked chain): each branch's generation holds
    one time step at a time, and stacking the two ``[count, 48]`` results
    happens after both have freed their working sets."""
    model = ctsgan.build_model(263, ctsgan.TrainingConfig(hidden_dim=100, latent_dim=100, seed=3))
    model.training_flags.update(phase1=True, phase2=True, phase3=True)
    model.latent_autocorr = 0.83
    condition = np.random.default_rng(18).uniform(size=263)
    tracemalloc.start()
    try:
        _, scenarios = iv.predict_pipeline(model, condition, 1.8, 500, 0.9, seed=19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14e6, f"peak {peak / 1e6:.1f} MB"
    assert scenarios.shape == (1000, HORIZON)


def test_combine_order_insensitive_interval():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.3, 0.5, (40, HORIZON))
    b = rng.uniform(0.2, 0.8, (40, HORIZON))
    ab = iv.build_interval(np.vstack([a, b]), 0.9)
    ba = iv.build_interval(np.vstack([b, a]), 0.9)
    assert np.array_equal(ab, ba)


# --- coverage oracle (independent of the generative model) ----------------------------

def test_ar1_coverage_oracle():
    scenarios = ar1_paths(4000, seed=8)
    lower, upper = iv.build_interval(scenarios, nominal=0.90)
    fresh = ar1_paths(1000, seed=9)
    covered = (fresh >= lower) & (fresh <= upper)
    assert covered.mean() == pytest.approx(0.90, abs=0.03)


# --- pipeline --------------------------------------------------------------------------

def test_pipeline_calm_day_stays_baseline(mini_model, toy_dataset, reference_thresholds):
    condition = toy_dataset.conditions[0]
    sigma = wv.noise_sigma(CALM, reference_thresholds)
    (lower, upper), scenarios = iv.predict_pipeline(mini_model, condition, sigma, 40, 0.9, seed=11)
    assert sigma == 1.0
    assert scenarios.shape == (40, HORIZON)
    assert (lower <= upper).all()


def test_pipeline_worked_example_triggers_reinforcement(mini_model, toy_dataset, reference_thresholds):
    condition = toy_dataset.conditions[0]
    sigma = wv.noise_sigma(WORKED, reference_thresholds)
    (lower, upper), scenarios = iv.predict_pipeline(mini_model, condition, sigma, 40, 0.9, seed=12)
    assert sigma == pytest.approx(2.667, abs=1e-9)
    assert scenarios.shape == (80, HORIZON)
    assert (lower <= upper).all()


def test_pipeline_deterministic(mini_model, toy_dataset, reference_thresholds):
    condition = toy_dataset.conditions[0]
    sigma = wv.noise_sigma(WORKED, reference_thresholds)
    a = iv.predict_pipeline(mini_model, condition, sigma, 20, 0.9, seed=13)
    b = iv.predict_pipeline(mini_model, condition, sigma, 20, 0.9, seed=13)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_combined_interval_contains_baseline_on_afternoon(trained_toy, toy_thresholds):
    """Reinforced union widens (or matches) the baseline interval across
    nearly all afternoon timesteps."""
    model = trained_toy["model"]
    afternoon = wv.AFTERNOON_WINDOW
    fractions = []
    for day_index in (2, 8, 9):  # reinforced test days
        condition = trained_toy["test_days"][day_index][0]
        normal = ctsgan.generate_scenarios(model, condition, 1.0, 300, seed=41)
        volatile = ctsgan.generate_scenarios(model, condition, 2.0, 300, seed=42)
        base_lower, base_upper = iv.build_interval(normal, 0.9)
        merged_lower, merged_upper = iv.build_interval(np.vstack([normal, volatile]), 0.9)
        idx = np.fromiter(afternoon, dtype=int)
        contains = (merged_lower[idx] <= base_lower[idx] + 1e-12) & (
            merged_upper[idx] >= base_upper[idx] - 1e-12
        )
        fractions.append(contains.mean())
    assert np.mean(fractions) >= 0.9

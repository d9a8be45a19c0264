import itertools
import json
import math
import sys
import threading

import numpy as np
import pytest

from priceband import ctsgan, intervals, metrics
from priceband import weather_volatility as wv
from priceband.errors import InputError, StateError
from priceband.seeding import derive_seed


def run_of(actuals, lower, upper):
    return (
        np.asarray(actuals, dtype=float),
        np.asarray(lower, dtype=float),
        np.asarray(upper, dtype=float),
    )


# --- coverage -----------------------------------------------------------------------

def test_ecpas_twenty_samples_two_uncovered():
    actuals = np.full(20, 0.5)
    lower = np.full(20, 0.4)
    upper = np.full(20, 0.6)
    actuals[3] = 0.95
    actuals[11] = 0.05
    assert metrics.ecpas(*run_of(actuals, lower, upper)) == 0.90


def test_ecpas_all_inside_and_boundaries():
    actuals = np.array([0.4, 0.5, 0.6])
    run = run_of(actuals, np.full(3, 0.4), np.full(3, 0.6))
    assert metrics.ecpas(*run) == 1.0  # both boundaries count as covered


def test_ecpas_permutation_invariant():
    rng = np.random.default_rng(1)
    actuals = rng.uniform(0, 1, 30)
    lower = actuals - rng.uniform(0, 0.2, 30)
    upper = actuals + rng.uniform(-0.05, 0.2, 30)
    upper = np.maximum(upper, lower)
    perm = rng.permutation(30)
    a = metrics.ecpas(*run_of(actuals, lower, upper))
    b = metrics.ecpas(*run_of(actuals[perm], lower[perm], upper[perm]))
    assert a == b


# --- width ---------------------------------------------------------------------------

def test_eawapi_values():
    assert metrics.eawapi(*run_of([0.5, 0.5], [0.3, 0.3], [0.5, 0.5])) == pytest.approx(0.2)
    assert metrics.eawapi(*run_of([0.5, 0.5], [0.4, 0.2], [0.5, 0.5])) == pytest.approx(0.2)
    assert metrics.eawapi(*run_of([0.5], [0.5], [0.5])) == 0.0


def test_widening_raises_coverage_and_width():
    rng = np.random.default_rng(2)
    actuals = rng.uniform(0.2, 0.8, 40)
    lower = actuals - rng.uniform(0.0, 0.1, 40)
    upper = actuals + rng.uniform(-0.08, 0.1, 40)
    upper = np.maximum(upper, lower)
    base = run_of(actuals, lower, upper)
    widened = run_of(actuals, lower - 0.05, upper + 0.05)
    assert metrics.ecpas(*widened) >= metrics.ecpas(*base)
    assert metrics.eawapi(*widened) > metrics.eawapi(*base)


def test_run_validation():
    for indicator in (metrics.ecpas, metrics.eawapi):
        with pytest.raises(InputError, match="shapes differ"):
            indicator(*run_of([0.5], [0.4, 0.4], [0.6, 0.6]))
        with pytest.raises(InputError, match="L_t <= U_t"):
            indicator(*run_of([0.5], [0.7], [0.6]))


# --- confidence levels ------------------------------------------------------------------

def test_confidence_ecpas_counts_at_or_above_target():
    deltas = [0.95] * 40 + [0.85] * 10
    assert metrics.confidence_level_ecpas(deltas, 0.90) == 0.80
    assert metrics.confidence_level_ecpas(deltas, 0.0) == 1.0
    assert metrics.confidence_level_ecpas([0.9, 0.9], 0.9) == 1.0  # >= is inclusive


def test_confidence_eawapi_strictly_below_target():
    xis = [0.1, 0.2, 0.3]
    assert metrics.confidence_level_eawapi(xis, 0.25) == pytest.approx(2 / 3)
    assert metrics.confidence_level_eawapi(xis, 0.3 + 1.0) == 1.0
    assert metrics.confidence_level_eawapi(xis, 0.0) == 0.0
    assert metrics.confidence_level_eawapi([0.2], 0.2) == 0.0  # strict inequality


def test_confidence_levels_monotone_step_functions():
    rng = np.random.default_rng(3)
    deltas = rng.uniform(0.7, 1.0, 50)
    xis = rng.uniform(0.1, 0.4, 50)
    targets = np.linspace(0.0, 1.1, 40)
    phis = [metrics.confidence_level_ecpas(deltas, t) for t in targets]
    assert all(a >= b for a, b in zip(phis, phis[1:]))
    varphis = [metrics.confidence_level_eawapi(xis, t) for t in targets]
    assert all(a <= b for a, b in zip(varphis, varphis[1:]))


def test_empty_runs_rejected():
    with pytest.raises(InputError, match="no coverage values"):
        metrics.confidence_level_ecpas([], 0.9)
    with pytest.raises(InputError, match="no width values"):
        metrics.confidence_level_eawapi([], 0.2)


# --- brute-force equivalence ----------------------------------------------------------------

def test_brute_force_equivalence_small_cases():
    rng = np.random.default_rng(4)
    for _ in range(5):
        T, S = int(rng.integers(1, 11)), int(rng.integers(1, 6))
        deltas, xis = [], []
        for s in range(S):
            actuals = rng.uniform(0, 1, T)
            lower = rng.uniform(0, 0.5, T)
            upper = lower + rng.uniform(0, 0.5, T)
            run = run_of(actuals, lower, upper)
            # exhaustive tallies, element by element
            covered = sum(1 for t in range(T) if lower[t] <= actuals[t] <= upper[t])
            width = sum(upper[t] - lower[t] for t in range(T)) / T
            assert metrics.ecpas(*run) == covered / T
            assert metrics.eawapi(*run) == pytest.approx(width, abs=1e-15)
            deltas.append(covered / T)
            xis.append(width)
        target_d, target_x = 0.5, 0.25
        assert metrics.confidence_level_ecpas(deltas, target_d) == sum(
            1 for d in deltas if d >= target_d
        ) / S
        assert metrics.confidence_level_eawapi(xis, target_x) == sum(
            1 for x in xis if x < target_x
        ) / S


# --- achieved-at-confidence values ------------------------------------------------------------

def brute_achieved_delta(deltas, confidence):
    candidates = sorted(set(deltas))
    best = None
    for c in candidates:
        if metrics.confidence_level_ecpas(deltas, c) >= confidence:
            best = c
    return best


def test_achieved_values_match_brute_force():
    rng = np.random.default_rng(5)
    for n in (1, 5, 50):
        deltas = np.round(rng.uniform(0.6, 1.0, n), 3)
        assert metrics.achieved_coverage_at(deltas, 0.9) == brute_achieved_delta(
            list(deltas), 0.9
        )
        xis = np.round(rng.uniform(0.1, 0.5, n), 3)
        k = math.ceil(0.9 * n) - 1
        assert metrics.achieved_width_at(xis, 0.9) == sorted(xis)[k]


# --- binomial oracle -----------------------------------------------------------------------------

def exact_binomial_tail(n, p, k):
    return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1))


def test_confidence_estimator_against_binomial_oracle():
    analytic = exact_binomial_tail(100, 0.9, 90)
    assert analytic == pytest.approx(0.583, abs=0.001)
    rng = np.random.default_rng(6)
    deltas = rng.binomial(100, 0.9, size=200) / 100.0
    phi = metrics.confidence_level_ecpas(deltas, 0.90)
    assert phi == pytest.approx(analytic, abs=0.05)


# --- repeated-sampling harness ---------------------------------------------------------------------

def eval_days_from(dataset, thresholds, start, stop):
    """Condition rows, actual paths and noise sigmas of day-axis rows
    ``start`` to ``stop - 1``."""
    variances = wv.factor_variances(dataset)
    sigmas = [
        wv.noise_sigma({f: v[k] for f, v in variances.items()}, thresholds)
        for k in dataset.target_rows[start:stop]
    ]
    return dataset.conditions[start:stop], dataset.targets[start:stop], sigmas


def test_harness_reproducible(mini_model, toy_dataset, toy_thresholds):
    days = eval_days_from(toy_dataset, toy_thresholds, 0, 3)
    kwargs = dict(
        runs=3, count=30, nominal=0.9, delta_target=0.5, xi_target=0.5, master_seed=77
    )
    summary, *per_day = metrics.repeated_sampling_harness(mini_model, *days, **kwargs)
    again, *per_day_again = metrics.repeated_sampling_harness(mini_model, *days, **kwargs)
    assert json.dumps(summary) == json.dumps(again)
    assert all(np.array_equal(a, b) for a, b in zip(per_day, per_day_again))
    assert len(summary["runs"]) == 3
    assert summary["runs"][0]["s"] == 1


def test_harness_single_run_valid(mini_model, toy_dataset, toy_thresholds):
    days = eval_days_from(toy_dataset, toy_thresholds, 0, 2)
    summary, _, _ = metrics.repeated_sampling_harness(
        mini_model, *days,
        runs=1, count=25, nominal=0.9, delta_target=0.5, xi_target=0.5, master_seed=1,
    )
    assert summary["phi_coverage"] in (0.0, 1.0)
    assert summary["phi_width"] in (0.0, 1.0)
    assert len(summary["runs"]) == 1


def test_harness_degenerate_generator_gives_identical_runs(toy_dataset, toy_thresholds):
    """All-zero networks generate the same scenarios whatever the noise, so
    every run scores identically and the confidence curve is a step."""
    days = eval_days_from(toy_dataset, toy_thresholds, 0, 2)
    model = ctsgan.build_model(
        days[0].shape[1], ctsgan.TrainingConfig(hidden_dim=4, latent_dim=3, seed=0)
    )
    for role in ("embedder", "recovery", "generator", "discriminator"):
        net = getattr(model, role)
        net.buffer[...] = 0.0
    model.training_flags = {k: True for k in model.training_flags}
    summary, _, _ = metrics.repeated_sampling_harness(
        model, *days,
        runs=4, count=20, nominal=0.9, delta_target=0.5, xi_target=0.5, master_seed=2,
    )
    coverages = [run["ecpas"] for run in summary["runs"]]
    assert len(set(coverages)) == 1
    assert len({run["eawapi"] for run in summary["runs"]}) == 1
    delta = coverages[0]
    assert metrics.confidence_level_ecpas(coverages, delta) == 1.0
    assert metrics.confidence_level_ecpas(coverages, delta + 1e-9) == 0.0


def test_harness_requires_runs_and_days(mini_model, toy_dataset, toy_thresholds):
    days = eval_days_from(toy_dataset, toy_thresholds, 0, 1)
    with pytest.raises(InputError, match="at least one run"):
        metrics.repeated_sampling_harness(
            mini_model, *days,
            runs=0, count=10, nominal=0.9, delta_target=0.5, xi_target=0.5,
        )
    with pytest.raises(InputError, match="no evaluation days"):
        metrics.repeated_sampling_harness(
            mini_model, [], [], [],
            runs=2, count=10, nominal=0.9, delta_target=0.5, xi_target=0.5,
        )


def test_report_json_schema(mini_model, toy_dataset, toy_thresholds):
    days = eval_days_from(toy_dataset, toy_thresholds, 0, 2)
    summary, _, _ = metrics.repeated_sampling_harness(
        mini_model, *days,
        runs=2, count=25, nominal=0.9, delta_target=0.9, xi_target=0.25, master_seed=3,
    )
    payload = json.loads(json.dumps(summary, allow_nan=False))
    assert list(payload) == [
        "runs", "targets", "phi_coverage", "phi_width",
        "achieved_delta_90", "achieved_xi_90",
    ]
    assert set(payload["targets"]) == {"delta_prime", "xi_prime"}
    assert all(set(r) == {"s", "ecpas", "eawapi"} for r in payload["runs"])


# --- threaded harness ----------------------------------------------------------------

HARNESS_KWARGS = dict(count=30, nominal=0.9, delta_target=0.5, xi_target=0.5, master_seed=41)


def four_days_one_reinforced(dataset):
    """Day-axis rows 10..13 with the noise sigma of the second set above 1."""
    return dataset.conditions[10:14], dataset.targets[10:14], [1.0, 1.8, 1.0, 1.0]


def serial_bounds(model, conditions, sigmas, runs, count, nominal, master_seed):
    """``[runs, D, T]`` lower and upper bounds from one ``predict_pipeline``
    call per (run, day), made one after another with the harness's seeds."""
    lower, upper = [], []
    for s in range(runs):
        run_seed = derive_seed(master_seed, f"run-{s}")
        for d in range(len(conditions)):
            (day_lower, day_upper), _ = intervals.predict_pipeline(
                model, conditions[d], sigmas[d], count, nominal, derive_seed(run_seed, f"day-{d}")
            )
            lower.append(day_lower)
            upper.append(day_upper)
    block = (runs, len(conditions), -1)
    return np.reshape(lower, block), np.reshape(upper, block)


def assert_matches_serial(report, model, days, runs):
    summary, day_coverages, day_widths = report
    conditions, actuals, sigmas = days
    kwargs = {k: HARNESS_KWARGS[k] for k in ("count", "nominal", "master_seed")}
    lower, upper = serial_bounds(model, conditions, sigmas, runs, **kwargs)
    for key, score in (("ecpas", metrics.ecpas), ("eawapi", metrics.eawapi)):
        per_run = [run[key] for run in summary["runs"]]
        assert per_run == score(actuals, lower, upper, axis=(1, 2)).tolist()
    assert np.array_equal(day_coverages, metrics.ecpas(actuals, lower, upper, axis=2))
    assert np.array_equal(day_widths, metrics.eawapi(actuals, lower, upper, axis=2))


def test_harness_equals_serial_predictions(mini_model, toy_dataset):
    days = four_days_one_reinforced(toy_dataset)
    report = metrics.repeated_sampling_harness(mini_model, *days, runs=3, **HARNESS_KWARGS)
    assert report[1].shape == report[2].shape == (3, 4)
    assert_matches_serial(report, mini_model, days, runs=3)


def test_harness_with_more_workers_than_cores_and_fast_switching(
    mini_model, toy_dataset, monkeypatch
):
    monkeypatch.setattr(metrics, "_available_cpus", lambda: 8)
    days = four_days_one_reinforced(toy_dataset)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = metrics.repeated_sampling_harness(mini_model, *days, runs=3, **HARNESS_KWARGS)
    finally:
        sys.setswitchinterval(interval)
    assert_matches_serial(report, mini_model, days, runs=3)


def test_harness_runs_requests_at_the_same_time(mini_model, toy_dataset, monkeypatch):
    """With two workers, every request waits at a two-party barrier, which
    only a second request running at the same time can release."""
    barrier = threading.Barrier(2, timeout=10)
    predict = metrics.predict_pipeline

    def meet_then_predict(*args):
        barrier.wait()
        return predict(*args)

    monkeypatch.setattr(metrics, "_available_cpus", lambda: 2)
    monkeypatch.setattr(metrics, "predict_pipeline", meet_then_predict)
    days = four_days_one_reinforced(toy_dataset)
    _, day_coverages, _ = metrics.repeated_sampling_harness(
        mini_model, *days, runs=2, **HARNESS_KWARGS
    )
    assert day_coverages.shape == (2, 4)


def request_seeds(runs, days, master_seed=HARNESS_KWARGS["master_seed"]):
    """The harness's noise seeds in request order: run-major, then day."""
    return [
        derive_seed(derive_seed(master_seed, f"run-{s}"), f"day-{d}")
        for s in range(runs)
        for d in range(days)
    ]


@pytest.mark.parametrize(
    "cpus, failing",
    [(1, "every"), (2, "every"), (8, "every"),
     (1, "caller"), (2, "caller"), (8, "caller"),
     (2, "helper"), (8, "helper")],
)
def test_harness_failure_is_named_and_leaves_no_worker(
    mini_model, toy_dataset, monkeypatch, cpus, failing
):
    """An untrained model's request fails with its named error whichever
    thread runs it, and the harness returns with no thread left. The other
    side's requests wait until the failing side has taken one, so that side
    is sure to run a request."""
    monkeypatch.setattr(metrics, "_available_cpus", lambda: cpus)
    days = four_days_one_reinforced(toy_dataset)
    untrained = ctsgan.build_model(
        days[0].shape[1], ctsgan.TrainingConfig(hidden_dim=4, latent_dim=3, seed=0)
    )
    caller = threading.get_ident()
    failing_side_started = threading.Event()
    predict = metrics.predict_pipeline

    def predict_failing_on_one_side(model, *args):
        fails = failing == "every" or (threading.get_ident() == caller) == (failing == "caller")
        if fails:
            failing_side_started.set()
        else:
            failing_side_started.wait(timeout=10)
        return predict(untrained if fails else model, *args)

    monkeypatch.setattr(metrics, "predict_pipeline", predict_failing_on_one_side)
    before = set(threading.enumerate())
    with pytest.raises(StateError, match="requires all three training phases"):
        metrics.repeated_sampling_harness(mini_model, *days, runs=3, **HARNESS_KWARGS)
    assert set(threading.enumerate()) == before


def test_harness_failure_stops_the_other_thread(mini_model, toy_dataset, monkeypatch):
    """With two CPUs, once the helper's request has failed the caller starts
    no further request: a caller's request in flight waits until the helper
    has returned, and then the harness raises the helper's error."""
    monkeypatch.setattr(metrics, "_available_cpus", lambda: 2)
    caller = threading.get_ident()
    helpers = []
    helper_failed = threading.Event()
    calls = []
    predict = metrics.predict_pipeline

    def predict_failing_on_the_helper(*args):
        calls.append(threading.get_ident())
        if threading.get_ident() != caller:
            helpers.append(threading.current_thread())
            helper_failed.set()
            raise StateError("helper request failed")
        assert helper_failed.wait(timeout=10)
        helpers[0].join(timeout=10)
        assert not helpers[0].is_alive()
        return predict(*args)

    monkeypatch.setattr(metrics, "predict_pipeline", predict_failing_on_the_helper)
    days = four_days_one_reinforced(toy_dataset)
    with pytest.raises(StateError, match="helper request failed"):
        metrics.repeated_sampling_harness(mini_model, *days, runs=3, **HARNESS_KWARGS)
    assert calls.count(caller) <= 1
    assert len(calls) - calls.count(caller) == 1


@pytest.mark.parametrize("k", [0, 5, 11])
def test_harness_on_one_cpu_stops_at_the_failed_request(mini_model, toy_dataset, monkeypatch, k):
    """With one CPU the requests run in order, and none starts after the
    one that failed."""
    monkeypatch.setattr(metrics, "_available_cpus", lambda: 1)
    days = four_days_one_reinforced(toy_dataset)
    seeds = request_seeds(runs=3, days=4)
    calls = []
    predict = metrics.predict_pipeline

    def predict_failing_at_k(model, condition, sigma, count, nominal, seed):
        calls.append(seed)
        if seed == seeds[k]:
            raise StateError(f"request {k} failed")
        return predict(model, condition, sigma, count, nominal, seed)

    monkeypatch.setattr(metrics, "predict_pipeline", predict_failing_at_k)
    with pytest.raises(StateError, match=f"request {k} failed"):
        metrics.repeated_sampling_harness(mini_model, *days, runs=3, **HARNESS_KWARGS)
    assert calls == seeds[: k + 1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_harness_runs_on_the_caller_plus_one_helper_per_further_cpu(
    mini_model, toy_dataset, monkeypatch, cpus
):
    monkeypatch.setattr(metrics, "_available_cpus", lambda: cpus)
    caller = threading.get_ident()
    before = len(threading.enumerate())
    threads, live = [], []
    predict = metrics.predict_pipeline

    def recording_predict(*args):
        threads.append(threading.get_ident())
        live.append(len(threading.enumerate()))
        return predict(*args)

    monkeypatch.setattr(metrics, "predict_pipeline", recording_predict)
    days = four_days_one_reinforced(toy_dataset)
    report = metrics.repeated_sampling_harness(mini_model, *days, runs=3, **HARNESS_KWARGS)
    assert_matches_serial(report, mini_model, days, runs=3)
    assert len(threads) == 12
    if cpus == 1:
        assert set(threads) == {caller}
        assert max(live) == before
    else:
        assert caller in threads
        assert len(set(threads)) <= 2

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The desk-scale training fixture (hidden=16, latent=8, ~60 training
days) is shared with the model property tests via conftest.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from priceband import cli, ctsgan, data_ingest, metrics, seqnet, synthetic
from priceband import intervals as iv
from priceband import weather_volatility as wv
from priceband.seeding import derive_seed
from tests.test_intervals import ar1_paths


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


def test_01_sigma_worked_example(reference_thresholds):
    with criterion(1, "sigma worked example"):
        thresholds = reference_thresholds
        levels = {
            "temperature": wv.classify_volatility("temperature", 0.004, thresholds),
            "irradiance": wv.classify_volatility("irradiance", 0.07, thresholds),
            "wind": wv.classify_volatility("wind", 0.02, thresholds),
        }
        assert levels == {"temperature": 2, "irradiance": 3, "wind": 3}
        assert abs(wv.sigma_from_levels(levels) - 2.667) <= 1e-9


def test_02_ecpas_twenty_sample_example():
    with criterion(2, "coverage indicator example"):
        actuals = np.full(20, 0.5)
        actuals[[4, 15]] = 0.99
        assert metrics.ecpas(actuals, np.full(20, 0.4), np.full(20, 0.6)) == 0.90


def test_03_normalization_round_trip():
    with criterion(3, "normalization round trip"):
        params = data_ingest.MinMaxParams(0.0, 500.0)
        prices = np.random.default_rng(30).uniform(0.0, 500.0, 10_000)
        back = data_ingest.denormalize(data_ingest.normalize(prices, params), params)
        assert np.abs(back - prices).max() < 5e-7


def test_04_gradient_correctness_every_architecture():
    with criterion(4, "gradient correctness on all four networks"):
        model = ctsgan.build_model(5, ctsgan.TrainingConfig(hidden_dim=5, latent_dim=3, seed=40))
        rng = np.random.default_rng(41)
        steps = 6

        def mse_loss(net, inputs, target):
            def fn(params):
                out, cache = seqnet.rnn_forward(params, inputs)
                loss = float(np.mean((out - target) ** 2))
                grads, _ = seqnet.backward(cache, 2.0 * (out - target) / out.size)
                return loss, grads
            return fn

        def mean_loss(net, inputs):
            def fn(params):
                out, cache = seqnet.rnn_forward(params, inputs)
                grads, _ = seqnet.backward(cache, np.full(out.shape, 1.0 / out.size))
                return float(np.mean(out)), grads
            return fn

        cases = {
            "embedder": mse_loss(model.embedder, rng.normal(size=(steps, 1, 1)),
                                 rng.uniform(size=(steps, 1, 3))),
            "recovery": mse_loss(model.recovery, rng.normal(size=(steps, 1, 3)),
                                 rng.uniform(size=(steps, 1, 1))),
            "generator": mse_loss(model.generator, rng.normal(size=(steps, 1, 8)),
                                  rng.normal(size=(steps, 1, 3))),
            "discriminator": mean_loss(model.discriminator, rng.normal(size=(steps, 1, 8))),
        }
        for role, loss_fn in cases.items():
            err = seqnet.gradient_check(getattr(model, role), loss_fn, 1e-5)
            assert err < 1e-4, f"{role}: finite-difference error {err}"


def test_05_threshold_calibration_oracle():
    with criterion(5, "threshold calibration percentiles"):
        sample = np.random.default_rng(50).uniform(0.0, 1.0, 10_000)
        thresholds = wv.calibrate_thresholds({f: sample for f in wv.FACTORS})
        low, med, high = thresholds.cuts[wv.FACTORS.index("temperature")]
        assert abs(low - 0.60) <= 0.02
        assert abs(med - 0.85) <= 0.02
        assert abs(high - 0.95) <= 0.02


def test_06_coverage_oracle_independent_of_model():
    with criterion(6, "coverage oracle on a known process"):
        lower, upper = iv.build_interval(ar1_paths(4000, seed=60), nominal=0.90)
        fresh = ar1_paths(1000, seed=61)
        covered = (fresh >= lower) & (fresh <= upper)
        assert abs(covered.mean() - 0.90) <= 0.03


def test_07_confidence_level_estimator_oracle():
    with criterion(7, "confidence-level estimator vs exact binomial"):
        analytic = sum(
            math.comb(100, k) * 0.9**k * 0.1 ** (100 - k) for k in range(90, 101)
        )
        deltas = np.random.default_rng(70).binomial(100, 0.9, size=200) / 100.0
        phi = metrics.confidence_level_ecpas(deltas, 0.90)
        assert abs(phi - analytic) <= 0.05


def test_08_training_progress_at_desk_scale(trained_toy):
    with criterion(8, "training progress at desk scale"):
        recon_ratio = trained_toy["mse_before"] / trained_toy["mse_after"]
        sup_ratio = trained_toy["sup_before"] / trained_toy["sup_after"]
        assert recon_ratio >= 10.0, f"reconstruction MSE ratio {recon_ratio:.1f}"
        assert sup_ratio >= 5.0, f"supervised MSE ratio {sup_ratio:.1f}"
        assert trained_toy["train_seconds"] < 600.0
        print(
            f"\n  phase1 MSE {trained_toy['mse_before']:.4f} -> {trained_toy['mse_after']:.4f} "
            f"({recon_ratio:.1f}x), phase2 {trained_toy['sup_before']:.4f} -> "
            f"{trained_toy['sup_after']:.4f} ({sup_ratio:.1f}x), "
            f"{trained_toy['train_seconds']:.0f}s",
            end="",
        )


def test_09_reinforced_widening_direction(trained_toy, toy_dataset, toy_thresholds):
    with criterion(9, "reinforced prediction widens afternoon coverage"):
        model = trained_toy["model"]
        afternoon = np.fromiter(wv.AFTERNOON_WINDOW, dtype=int)
        count = 300
        cov_normal, cov_reinforced, width_normal, width_reinforced = [], [], [], []
        reinforced_days = 0
        all_variances = wv.factor_variances(toy_dataset)
        for i, ((condition, actual), k) in enumerate(
            zip(trained_toy["test_days"], trained_toy["test_day_rows"])
        ):
            variances = {f: v[k] for f, v in all_variances.items()}
            seed = derive_seed(1234, f"day{i}")
            baseline_set = ctsgan.generate_scenarios(
                model, condition, 1.0, count, seed=derive_seed(seed, "scenarios-normal")
            )
            base_lower, base_upper = iv.build_interval(baseline_set, 0.9)
            sigma = wv.noise_sigma(variances, toy_thresholds)
            (lower, upper), _ = iv.predict_pipeline(model, condition, sigma, count, 0.9, seed=seed)
            if sigma > 1.0:
                reinforced_days += 1
            inside_b = (actual[afternoon] >= base_lower[afternoon]) & (
                actual[afternoon] <= base_upper[afternoon]
            )
            inside_r = (actual[afternoon] >= lower[afternoon]) & (
                actual[afternoon] <= upper[afternoon]
            )
            cov_normal.append(inside_b.mean())
            cov_reinforced.append(inside_r.mean())
            width_normal.append((base_upper - base_lower)[afternoon].mean())
            width_reinforced.append((upper - lower)[afternoon].mean())

        assert len(cov_normal) == 20
        assert reinforced_days >= 1, "no test day triggered the reinforced branch"
        ecpas_n, ecpas_r = np.mean(cov_normal), np.mean(cov_reinforced)
        width_n, width_r = np.mean(width_normal), np.mean(width_reinforced)
        assert ecpas_r >= ecpas_n
        assert width_r <= 1.5 * width_n
        print(
            f"\n  afternoon ECPAS {ecpas_n:.4f} -> {ecpas_r:.4f} "
            f"(+{ecpas_r - ecpas_n:.4f}), EAWAPI {width_n:.4f} -> {width_r:.4f} "
            f"(+{(width_r / width_n - 1) * 100:.1f}%), "
            f"{reinforced_days} reinforced days",
            end="",
        )


def _run_tiny_pipeline(root):
    root.mkdir(parents=True, exist_ok=True)
    synthetic.generate_market_csv(root / "toy.csv", days=120, seed=11)
    cfg = {
        "paths": {
            "dataset": str(root / "toy.csv"),
            "checkpoint": str(root / "out" / "model.json"),
            "thresholds": str(root / "out" / "thresholds.json"),
            "out_dir": str(root / "out"),
        },
        "training": {
            "iterations_per_phase": 50,
            "learning_rate": 0.05,
            "hidden_dim": 6,
            "latent_dim": 4,
        },
        "prediction": {"scenarios": 30, "nominal": 0.9, "bins": 20},
        "metrics": {"runs": 2, "delta_target": 0.5, "xi_target": 0.5},
        "seed": 99,
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["calibrate", "--config", str(cfg_path)]) == 0
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert cli.main(["predict", "--config", str(cfg_path), "--date", "2021-02-01"]) == 0
    assert cli.main([
        "evaluate", "--config", str(cfg_path),
        "--from", "2021-02-01", "--to", "2021-02-05",
    ]) == 0
    return {
        name: (root / "out" / name).read_bytes()
        for name in (
            "thresholds.json",
            "model.json",
            "training_log.jsonl",
            "interval_2021-02-01.csv",
            "density_2021-02-01.json",
            "scenarios_2021-02-01.csv",
            "metrics_report.json",
        )
    }


def test_10_end_to_end_determinism(tmp_path):
    with criterion(10, "pipeline determinism under a fixed master seed"):
        first = _run_tiny_pipeline(tmp_path / "run1")
        second = _run_tiny_pipeline(tmp_path / "run2")
        assert set(first) == set(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"

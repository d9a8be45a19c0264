"""Shared fixtures: the synthetic toy corpus and trained models.

``trained_toy`` is the expensive desk-scale fixture (hidden=16, latent=8,
~2.5 min of training); it backs the acceptance suite and the slow model
properties. ``mini_model`` is a seconds-scale trained model for contract
tests that only need valid training flags.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from priceband import ctsgan, data_ingest, seqnet, synthetic
from priceband import weather_volatility as wv

TOY_CORPUS_DAYS = 120
TOY_CORPUS_SEED = 11
TOY_MODEL_SEED = 7


def reconstruction_mse(model, conditions, targets) -> float:
    """Autoencoder reconstruction MSE over every supplied day (no batching)."""
    _, targets = ctsgan._prepare_days(model, conditions, targets)
    latents, _ = seqnet.rnn_forward(model.embedder, targets, keep_cache=False)
    recon, _ = seqnet.rnn_forward(model.recovery, latents, keep_cache=False)
    return float(np.mean((recon - targets) ** 2))


def supervised_mse(model, conditions, targets) -> float:
    """Next-step latent prediction MSE over every supplied day."""
    conds, targets = ctsgan._prepare_days(model, conditions, targets)
    latents = ctsgan._embed(model, targets)
    predicted, _ = seqnet.rnn_forward(model.generator, latents[:-1], conds, keep_cache=False)
    return float(np.mean((predicted - latents[1:]) ** 2))


@pytest.fixture(scope="session")
def toy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "toy.csv"
    synthetic.generate_market_csv(path, days=TOY_CORPUS_DAYS, seed=TOY_CORPUS_SEED)
    return path


@pytest.fixture(scope="session")
def toy_dataset(toy_csv):
    return data_ingest.load_dataset(toy_csv)


@pytest.fixture(scope="session")
def toy_thresholds(toy_dataset):
    return wv.calibrate_thresholds(wv.factor_variances(toy_dataset))


@pytest.fixture(scope="session")
def reference_thresholds():
    """The worked example's reference cuts, one row of low, med and high cut
    per factor in ``wv.FACTORS`` order: the afternoon variances 0.004
    (temperature), 0.07 (irradiance) and 0.02 (wind) fall in levels 2, 3 and
    3 and give sigma 2.667."""
    return wv.VolatilityThresholds(
        np.array([[0.0019, 0.0030, 0.0058], [0.0246, 0.0419, 0.0622], [0.0052, 0.0079, 0.0173]])
    )


@pytest.fixture(scope="session")
def mini_model(toy_dataset):
    """Fully flagged model at throwaway scale (contract tests only)."""
    days = toy_dataset.conditions[:20], toy_dataset.targets[:20]
    model = ctsgan.build_model(
        days[0].shape[1], ctsgan.TrainingConfig(hidden_dim=6, latent_dim=4, seed=3)
    )
    cfg = ctsgan.TrainingConfig(iterations_per_phase=40, seed=3, learning_rate=0.05)
    ctsgan.train_phase1_autoencoder(model, *days, cfg)
    ctsgan.train_phase2_supervised(model, *days, cfg)
    ctsgan.train_phase3_joint(model, *days, cfg)
    return model


@pytest.fixture(scope="session")
def trained_toy(toy_dataset):
    """Desk-scale training run shared by the acceptance criteria.

    Trains on the first 80 rows of the day axis; rows 95..114 are held out
    as the 20 evaluation days, as (condition, target) pairs, with the rows
    of the dataset's days (and channel arrays) they target.
    """
    train_days = toy_dataset.conditions[:80], toy_dataset.targets[:80]
    model = ctsgan.build_model(
        train_days[0].shape[1],
        ctsgan.TrainingConfig(hidden_dim=16, latent_dim=8, seed=TOY_MODEL_SEED),
    )

    started = time.monotonic()
    mse_before = reconstruction_mse(model, *train_days)
    ctsgan.train_phase1_autoencoder(
        model,
        *train_days,
        ctsgan.TrainingConfig(iterations_per_phase=12000, seed=TOY_MODEL_SEED, learning_rate=0.05),
    )
    mse_after = reconstruction_mse(model, *train_days)

    sup_before = supervised_mse(model, *train_days)
    ctsgan.train_phase2_supervised(
        model,
        *train_days,
        ctsgan.TrainingConfig(iterations_per_phase=6000, seed=TOY_MODEL_SEED, learning_rate=0.05),
    )
    sup_after = supervised_mse(model, *train_days)

    ctsgan.train_phase3_joint(
        model,
        *train_days,
        ctsgan.TrainingConfig(iterations_per_phase=2000, seed=TOY_MODEL_SEED, learning_rate=0.05),
    )
    elapsed = time.monotonic() - started

    return {
        "model": model,
        "train_days": train_days,
        "test_days": list(zip(toy_dataset.conditions[95:115], toy_dataset.targets[95:115])),
        "test_day_rows": toy_dataset.target_rows[95:115],
        "mse_before": mse_before,
        "mse_after": mse_after,
        "sup_before": sup_before,
        "sup_after": sup_after,
        "train_seconds": elapsed,
    }

"""Conditional time-series GAN over normalized price paths.

Four LSTM networks share one latent space: the embedder maps price paths into
it, the recovery maps back out, the generator maps (noise, condition) into it,
and the discriminator scores (latent, condition) sequences. Training runs in
three phases: autoencoding, supervised next-step prediction in latent space
(through the generator itself, teacher-forced on real latents), and joint
adversarial training with a weight-clipped critic. The three trainers share
one loop, ``_run_phase``: it checks that the earlier phases are done, draws
each batch from the training days with the phase's own seeded generator,
logs each iteration's record and sets the phase's flag; each trainer gives
it only the step it runs on a batch.

The generator and discriminator take the day's condition vector as a
time-constant input (``rnn_forward``'s ``condition``), not as columns
repeated at every step; their first LSTM's input dim is latent + condition.

The generator and discriminator see *calibrated* latents: at the end of phase
1 the per-dimension mean and std of the embedder's latents are frozen into
the model and used to whiten that space. Autoencoders otherwise settle on an
arbitrarily small latent scale, which would leave the N(0, sigma) noise input
orders of magnitude off-scale and starve the adversarial phase of signal.
Generation de-whitens before the recovery network.

All generator noise comes from ``_ar1_noise``. Every noise -> generator
pass of training goes through ``_generate_latents``, every whitening of real
latents through ``_whiten``, and every autoencoder update through
``_autoencoder_step``, which takes the caller's cached embedder forward.
Generation steps the generator and the recovery network together, one
half-hour at a time, with the bits of the stacked passes. Conditions are
float64 rows of ``condition_dim`` values, and generation returns a plain
``[count, T]`` array of normalized price paths.

Three dims, condition, hidden and latent, fix every network's shape through
``_network_specs``, from which ``build_model`` and ``load_model`` both build.
This module alone knows the checkpoint format (``save_model``).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from . import jsonread
from .data_ingest import HALF_HOURS_PER_DAY, replaced
from .errors import CheckpointError, InputError, NumericalError, StateError
from .seeding import derive_seed
from .seqnet import (
    LayerSpec,
    NetworkParams,
    Stepper,
    backward,
    init_params,
    rnn_forward,
    sgd_step,
)

MODEL_FORMAT_VERSION = 4

_PHASES = ("phase1", "phase2", "phase3")


@dataclass
class TrainingConfig:
    """Knobs for all three phases and the sizes ``build_model`` reads (paper
    dims by default); one seed fixes the whole run."""

    batch_size: int = 7
    iterations_per_phase: int = 10000
    learning_rate: float = 0.02
    clip_limit: float = 0.5
    seed: int = 0
    supervised_weight: float = 10.0
    holdout_fraction: float = 0.1
    hidden_dim: int = 100
    latent_dim: int = 100
    dispersion_gain: float = 8.0

    def __post_init__(self):
        if self.batch_size <= 0:
            raise InputError("batch_size must be positive")
        if self.iterations_per_phase < 0:
            raise InputError("iterations_per_phase must be >= 0")
        if self.learning_rate <= 0 or self.clip_limit <= 0:
            raise InputError("learning_rate and clip_limit must be positive")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise InputError("holdout_fraction must be in [0, 1)")


@dataclass
class CTSGANModel:
    """The four-network parameter bundle plus training bookkeeping.

    ``latent_shift``/``latent_scale`` hold the whitening affine fixed at the
    end of phase 1 (identity until then). The three dims are read off the
    networks; each price path is one value per half-hour.
    ``training_log`` holds the records of the phases trained in this process
    only: checkpoints leave it out.
    """

    embedder: NetworkParams
    recovery: NetworkParams
    generator: NetworkParams
    discriminator: NetworkParams
    latent_shift: np.ndarray
    latent_scale: np.ndarray
    latent_autocorr: float = 0.0
    training_flags: dict = field(
        default_factory=lambda: {p: False for p in _PHASES}
    )
    training_log: list = field(default_factory=list)
    adversarial_report: dict | None = None

    @property
    def hidden_dim(self) -> int:
        return self.embedder.specs[0].output_dim

    @property
    def latent_dim(self) -> int:
        return self.embedder.output_dim

    @property
    def condition_dim(self) -> int:
        return self.generator.input_dim - self.latent_dim

    @property
    def is_trained(self) -> bool:
        return all(self.training_flags.get(p, False) for p in _PHASES)


def _network_specs(condition_dim: int, hidden_dim: int, latent_dim: int) -> dict:
    """Each role's ``(LSTM block, dense head)`` specs, the one place that writes
    the networks' kinds, dims and activations, from three whole numbers."""
    heads = {
        "embedder": (1, latent_dim, "sigmoid"),
        "recovery": (latent_dim, 1, "sigmoid"),
        "generator": (latent_dim + condition_dim, latent_dim, "linear"),
        "discriminator": (latent_dim + condition_dim, 1, "linear"),
    }
    return {
        role: (LayerSpec("lstm", in_dim, hidden_dim),
               LayerSpec("dense", hidden_dim, out_dim, activation))
        for role, (in_dim, out_dim, activation) in heads.items()
    }


def build_model(condition_dim: int, config: TrainingConfig) -> CTSGANModel:
    """Fresh model with Glorot-initialized networks of ``config``'s hidden and
    latent sizes, seeds derived per role from ``config.seed``.

    The embedder's output head is scaled by ``config.dispersion_gain`` so the
    initial latent code spreads across the sigmoid's range instead of
    clustering at 0.5. Plain SGD keeps whatever code scale it starts from, and
    a near-collapsed code leaves the downstream whitening ill-conditioned.
    """
    specs = _network_specs(condition_dim, config.hidden_dim, config.latent_dim)
    networks = {
        role: init_params(derive_seed(config.seed, f"init-{role}"), role_specs)
        for role, role_specs in specs.items()
    }
    networks["embedder"].head_w *= config.dispersion_gain
    networks["embedder"].version += 1
    return CTSGANModel(
        **networks,
        latent_shift=np.zeros(config.latent_dim),
        latent_scale=np.ones(config.latent_dim),
    )


def _prepare_days(model: CTSGANModel, conditions, targets) -> tuple[np.ndarray, np.ndarray]:
    """Check the day axis ``conditions`` [N, cond_dim] and ``targets`` [N, T]
    and return them as ``[N, cond_dim]`` and time-major ``[T, N, 1]``."""
    conds = np.asarray(conditions, dtype=np.float64)
    paths = np.asarray(targets, dtype=np.float64)
    if conds.ndim != 2 or conds.shape[0] == 0:
        raise InputError(f"training needs at least one day, got conditions of shape {conds.shape}")
    if conds.shape[1] != model.condition_dim:
        raise InputError(
            f"condition dim {conds.shape[1]} != model condition dim {model.condition_dim}"
        )
    if paths.shape != (conds.shape[0], HALF_HOURS_PER_DAY):
        raise InputError(
            f"targets must be [{conds.shape[0]}, {HALF_HOURS_PER_DAY}], got {paths.shape}"
        )
    if not (np.isfinite(conds).all() and np.isfinite(paths).all()):
        raise InputError("non-finite values in training data")
    return conds, np.ascontiguousarray(paths.T)[:, :, None]


def _train_holdout_split(n: int, config: TrainingConfig) -> tuple[np.ndarray, np.ndarray]:
    n_hold = int(round(config.holdout_fraction * n))
    if n_hold >= n:
        n_hold = 0
    split = n - n_hold
    return np.arange(split), np.arange(split, n)


_MIN_LATENT_SCALE = 1e-3

# The whitening statistics are column sums taken this many rows (steps x
# days) of the latents at a time: each temporary holds 1024 rows, 0.8 MB at
# paper dims, against 12.6 MB for the latents of 329 training days.
_WHITENING_ROWS = 1024


def _column_sum(n: int, width: int, fill) -> np.ndarray:
    """Column sums of an ``[n, width]`` array whose rows ``r0:r1``
    ``fill(r0, r1, out)`` writes into ``out``, ``_WHITENING_ROWS`` rows at a
    time. Row 0 of the buffer carries the running sums, so ``np.add.reduce``
    adds every row in the order, and with the bits, of one whole-array
    ``sum(axis=0)``, which adds the rows of two or more columns one by one.
    One column numpy sums pairwise, so that array is made whole."""
    if width < 2:
        whole = np.empty((n, width))
        fill(0, n, whole)
        return np.add.reduce(whole, axis=0)
    buf = np.zeros((min(n, _WHITENING_ROWS) + 1, width))
    for r0 in range(0, n, _WHITENING_ROWS):
        r1 = min(r0 + _WHITENING_ROWS, n)
        fill(r0, r1, buf[1 : r1 - r0 + 1])
        buf[0] = np.add.reduce(buf[: r1 - r0 + 1], axis=0)
    return buf[0].copy()


def _column_std(rows: np.ndarray, mean: np.ndarray | None = None) -> np.ndarray:
    """``rows.std(axis=0)`` ([n, width]) by ``_column_sum``, bit for bit;
    ``mean`` is ``rows.mean(axis=0)`` when the caller has it."""
    n, width = rows.shape
    if mean is None:
        mean = _column_sum(n, width, lambda r0, r1, out: np.copyto(out, rows[r0:r1])) / n

    def squared_deviation(r0, r1, out):
        np.subtract(rows[r0:r1], mean, out=out)
        np.multiply(out, out, out=out)

    return np.sqrt(_column_sum(n, width, squared_deviation) / n)


def _calibrate_latent_space(model: CTSGANModel, latents: np.ndarray) -> None:
    """Freeze the whitening affine and the lag-1 autocorrelation of the
    phase-1 latents ([T, N, latent]), which are whitened in place.

    The mean and the whitening make no temporary. The standard deviations
    and the autocorrelation are column sums over the steps and days, which
    ``_column_sum`` takes one block of rows at a time with the bits of
    whole-array reductions.
    """
    days, width = latents.shape[1:]
    model.latent_shift = latents.mean(axis=(0, 1))
    std = _column_std(latents.reshape(-1, width), model.latent_shift)
    model.latent_scale = np.maximum(std, _MIN_LATENT_SCALE)
    white = _whiten(model, latents, out=latents).reshape(-1, width)
    a, b = white[:-days], white[days:]  # each step against the step after it

    def product(r0, r1, out):
        np.multiply(a[r0:r1], b[r0:r1], out=out)

    mean_ab = _column_sum(len(a), width, product) / len(a)
    ac = mean_ab / np.maximum(_column_std(a) * _column_std(b), 1e-12)
    model.latent_autocorr = float(np.clip(np.mean(ac), 0.0, 0.99))


def _shape_noise(eps: np.ndarray, autocorr: float, prev: np.ndarray | None = None) -> np.ndarray:
    """Turn i.i.d. per-timestep draws ``eps`` ([T, ...]) into an AR(1)
    sequence with the latent process's autocorrelation, in place; marginals
    keep the original mean and std. ``prev`` is the shaped step before
    ``eps[0]``, if there is one.

    Temporally white input noise gets integrated away by the recurrent
    decoder, leaving near-deterministic scenarios; correlated noise produces
    the sustained excursions that scenario diversity requires.
    """
    if autocorr <= 0.0:
        return eps
    innovation = np.sqrt(1.0 - autocorr * autocorr)
    for t in range(eps.shape[0]):
        before = eps[t - 1] if t else prev
        if before is not None:
            eps[t] *= innovation
            eps[t] += autocorr * before
    return eps


# Streamed generation draws and holds its noise and latents in blocks of as
# many steps as fit in this many bytes of float64s: 8 steps of 500 paths at
# toy dims (latent 8), where fewer numpy calls per step pay, and one step at
# paper dims (latent 100). On a 2-CPU VM, toy-dims evaluate ran 19% slower
# with 1-step blocks and peaked 6.4 MB higher with 48-step blocks; a
# paper-dims predict ran 16% slower with 8-step blocks (BENCH_18.json).
_BLOCK_BYTES = 1 << 18


def _ar1_noise(model: CTSGANModel, rng: np.random.Generator, std: float, count: int, steps: int):
    """One day's AR(1)-shaped N(0, std^2) noise for ``count`` paths, the one
    noise source of the generator: yields ``[k, count, latent]`` blocks of
    ``steps`` steps (the last may be shorter) in time order. Each block is
    one ``rng.normal`` call shaped against the block before it, so the draws
    and the arithmetic are those of one ``[T, count, latent]`` draw shaped
    in one pass, whatever ``steps`` is."""
    prev = None
    for t0 in range(0, HALF_HOURS_PER_DAY, steps):
        size = (min(steps, HALF_HOURS_PER_DAY - t0), count, model.latent_dim)
        block = _shape_noise(rng.normal(0.0, std, size=size), model.latent_autocorr, prev)
        prev = block[-1]
        yield block


def _whiten(model: CTSGANModel, latents: np.ndarray, out=None) -> np.ndarray:
    """``(latents - latent_shift) / latent_scale``, written to ``out`` if given."""
    white = np.subtract(latents, model.latent_shift, out=out)
    white /= model.latent_scale
    return white


def _embed(model: CTSGANModel, x: np.ndarray) -> np.ndarray:
    """Whitened embedder latents of the paths ``x`` ([T, N, 1]); no cache."""
    latents, _ = rnn_forward(model.embedder, x, keep_cache=False)
    return _whiten(model, latents, out=latents)


def _generate_latents(
    model: CTSGANModel,
    rng: np.random.Generator,
    cond: np.ndarray,
    count: int,
    std: float,
    keep_cache: bool,
):
    """Generator output for ``count`` fresh AR(1)-shaped N(0, std^2) noise
    paths of one day's steps under ``cond`` ([C] or [count, C]); returns
    ``rnn_forward``'s ``(latents, cache)``."""
    (noise,) = _ar1_noise(model, rng, std, count, HALF_HOURS_PER_DAY)
    return rnn_forward(model.generator, noise, cond, keep_cache=keep_cache)


def _dewhiten(model: CTSGANModel, calibrated: np.ndarray) -> np.ndarray:
    """Undo the whitening of ``calibrated`` in place and return it, so the
    recovery pass reads the only copy of the latents."""
    calibrated *= model.latent_scale
    calibrated += model.latent_shift
    return calibrated


def _check_finite_loss(loss: float, phase: str) -> None:
    if not np.isfinite(loss):
        raise NumericalError(f"{phase} loss diverged to {loss}")


def _autoencoder_step(
    model: CTSGANModel, x: np.ndarray, embedded, learning_rate: float, phase: str
) -> float:
    """One SGD step of embedder + recovery on the reconstruction MSE of the
    paths ``x``, whose cached embedder forward ``(latents, cache)`` is
    ``embedded``; returns the loss before the step."""
    latents, cache_e = embedded
    recon, cache_r = rnn_forward(model.recovery, latents)
    diff = recon - x
    loss = float(np.mean(diff * diff))
    _check_finite_loss(loss, phase)
    g_r, d_latents = backward(cache_r, 2.0 * diff / diff.size)
    g_e, _ = backward(cache_e, d_latents, input_grads=False)
    sgd_step(model.recovery, g_r, learning_rate)
    sgd_step(model.embedder, g_e, learning_rate)
    return loss


def _run_phase(
    model: CTSGANModel, conditions, targets, config: TrainingConfig, number: int, step
):
    """Train phase ``number`` (1-3): check that every earlier phase in
    ``_PHASES`` is done, then run ``config.iterations_per_phase`` calls of
    ``step(x, cond, rng)`` on batches drawn from the training rows, logging
    each returned record after its phase and iteration, and set the phase's
    flag. Returns the checked days (``[N, cond_dim]`` conditions and
    ``[T, N, 1]`` paths) and the training and holdout rows."""
    missing = [
        f"phase {k}" for k, flag in enumerate(_PHASES[: number - 1], start=1)
        if not model.training_flags[flag]
    ]
    if missing:
        raise StateError(f"phase {number} requires {' and '.join(missing)} first")
    conds, paths = _prepare_days(model, conditions, targets)
    train_idx, hold_idx = _train_holdout_split(conds.shape[0], config)
    flag = _PHASES[number - 1]
    rng = np.random.default_rng(derive_seed(config.seed, flag))

    for it in range(config.iterations_per_phase):
        batch = rng.choice(train_idx, size=config.batch_size)
        record = step(paths[:, batch, :], conds[batch], rng)
        model.training_log.append({"phase": number, "iteration": it, **record})

    model.training_flags[flag] = True
    return conds, paths, train_idx, hold_idx


def train_phase1_autoencoder(
    model: CTSGANModel, conditions, targets, config: TrainingConfig
) -> CTSGANModel:
    """Embedder + recovery minimize reconstruction MSE of normalized paths;
    the whitening is then fitted on the training days' latents, which one
    cache-free embedder pass computes a time step at a time.
    """

    def step(x, cond, rng):
        embedded = rnn_forward(model.embedder, x)
        return {"loss": _autoencoder_step(model, x, embedded, config.learning_rate, "phase1")}

    _, paths, train_idx, _ = _run_phase(model, conditions, targets, config, 1, step)
    latents, _ = rnn_forward(model.embedder, paths[:, train_idx, :], keep_cache=False)
    _calibrate_latent_space(model, latents)
    return model


def train_phase2_supervised(
    model: CTSGANModel, conditions, targets, config: TrainingConfig
) -> CTSGANModel:
    """Generator learns next-step latent prediction, teacher-forced on the
    embedder's latents and conditioned on the day's condition vector."""

    def step(x, cond, rng):
        latents = _embed(model, x)
        predicted, cache_g = rnn_forward(model.generator, latents[:-1], cond)
        diff = predicted - latents[1:]
        loss = float(np.mean(diff * diff))
        _check_finite_loss(loss, "phase2")
        g_g, _ = backward(cache_g, 2.0 * diff / diff.size, input_grads=False)
        sgd_step(model.generator, g_g, config.learning_rate)
        return {"loss": loss}

    _run_phase(model, conditions, targets, config, 2, step)
    return model


def train_phase3_joint(
    model: CTSGANModel, conditions, targets, config: TrainingConfig
) -> CTSGANModel:
    """Alternating critic/generator updates plus an autoencoder refresh.

    The critic maximizes the mean score gap between real and generated
    (latent, condition) sequences and is weight-clipped after every step; the
    generator minimizes the negative critic score plus the supervised latent
    loss (weighted ``supervised_weight``:1). Embedder and recovery keep
    fine-tuning on reconstruction. Each iteration logs the generator loss
    and its supervised and adversarial parts, the critic loss, the
    reconstruction loss and the share of critic weights at the clip bound.
    Critic scores on held-out real days and fresh generated days are logged
    at the end.

    An iteration embeds its batch once, then runs a critic sub-step and a
    generator sub-step, each of which frees its forward caches and gradient
    vectors once its update is done, and then the autoencoder refresh. The
    critic draws its noise before the generator does.
    """
    lam = config.supervised_weight

    def critic_step(latents_real, cond, rng) -> float:
        """Critic update on real vs freshly generated latents, weights
        clipped afterwards; returns the critic loss."""
        count = latents_real.shape[1]
        latents_fake, _ = _generate_latents(model, rng, cond, count, 1.0, keep_cache=False)
        score_real, cache_dr = rnn_forward(model.discriminator, latents_real, cond)
        score_fake, cache_df = rnn_forward(model.discriminator, latents_fake, cond)
        d_loss = float(np.mean(score_fake) - np.mean(score_real))
        _check_finite_loss(d_loss, "phase3 critic")
        g_df, _ = backward(
            cache_df, np.full(score_fake.shape, 1.0 / score_fake.size), input_grads=False
        )
        g_dr, _ = backward(
            cache_dr, np.full(score_real.shape, -1.0 / score_real.size), input_grads=False
        )
        g_df += g_dr
        sgd_step(model.discriminator, g_df, config.learning_rate, config.clip_limit)
        return d_loss

    def adversarial_gradient(cond, count, rng) -> tuple[np.ndarray, float]:
        """The generator's gradient of the adversarial loss, the negative
        mean critic score of ``count`` fresh generated sequences, and that loss."""
        fake_latents, cache_g = _generate_latents(model, rng, cond, count, 1.0, keep_cache=True)
        score, cache_d = rnn_forward(model.discriminator, fake_latents, cond)
        _, d_fake_latents = backward(
            cache_d, np.full(score.shape, -1.0 / score.size), param_grads=False
        )
        g_adv, _ = backward(cache_g, d_fake_latents, input_grads=False)
        return g_adv, float(-np.mean(score))

    def generator_step(latents_real, cond, rng) -> tuple[float, float, float]:
        """Generator update on the adversarial plus the weighted supervised
        loss; returns the loss and its supervised and adversarial parts. The
        adversarial passes' caches are freed before the supervised pass."""
        g_adv, adv_loss = adversarial_gradient(cond, latents_real.shape[1], rng)
        predicted, cache_s = rnn_forward(model.generator, latents_real[:-1], cond)
        sup_diff = predicted - latents_real[1:]
        sup_loss = float(np.mean(sup_diff * sup_diff))
        g_sup, _ = backward(cache_s, 2.0 * lam * sup_diff / sup_diff.size, input_grads=False)
        loss = lam * sup_loss + adv_loss
        _check_finite_loss(loss, "phase3 generator")
        g_adv += g_sup
        sgd_step(model.generator, g_adv, config.learning_rate)
        return loss, sup_loss, adv_loss

    def step(x, cond, rng):
        # The embedder is not stepped before the autoencoder refresh, so its
        # one cached forward serves the critic, the generator and the refresh.
        # Each sub-step's caches and gradients are freed when it returns.
        embedded = rnn_forward(model.embedder, x)
        latents_real = _whiten(model, embedded[0])
        d_loss = critic_step(latents_real, cond, rng)
        loss, sup_loss, adv_loss = generator_step(latents_real, cond, rng)
        recon_loss = _autoencoder_step(
            model, x, embedded, config.learning_rate, "phase3 reconstruction"
        )

        clip_fraction = float(np.mean(np.abs(model.discriminator.buffer) == config.clip_limit))
        return {"loss": loss, "d_loss": d_loss, "sup_loss": sup_loss, "adv_loss": adv_loss,
                "recon_loss": recon_loss, "critic_clip_fraction": clip_fraction}

    conds, paths, train_idx, hold_idx = _run_phase(model, conditions, targets, config, 3, step)
    score_idx = hold_idx if hold_idx.size else train_idx
    model.adversarial_report = _score_real_vs_generated(
        model, conds, paths, score_idx, derive_seed(config.seed, "phase3-report")
    )
    return model


def _score_real_vs_generated(
    model: CTSGANModel, conds, targets, idx, seed: int
) -> dict:
    """Critic scores on real vs freshly generated latents plus a separation
    accuracy (midpoint threshold); near 0.5 means the critic cannot tell."""
    rng = np.random.default_rng(seed)
    cond = conds[idx]
    latents_real = _embed(model, targets[:, idx, :])
    latents_fake, _ = _generate_latents(model, rng, cond, idx.size, 1.0, keep_cache=False)
    score_real, _ = rnn_forward(model.discriminator, latents_real, cond, keep_cache=False)
    score_fake, _ = rnn_forward(model.discriminator, latents_fake, cond, keep_cache=False)
    mean_real = float(np.mean(score_real))
    mean_fake = float(np.mean(score_fake))
    threshold = 0.5 * (mean_real + mean_fake)
    accuracy = 0.5 * (
        float(np.mean(score_real > threshold)) + float(np.mean(score_fake <= threshold))
    )
    return {
        "d_score_real": mean_real,
        "d_score_fake": mean_fake,
        "real_vs_fake_accuracy": accuracy,
        "scored_days": int(idx.size),
    }


def generate_scenarios(
    model: CTSGANModel,
    condition: np.ndarray,
    std: float,
    count: int,
    seed: int = 0,
) -> np.ndarray:
    """``count`` normalized price paths, ``[count, 48]``: fresh
    N(0, std^2) noise (std >= 1) mapped through generator and recovery
    under the ``[condition_dim]`` row ``condition``.

    Outputs are clamped to [0, 1]; distinct seeds give distinct paths.

    The chain runs one time step at a time and holds no ``[48, count, ·]``
    tensor: the noise of a step (``_ar1_noise``, drawn a few steps per call)
    goes through one generator step, de-whitening and one recovery step.
    The result has the bits of the stacked chain, ``_generate_latents``,
    ``_dewhiten`` and a cache-free recovery ``rnn_forward``.
    """
    if not model.is_trained:
        raise StateError("generation requires all three training phases")
    cond = np.asarray(condition, dtype=np.float64)
    if cond.shape != (model.condition_dim,):
        raise InputError(
            f"condition has shape {cond.shape}, model expects ({model.condition_dim},)"
        )
    if not 1.0 <= std < np.inf:
        raise InputError(f"noise std must be >= 1 and finite, got {std}")
    if count < 0:
        raise InputError("scenario count must be >= 0")
    if count == 0:
        return np.empty((0, HALF_HOURS_PER_DAY))

    rng = np.random.default_rng(seed)
    generator = Stepper(model.generator, cond, count)
    recovery = Stepper(model.recovery, None, count, affine=generator.affine)
    steps = max(1, _BLOCK_BYTES // (8 * count * model.latent_dim))
    latents = np.empty((min(steps, HALF_HOURS_PER_DAY), count, model.latent_dim))
    paths = np.empty((HALF_HOURS_PER_DAY, count, 1))
    t = 0
    for noise in _ar1_noise(model, rng, std, count, steps):
        block = latents[: len(noise)]
        for eps, latent in zip(noise, block):
            generator.step(eps, latent)
        _dewhiten(model, block)
        if not np.isfinite(block).all():
            raise NumericalError("non-finite values in generated latents")
        for latent in block:
            recovery.step(latent, paths[t])
            t += 1
    return np.clip(paths[:, :, 0].T, 0.0, 1.0)


def save_model(model: CTSGANModel, path) -> None:
    """Versioned JSON checkpoint; reload reproduces generation bit-exactly.

    It holds the three dims of ``_network_specs``, each network's buffer
    as base64 little-endian float64 bytes, and the whitening, flags
    and critic report; the CLI writes the training log to its own file.

    The file is the text of ``json.dumps(payload, allow_nan=False)``, written
    in pieces: ``json`` encodes the small fields, and each network's base64
    bytes go straight from ``base64.b64encode`` into the file (base64 needs
    no JSON escaping), so no copy of the weights as text is held. The bytes
    go through ``data_ingest.replaced``: the checkpoint's directory is made,
    ``<name>.<pid>.tmp`` beside ``path`` is moved over it, and a failed save
    raises ``OSError`` and leaves the old file and no tmp file.
    """
    dims = {"condition_dim": model.condition_dim, "hidden_dim": model.hidden_dim,
            "latent_dim": model.latent_dim}
    head = json.dumps({
        "format_version": MODEL_FORMAT_VERSION,
        "dims": dims,
        "latent_shift": model.latent_shift.tolist(),
        "latent_scale": model.latent_scale.tolist(),
        "latent_autocorr": model.latent_autocorr,
    }, allow_nan=False)
    tail = json.dumps({
        "training_flags": model.training_flags,
        "adversarial_report": model.adversarial_report,
    }, allow_nan=False)
    with replaced(path) as fh:
        fh.write(f'{head[:-1]}, "networks": {{'.encode("ascii"))
        for k, role in enumerate(_network_specs(**dims)):
            fh.write(f'{", " if k else ""}{json.dumps(role)}: "'.encode("ascii"))
            fh.write(base64.b64encode(getattr(model, role).buffer.astype("<f8", copy=False)))
            fh.write(b'"')
        fh.write(f"}}, {tail[1:]}".encode("ascii"))


def _network_from_payload(weights: jsonread.Node, specs) -> NetworkParams:
    """One network from its base64 string, as a writable native-order copy
    (``frombuffer``'s is read-only)."""
    try:
        raw = base64.b64decode(weights.string(), validate=True)
        return NetworkParams(specs, np.frombuffer(raw, dtype="<f8").astype(np.float64))
    except (ValueError, InputError) as exc:  # not base64, or not specs' count of finite values
        weights.fail(str(exc))


def load_model(path) -> CTSGANModel:
    """The model ``save_model`` wrote to ``path``; any other file, or one whose
    dims, weights, whitening, flags or report are malformed, raises
    ``CheckpointError`` naming the key."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = jsonread.Node(json.load(fh), "model checkpoint", CheckpointError)
    except (OSError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"cannot read model checkpoint {path}: {exc}") from exc
    version = payload.get("format_version", None)
    if version.value != MODEL_FORMAT_VERSION:
        version.fail(f"{version.value!r} != {MODEL_FORMAT_VERSION}; re-train with this version")
    version.integer()  # 4.0 is not format 4
    # the fewest of each dim: NetworkParams needs a hidden and a latent unit
    least = {"condition_dim": 0, "hidden_dim": 1, "latent_dim": 1}
    payload["dims"].obj(keys=least)
    dims = {name: payload["dims"][name].integer(minimum) for name, minimum in least.items()}
    networks = {  # one at a time: decoding all four first raised backtest's peak RSS
        role: _network_from_payload(payload["networks"][role], specs)
        for role, specs in _network_specs(**dims).items()
    }
    shift = np.array(payload["latent_shift"].numbers(dims["latent_dim"]))
    scale = np.array(payload["latent_scale"].numbers(dims["latent_dim"]))
    if (scale <= 0).any():
        payload["latent_scale"].fail("every scale must be positive")
    flags = payload["training_flags"]  # each phase, done only after the earlier ones
    flags.obj(keys=_PHASES)
    done = [flags[p].boolean() for p in _PHASES]
    if done != sorted(done, reverse=True):
        flags.fail(f"a phase is done before an earlier one: {json.dumps(flags.value)}")
    report = payload.get("adversarial_report", None)
    scores = ("d_score_real", "d_score_fake", "real_vs_fake_accuracy")
    return CTSGANModel(
        **networks,
        latent_shift=shift, latent_scale=scale,
        latent_autocorr=payload["latent_autocorr"].number(0.0, 0.99),
        training_flags=dict(zip(_PHASES, done)),
        adversarial_report=None if report.value is None else {
            **{k: report[k].number() for k in scores},
            "scored_days": report["scored_days"].integer(),
        },
    )

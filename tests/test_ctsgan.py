import base64
import json
import tracemalloc

import numpy as np
import pytest

from priceband import ctsgan, seqnet
from priceband.errors import CheckpointError, InputError, StateError
from tests.conftest import reconstruction_mse

COND_DIM = 6
HORIZON = 48
ROLES = ("embedder", "recovery", "generator", "discriminator")


def toy_days(n_days=12, seed=0, horizon=HORIZON):
    """Raw-array condition rows and target paths, enough structure to train on."""
    rng = np.random.default_rng(seed)
    days = []
    t = np.arange(horizon)
    for _ in range(n_days):
        cond = rng.uniform(0, 1, COND_DIM)
        level = 0.12 + 0.2 * cond[0]
        path = level + 0.1 * np.sin(2 * np.pi * (t - 30) / horizon) + rng.normal(0, 0.02, horizon)
        days.append((cond, np.clip(path, 0, 1)))
    conditions, targets = zip(*days)
    return np.stack(conditions), np.stack(targets)


def small_model(seed=1):
    return ctsgan.build_model(
        COND_DIM, ctsgan.TrainingConfig(hidden_dim=6, latent_dim=4, seed=seed)
    )


def quick_config(iters=60, seed=1, **kw):
    return ctsgan.TrainingConfig(
        iterations_per_phase=iters, seed=seed, learning_rate=0.05, **kw
    )


def train_all(model, days, iters=60, seed=1):
    cfg = quick_config(iters, seed)
    ctsgan.train_phase1_autoencoder(model, *days, cfg)
    ctsgan.train_phase2_supervised(model, *days, cfg)
    ctsgan.train_phase3_joint(model, *days, cfg)
    return model


# --- noise -----------------------------------------------------------------------

@pytest.mark.parametrize("std", [1.0, 2.667])
def test_shaped_noise_keeps_marginal_law(std):
    """AR(1) shaping correlates the generator's noise in time but keeps each
    step's N(0, std^2) marginal."""
    eps = np.random.default_rng(4).normal(0.0, std, size=(1000, 100, 1))
    shaped = ctsgan._shape_noise(eps, 0.5)
    assert abs(shaped.mean()) < 0.02 * std
    assert abs(shaped.std() - std) < 0.01 * std
    lag1 = np.mean(shaped[1:] * shaped[:-1]) / shaped.var()
    assert lag1 == pytest.approx(0.5, abs=0.02)


def test_shaped_noise_in_place_is_the_two_array_recursion():
    """Shaping in place on the draws runs the same IEEE operations as
    writing ``a * shaped[t - 1] + sqrt(1 - a^2) * eps[t]`` into a second
    array."""
    eps = np.random.default_rng(5).normal(0.0, 1.7, size=(48, 33, 4))
    autocorr = 0.8123
    shaped = np.empty_like(eps)
    shaped[0] = eps[0]
    innovation = np.sqrt(1.0 - autocorr * autocorr)
    for t in range(1, eps.shape[0]):
        shaped[t] = autocorr * shaped[t - 1] + innovation * eps[t]
    in_place = ctsgan._shape_noise(eps, autocorr)
    assert in_place is eps
    assert in_place.tobytes() == shaped.tobytes()


@pytest.mark.parametrize("block_steps", [1, 5, 8, HORIZON])
def test_blocked_noise_is_one_draw_shaped_in_one_pass(block_steps):
    """The noise source's blocks, joined, are one ``[T, count, latent]``
    draw shaped in one pass, bit for bit, whatever the block length."""
    model = small_model()
    model.latent_autocorr = 0.7311
    blocks = list(ctsgan._ar1_noise(model, np.random.default_rng(6), 1.8, 9, block_steps))
    assert [len(b) for b in blocks] == [
        min(block_steps, HORIZON - t0) for t0 in range(0, HORIZON, block_steps)
    ]
    whole = np.random.default_rng(6).normal(0.0, 1.8, size=(HORIZON, 9, model.latent_dim))
    ctsgan._shape_noise(whole, model.latent_autocorr)
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


def test_generate_rejects_noise_std_below_one():
    model = train_all(small_model(), toy_days(), iters=10)
    with pytest.raises(InputError, match="std must be >= 1"):
        ctsgan.generate_scenarios(model, np.zeros(COND_DIM), 0.5, 5)


# --- phase ordering -----------------------------------------------------------------

@pytest.mark.parametrize(
    "done, trainer, message",
    [
        ((), ctsgan.train_phase2_supervised, "phase 2 requires phase 1 first"),
        ((ctsgan.train_phase1_autoencoder,), ctsgan.train_phase3_joint,
         "phase 3 requires phase 2 first"),
        ((), ctsgan.train_phase3_joint, "phase 3 requires phase 1 and phase 2 first"),
    ],
    ids=["phase2-fresh", "phase3-after-phase1", "phase3-fresh"],
)
def test_phase_requires_every_earlier_phase(done, trainer, message):
    """A phase run before its predecessors is refused naming exactly the
    missing ones, and the refused call changes no flag, log line or weight."""
    model = small_model()
    for train in done:
        train(model, *toy_days(), quick_config(iters=5))
    flags, log = dict(model.training_flags), list(model.training_log)
    weights = {role: getattr(model, role).buffer.copy() for role in ROLES}
    with pytest.raises(StateError) as refused:
        trainer(model, *toy_days(), quick_config())
    assert str(refused.value) == message
    assert model.training_flags == flags
    assert model.training_log == log
    for role, flat in weights.items():
        assert np.array_equal(getattr(model, role).buffer, flat)


def test_zero_iterations_leaves_parameters_unchanged():
    model = small_model()
    before = {role: getattr(model, role).buffer.copy() for role in ROLES}
    ctsgan.train_phase1_autoencoder(model, *toy_days(), quick_config(iters=0))
    for role, flat in before.items():
        assert np.array_equal(getattr(model, role).buffer, flat)
    assert model.training_flags["phase1"]


# --- conditioned networks ---------------------------------------------------------------

@pytest.mark.parametrize("role", ["generator", "discriminator"])
def test_conditioned_network_gradient_check(role):
    """Generator and critic take the condition as its own argument; a
    different condition per batch member checks the condition weight rows."""
    model = ctsgan.build_model(5, ctsgan.TrainingConfig(hidden_dim=5, latent_dim=3, seed=40))
    rng = np.random.default_rng(42)
    latents = rng.normal(size=(6, 3, 3))
    conds = rng.uniform(size=(3, 5))
    target = rng.normal(size=(6, 3, getattr(model, role).output_dim))

    def loss_fn(params):
        out, cache = seqnet.rnn_forward(params, latents, conds)
        grads, d_latents = seqnet.backward(cache, 2.0 * (out - target) / out.size)
        assert d_latents.shape == latents.shape
        return float(np.mean((out - target) ** 2)), grads

    err = seqnet.gradient_check(getattr(model, role), loss_fn, 1e-5)
    assert err < 1e-4, f"{role}: finite-difference error {err}"


@pytest.mark.parametrize("role", ROLES)
def test_skipping_the_input_gradient_keeps_the_parameter_gradients(role):
    """``backward`` without input gradients returns ``None`` for them and
    the same parameter-gradient bits as with them, for all four networks."""
    model = ctsgan.build_model(5, ctsgan.TrainingConfig(hidden_dim=5, latent_dim=3, seed=41))
    params = getattr(model, role)
    rng = np.random.default_rng(44)
    cond = rng.uniform(size=(4, 5)) if role in ("generator", "discriminator") else None
    inputs = rng.uniform(size=(6, 4, params.input_dim - (0 if cond is None else 5)))
    out, cache = seqnet.rnn_forward(params, inputs, cond)
    upstream = rng.normal(size=out.shape)
    grads, d_inputs = seqnet.backward(cache, upstream)
    param_grads, skipped = seqnet.backward(cache, upstream, input_grads=False)
    assert d_inputs.shape == inputs.shape
    assert skipped is None
    assert param_grads.tobytes() == grads.tobytes()


@pytest.mark.parametrize("dims", [(5, 5, 3), (263, 100, 100)])
def test_skipping_the_parameter_gradient_keeps_the_input_gradients(dims):
    """The adversarial gradient reads only the critic's input gradients:
    ``backward`` without parameter gradients returns ``None`` for them and
    the same input-gradient bits as the full backward, at toy and at paper
    dims (batch 7, a [7, C] condition)."""
    cond_dim, hidden_dim, latent_dim = dims
    model = ctsgan.build_model(
        cond_dim, ctsgan.TrainingConfig(hidden_dim=hidden_dim, latent_dim=latent_dim, seed=41)
    )
    rng = np.random.default_rng(45)
    latents = rng.normal(size=(HORIZON, 7, latent_dim))
    score, cache = seqnet.rnn_forward(model.discriminator, latents, rng.uniform(size=(7, cond_dim)))
    upstream = np.full(score.shape, -1.0 / score.size)
    _, d_latents = seqnet.backward(cache, upstream)
    skipped, input_grads = seqnet.backward(cache, upstream, param_grads=False)
    assert skipped is None
    assert input_grads.tobytes() == d_latents.tobytes()


# --- training behaviour ----------------------------------------------------------------

def test_phase1_loss_decreases():
    model = small_model()
    ctsgan.train_phase1_autoencoder(model, *toy_days(), quick_config(iters=300))
    losses = [r["loss"] for r in model.training_log if r["phase"] == 1]
    assert np.mean(losses[-20:]) < 0.5 * np.mean(losses[:20])


def test_constant_paths_reconstructed():
    days = (np.full((8, COND_DIM), 0.5), np.full((8, HORIZON), 0.4))
    model = small_model()
    ctsgan.train_phase1_autoencoder(model, *days, quick_config(iters=800))
    assert reconstruction_mse(model, *days) < 1e-3


def test_training_is_seed_deterministic():
    days = toy_days()
    a = train_all(small_model(seed=2), days, iters=40, seed=5)
    b = train_all(small_model(seed=2), days, iters=40, seed=5)
    for role in ROLES:
        assert np.array_equal(getattr(a, role).buffer, getattr(b, role).buffer)
    assert a.training_log == b.training_log


def test_discriminator_clipped_after_joint_training():
    model = train_all(small_model(), toy_days(), iters=50)
    assert np.abs(model.discriminator.buffer).max() <= 0.5


def test_condition_dim_mismatch_rejected():
    model = small_model()
    bad_days = (np.zeros((1, COND_DIM + 1)), np.full((1, HORIZON), 0.5))
    with pytest.raises(InputError, match="condition dim"):
        ctsgan.train_phase1_autoencoder(model, *bad_days, quick_config())


# --- phase-1 whitening pass and phase-3 embedder forwards -------------------------------

def count_forwards(monkeypatch, network_of):
    """Count ``ctsgan.rnn_forward`` calls on the network ``network_of()``
    returns; the calls still run."""
    calls = []
    forward = ctsgan.rnn_forward

    def counted(params, *args, **kwargs):
        calls.append(params is network_of())
        return forward(params, *args, **kwargs)

    monkeypatch.setattr(ctsgan, "rnn_forward", counted)
    return calls


def one_batch_whitening(model, days):
    """Shift, scale, lag-1 autocorrelation and whitened latents of the
    training days embedded by one cached ``rnn_forward``, which projects the
    inputs of all steps of all days with one GEMM."""
    train_idx, _ = ctsgan._train_holdout_split(len(days[0]), quick_config())
    x = np.ascontiguousarray(days[1][train_idx].T)[:, :, None]
    latents, _ = seqnet.rnn_forward(model.embedder, x)
    return whole_array_whitening(latents)


def whole_array_whitening(latents):
    """Shift, scale, lag-1 autocorrelation and whitened copy of ``latents``
    ([T, N, width]), each statistic one numpy reduction over all columns."""
    shift = latents.mean(axis=(0, 1))
    scale = np.maximum(latents.std(axis=(0, 1)), 1e-3)
    white = (latents - shift) / scale
    a = white[:-1].reshape(-1, white.shape[2])
    b = white[1:].reshape(-1, white.shape[2])
    ac = (a * b).mean(axis=0) / np.maximum(a.std(axis=0) * b.std(axis=0), 1e-12)
    return shift, scale, float(np.clip(np.mean(ac), 0.0, 0.99)), white


def test_whitening_pass_is_the_one_batch_pass(monkeypatch):
    """At toy dims after training, the whitening and the whitened latents
    of phase 1's one-step-at-a-time pass are bit-equal to a one-batch
    all-steps embedding."""
    days = toy_days(n_days=80)
    model = ctsgan.build_model(COND_DIM, ctsgan.TrainingConfig(hidden_dim=16, latent_dim=8, seed=7))
    seen = []
    calibrate = ctsgan._calibrate_latent_space

    def calibrate_and_keep(m, latents):
        calibrate(m, latents)
        seen.append(latents.copy())  # whitened in place by now

    monkeypatch.setattr(ctsgan, "_calibrate_latent_space", calibrate_and_keep)
    ctsgan.train_phase1_autoencoder(model, *days, quick_config(iters=20))
    shift, scale, autocorr, white = one_batch_whitening(model, days)
    assert model.latent_shift.tobytes() == shift.tobytes()
    assert model.latent_scale.tobytes() == scale.tobytes()
    assert model.latent_autocorr == autocorr
    assert seen[0].tobytes() == white.tobytes()


@pytest.mark.parametrize("n_days", [133, 222])
def test_whitening_pass_at_paper_dims_is_one_embedder_forward(monkeypatch, n_days):
    """At paper dims the 120 (or 200) training days are embedded by one
    forward, and the whitening is bit-equal to a one-batch all-steps
    embedding: with one bias and gate-affine row per day (a [120, 400]
    block is 375 KiB) and with one broadcast row (a [200, 400] block is
    625 KiB, above the stepper's 512 KiB)."""
    days = toy_days(n_days=n_days, seed=3)
    model = ctsgan.build_model(
        COND_DIM, ctsgan.TrainingConfig(hidden_dim=100, latent_dim=100, seed=5)
    )
    calls = count_forwards(monkeypatch, lambda: model.embedder)
    ctsgan.train_phase1_autoencoder(model, *days, quick_config(iters=0))
    assert calls == [True]
    shift, scale, autocorr, _ = one_batch_whitening(model, days)
    assert model.latent_shift.tobytes() == shift.tobytes()
    assert model.latent_scale.tobytes() == scale.tobytes()
    assert model.latent_autocorr == autocorr


@pytest.mark.parametrize("width", [1, 2, 3, 5, 17, 37])
def test_blocked_whitening_is_the_whole_array_whitening(width):
    """The standard deviations and autocorrelations taken as column sums
    over blocks of rows are bit-equal to whole-array reductions, and so are
    the whitened latents. The 48 x 61 rows make two full 1024-row blocks
    and a partial one; width 1, which numpy sums pairwise, stays whole."""
    latents = np.random.default_rng(width).uniform(size=(HORIZON, 61, width)) ** 3
    shift, scale, autocorr, white = whole_array_whitening(latents.copy())
    model = ctsgan.build_model(COND_DIM, ctsgan.TrainingConfig(hidden_dim=2, latent_dim=width))
    ctsgan._calibrate_latent_space(model, latents)
    assert model.latent_shift.tobytes() == shift.tobytes()
    assert model.latent_scale.tobytes() == scale.tobytes()
    assert model.latent_autocorr == autocorr
    assert latents.tobytes() == white.tobytes()


def test_whitening_statistics_make_no_latents_sized_temporary():
    """At paper dims on 329 training days the calibration allocates, beyond
    its 12.6 MB input, less than a quarter of that input at its peak (0.89
    MB measured): each temporary holds 1024 rows of the latents. One
    whole-array ``std`` makes a temporary the size of the input."""
    latents = np.random.default_rng(8).uniform(size=(HORIZON, 329, 100))
    model = ctsgan.build_model(COND_DIM, ctsgan.TrainingConfig(hidden_dim=2, latent_dim=100))
    tracemalloc.start()
    try:
        ctsgan._calibrate_latent_space(model, latents)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < latents.nbytes / 4, f"peak {peak / 1e6:.1f} MB"


def test_whitening_pass_memory_stays_below_one_batch_gate_buffer():
    """At paper dims on 300 days (270 training days) the pass allocates less
    at its peak than the one-batch pass's gate buffer alone."""
    days = toy_days(n_days=300, seed=4)
    model = ctsgan.build_model(
        COND_DIM, ctsgan.TrainingConfig(hidden_dim=100, latent_dim=100, seed=5)
    )
    one_batch_gates = HORIZON * 270 * 400 * 8
    tracemalloc.start()
    try:
        ctsgan.train_phase1_autoencoder(model, *days, quick_config(iters=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_batch_gates, f"peak {peak / 2**20:.1f} MiB"


def test_phase3_runs_the_embedder_once_per_iteration(monkeypatch):
    """Each phase-3 iteration embeds its batch once, for the critic, the
    generator and the autoencoder refresh alike; the critic report adds one."""
    model = small_model()
    cfg = quick_config(iters=3)
    ctsgan.train_phase1_autoencoder(model, *toy_days(), cfg)
    ctsgan.train_phase2_supervised(model, *toy_days(), cfg)
    calls = count_forwards(monkeypatch, lambda: model.embedder)
    ctsgan.train_phase3_joint(model, *toy_days(), cfg)
    assert sum(calls) == 3 + 1


def test_paper_dims_phase3_iteration_frees_each_sub_step():
    """One paper-dims phase-3 iteration at batch 7 peaks at 13.7 MB of
    tracemalloc (the weights excluded): the critic's caches and gradients
    are freed before the generator's passes run, and the adversarial
    passes' before the supervised pass. The 15 MB bound leaves 1.3 MB (9%)
    of margin and fails either slip: holding the adversarial caches through
    the supervised pass peaks at 16.4 MB, and keeping every cache and
    gradient of the iteration in one scope at 26.4 MB."""
    rng = np.random.default_rng(9)
    conds, paths = rng.uniform(size=(10, 263)), rng.uniform(0.1, 0.6, size=(10, HORIZON))
    model = ctsgan.build_model(263, ctsgan.TrainingConfig(hidden_dim=100, latent_dim=100, seed=5))
    model.training_flags.update(phase1=True, phase2=True)
    tracemalloc.start()
    try:
        ctsgan.train_phase3_joint(model, conds, paths, quick_config(iters=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15e6, f"peak {peak / 1e6:.1f} MB"


PHASE3_LOG_KEYS = {"d_loss", "sup_loss", "adv_loss", "recon_loss", "critic_clip_fraction"}


def test_training_log_schema():
    model = train_all(small_model(), toy_days(), iters=10)
    for record in model.training_log:
        extra = PHASE3_LOG_KEYS if record["phase"] == 3 else set()
        assert set(record) == {"phase", "iteration", "loss"} | extra
        json.dumps(record)  # stream-safe
    for record in model.training_log:
        if record["phase"] == 3:
            assert record["loss"] == 10.0 * record["sup_loss"] + record["adv_loss"]
            assert 0.0 <= record["critic_clip_fraction"] <= 1.0


# --- generation -----------------------------------------------------------------------

def test_generate_zero_scenarios_empty_set():
    model = train_all(small_model(), toy_days(), iters=20)
    out = ctsgan.generate_scenarios(model, np.zeros(COND_DIM), 1.0, 0)
    assert out.shape == (0, HORIZON)


def test_generate_untrained_rejected():
    model = small_model()
    with pytest.raises(StateError, match="generation requires"):
        ctsgan.generate_scenarios(model, np.zeros(COND_DIM), 1.0, 5)


def test_generate_condition_dim_checked():
    model = train_all(small_model(), toy_days(), iters=20)
    with pytest.raises(InputError, match="condition has shape"):
        ctsgan.generate_scenarios(model, np.zeros(COND_DIM + 2), 1.0, 5)


def test_generate_paths_distinct_and_bounded():
    model = train_all(small_model(), toy_days(), iters=60)
    out = ctsgan.generate_scenarios(model, np.full(COND_DIM, 0.5), 1.0, 500, seed=21)
    assert out.shape == (500, HORIZON)
    assert (out >= 0).all() and (out <= 1).all()
    assert np.unique(out, axis=0).shape[0] >= 499


def test_generation_memory_stays_below_one_gate_block():
    """One toy-dims call for 500 paths allocates less at its peak than one
    ``[T, 500, 4H]`` gate block: a cache-free pass holds one time step of
    gates and states."""
    model = ctsgan.build_model(
        COND_DIM, ctsgan.TrainingConfig(hidden_dim=16, latent_dim=8, seed=7)
    )
    train_all(model, toy_days(), iters=0)
    gate_block = HORIZON * 500 * 4 * 16 * 8
    tracemalloc.start()
    try:
        ctsgan.generate_scenarios(model, np.full(COND_DIM, 0.5), 1.5, 500, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < gate_block, f"peak {peak / 1e6:.1f} MB"


def generation_model(cond_dim, hidden_dim, latent_dim, autocorr):
    """A model marked trained, with a random whitening affine and the given
    noise autocorrelation, for generation checks that need no training."""
    model = ctsgan.build_model(
        cond_dim, ctsgan.TrainingConfig(hidden_dim=hidden_dim, latent_dim=latent_dim, seed=12)
    )
    rng = np.random.default_rng(13)
    model.latent_shift = rng.normal(size=latent_dim)
    model.latent_scale = rng.uniform(0.5, 2.0, size=latent_dim)
    model.latent_autocorr = autocorr
    model.training_flags.update(phase1=True, phase2=True, phase3=True)
    return model


def stacked_chain(model, cond, std, count, seed):
    """The generation chain one whole tensor at a time: noise and generator
    (``_generate_latents``), de-whitening, a cache-free recovery pass, clip."""
    rng = np.random.default_rng(seed)
    latents, _ = ctsgan._generate_latents(model, rng, cond, count, std, keep_cache=False)
    paths, _ = seqnet.rnn_forward(model.recovery, ctsgan._dewhiten(model, latents), keep_cache=False)
    return np.clip(paths[:, :, 0].T, 0.0, 1.0)


@pytest.mark.parametrize(
    "dims, count", [((COND_DIM, 16, 8), 1), ((COND_DIM, 16, 8), 500), ((263, 100, 100), 500)]
)
@pytest.mark.parametrize("autocorr", [0.0, 0.83])
@pytest.mark.parametrize("std", [1.0, 1.8])
def test_streamed_generation_is_the_stacked_chain(dims, count, autocorr, std):
    """Generation stepped one half-hour at a time through noise, generator,
    de-whitening and recovery gives the stacked chain's paths bit for bit:
    at sigma 1 and above, with and without noise shaping, for one path and
    for 500, at toy and at paper dims. The recovery shares the generator's
    gate-affine rows: one per path at toy dims and one broadcast row at
    paper dims, where the 500-path bias and head-bias rows are one row too.
    The noise comes in blocks of 8 steps at toy dims and of 1 at paper
    dims."""
    model = generation_model(dims[0], dims[1], dims[2], autocorr)
    cond = np.random.default_rng(14).uniform(size=dims[0])
    streamed = ctsgan.generate_scenarios(model, cond, std, count, seed=15)
    assert streamed.tobytes() == stacked_chain(model, cond, std, count, 15).tobytes()


@pytest.mark.parametrize("std", [np.inf, np.nan])
def test_generate_rejects_a_non_finite_noise_std(std):
    """The stepped chain checks the latents, not the noise: a non-finite
    std is refused before any draw."""
    model = generation_model(COND_DIM, 4, 3, 0.5)
    with pytest.raises(InputError, match="std must be >= 1 and finite"):
        ctsgan.generate_scenarios(model, np.zeros(COND_DIM), std, 5)


def test_paper_dims_generation_holds_no_day_sized_tensor():
    """One paper-dims call for 500 paths peaks at 10.3 MB of tracemalloc:
    the stepped chain holds one step of noise, latents, gates and states,
    and one broadcast bias and gate-affine row per network. With one such
    row per path it peaked at 17.1 MB, and the stacked chain at 50.3 MB:
    its noise and latents are 19.2 MB each."""
    model = generation_model(263, 100, 100, 0.83)
    cond = np.random.default_rng(16).uniform(size=263)
    tracemalloc.start()
    try:
        ctsgan.generate_scenarios(model, cond, 1.8, 500, seed=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14e6, f"peak {peak / 1e6:.1f} MB"


def test_generate_seed_determinism():
    model = train_all(small_model(), toy_days(), iters=20)
    a = ctsgan.generate_scenarios(model, np.full(COND_DIM, 0.5), 1.0, 10, seed=3)
    b = ctsgan.generate_scenarios(model, np.full(COND_DIM, 0.5), 1.0, 10, seed=3)
    assert np.array_equal(a, b)


# --- persistence -------------------------------------------------------------------------

def test_model_round_trip_generates_identically(tmp_path):
    model = train_all(small_model(), toy_days(), iters=30)
    before = ctsgan.generate_scenarios(model, np.full(COND_DIM, 0.5), 1.0, 7, seed=7)
    path = tmp_path / "model.json"
    ctsgan.save_model(model, path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), allow_nan=False)
    loaded = ctsgan.load_model(path)
    after = ctsgan.generate_scenarios(loaded, np.full(COND_DIM, 0.5), 1.0, 7, seed=7)
    assert np.array_equal(before, after)
    assert loaded.training_flags == model.training_flags
    assert loaded.latent_autocorr == model.latent_autocorr


def test_save_onto_a_directory_raises_and_leaves_no_tmp_file(tmp_path):
    path = tmp_path / "model.json"
    path.mkdir()
    with pytest.raises(OSError):
        ctsgan.save_model(small_model(), path)
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
    assert path.is_dir()


def test_model_truncated_checkpoint(tmp_path):
    model = train_all(small_model(), toy_days(), iters=10)
    path = tmp_path / "model.json"
    ctsgan.save_model(model, path)
    path.write_text(path.read_text(encoding="utf-8")[:200], encoding="utf-8")
    with pytest.raises(CheckpointError, match="cannot read model checkpoint"):
        ctsgan.load_model(path)


def test_model_version_mismatch_mentions_retraining(tmp_path):
    model = train_all(small_model(), toy_days(), iters=10)
    path = tmp_path / "model.json"
    ctsgan.save_model(model, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["format_version"] = 99
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CheckpointError, match="format_version: 99 != 4; re-train"):
        ctsgan.load_model(path)


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda p: [p], '^model checkpoint: expected an object, got \\[{"format_version": 4, .*\\.\\.\\.$'),
        (lambda p: p.update(latent_shift=[0.0] * 3, latent_scale=[1.0] * 4),
         "latent_shift: expected a list of 4 numbers, got \\[0.0, 0.0, 0.0\\]"),
        (lambda p: p.update(latent_shift=[0.0] * 4, latent_scale=[1.0, 1.0, 1.0, float("nan")]),
         "latent_scale\\[3\\]: expected a finite number, got NaN"),
        (lambda p: p.update(latent_shift=[0.0] * 4, latent_scale=[0.0] * 4),
         "latent_scale: every scale must be positive"),
        (lambda p: p.update(latent_autocorr=5.0),
         "latent_autocorr: expected a finite number in \\[0, 0.99\\], got 5.0"),
        (lambda p: p.update(latent_autocorr=-0.1), "latent_autocorr: .* got -0.1"),
        (lambda p: p.update(latent_autocorr="0.5"),
         'latent_autocorr: expected a finite number in \\[0, 0.99\\], got "0.5"'),
        (lambda p: p.update(latent_autocorr=True), "latent_autocorr: .* got true"),
        (lambda p: p.update(latent_shift=["0.25", 0.0, 0.0, 0.0]),
         'latent_shift\\[0\\]: expected a finite number, got "0.25"'),
        (lambda p: p.update(latent_shift=[0.25, False, 0.0, 0.0]),
         "latent_shift\\[1\\]: expected a finite number, got false"),
        (lambda p: p.update(latent_scale=[True, 2.0, 1.0, 1.0]),
         "latent_scale\\[0\\]: expected a finite number, got true"),
        (lambda p: p.update(latent_scale=[1.0, "2", 1.0, 1.0]),
         'latent_scale\\[1\\]: expected a finite number, got "2"'),
    ],
    ids=["not-an-object", "shift-length", "scale-nan", "scale-zero",
         "autocorr-above", "autocorr-below", "autocorr-string", "autocorr-boolean",
         "shift-string", "shift-boolean", "scale-boolean", "scale-string"],
)
def test_model_bad_whitening_or_payload_type_rejected(tmp_path, mangle, message):
    """A checkpoint whose whitening could not generate a valid band, holds
    a string or a boolean where a number belongs, or is not a JSON object,
    is refused when it is read."""
    with pytest.raises(CheckpointError, match=message):
        load_mangled(tmp_path, small_model(), mangle)


def load_mangled(tmp_path, model, mangle):
    """Save ``model``, let ``mangle`` edit the JSON payload in place or
    return a replacement, and load the result."""
    path = tmp_path / "model.json"
    ctsgan.save_model(model, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload = mangle(payload) or payload
    path.write_text(json.dumps(payload), encoding="utf-8")
    return ctsgan.load_model(path)


def generator_weights(payload):
    return np.frombuffer(base64.b64decode(payload["networks"]["generator"]), dtype="<f8")


def set_generator_weights(payload, weights):
    payload["networks"]["generator"] = base64.b64encode(
        np.asarray(weights, dtype="<f8").tobytes()
    ).decode("ascii")


def nan_at_3(weights):
    weights = weights.copy()
    weights[3] = np.nan
    return weights


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda p: p["dims"].update(latent_dim=True),
         "dims.latent_dim: expected an integer >= 1, got true"),
        (lambda p: p["dims"].update(hidden_dim=2.5),
         "dims.hidden_dim: expected an integer >= 1, got 2.5"),
        (lambda p: p["dims"].update(condition_dim=-1),
         "dims.condition_dim: expected an integer >= 0, got -1"),
        (lambda p: {key: value for key, value in p.items() if key != "dims"}, "dims: missing"),
        (lambda p: p["networks"].update(generator="not base64!" + p["networks"]["generator"]),
         "networks.generator: (Only base64 data is allowed|Non-base64 digit found)"),
        (lambda p: p["networks"].update(generator=p["networks"]["generator"][:-1]),
         "networks.generator: .*padding"),
        (lambda p: p["networks"].update(generator=p["networks"]["generator"][:-4]),
         "networks.generator: buffer size must be a multiple of element size"),
        (lambda p: set_generator_weights(p, generator_weights(p)[:-1]),
         "networks.generator: parameter buffer is float64 \\(435,\\), expected float64 \\(436,\\)"),
        (lambda p: set_generator_weights(p, nan_at_3(generator_weights(p))),
         "networks.generator: non-finite parameter"),
        (lambda p: p["networks"].update(generator=generator_weights(p).tolist()),
         "networks.generator: expected a string, got \\[.{36}\\.\\.\\.$"),
        (lambda p: p["networks"].update(recovery=None),
         "networks.recovery: expected a string, got null"),
    ],
    ids=["dims-true", "dims-fraction", "dims-negative-condition", "dims-missing",
         "weights-non-base64", "weights-cut-padding", "weights-cut-bytes", "weights-one-short",
         "weights-nan", "weights-float-list", "weights-null"],
)
def test_load_model_refuses_malformed_dims_or_weights(tmp_path, mangle, message):
    """Format 4 shapes every network from the three dims: a dim that is not a
    whole number >= 0, or a network whose weights are not base64 text of
    exactly its count of finite little-endian float64 values, is refused."""
    with pytest.raises(CheckpointError, match=f"^model checkpoint {message}"):
        load_mangled(tmp_path, small_model(), mangle)


@pytest.mark.parametrize(
    "flags",
    [
        {"phase1": "no", "phase2": "no", "phase3": "no"},
        {"phase1": True, "phase2": True},
        {"phase3": True},
        {"phase1": False, "phase2": True, "phase3": False},
        {"phase1": 1, "phase2": 1, "phase3": 1},
        None,
    ],
    ids=["string", "missing-key", "phase3-alone", "phase2-before-phase1", "integers", "null"],
)
def test_load_model_refuses_malformed_training_flags(tmp_path, flags):
    """Flags other than each phase mapped to a boolean, with no phase done
    before an earlier one, could let an untrained model generate bands."""
    with pytest.raises(CheckpointError, match="^model checkpoint training_flags"):
        load_mangled(tmp_path, small_model(), lambda p: p.update(training_flags=flags))


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r.pop("d_score_real"),
        lambda r: r.update(d_score_fake="0.1"),
        lambda r: r.update(real_vs_fake_accuracy=float("nan")),
        lambda r: r.update(scored_days=True),
        lambda r: r.update(scored_days=2.0),
    ],
    ids=["missing-score", "string-score", "nan-accuracy", "boolean-days", "float-days"],
)
def test_load_model_refuses_a_malformed_adversarial_report(tmp_path, edit):
    model = small_model()
    model.adversarial_report = {
        "d_score_real": 0.25, "d_score_fake": -0.5, "real_vs_fake_accuracy": 0.5, "scored_days": 3,
    }

    def mangle(payload):
        edit(payload["adversarial_report"])

    with pytest.raises(CheckpointError, match="^model checkpoint adversarial_report"):
        load_mangled(tmp_path, model, mangle)


def test_format_3_checkpoint_refused_with_retrain_hint(tmp_path):
    """Version 3 stored each network's layer specs, which let a file change
    the architecture (a head's activation, say); it is not read."""

    def as_format_3(payload):
        payload["format_version"] = 3
        del payload["dims"]
        for role, text in payload["networks"].items():
            payload["networks"][role] = {"layer_specs": [], "flat_weights": text}

    message = "^model checkpoint format_version: 3 != 4; re-train with this version$"
    with pytest.raises(CheckpointError, match=message):
        load_mangled(tmp_path, small_model(), as_format_3)


def test_loaded_model_takes_an_in_place_sgd_step(tmp_path):
    """Each loaded network is writable, so ``sgd_step`` updates it in place
    with the same arithmetic as on the saved network."""
    model = small_model()
    loaded = load_mangled(tmp_path, model, lambda p: None)
    rng = np.random.default_rng(20)
    for role in ROLES:
        saved, params = getattr(model, role), getattr(loaded, role)
        assert params.version == 0
        grads = rng.normal(size=params.n_params)
        seqnet.sgd_step(params, grads, 0.1)
        seqnet.sgd_step(saved, grads, 0.1)
        assert params.version == 1
        assert params.buffer.tobytes() == saved.buffer.tobytes()


def test_checkpoint_stores_each_fact_once(tmp_path):
    """Format 4 holds the three dims once, each network's weights as one
    base64 string, the whitening, the flags and the critic report; the log
    is not saved."""
    model = train_all(small_model(), toy_days(), iters=5)
    path = tmp_path / "model.json"
    ctsgan.save_model(model, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert set(payload) == {
        "format_version", "dims", "networks", "latent_shift", "latent_scale", "latent_autocorr",
        "training_flags", "adversarial_report",
    }
    assert payload["dims"] == {"condition_dim": COND_DIM, "hidden_dim": 6, "latent_dim": 4}
    assert set(payload["networks"]) == set(ROLES)
    assert all(isinstance(text, str) for text in payload["networks"].values())
    loaded = ctsgan.load_model(path)
    assert (loaded.latent_dim, loaded.condition_dim) == (4, COND_DIM)
    assert loaded.training_log == []
    payload["latent_scale"] = None
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CheckpointError, match="latent_scale: expected a list of 4 numbers, got null"):
        ctsgan.load_model(path)


def test_built_and_loaded_models_have_the_four_networks_of_the_paper(tmp_path):
    """Each network is an LSTM of the hidden size and a dense head; the
    embedder and recovery heads are sigmoids, the generator and critic heads
    linear, and the generator and critic read latent + condition inputs."""
    heads = {  # role: (LSTM input dim, head output dim, head activation)
        "embedder": (1, 4, "sigmoid"),
        "recovery": (4, 1, "sigmoid"),
        "generator": (4 + COND_DIM, 4, "linear"),
        "discriminator": (4 + COND_DIM, 1, "linear"),
    }
    model = small_model()
    loaded = load_mangled(tmp_path, model, lambda p: None)
    for role, (in_dim, out_dim, activation) in heads.items():
        specs = (seqnet.LayerSpec("lstm", in_dim, 6), seqnet.LayerSpec("dense", 6, out_dim, activation))
        assert getattr(model, role).specs == specs
        assert getattr(loaded, role).specs == specs


def test_fresh_model_whitening_is_the_identity():
    model = small_model()
    x = np.random.default_rng(0).uniform(size=(HORIZON, 3, 1))
    latents, _ = seqnet.rnn_forward(model.embedder, x)
    assert np.array_equal(ctsgan._embed(model, x), latents)
    assert np.array_equal(ctsgan._dewhiten(model, latents.copy()), latents)


def test_model_save_load_save_byte_identical(tmp_path):
    model = train_all(small_model(), toy_days(), iters=10)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    ctsgan.save_model(model, first)
    ctsgan.save_model(ctsgan.load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_paper_dims_model_round_trips_bit_for_bit(tmp_path):
    """At paper dims every weight and the whitening come back with the same
    bits, including -0.0, subnormals and the largest finite float."""
    model = ctsgan.build_model(263, ctsgan.TrainingConfig(hidden_dim=100, latent_dim=100, seed=5))
    extremes = np.array([-0.0, 5e-324, -2.2250738585072014e-308, np.finfo(np.float64).max])
    model.generator.w.ravel()[: extremes.size] = extremes
    rng = np.random.default_rng(5)
    model.latent_shift = rng.normal(size=100)
    model.latent_scale = rng.uniform(0.1, 2.0, size=100)
    path = tmp_path / "model.json"
    ctsgan.save_model(model, path)
    loaded = ctsgan.load_model(path)
    for role in ROLES:
        assert getattr(loaded, role).specs == getattr(model, role).specs
        assert getattr(loaded, role).buffer.tobytes() == getattr(model, role).buffer.tobytes()
    assert loaded.latent_shift.tobytes() == model.latent_shift.tobytes()
    assert loaded.latent_scale.tobytes() == model.latent_scale.tobytes()
    assert loaded.training_flags == model.training_flags


def test_paper_dims_save_holds_no_copy_of_the_file(tmp_path):
    """At paper dims ``save_model`` allocates less at its peak than the size
    of the 5.5 MB file it writes: each network's base64 bytes go straight
    into the file. The file is still the text ``json.dumps`` gives its
    payload."""
    model = ctsgan.build_model(263, ctsgan.TrainingConfig(hidden_dim=100, latent_dim=100, seed=5))
    rng = np.random.default_rng(6)
    model.latent_shift = rng.normal(size=100)
    model.latent_scale = rng.uniform(0.1, 2.0, size=100)
    model.latent_autocorr = 0.8123
    model.adversarial_report = {
        "d_score_real": -0.25, "d_score_fake": 0.5, "real_vs_fake_accuracy": 0.75, "scored_days": 3,
    }
    path = tmp_path / "model.json"
    tracemalloc.start()
    try:
        ctsgan.save_model(model, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size, f"peak {peak / 1e6:.1f} MB for a {size / 1e6:.1f} MB file"
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), allow_nan=False)


# --- desk-scale properties (shared trained fixture) ----------------------------------------

def test_generation_spread_monotone_in_sigma(trained_toy):
    model = trained_toy["model"]
    condition = trained_toy["test_days"][0][0]
    afternoon = slice(24, 39)
    spreads = []
    for sigma in (1.0, 1.667, 2.333, 3.0):
        out = ctsgan.generate_scenarios(model, condition, sigma, 200, seed=31)
        spreads.append(out[:, afternoon].std(axis=0).mean())
    assert all(a <= b + 1e-12 for a, b in zip(spreads, spreads[1:]))


def test_critic_near_equilibrium_on_toy_training(trained_toy):
    report = trained_toy["model"].adversarial_report
    assert report is not None
    assert 0.3 <= report["real_vs_fake_accuracy"] <= 0.7

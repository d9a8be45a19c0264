import hashlib
import math

import numpy as np
import pytest

from priceband import seqnet
from priceband.errors import InputError, NumericalError, StateError

LSTM_DENSE = (
    seqnet.LayerSpec("lstm", 3, 5),
    seqnet.LayerSpec("dense", 5, 2, "sigmoid"),
)


def weight_count(specs):
    """Weights the blocks ``specs`` hold, counted from their dims:
    (in + H + 1) * 4H for an lstm block of hidden size H, (in + 1) * out for
    any other block."""
    return sum(
        (s.input_dim + s.output_dim + 1) * 4 * s.output_dim if s.kind == "lstm"
        else (s.input_dim + 1) * s.output_dim
        for s in specs
    )


def mse_loss(params, inputs, target):
    out, cache = seqnet.rnn_forward(params, inputs)
    loss = float(np.mean((out - target) ** 2))
    grads, _ = seqnet.backward(cache, 2.0 * (out - target) / out.size)
    return loss, grads


# --- initialization ---------------------------------------------------------------

def test_init_deterministic_and_seed_sensitive():
    a = seqnet.init_params(42, LSTM_DENSE)
    b = seqnet.init_params(42, LSTM_DENSE)
    c = seqnet.init_params(43, LSTM_DENSE)
    assert np.array_equal(a.buffer, b.buffer)
    assert not np.array_equal(a.buffer, c.buffer)


@pytest.mark.parametrize(
    "seed, specs, sha256",
    [
        (42, LSTM_DENSE, "054400981bd593fa9d7deba782b5fe7e0f9ce95648a35f11a2577d63b1702fbe"),
        (
            5,
            (seqnet.LayerSpec("lstm", 100 + 263, 100), seqnet.LayerSpec("dense", 100, 100)),
            "c014661af7ef86d0e58452b73add6a198d7521ddaf0de2e45517b6997804bf08",
        ),
    ],
    ids=["toy", "paper-dims-generator"],
)
def test_weight_layout_and_initial_draws(seed, specs, sha256):
    """``w``, ``b``, ``head_w`` and ``head_b`` are C-contiguous views of
    ``buffer`` laid end to end in that order, the checkpoint's order, and
    ``init_params`` gives the pinned bits for a toy and a paper-dims
    network, so a seed keeps naming the same weights."""
    params = seqnet.init_params(seed, specs)
    (lstm, head), buffer = specs, params.buffer
    gates = 4 * lstm.output_dim
    rows = lstm.input_dim + lstm.output_dim
    views = {
        "w": ((rows, gates), 0),
        "b": ((gates,), rows * gates),
        "head_w": ((head.input_dim, head.output_dim), (rows + 1) * gates),
        "head_b": ((head.output_dim,), (rows + 1) * gates + head.input_dim * head.output_dim),
    }
    for name, (shape, offset) in views.items():
        view = getattr(params, name)
        start = view.__array_interface__["data"][0] - buffer.__array_interface__["data"][0]
        assert (view.shape, start, view.flags.c_contiguous) == (shape, 8 * offset, True), name
        assert np.shares_memory(view, buffer), name
    assert buffer.size == views["head_b"][1] + head.output_dim
    assert hashlib.sha256(buffer.tobytes()).hexdigest() == sha256


def test_init_dense_glorot_bound():
    specs = (seqnet.LayerSpec("lstm", 3, 10), seqnet.LayerSpec("dense", 10, 5, "linear"))
    params = seqnet.init_params(0, specs)
    bound = math.sqrt(6.0 / 15.0)
    assert np.abs(params.head_w).max() <= bound
    assert np.array_equal(params.head_b, np.zeros(5))


def test_init_forget_gate_bias_is_one():
    specs = (seqnet.LayerSpec("lstm", 3, 4), seqnet.LayerSpec("dense", 4, 1))
    params = seqnet.init_params(0, specs)
    bias = params.b
    assert np.array_equal(bias[4:8], np.ones(4))
    assert np.array_equal(bias[:4], np.zeros(4))
    assert np.array_equal(bias[8:], np.zeros(8))


def test_init_invalid_dims():
    with pytest.raises(InputError, match="non-positive dimension"):
        seqnet.init_params(0, (seqnet.LayerSpec("lstm", 0, 4),))
    with pytest.raises(InputError, match="unknown activation"):
        seqnet.init_params(0, (seqnet.LayerSpec("dense", 3, 4, "relu"),))
    with pytest.raises(InputError, match="does not feed"):
        seqnet.init_params(
            0, (seqnet.LayerSpec("lstm", 3, 4), seqnet.LayerSpec("dense", 5, 1))
        )


@pytest.mark.parametrize(
    "specs, message",
    [
        ((seqnet.LayerSpec("gru", 3, 5), LSTM_DENSE[1]), "unknown layer kind"),
        ((seqnet.LayerSpec("dense", 3, 2),), "network must be an lstm block"),
        ((*LSTM_DENSE, seqnet.LayerSpec("dense", 2, 1)), "network must be an lstm block"),
    ],
    ids=["unknown-kind", "dense-only", "three-blocks"],
)
def test_network_params_refuse_other_shapes(specs, message):
    """Weights of the right count are refused unless the specs are one lstm
    block then one dense head."""
    with pytest.raises(InputError, match=message):
        seqnet.NetworkParams(specs, np.zeros(weight_count(specs)))


# --- forward ------------------------------------------------------------------------

def test_zero_network_outputs_head_bias():
    params = seqnet.init_params(0, LSTM_DENSE)
    params.buffer[...] = 0.0
    params.head_b[...] = [0.25, -1.5]  # a recognizable head bias
    out, _ = seqnet.rnn_forward(params, np.zeros((6, 1, 3)))
    sig = 1.0 / (1.0 + math.exp(0.0))
    expected = np.array([1.0 / (1.0 + math.exp(-0.25)), 1.0 / (1.0 + math.exp(1.5))])
    assert np.allclose(out[:, 0], np.tile(expected, (6, 1)), atol=1e-15)
    assert sig == 0.5  # zero hidden state contributes nothing


def test_single_step_equals_sequence_of_one():
    """A one-step sequence gives the first step of any longer sequence that
    starts with the same input."""
    params = seqnet.init_params(5, LSTM_DENSE)
    x = np.random.default_rng(1).normal(size=(4, 1, 3))
    out_step, _ = seqnet.rnn_forward(params, x[:1])
    out_seq, _ = seqnet.rnn_forward(params, x)
    assert np.array_equal(out_step[0], out_seq[0])


def _scalar_sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def _scalar_forward(params, x):
    """Independent per-step oracle with plain Python floats for an
    LSTM + sigmoid-dense network; ``x`` is ``[T, D]`` and holds every input
    column of the first block at every step."""
    w, b, hw, hb = params.w, params.b, params.head_w, params.head_b
    hid = params.specs[0].output_dim
    h = [0.0] * hid
    c = [0.0] * hid
    expected = []
    for t in range(x.shape[0]):
        xh = list(x[t]) + h
        z = [sum(xh[i] * w[i, j] for i in range(len(xh))) + b[j] for j in range(4 * hid)]
        i_g = [_scalar_sigmoid(z[j]) for j in range(hid)]
        f_g = [_scalar_sigmoid(z[hid + j]) for j in range(hid)]
        g_g = [math.tanh(z[2 * hid + j]) for j in range(hid)]
        o_g = [_scalar_sigmoid(z[3 * hid + j]) for j in range(hid)]
        c = [f_g[j] * c[j] + i_g[j] * g_g[j] for j in range(hid)]
        h = [o_g[j] * math.tanh(c[j]) for j in range(hid)]
        head = [
            _scalar_sigmoid(sum(h[i] * hw[i, k] for i in range(hid)) + hb[k])
            for k in range(params.output_dim)
        ]
        expected.append(head)
    return np.array(expected)


def test_forward_matches_scalar_reimplementation():
    params = seqnet.init_params(9, LSTM_DENSE)
    x = np.random.default_rng(2).normal(size=(5, 3))
    out, _ = seqnet.rnn_forward(params, x[:, None, :])
    assert np.abs(out[:, 0] - _scalar_forward(params, x)).max() < 1e-12


def test_gate_math_on_extreme_pre_activations():
    """One cell step on a [B, 4H] block in which every gate holds 0, -0.0,
    +-1e-300, +-20, +-40 and +-800: the sigmoid gates stay in [0, 1] within
    2.3e-16 of 1 / (1 + exp(-x)), the candidate is np.tanh (signed zero
    included), and at 0 the sigmoid gates are exactly 0.5 and the candidate
    exactly 0, so gate columns finished by the wrong function fail."""
    values = np.array([0.0, -0.0, 1e-300, -1e-300, 20.0, -20.0, 40.0, -40.0, 800.0, -800.0])
    batch, hid = 3, values.size
    pre = np.tile(values, (batch, 4))
    # The forward halves the sigmoid gates' (i, f, o) columns in its weights.
    z = pre.copy()
    z[:, : 2 * hid] *= 0.5
    z[:, 3 * hid :] *= 0.5
    c = np.full((batch, hid), 0.25)
    c_out, tanh_c, h = (np.empty((batch, hid)) for _ in range(3))
    seqnet._lstm_step(z, seqnet._gate_affine(batch, hid), c, c_out, tanh_c, h)

    oracle = np.array([0.0 if v < -700 else 1.0 / (1.0 + math.exp(-v)) for v in values])
    i, f, g, o = (z[:, k * hid : (k + 1) * hid] for k in range(4))
    zero = values == 0.0
    for gate in (i, f, o):
        assert ((gate >= 0.0) & (gate <= 1.0)).all()
        assert np.abs(gate - oracle).max() <= 2.3e-16
        assert (gate[:, zero] == 0.5).all()
    assert np.array_equal(g, np.tanh(pre[:, 2 * hid : 3 * hid]))
    assert np.array_equal(np.signbit(g), np.signbit(pre[:, 2 * hid : 3 * hid]))
    assert (g[:, zero] == 0.0).all()
    assert np.array_equal(c_out, f * c + i * g)
    assert np.array_equal(tanh_c, np.tanh(c_out))
    assert np.array_equal(h, o * tanh_c)


# rows of the first LSTM weight: 2 time-varying inputs, then a 4-dim condition
COND_NET = (
    seqnet.LayerSpec("lstm", 2 + 4, 5),
    seqnet.LayerSpec("dense", 5, 2, "sigmoid"),
)


def test_condition_matches_concatenated_scalar_reimplementation():
    """A per-sequence condition acts exactly like the same vector appended to
    the inputs at every step."""
    params = seqnet.init_params(19, COND_NET)
    rng = np.random.default_rng(20)
    x = rng.normal(size=(6, 3, 2))
    cond = rng.normal(size=(3, 4))
    out, _ = seqnet.rnn_forward(params, x, cond)
    assert out.shape == (6, 3, 2)
    for k in range(3):
        concatenated = np.concatenate([x[:, k], np.tile(cond[k], (6, 1))], axis=1)
        assert np.abs(out[:, k] - _scalar_forward(params, concatenated)).max() < 1e-12

    shared, _ = seqnet.rnn_forward(params, x, cond[0])
    expected, _ = seqnet.rnn_forward(params, x, np.tile(cond[0], (3, 1)))
    assert np.abs(shared - expected).max() < 1e-12


def _paper_net(head_dim, activation):
    return (
        seqnet.LayerSpec("lstm", 100 + 263, 100),
        seqnet.LayerSpec("dense", 100, head_dim, activation),
    )


def test_cache_free_forward_equals_cached_forward():
    """The cached forward projects the inputs of all T steps with one GEMM
    and applies the head to all of them at once; the cache-free one does
    both one step at a time. The outputs are bit-equal at batches 2, 7 and
    500, at toy and at paper dims (hidden 100, latent 100, a [B, 263]
    condition), under a sigmoid and a linear head.

    Batch 1 is left out: numpy sends a [1, K] @ [K, N] product to gemv,
    which may round the one-step projection 1-2 ulp differently from the
    [T, K] @ [K, N] GEMM of the cached pass."""
    nets = {
        "toy-sigmoid": (COND_NET, 2),
        "toy-linear": ((COND_NET[0], seqnet.LayerSpec("dense", 5, 2)), 2),
        "paper-sigmoid": (_paper_net(1, "sigmoid"), 100),
        "paper-linear": (_paper_net(100, "linear"), 100),
    }
    rng = np.random.default_rng(22)
    for name, (specs, x_dim) in nets.items():
        params = seqnet.init_params(21, specs)
        steps = 7 if name.startswith("toy") else 48
        for batch in (2, 7, 500):
            x = rng.normal(size=(steps, batch, x_dim))
            cond = rng.normal(size=(batch, specs[0].input_dim - x_dim))
            cached, cache = seqnet.rnn_forward(params, x, cond)
            free, none = seqnet.rnn_forward(params, x, cond, keep_cache=False)
            assert cache is not None and none is None
            assert np.array_equal(cached, free), f"{name}, batch {batch}"


@pytest.mark.parametrize(
    "hid, batch, rows", [(16, 500, 500), (100, 163, 163), (100, 164, 1), (100, 500, 1)]
)
def test_stepper_constant_rows_follow_the_block_size(hid, batch, rows):
    """A stepper copies its bias, gate-affine and head-bias rows once per
    sequence while a [batch, 4H] float64 block is at most 512 KiB (toy dims
    at 500 paths: 250 KiB), and keeps one broadcast row above it (paper
    dims from 164 sequences on). A per-sequence condition keeps one bias
    row per sequence, and a shared gate-affine block of the other size is
    refused."""
    params = seqnet.init_params(
        25, (seqnet.LayerSpec("lstm", 1 + 263, hid), seqnet.LayerSpec("dense", hid, 8, "sigmoid"))
    )
    net = seqnet.Stepper(params, np.zeros(263), batch)
    assert net.bias.shape == (rows, 4 * hid)
    assert net.affine.shape == (2, rows, 4 * hid)
    assert net.head_b.shape == (rows, 8)
    assert seqnet.Stepper(params, np.zeros((batch, 263)), batch).bias.shape == (batch, 4 * hid)
    with pytest.raises(InputError, match="gate-affine rows"):
        seqnet.Stepper(params, None, batch, affine=seqnet._gate_affine(rows + 1, hid))


def test_broadcast_rows_give_the_bits_of_full_rows(monkeypatch):
    """At paper dims over 200 sequences under a shared condition, the
    cached pass, its gradients and the cache-free pass read one broadcast
    bias, gate-affine and head-bias row, and give the bits of the same
    passes with one row per sequence."""
    params = seqnet.init_params(26, _paper_net(100, "sigmoid"))
    rng = np.random.default_rng(27)
    x = rng.normal(size=(48, 200, 100))
    cond = rng.normal(size=263)
    upstream = rng.normal(size=(48, 200, 100))

    def passes():
        cached, cache = seqnet.rnn_forward(params, x, cond)
        free, _ = seqnet.rnn_forward(params, x, cond, keep_cache=False)
        grads, d_inputs = seqnet.backward(cache, upstream)
        return [a.tobytes() for a in (cached, free, cache.gates, cache.cs, cache.hs, grads, d_inputs)]

    assert seqnet.Stepper(params, cond, 200).bias.shape == (1, 400)
    broadcast = passes()
    monkeypatch.setattr(seqnet, "_FULL_ROWS_MAX_BYTES", math.inf)
    assert seqnet.Stepper(params, cond, 200).bias.shape == (200, 400)
    assert passes() == broadcast


def test_condition_gradients_finite_difference():
    """Different conditions per batch member, so the condition weight rows
    and the time-varying input gradient are both checked."""
    params = seqnet.init_params(23, COND_NET)
    rng = np.random.default_rng(24)
    x = rng.normal(size=(5, 3, 2))
    cond = rng.normal(size=(3, 4))
    target = rng.uniform(size=(5, 3, 2))

    def loss_fn(p, inputs=x):
        out, cache = seqnet.rnn_forward(p, inputs, cond)
        grads, d_inputs = seqnet.backward(cache, 2.0 * (out - target) / out.size)
        return float(np.mean((out - target) ** 2)), grads, d_inputs

    assert seqnet.gradient_check(params, lambda p: loss_fn(p)[:2], 1e-5) < 1e-4

    _, _, d_inputs = loss_fn(params)
    assert d_inputs.shape == x.shape
    eps = 1e-5
    numeric = np.empty_like(x)
    for idx in np.ndindex(*x.shape):
        up, down = x.copy(), x.copy()
        up[idx] += eps
        down[idx] -= eps
        numeric[idx] = (loss_fn(params, up)[0] - loss_fn(params, down)[0]) / (2.0 * eps)
    denom = np.maximum(np.maximum(np.abs(d_inputs), np.abs(numeric)), 1e-8)
    assert np.max(np.abs(d_inputs - numeric) / denom) < 1e-4


def test_forward_rejects_bad_shapes_and_nan():
    params = seqnet.init_params(0, LSTM_DENSE)
    with pytest.raises(InputError, match=r"inputs must be \[T, B, D\]"):
        seqnet.rnn_forward(params, np.zeros((4, 3)))
    with pytest.raises(InputError, match="does not match network input dim"):
        seqnet.rnn_forward(params, np.zeros((4, 1, 7)))
    with pytest.raises(NumericalError, match="inputs"):
        seqnet.rnn_forward(params, np.full((4, 1, 3), np.nan))

    cond_params = seqnet.init_params(0, COND_NET)
    x = np.zeros((4, 3, 2))
    with pytest.raises(InputError, match="condition dim 3"):  # 3 + input dim 2 != 6
        seqnet.rnn_forward(cond_params, x, np.zeros(3))
    with pytest.raises(InputError, match="B = 3"):  # 2 conditions for a batch of 3
        seqnet.rnn_forward(cond_params, x, np.zeros((2, 4)))
    with pytest.raises(InputError, match="condition dim 1"):  # network without one
        seqnet.rnn_forward(params, np.zeros((4, 1, 3)), np.zeros(1))
    with pytest.raises(NumericalError, match="condition"):
        seqnet.rnn_forward(cond_params, x, np.full(4, np.inf))


def test_forward_deterministic():
    params = seqnet.init_params(4, LSTM_DENSE)
    x = np.random.default_rng(3).normal(size=(8, 1, 3))
    a, _ = seqnet.rnn_forward(params, x)
    b, _ = seqnet.rnn_forward(params, x)
    assert a.tobytes() == b.tobytes()


# --- backward ----------------------------------------------------------------------

def test_gradient_zero_for_unused_output():
    params = seqnet.init_params(6, LSTM_DENSE)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 1, 3))
    out, cache = seqnet.rnn_forward(params, x)
    upstream = np.zeros_like(out)
    upstream[..., 0] = 1.0  # loss touches head output 0 only
    grads, _ = seqnet.backward(cache, upstream)
    n_lstm = weight_count(params.specs[:1])
    head_w = grads[n_lstm : n_lstm + 10].reshape(5, 2)
    head_b = grads[n_lstm + 10 :]
    assert np.array_equal(head_w[:, 1], np.zeros(5))
    assert head_b[1] == 0.0
    assert np.abs(head_w[:, 0]).max() > 0


def test_dense_gradient_matches_least_squares():
    """The linear head's gradient is the least-squares gradient of its
    inputs, the LSTM's hidden states."""
    specs = (seqnet.LayerSpec("lstm", 4, 3), seqnet.LayerSpec("dense", 3, 2, "linear"))
    params = seqnet.init_params(7, specs)
    rng = np.random.default_rng(5)
    inputs = rng.normal(size=(6, 1, 4))
    y = rng.normal(size=(6, 2))
    out, cache = seqnet.rnn_forward(params, inputs)
    grads, _ = seqnet.backward(cache, 2.0 * (out - y[:, None, :]))
    x = cache.hs[1:, 0]
    w, b = params.head_w, params.head_b
    residual = x @ w + b - y
    dw = 2.0 * x.T @ residual
    db = 2.0 * residual.sum(axis=0)
    n_lstm = weight_count(specs[:1])
    assert np.allclose(grads[n_lstm:], np.concatenate([dw.ravel(), db]), atol=1e-12)


def test_full_network_finite_difference():
    params = seqnet.init_params(8, LSTM_DENSE)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 1, 3))
    target = rng.uniform(size=(5, 1, 2))
    err = seqnet.gradient_check(params, lambda p: mse_loss(p, x, target), 1e-5)
    assert err < 1e-4


def test_backward_stale_cache():
    params = seqnet.init_params(10, LSTM_DENSE)
    x = np.random.default_rng(8).normal(size=(3, 1, 3))
    out, cache = seqnet.rnn_forward(params, x)
    seqnet.sgd_step(params, np.zeros(params.n_params), 0.02)
    with pytest.raises(StateError):
        seqnet.backward(cache, np.zeros_like(out))


def test_backward_shape_check():
    params = seqnet.init_params(11, LSTM_DENSE)
    out, cache = seqnet.rnn_forward(params, np.zeros((3, 1, 3)))
    with pytest.raises(InputError, match="upstream gradient shape"):
        seqnet.backward(cache, np.zeros((3, 1, 7)))


# --- optimizer ------------------------------------------------------------------------

def test_sgd_zero_gradient_only_clamps():
    params = seqnet.init_params(12, LSTM_DENSE)
    params.buffer[0] = 0.8
    flat = params.buffer.copy()
    seqnet.sgd_step(params, np.zeros(params.n_params), 0.02, clip_limit=0.5)
    updated = params.buffer
    assert updated[0] == 0.5
    assert np.array_equal(updated[1:], np.clip(flat[1:], -0.5, 0.5))


def test_sgd_single_step_arithmetic():
    params = seqnet.init_params(0, LSTM_DENSE)
    params.buffer[...] = 0.0
    n_lstm = weight_count(params.specs[:1])
    grads = np.zeros(params.n_params)
    grads[n_lstm] = 1.0  # first weight of the dense head
    version = params.version
    seqnet.sgd_step(params, grads, 0.02)
    assert params.head_w[0, 0] == pytest.approx(-0.02, abs=1e-15)
    assert np.count_nonzero(params.buffer) == 1
    assert params.version == version + 1


def test_sgd_rejects_overflowing_update():
    """A refused update leaves the weights and their ``version`` as they were."""
    params = seqnet.init_params(26, LSTM_DENSE)
    before, version = params.buffer.tobytes(), params.version
    with pytest.raises(NumericalError, match="after the update"), np.errstate(over="ignore"):
        seqnet.sgd_step(params, np.full(params.n_params, 1e300), 1e10)
    assert (params.buffer.tobytes(), params.version) == (before, version)
    with pytest.raises(NumericalError, match="gradients"):
        seqnet.sgd_step(params, np.full(params.n_params, np.nan), 0.02)
    assert (params.buffer.tobytes(), params.version) == (before, version)


def test_clamp_invariant_over_many_steps():
    params = seqnet.init_params(13, LSTM_DENSE)
    rng = np.random.default_rng(9)
    for _ in range(20):
        seqnet.sgd_step(params, rng.normal(size=params.n_params), 0.5, clip_limit=0.5)
        assert np.abs(params.buffer).max() <= 0.5


def test_gradient_check_restores_the_weights_when_the_loss_raises():
    """A loss that raises mid-check leaves every weight as it was, and bumps
    ``version`` past the perturbed weights the loss last saw."""
    params = seqnet.init_params(15, LSTM_DENSE)
    before = params.buffer.copy()
    rng = np.random.default_rng(16)
    x, target = rng.normal(size=(3, 1, 3)), rng.uniform(size=(3, 1, 2))
    seen = []

    def loss(p):
        seen.append(p.version)
        if len(seen) == 4:  # the probe of buffer[1] at +eps
            raise InputError("refused")
        return mse_loss(p, x, target)

    with pytest.raises(InputError, match="refused"):
        seqnet.gradient_check(params, loss)
    assert params.buffer.tobytes() == before.tobytes()
    assert params.version > seen[-1]


def test_gradient_check_rejects_zero_eps():
    params = seqnet.init_params(14, LSTM_DENSE)
    for eps in (0.0, float("nan")):
        with pytest.raises(InputError, match="eps"):
            seqnet.gradient_check(params, lambda p: (0.0, np.zeros(p.n_params)), eps)

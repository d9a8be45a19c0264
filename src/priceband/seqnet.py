"""Minimal differentiable sequence networks: an LSTM block with a dense head,
exact reverse-mode gradients, SGD with weight clamping, and a
finite-difference gradient checker.

Everything is float64 numpy. Every network has one shape: an LSTM block
followed by a dense head ("linear" or "sigmoid"), the shape of all four
networks of the generative model. Inputs are ``[T, B, Dx]`` batches of
sequences and outputs are ``[T, B, Dy]``.

The LSTM packs its weights as one ``[input_dim + H, 4H]`` matrix whose rows
are ``[x | cond | h]``: the time-varying inputs, then the optional
time-constant condition (``input_dim = Dx + C``), then the recurrent state.
Columns are the gates in the order input, forget, candidate, output. The
forward projects the condition once per sequence, folded into the bias.

Inference is a ``Stepper``: it advances a batch of sequences one time step
per call (input GEMM, ``h @ W_h``, cell update, head) and holds one step's
gates and states, never a ``[T, B, 4H]`` gate block. The cache-free
``rnn_forward`` runs one over its T steps, and scenario generation steps
the generator and the recovery network together through one. A training
pass (``rnn_forward`` with its cache) prepares its weights in a
``Stepper`` too, then projects the inputs of all T steps with one GEMM,
runs only ``h @ W_h`` and the cell update per step, keeping every step as
the backward cache, and applies the head to all T hidden states at once.
Both give the same bits, except that a batch of one may round differently
(numpy sends a ``[1, K] @ [K, N]`` product to gemv).

A ``Stepper`` holds its constant rows (the bias, the gate-affine rows and
the head bias) as one row per sequence while a ``[batch, 4H]`` float64
block fits in 512 KiB, and as one row that numpy broadcasts above it.
Below the limit full rows run the adds and multiplies 1.4 to 2.4 times as
fast as a broadcast row (``[500, 64]``: 15.7 against 22.6 us, one core of a
2-CPU x86 VM). Above it the ops wait on memory: a broadcast row is at most
a fifth slower up to 1 MiB and faster beyond, a whole pass keeps its speed,
and the copies would cost megabytes (3.4 MB in the paper-dims whitening
pass over 329 days). Every element sees the same arithmetic either way, so
the bits do not change. A bias that holds a per-sequence condition keeps
one row per sequence.

A pass's batch is not split into row blocks to save memory: that is not
bit-exact. With one OpenBLAS thread, the paper-dims embedding pass over 329
days run in 64-row blocks differed from the whole pass on every row; in
200-row blocks it was equal. Plain 2-D GEMMs split by rows stayed equal
except for 1-row blocks.

Every sigmoid is computed as sigmoid(x) = 0.5 * tanh(0.5 * x) + 0.5. A
per-call copy of the weights holds the sigmoid gates' columns halved, so one
tanh over all four gates, then times 0.5 and plus 0.5 in those columns,
gives the gate activations; the dense head's sigmoid works the same way.
The stored weights are not halved: ``backward`` takes them as they are and
reads sigmoid(x) from the cached activations.

A network's weights live in one float64 vector, ``NetworkParams.buffer``,
and ``NetworkParams`` names four C-order views into it, in this order: the
LSTM's ``w`` ``[input_dim + H, 4H]`` and ``b`` ``[4H]``, then the head's
``head_w`` ``[H, Dy]`` and ``head_b`` ``[Dy]``. The optimizer updates the
whole vector at once, and ``backward`` writes each gradient into the same
views of one gradient vector.

This module knows no file format: ``ctsgan`` saves and loads the networks,
handing ``NetworkParams`` the specs and a weight vector to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, StateError

_ACTIVATIONS = ("linear", "sigmoid")

# Gate packing order inside the fused LSTM weight matrix: input, forget,
# candidate, output. The forget slice is [H:2H]; its bias starts at 1.0.
_GATES = 4

# The largest [batch, 4H] float64 block a Stepper copies its constant rows
# into; above it they are one broadcast row (see the module docstring).
_FULL_ROWS_MAX_BYTES = 512 * 1024


@dataclass(frozen=True)
class LayerSpec:
    """One layer block: ``kind`` is "lstm" or "dense".

    For "lstm", ``output_dim`` is the hidden size. ``activation`` applies to
    dense blocks only ("linear" or "sigmoid").
    """

    kind: str
    input_dim: int
    output_dim: int
    activation: str = "linear"


def _validate_specs(specs: tuple[LayerSpec, ...]) -> None:
    for spec in specs:
        if spec.kind not in ("lstm", "dense"):
            raise InputError(f"unknown layer kind: {spec.kind!r}")
        if spec.input_dim <= 0 or spec.output_dim <= 0:
            raise InputError(f"non-positive dimension in {spec}")
        if spec.kind == "dense" and spec.activation not in _ACTIVATIONS:
            raise InputError(f"unknown activation: {spec.activation!r}")
    kinds = tuple(spec.kind for spec in specs)
    if kinds != ("lstm", "dense"):
        raise InputError(f"network must be an lstm block then a dense head, got {kinds}")
    lstm, head = specs
    if lstm.output_dim != head.input_dim:
        raise InputError(
            f"block output dim {lstm.output_dim} does not feed block "
            f"input dim {head.input_dim}"
        )


def _weight_views(specs: tuple[LayerSpec, ...], vec: np.ndarray) -> tuple[np.ndarray, ...]:
    """``vec``, of ``_weight_count(specs)`` values, split into one
    network's four weight views ``(w, b, head_w, head_b)``: the one place
    that lays the weights out (see the module docstring)."""
    lstm, head = specs
    rows, cols = lstm.input_dim + lstm.output_dim, _GATES * lstm.output_dim
    ends = np.cumsum((rows * cols, cols, head.input_dim * head.output_dim))
    w, b, head_w, head_b = np.split(vec, ends)
    return w.reshape(rows, cols), b, head_w.reshape(head.input_dim, head.output_dim), head_b


def _weight_count(specs: tuple[LayerSpec, ...]) -> int:
    """The length of the vector that ``_weight_views`` splits."""
    lstm, head = specs
    lstm_count = (lstm.input_dim + lstm.output_dim + 1) * _GATES * lstm.output_dim
    return lstm_count + (head.input_dim + 1) * head.output_dim


class NetworkParams:
    """One network's weights: ``buffer`` is one float64 vector, and ``w``,
    ``b``, ``head_w`` and ``head_b`` are the views into it that the module
    docstring lays out.

    ``version`` increments on every in-place mutation so gradient caches can
    detect staleness.
    """

    def __init__(self, specs: tuple[LayerSpec, ...], buffer: np.ndarray):
        _validate_specs(specs)
        self.specs = tuple(specs)
        n_params = _weight_count(self.specs)
        if buffer.shape != (n_params,) or buffer.dtype != np.float64:
            raise InputError(
                f"parameter buffer is {buffer.dtype} {buffer.shape}, expected float64 ({n_params},)"
            )
        if not np.isfinite(buffer).all():
            raise InputError("non-finite parameter tensor")
        self.buffer = buffer
        self.w, self.b, self.head_w, self.head_b = _weight_views(self.specs, buffer)
        self.version = 0

    @property
    def n_params(self) -> int:
        return self.buffer.size

    @property
    def input_dim(self) -> int:
        return self.specs[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.specs[-1].output_dim


def init_params(seed: int, specs: tuple[LayerSpec, ...] | list[LayerSpec]) -> NetworkParams:
    """Glorot-uniform weights, zero biases, forget-gate bias 1.0.

    For the dense head the uniform bound is sqrt(6/(in+out)); for the LSTM
    block the per-gate bound uses fan_in = input+hidden, fan_out = hidden.
    """
    specs = tuple(specs)
    _validate_specs(specs)  # a bad dim is named before it sizes the buffer
    params = NetworkParams(specs, np.zeros(_weight_count(specs)))
    lstm, head = specs
    hid = lstm.output_dim
    params.b[hid : 2 * hid] = 1.0
    rng = np.random.default_rng(seed)
    fans = (lstm.input_dim + 2 * hid, head.input_dim + head.output_dim)
    for w, fan in zip((params.w, params.head_w), fans):
        bound = np.sqrt(6.0 / fan)
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


@dataclass
class ForwardCache:
    """What ``backward`` needs of one forward pass: the inputs, the LSTM's
    gate activations, cell states and hidden states, and the head's output
    ``y``. ``cs[t + 1]``/``hs[t + 1]`` are the states after step t."""

    params: NetworkParams
    version: int
    x: np.ndarray
    cond: np.ndarray | None
    gates: np.ndarray
    cs: np.ndarray
    tanh_c: np.ndarray
    hs: np.ndarray
    y: np.ndarray

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.y.shape


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values in {what}")


def rnn_forward(
    params: NetworkParams,
    inputs: np.ndarray,
    condition: np.ndarray | None = None,
    *,
    keep_cache: bool = True,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the LSTM and then the dense head over a batch of sequences.

    ``inputs`` is ``[T, B, Dx]``; the output is ``[T, B, Dy]``.
    ``condition`` is an optional time-constant input, ``[C]`` for one
    vector shared by every sequence or ``[B, C]`` for one per sequence, with
    ``Dx + C`` equal to the network's input dim. It gives the same result as
    appending the condition to the inputs at every step.

    With ``keep_cache`` the returned cache is sufficient for an exact
    backward pass. Without it the cache is ``None`` and the pass is a
    ``Stepper`` run over the T steps (inference): besides its inputs and
    output, it holds one time step's gates and states, whatever T is. Both
    modes give the same output bit for bit, except that a batch of one may
    differ by rounding.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 3:
        raise InputError(f"inputs must be [T, B, D], got {x.shape}")
    steps, batch, x_dim = x.shape
    net = Stepper(params, condition, batch)
    if x_dim != net.x_dim:
        raise InputError(
            f"input dim {x_dim} + condition dim {params.input_dim - net.x_dim} does not "
            f"match network input dim {params.input_dim}"
        )
    _check_finite(x, "inputs")

    if not keep_cache:
        y = np.empty((steps, batch, params.output_dim))
        for t in range(steps):
            net.step(x[t], y[t])
        return y, None
    y, hs, gates, cs, tanh_c = _lstm_forward(net, x)
    return y, ForwardCache(params, params.version, x, net.cond, gates, cs, tanh_c, hs, y)


class Stepper:
    """Cache-free inference over a batch of ``batch`` sequences, one time
    step per ``step`` call, under an optional time-constant ``condition``
    (``[C]`` or ``[batch, C]``, as for ``rnn_forward``).

    It holds what every step reads: per-call copies of the weights with the
    sigmoid gates' columns halved (and a sigmoid head's), the bias with the
    condition folded in, the gate-affine rows (``_gate_affine``), the head
    bias, and one time step's gates and states. The bias, the gate-affine
    rows and the head bias have ``rows`` rows: ``batch`` while a ``[batch,
    4H]`` float64 block is at most 512 KiB, else 1, which numpy broadcasts
    over the batch. A bias that folds in a per-sequence ``[batch, C]``
    condition always has ``batch`` rows. Two networks of one hidden size
    stepped over one batch can share the gate-affine rows: pass the first
    stepper's ``affine`` to the second.

    Halving is exact in binary, so the projections give exactly z/2 in the
    halved columns. Below the limit, full rows also keep the per-step adds
    and multiplies free of broadcasting: numpy's broadcasting iterator
    allocates with the GIL released, which in threaded generation raced
    with tracemalloc.stop() (CPython 3.11). Threaded generation above the
    limit (a paper-dims ``evaluate``) broadcasts, so tracing it can meet
    that race until ``tracemalloc`` is started once per traced window.
    """

    def __init__(
        self,
        params: NetworkParams,
        condition: np.ndarray | None,
        batch: int,
        affine: np.ndarray | None = None,
    ):
        lstm, head = params.specs
        hid = lstm.output_dim
        self.cond = _condition_rows(params, condition, batch)
        self.x_dim = lstm.input_dim - (0 if self.cond is None else self.cond.shape[1])
        rows = batch if batch * _GATES * hid * 8 <= _FULL_ROWS_MAX_BYTES else 1
        if affine is None:
            affine = _gate_affine(rows, hid)
        elif affine.shape != (2, rows, _GATES * hid):
            raise InputError(
                f"gate-affine rows are {affine.shape}, expected {(2, rows, _GATES * hid)}"
            )
        self.affine = affine
        w = params.w * affine[0, 0]
        self.w_x, self.w_h = w[: self.x_dim], w[lstm.input_dim :]
        bias = params.b * affine[0, 0]
        if self.cond is not None:
            bias = bias + self.cond @ w[self.x_dim : lstm.input_dim]
        per_sequence = self.cond is not None and self.cond.shape[0] == batch
        self.bias = np.broadcast_to(bias, (batch if per_sequence else rows, _GATES * hid)).copy()
        self.sigmoid_head = head.activation == "sigmoid"
        head_w, head_b = params.head_w, params.head_b
        if self.sigmoid_head:
            head_w, head_b = head_w * 0.5, head_b * 0.5
        self.head_w = head_w
        self.head_b = np.broadcast_to(head_b, (rows, head.output_dim)).copy()
        self._z = np.empty((batch, _GATES * hid))
        self._h = np.zeros((batch, hid))
        self._c = np.zeros((batch, hid))
        self._tanh_c = np.empty((batch, hid))

    def step(self, x_t: np.ndarray, out: np.ndarray) -> None:
        """Advance every sequence one step on the inputs ``x_t`` ([B, Dx])
        and write the head's output for that step to ``out`` ([B, Dy]).
        The states are updated in place: h is read before it is written."""
        z = self._z
        np.matmul(x_t, self.w_x, out=z)
        z += self.bias
        z += self._h @ self.w_h
        _lstm_step(z, self.affine, self._c, self._c, self._tanh_c, self._h)
        self.head(self._h, out)

    def head(self, hs: np.ndarray, out: np.ndarray) -> None:
        """The dense head on hidden states ``hs`` ([..., B, H]), written to
        ``out`` ([..., B, Dy])."""
        np.matmul(hs, self.head_w, out=out)
        out += self.head_b
        if self.sigmoid_head:
            np.tanh(out, out=out)
            out *= 0.5
            out += 0.5


def _condition_rows(
    params: NetworkParams, condition: np.ndarray | None, batch: int
) -> np.ndarray | None:
    """``condition`` as ``[1, C]`` or ``[batch, C]`` finite rows (``None``
    stays ``None``); ``C`` may not exceed the network's input dim."""
    if condition is None:
        return None
    cond = np.asarray(condition, dtype=np.float64)
    if cond.ndim == 1:
        cond = cond[None, :]
    if cond.ndim != 2 or cond.shape[0] not in (1, batch):
        raise InputError(
            f"condition must be [C] or [B, C] with B = {batch}, got {cond.shape}"
        )
    if cond.shape[1] > params.input_dim:
        raise InputError(
            f"condition dim {cond.shape[1]} exceeds network input dim {params.input_dim}"
        )
    _check_finite(cond, "condition")
    return cond


def _lstm_forward(net: Stepper, x: np.ndarray):
    """The cached pass of the LSTM and its head over ``x`` ([T, B, Dx]),
    with the weights ``net`` prepared. Returns ``(y, hs, gates, cs,
    tanh_c)``: the head's output ``y`` ([T, B, Dy]), the gate activations
    and the states, ``hs[t + 1]`` being h_t and ``cs[t + 1]`` c_t with row
    0 the zero initial state.

    One GEMM projects the inputs of all T steps into the gate buffer, which
    then holds the gates in place; only ``h @ W_h`` runs per step. The head
    then runs on all T hidden states at once.
    """
    steps, batch, x_dim = x.shape
    hid = net.w_h.shape[0]
    gates = np.empty((steps, batch, _GATES * hid))
    np.matmul(x.reshape(-1, x_dim), net.w_x, out=gates.reshape(-1, _GATES * hid))
    gates += net.bias
    hs = np.zeros((steps + 1, batch, hid))
    cs = np.zeros((steps + 1, batch, hid))
    tanh_cs = np.empty((steps, batch, hid))
    for t in range(steps):
        z = gates[t]
        z += hs[t] @ net.w_h
        _lstm_step(z, net.affine, cs[t], cs[t + 1], tanh_cs[t], hs[t + 1])
    y = np.empty((steps, batch, net.head_w.shape[1]))
    net.head(hs[1:], y)
    return y, hs, gates, cs, tanh_cs


def _gate_affine(rows: int, hid: int) -> np.ndarray:
    """``[scale, shift]``, two ``[rows, 4H]`` blocks that finish the gates
    after one tanh: 0.5 and 0.5 in the sigmoid gates' columns, where
    tanh(z/2) * 0.5 + 0.5 is sigmoid(z), and 1.0 and -0.0 in the
    candidate's, where tanh(z) * 1.0 + (-0.0) is tanh(z) exactly, signed
    zero included. ``scale`` also halves the sigmoid columns of the weights.
    ``rows`` is the batch (whole rows keep the per-step ufuncs on contiguous
    blocks, which numpy runs without an iterator buffer) or 1, broadcast."""
    affine = np.full((2, rows, _GATES * hid), 0.5)
    affine[0, :, 2 * hid : 3 * hid] = 1.0
    affine[1, :, 2 * hid : 3 * hid] = -0.0
    return affine


def _lstm_step(
    z: np.ndarray,
    affine: np.ndarray,
    c: np.ndarray,
    c_out: np.ndarray,
    tanh_c_out: np.ndarray,
    h_out: np.ndarray,
) -> None:
    """One LSTM cell update. ``z`` holds the gate pre-activations, halved in
    the sigmoid gates' columns, and is overwritten with the gate activations
    (i, f, g, o): one tanh, then ``affine`` (``_gate_affine``) times and
    plus. From the previous cell state ``c`` it writes c_t = f*c + i*g to
    ``c_out``, tanh(c_t) to ``tanh_c_out`` and h_t = o*tanh(c_t) to
    ``h_out``. Every write is elementwise, so ``c_out`` may be ``c``."""
    np.tanh(z, out=z)
    z *= affine[0]
    z += affine[1]
    hid = c.shape[1]
    i, f, g, o = (z[:, k * hid : (k + 1) * hid] for k in range(_GATES))
    np.multiply(f, c, out=c_out)
    np.multiply(i, g, out=tanh_c_out)  # i*g, before the row holds tanh(c_t)
    c_out += tanh_c_out
    np.tanh(c_out, out=tanh_c_out)
    np.multiply(o, tanh_c_out, out=h_out)


def backward(
    cache: ForwardCache,
    upstream: np.ndarray,
    *,
    input_grads: bool = True,
    param_grads: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Exact gradients of the cached forward pass.

    ``upstream`` is d(loss)/d(outputs) with the same shape as the forward
    output. Returns ``(flat parameter gradients, input gradients)``; input
    gradients have the shape of the forward's ``inputs`` (the time-varying
    part only, without the condition). A caller that does not read one of
    the two passes ``input_grads=False`` or ``param_grads=False`` and gets
    ``None`` in its place: the first skips one ``[T*B, 4H] @ [4H, Dx]``
    GEMM, the second the weight-gradient GEMMs and the bias sums. The
    gradients that are computed are the same bits either way.
    """
    params = cache.params
    if cache.version != params.version:
        raise StateError("parameters changed since the cached forward pass")
    dy = np.asarray(upstream, dtype=np.float64)
    if dy.shape != cache.output_shape:
        raise InputError(
            f"upstream gradient shape {dy.shape}, expected {cache.output_shape}"
        )
    _check_finite(dy, "upstream gradient")

    lstm, head = params.specs
    w, head_w = params.w, params.head_w
    x, cond, gates, cs, tanh_c, hs, y = (
        cache.x, cache.cond, cache.gates, cache.cs, cache.tanh_c, cache.hs, cache.y
    )
    steps, batch, in_dim = x.shape
    hid = lstm.output_dim

    dz_head = dy * (y * (1.0 - y)) if head.activation == "sigmoid" else dy
    dh_out = dz_head @ head_w.T

    # Everything that does not depend on the recurrence is computed for all
    # steps before the loop: the gate derivatives (s(1-s) for the sigmoid
    # gates, 1-g^2 for the candidate) and o * (1 - tanh(c)^2).
    i_all, f_all, g_all, o_all = (gates[:, :, k * hid : (k + 1) * hid] for k in range(_GATES))
    d_act = gates * (1.0 - gates)
    d_act[:, :, 2 * hid : 3 * hid] = 1.0 - g_all * g_all
    o_dtanh = o_all * (1.0 - tanh_c * tanh_c)

    # Per step only the recurrence runs: dz_t from (dh, dc), and
    # dh_{t-1} = dz_t @ W_h^T. dz of every step is kept so the weight
    # gradients are one GEMM each afterwards.
    w_h_t = w[lstm.input_dim :].T
    dz = np.empty((steps, batch, _GATES * hid))
    dh_next = np.zeros((batch, hid))
    dc_next = np.zeros((batch, hid))
    for t in range(steps - 1, -1, -1):
        dz_t = dz[t]
        dh = dh_out[t] + dh_next
        dc = dc_next + dh * o_dtanh[t]
        np.multiply(dc, g_all[t], out=dz_t[:, :hid])
        np.multiply(dc, cs[t], out=dz_t[:, hid : 2 * hid])
        np.multiply(dc, i_all[t], out=dz_t[:, 2 * hid : 3 * hid])
        np.multiply(dh, tanh_c[t], out=dz_t[:, 3 * hid :])
        dz_t *= d_act[t]
        dc_next = dc * f_all[t]
        dh_next = dz_t @ w_h_t

    dz2 = dz.reshape(-1, _GATES * hid)
    grads = _param_grads(params, cache, dz_head, dz) if param_grads else None
    if not input_grads:
        return grads, None
    return grads, (dz2 @ w[:in_dim].T).reshape(steps, batch, in_dim)


def _param_grads(
    params: NetworkParams, cache: ForwardCache, dz_head: np.ndarray, dz: np.ndarray
) -> np.ndarray:
    """The flat parameter gradient of ``backward``, from the head's and the
    gates' pre-activation gradients ``dz_head`` ([T, B, Dy]) and ``dz``
    ([T, B, 4H])."""
    lstm, head = params.specs
    x, cond, hs = cache.x, cache.cond, cache.hs
    batch, in_dim, hid = x.shape[1], x.shape[2], lstm.output_dim
    grads = np.empty(params.n_params)
    dw, db, d_head_w, d_head_b = _weight_views(params.specs, grads)
    dz2_head = dz_head.reshape(-1, head.output_dim)
    d_head_w[...] = hs[1:].reshape(-1, hid).T @ dz2_head
    d_head_b[...] = dz2_head.sum(axis=0)
    dz2 = dz.reshape(-1, _GATES * hid)
    dw[:in_dim] = x.reshape(-1, in_dim).T @ dz2
    dw[lstm.input_dim :] = hs[:-1].reshape(-1, hid).T @ dz2
    if cond is not None:
        dz_seq = dz.sum(axis=0)
        if cond.shape[0] != batch:
            dz_seq = dz_seq.sum(axis=0, keepdims=True)
        dw[in_dim : lstm.input_dim] = cond.T @ dz_seq
    db[...] = dz2.sum(axis=0)
    return grads


def sgd_step(
    params: NetworkParams,
    gradients: np.ndarray,
    learning_rate: float,
    clip_limit: float | None = None,
) -> NetworkParams:
    """In-place update ``params <- params - learning_rate * gradients``.

    With a ``clip_limit`` every parameter is clamped to
    ``[-clip_limit, +clip_limit]`` after the update (used for the adversarial
    critic only). Raises ``NumericalError`` if the update leaves a non-finite
    parameter; the params are then left as they were, ``version`` included.
    Returns the mutated params for chaining.
    """
    grads = np.asarray(gradients, dtype=np.float64)
    if grads.shape != (params.n_params,):
        raise InputError(
            f"gradient vector has {grads.shape}, expected ({params.n_params},)"
        )
    _check_finite(grads, "gradients")
    updated = learning_rate * grads
    np.subtract(params.buffer, updated, out=updated)
    if clip_limit is not None:
        np.clip(updated, -clip_limit, clip_limit, out=updated)
    _check_finite(updated, "parameters after the update")
    params.buffer[...] = updated
    params.version += 1
    return params


def gradient_check(params: NetworkParams, loss_fn, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn(params)`` must return ``(loss, analytic gradients)``, the
    gradients as one vector laid out like ``params.buffer``. The relative
    error per parameter is |a - n| / max(|a|, |n|, 1e-8). Each probe moves
    one entry of ``params.buffer`` in place and bumps ``params.version``;
    the entry gets its value back even when ``loss_fn`` raises.
    """
    if not eps > 0:
        raise InputError("eps must be positive")
    loss, analytic = loss_fn(params)
    if not np.isfinite(loss):
        raise NumericalError("loss is non-finite at the evaluation point")
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != (params.n_params,):
        raise InputError("analytic gradient length does not match parameter count")

    buffer = params.buffer
    numeric = np.empty(buffer.size)
    for k in range(buffer.size):
        base = buffer[k]
        try:
            buffer[k] = base + eps
            params.version += 1
            up, _ = loss_fn(params)
            buffer[k] = base - eps
            params.version += 1
            down, _ = loss_fn(params)
        finally:
            buffer[k] = base
            params.version += 1
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericalError("loss is non-finite at a perturbed point")
        numeric[k] = (up - down) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))

"""Minimal differentiable sequence networks: LSTM cells, dense heads, exact
reverse-mode gradients, SGD with weight clamping, and a finite-difference
gradient checker.

Everything is float64 numpy. A network is an ordered list of layer blocks
(LSTM cells followed by dense heads); the same forward/backward pair serves
all four networks of the generative model. Inputs are ``[T, Dx]`` for a
single sequence or ``[T, batch, Dx]`` for a batch.

An LSTM block packs its weights as one ``[input_dim + H, 4H]`` matrix whose
rows are ``[x | cond | h]``: the time-varying inputs, then the optional
time-constant condition of the first block (``input_dim = Dx + C``), then the
recurrent state. Columns are the gates in the order input, forget,
candidate, output. The forward projects the inputs of all T steps with one
GEMM and the condition once per sequence (folded into the bias), so only
``h @ W_h`` runs inside the time loop.

``rnn_forward`` has two modes that share one step implementation: with a
backward cache (training) and, with ``keep_cache=False``, without one
(inference, e.g. scenario generation).

``params_to_payload``/``params_from_payload`` give one network's JSON
payload: its layer specs plus ``flat_weights``, the base64 text of the flat
parameter vector as little-endian float64 bytes, so a reload is bit-exact.
The model checkpoint (``ctsgan.save_model``) embeds one per network.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

import numpy as np
from scipy.special import expit as _sigmoid

from .errors import CheckpointError, InputError, NumericalError, StateError

_ACTIVATIONS = ("linear", "sigmoid")

# Gate packing order inside the fused LSTM weight matrix: input, forget,
# candidate, output. The forget slice is [H:2H]; its bias starts at 1.0.
_GATES = 4


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

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        if self.kind == "lstm":
            return {
                "w": (self.input_dim + self.output_dim, _GATES * self.output_dim),
                "b": (_GATES * self.output_dim,),
            }
        return {"w": (self.input_dim, self.output_dim), "b": (self.output_dim,)}

    def n_params(self) -> int:
        return sum(int(np.prod(s)) for s in self.tensor_shapes().values())


def _validate_specs(specs: tuple[LayerSpec, ...]) -> None:
    if not specs:
        raise InputError("network needs at least one layer block")
    for spec in specs:
        if spec.kind not in ("lstm", "dense"):
            raise InputError(f"unknown layer kind: {spec.kind!r}")
        if spec.input_dim <= 0 or spec.output_dim <= 0:
            raise InputError(f"non-positive dimension in {spec}")
        if spec.kind == "dense" and spec.activation not in _ACTIVATIONS:
            raise InputError(f"unknown activation: {spec.activation!r}")
    for prev, nxt in zip(specs, specs[1:]):
        if prev.output_dim != nxt.input_dim:
            raise InputError(
                f"block output dim {prev.output_dim} does not feed block "
                f"input dim {nxt.input_dim}"
            )


class NetworkParams:
    """Parameter blocks for one network plus a flat view for the optimizer.

    ``version`` increments on every in-place mutation so gradient caches can
    detect staleness. Traversal order (block order, then "w" before "b") is
    fixed, which makes the flat view deterministic.
    """

    def __init__(self, specs: tuple[LayerSpec, ...], tensors: list[dict[str, np.ndarray]]):
        _validate_specs(specs)
        self.specs = tuple(specs)
        self.tensors = tensors
        self.version = 0
        for spec, block in zip(self.specs, self.tensors):
            for name, shape in spec.tensor_shapes().items():
                if block[name].shape != shape:
                    raise InputError(
                        f"tensor {name} has shape {block[name].shape}, expected {shape}"
                    )
                if not np.isfinite(block[name]).all():
                    raise InputError("non-finite parameter tensor")

    @property
    def n_params(self) -> int:
        return sum(spec.n_params() for spec in self.specs)

    @property
    def input_dim(self) -> int:
        return self.specs[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.specs[-1].output_dim

    def flat(self) -> np.ndarray:
        """Copy of all parameters as one 1-D float64 vector."""
        parts = []
        for block in self.tensors:
            parts.append(block["w"].ravel())
            parts.append(block["b"].ravel())
        return np.concatenate(parts)

    def load_flat(self, vec: np.ndarray) -> None:
        """Write a flat vector back into the parameter blocks."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_params,):
            raise InputError(
                f"flat vector has {vec.shape}, expected ({self.n_params},)"
            )
        if not np.isfinite(vec).all():
            raise NumericalError("non-finite values in parameter vector")
        offset = 0
        for block in self.tensors:
            for name in ("w", "b"):
                size = block[name].size
                block[name][...] = vec[offset : offset + size].reshape(block[name].shape)
                offset += size
        self.version += 1


def init_params(seed: int, specs: tuple[LayerSpec, ...] | list[LayerSpec]) -> NetworkParams:
    """Glorot-uniform weights, zero biases, forget-gate bias 1.0.

    For a dense block the uniform bound is sqrt(6/(in+out)); for an LSTM block
    the per-gate bound uses fan_in = input+hidden, fan_out = hidden.
    """
    specs = tuple(specs)
    _validate_specs(specs)
    rng = np.random.default_rng(seed)
    tensors: list[dict[str, np.ndarray]] = []
    for spec in specs:
        shapes = spec.tensor_shapes()
        if spec.kind == "lstm":
            hid = spec.output_dim
            bound = np.sqrt(6.0 / (spec.input_dim + 2 * hid))
            w = rng.uniform(-bound, bound, size=shapes["w"])
            b = np.zeros(shapes["b"])
            b[hid : 2 * hid] = 1.0
        else:
            bound = np.sqrt(6.0 / (spec.input_dim + spec.output_dim))
            w = rng.uniform(-bound, bound, size=shapes["w"])
            b = np.zeros(shapes["b"])
        tensors.append({"w": w, "b": b})
    return NetworkParams(specs, tensors)


@dataclass
class _BlockCache:
    kind: str
    data: dict


@dataclass
class ForwardCache:
    params: NetworkParams
    version: int
    blocks: list[_BlockCache]
    squeezed: bool
    output_shape: tuple[int, ...]


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
    """Run the block stack over a sequence.

    ``inputs`` is ``[T, Dx]`` or ``[T, B, Dx]``; the output has the same
    leading shape with the final block's output dim. ``condition`` is an
    optional time-constant input to the first (LSTM) block, ``[C]`` for one
    vector shared by every sequence or ``[B, C]`` for one per sequence, with
    ``Dx + C`` equal to the network's input dim. It gives the same result as
    appending the condition to the inputs at every step.

    With ``keep_cache`` the returned cache is sufficient for an exact
    backward pass; without it the cache is ``None`` and no per-step state
    is kept (inference).
    """
    x = np.asarray(inputs, dtype=np.float64)
    squeezed = x.ndim == 2
    if squeezed:
        x = x[:, None, :]
    if x.ndim != 3:
        raise InputError(f"inputs must be [T, D] or [T, B, D], got {x.shape}")
    cond = None
    if condition is not None:
        cond = np.asarray(condition, dtype=np.float64)
        if cond.ndim == 1:
            cond = cond[None, :]
        if cond.ndim != 2 or cond.shape[0] not in (1, x.shape[1]):
            raise InputError(
                f"condition must be [C] or [B, C] with B = {x.shape[1]}, got {cond.shape}"
            )
        if params.specs[0].kind != "lstm":
            raise InputError("a condition needs an LSTM first block")
    cond_dim = 0 if cond is None else cond.shape[1]
    if x.shape[2] + cond_dim != params.input_dim:
        raise InputError(
            f"input dim {x.shape[2]} + condition dim {cond_dim} does not match "
            f"network input dim {params.input_dim}"
        )
    _check_finite(x, "inputs")
    if cond is not None:
        _check_finite(cond, "condition")

    caches: list[_BlockCache] = []
    for spec, block in zip(params.specs, params.tensors):
        if spec.kind == "lstm":
            x, cache = _lstm_forward(spec, block, x, cond, keep_cache)
            cond = None
        else:
            x, cache = _dense_forward(spec, block, x)
        caches.append(cache)

    out = x[:, 0, :] if squeezed else x
    if not keep_cache:
        return out, None
    fwd = ForwardCache(
        params=params,
        version=params.version,
        blocks=caches,
        squeezed=squeezed,
        output_shape=out.shape,
    )
    return out, fwd


def _lstm_step(z: np.ndarray, c: np.ndarray, hid: int, h_out: np.ndarray):
    """One LSTM cell update. ``z`` holds the gate pre-activations and is
    overwritten with the gate activations (i, f, g, o); the new hidden state
    is written to ``h_out``. Returns ``(c, tanh(c))``."""
    _sigmoid(z[:, : 2 * hid], out=z[:, : 2 * hid])
    np.tanh(z[:, 2 * hid : 3 * hid], out=z[:, 2 * hid : 3 * hid])
    _sigmoid(z[:, 3 * hid :], out=z[:, 3 * hid :])
    i, f, g, o = (z[:, k * hid : (k + 1) * hid] for k in range(_GATES))
    c = f * c + i * g
    tanh_c = np.tanh(c)
    np.multiply(o, tanh_c, out=h_out)
    return c, tanh_c


def _lstm_forward(
    spec: LayerSpec,
    block: dict[str, np.ndarray],
    x: np.ndarray,
    cond: np.ndarray | None,
    keep_cache: bool,
) -> tuple[np.ndarray, _BlockCache | None]:
    steps, batch, in_dim = x.shape
    hid = spec.output_dim
    w, b = block["w"], block["b"]
    w_h = w[spec.input_dim :]

    # Everything but h @ W_h is known before the loop: one GEMM projects the
    # inputs of all steps, and the time-constant condition rows fold into
    # the bias once per sequence. The buffer then holds the gates in place.
    bias = b if cond is None else b + cond @ w[in_dim : spec.input_dim]
    gates = (x.reshape(-1, in_dim) @ w[:in_dim]).reshape(steps, batch, _GATES * hid)
    gates += bias

    # hs[t + 1] is h_t and cs[t + 1] is c_t; row 0 is the zero initial state.
    hs = np.zeros((steps + 1, batch, hid))
    c = np.zeros((batch, hid))
    if keep_cache:
        cs = np.zeros((steps + 1, batch, hid))
        tanh_cs = np.empty((steps, batch, hid))
    for t in range(steps):
        z = gates[t]
        z += hs[t] @ w_h
        c, tanh_c = _lstm_step(z, c, hid, hs[t + 1])
        if keep_cache:
            cs[t + 1] = c
            tanh_cs[t] = tanh_c

    if not keep_cache:
        return hs[1:], None
    cache = _BlockCache(
        kind="lstm",
        data={
            "spec": spec,
            "x": x,
            "cond": cond,
            "gates": gates,
            "cs": cs,
            "tanh_c": tanh_cs,
            "hs": hs,
            "w": w,
        },
    )
    return hs[1:], cache


def _dense_forward(
    spec: LayerSpec, block: dict[str, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, _BlockCache]:
    z = x @ block["w"] + block["b"]
    y = _sigmoid(z) if spec.activation == "sigmoid" else z
    cache = _BlockCache(
        kind="dense",
        data={"spec": spec, "x": x, "y": y, "w": block["w"]},
    )
    return y, cache


def backward(cache: ForwardCache, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the cached forward pass.

    ``upstream`` is d(loss)/d(outputs) with the same shape as the forward
    output. Returns ``(flat parameter gradients, input gradients)``; input
    gradients have the shape of the forward's ``inputs`` (the time-varying
    part only, without the condition).
    """
    if cache.version != cache.params.version:
        raise StateError("parameters changed since the cached forward pass")
    dy = np.asarray(upstream, dtype=np.float64)
    if dy.shape != cache.output_shape:
        raise InputError(
            f"upstream gradient shape {dy.shape}, expected {cache.output_shape}"
        )
    _check_finite(dy, "upstream gradient")
    if cache.squeezed:
        dy = dy[:, None, :]

    grads: list[np.ndarray] = []
    for block_cache in reversed(cache.blocks):
        if block_cache.kind == "dense":
            dw, db, dy = _dense_backward(block_cache, dy)
        else:
            dw, db, dy = _lstm_backward(block_cache, dy)
        grads.append(db.ravel())
        grads.append(dw.ravel())
    grads.reverse()
    flat = np.concatenate(grads)
    d_inputs = dy[:, 0, :] if cache.squeezed else dy
    return flat, d_inputs


def _dense_backward(block_cache: _BlockCache, dy: np.ndarray):
    data = block_cache.data
    spec: LayerSpec = data["spec"]
    x, y, w = data["x"], data["y"], data["w"]
    dz = dy * (y * (1.0 - y)) if spec.activation == "sigmoid" else dy
    dz2 = dz.reshape(-1, spec.output_dim)
    dw = x.reshape(-1, spec.input_dim).T @ dz2
    db = dz2.sum(axis=0)
    dx = dz @ w.T
    return dw, db, dx


def _lstm_backward(block_cache: _BlockCache, dh_out: np.ndarray):
    data = block_cache.data
    spec: LayerSpec = data["spec"]
    x, cond, gates, cs, tanh_c, hs, w = (
        data["x"],
        data["cond"],
        data["gates"],
        data["cs"],
        data["tanh_c"],
        data["hs"],
        data["w"],
    )
    steps, batch, in_dim = x.shape
    hid = spec.output_dim
    w_h_t = w[spec.input_dim :].T

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
    dw = np.empty_like(w)
    dw[:in_dim] = x.reshape(-1, in_dim).T @ dz2
    dw[spec.input_dim :] = hs[:-1].reshape(-1, hid).T @ dz2
    if cond is not None:
        dz_seq = dz.sum(axis=0)
        if cond.shape[0] != batch:
            dz_seq = dz_seq.sum(axis=0, keepdims=True)
        dw[in_dim : spec.input_dim] = cond.T @ dz_seq
    db = dz2.sum(axis=0)
    dx = (dz2 @ w[:in_dim].T).reshape(steps, batch, in_dim)
    return dw, db, dx


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
    parameter. Returns the mutated params for chaining.
    """
    grads = np.asarray(gradients, dtype=np.float64)
    if grads.shape != (params.n_params,):
        raise InputError(
            f"gradient vector has {grads.shape}, expected ({params.n_params},)"
        )
    _check_finite(grads, "gradients")
    params.version += 1
    offset = 0
    for block in params.tensors:
        for name in ("w", "b"):
            tensor = block[name]
            size = tensor.size
            tensor -= learning_rate * grads[offset : offset + size].reshape(tensor.shape)
            if clip_limit is not None:
                np.clip(tensor, -clip_limit, clip_limit, out=tensor)
            _check_finite(tensor, "parameters after the update")
            offset += size
    return params


def gradient_check(params: NetworkParams, loss_fn, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn(params)`` must return ``(loss, flat analytic gradients)``. The
    relative error per parameter is |a - n| / max(|a|, |n|, 1e-8).
    """
    if eps <= 0:
        raise InputError("eps must be positive")
    loss, analytic = loss_fn(params)
    if not np.isfinite(loss):
        raise NumericalError("loss is non-finite at the evaluation point")
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != (params.n_params,):
        raise InputError("analytic gradient length does not match parameter count")

    base = params.flat()
    numeric = np.empty_like(base)
    for k in range(base.size):
        probe = base.copy()
        probe[k] = base[k] + eps
        params.load_flat(probe)
        up, _ = loss_fn(params)
        probe[k] = base[k] - eps
        params.load_flat(probe)
        down, _ = loss_fn(params)
        if not (np.isfinite(up) and np.isfinite(down)):
            params.load_flat(base)
            raise NumericalError("loss is non-finite at a perturbed point")
        numeric[k] = (up - down) / (2.0 * eps)
    params.load_flat(base)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# --- checkpointing -------------------------------------------------------------

# Byte layout of ``flat_weights``: little-endian float64 on every platform.
_WEIGHT_DTYPE = np.dtype("<f8")


def params_to_payload(params: NetworkParams) -> dict:
    weight_bytes = params.flat().astype(_WEIGHT_DTYPE).tobytes()
    return {
        "layer_specs": [
            {
                "kind": s.kind,
                "input_dim": s.input_dim,
                "output_dim": s.output_dim,
                "activation": s.activation,
            }
            for s in params.specs
        ],
        "flat_weights": base64.b64encode(weight_bytes).decode("ascii"),
    }


def params_from_payload(payload: dict) -> NetworkParams:
    try:
        specs = tuple(
            LayerSpec(
                kind=s["kind"],
                input_dim=int(s["input_dim"]),
                output_dim=int(s["output_dim"]),
                activation=s.get("activation", "linear"),
            )
            for s in payload["layer_specs"]
        )
        weight_bytes = base64.b64decode(payload["flat_weights"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad network payload: {exc}") from exc
    if len(weight_bytes) % _WEIGHT_DTYPE.itemsize:
        raise CheckpointError(
            f"weight data of {len(weight_bytes)} bytes is not a whole number of float64 values"
        )
    flat = np.frombuffer(weight_bytes, dtype=_WEIGHT_DTYPE)
    try:
        _validate_specs(specs)
    except InputError as exc:
        raise CheckpointError(f"bad layer specs: {exc}") from exc
    n_params = sum(spec.n_params() for spec in specs)
    if flat.shape != (n_params,):
        raise CheckpointError(f"weight count {flat.size} does not match specs ({n_params})")
    if not np.isfinite(flat).all():
        raise CheckpointError("non-finite weights in checkpoint")
    # one writable native-order copy per tensor (frombuffer's array is
    # read-only), laid out in ``flat()`` order
    tensors, offset = [], 0
    for spec in specs:
        block = {}
        for name, shape in spec.tensor_shapes().items():
            size = int(np.prod(shape))
            block[name] = flat[offset : offset + size].astype(np.float64).reshape(shape)
            offset += size
        tensors.append(block)
    return NetworkParams(specs, tensors)

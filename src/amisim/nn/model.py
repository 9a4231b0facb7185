"""Model specification, parameter containers, forward and backward passes.

A model is a flat list of layer specs applied in order to a batch shaped
(batch, length, channels). Sequence layers (Conv1D, MaxPool1D, GRU) operate
on (batch, length, channels); Dense operates on flat (batch, features) and
needs an explicit Flatten in between, as the architecture tables imply.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from amisim.errors import ConfigError, DataFormatError, DimensionError
from amisim.nn.activations import (
    ACTIVATION_KINDS,
    activation_backward,
    apply_activation,
    sigmoid,
)


@dataclass(frozen=True)
class Dense:
    units: int


@dataclass(frozen=True)
class Conv1D:
    filters: int
    kernel_size: int = 3
    stride: int = 1


@dataclass(frozen=True)
class MaxPool1D:
    pool_size: int


@dataclass(frozen=True)
class GRULayer:
    units: int


@dataclass(frozen=True)
class Activation:
    kind: str

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ConfigError(f"unknown activation {self.kind!r}")


@dataclass(frozen=True)
class Flatten:
    pass


LayerSpec = Dense | Conv1D | MaxPool1D | GRULayer | Activation | Flatten


@dataclass(frozen=True)
class ModelSpec:
    input_length: int
    input_channels: int
    layers: tuple[LayerSpec, ...]
    output_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        for layer in self.layers:
            for attr in ("units", "filters", "kernel_size", "pool_size"):
                if hasattr(layer, attr) and getattr(layer, attr) < 1:
                    raise ConfigError(f"{layer}: {attr} must be positive")
        shape = infer_shapes(self)[-1]
        if shape[0] != "flat" or shape[1] != self.output_classes:
            raise DimensionError(
                f"final layer produces {shape}, expected flat width "
                f"{self.output_classes}"
            )

    def canonical_json(self) -> str:
        layers = []
        for layer in self.layers:
            entry = {"type": type(layer).__name__}
            entry.update({k: getattr(layer, k) for k in vars(layer)})
            layers.append(entry)
        return json.dumps(
            {
                "input_length": self.input_length,
                "input_channels": self.input_channels,
                "output_classes": self.output_classes,
                "layers": layers,
            },
            sort_keys=True,
        )

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def infer_shapes(spec: ModelSpec):
    """Shape after each layer, starting from the input.

    Shapes are ("seq", length, channels) or ("flat", width). Raises
    DimensionError naming the first offending layer.
    """
    shapes = [("seq", spec.input_length, spec.input_channels)]
    cur = shapes[0]
    for i, layer in enumerate(spec.layers):
        name = f"layer {i} ({type(layer).__name__})"
        if isinstance(layer, Conv1D):
            if cur[0] != "seq":
                raise DimensionError(f"{name}: needs sequence input, got {cur}")
            out_len = (cur[1] - layer.kernel_size) // layer.stride + 1
            if layer.kernel_size > cur[1]:
                raise DimensionError(f"{name}: kernel {layer.kernel_size} > length {cur[1]}")
            cur = ("seq", out_len, layer.filters)
        elif isinstance(layer, MaxPool1D):
            if cur[0] != "seq":
                raise DimensionError(f"{name}: needs sequence input, got {cur}")
            out_len = cur[1] // layer.pool_size
            if out_len < 1:
                raise DimensionError(f"{name}: pool {layer.pool_size} > length {cur[1]}")
            cur = ("seq", out_len, cur[2])
        elif isinstance(layer, GRULayer):
            if cur[0] != "seq":
                raise DimensionError(f"{name}: needs sequence input, got {cur}")
            cur = ("flat", layer.units)
        elif isinstance(layer, Flatten):
            if cur[0] != "seq":
                raise DimensionError(f"{name}: needs sequence input, got {cur}")
            cur = ("flat", cur[1] * cur[2])
        elif isinstance(layer, Dense):
            if cur[0] != "flat":
                raise DimensionError(f"{name}: needs flat input, got {cur}")
            cur = ("flat", layer.units)
        elif isinstance(layer, Activation):
            if layer.kind == "softmax" and cur[0] != "flat":
                raise DimensionError(f"{name}: softmax needs flat input, got {cur}")
        else:
            raise ConfigError(f"{name}: unsupported layer")
        shapes.append(cur)
    return shapes


@dataclass
class Params:
    """Trainable arrays, aligned with spec.layers."""

    spec_hash: str
    weights: list[dict[str, np.ndarray]]

    def zero_like_weights(self):
        return [
            {k: np.zeros_like(v) for k, v in layer.items()} for layer in self.weights
        ]


def _glorot(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(spec: ModelSpec, seed: int) -> Params:
    """Seeded Glorot-uniform weights and zero biases."""
    rng = np.random.default_rng(seed)
    shapes = infer_shapes(spec)
    weights: list[dict[str, np.ndarray]] = []
    for i, layer in enumerate(spec.layers):
        before = shapes[i]
        entry: dict[str, np.ndarray] = {}
        if isinstance(layer, Dense):
            fan_in = before[1]
            entry["W"] = _glorot(rng, fan_in, layer.units, (fan_in, layer.units))
            entry["b"] = np.zeros(layer.units)
        elif isinstance(layer, Conv1D):
            c_in = before[2]
            fan_in = layer.kernel_size * c_in
            fan_out = layer.kernel_size * layer.filters
            entry["W"] = _glorot(
                rng, fan_in, fan_out, (layer.kernel_size, c_in, layer.filters)
            )
            entry["b"] = np.zeros(layer.filters)
        elif isinstance(layer, GRULayer):
            c_in = before[2]
            u = layer.units
            for gate in ("z", "r", "h"):
                entry[f"W{gate}"] = _glorot(rng, c_in + u, u, (c_in + u, u))
                entry[f"b{gate}"] = np.zeros(u)
        weights.append(entry)
    return Params(spec_hash=spec.hash(), weights=weights)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def _conv_cols(x, kernel_size, stride):
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel_size, axis=1)
    windows = windows[:, ::stride]  # (B, L_out, C, K)
    return np.ascontiguousarray(windows.transpose(0, 1, 3, 2))  # (B, L_out, K, C)


def gru_step(weights: dict[str, np.ndarray], x_t, h_prev):
    """One recurrence step; returns the next hidden state.

    Update gate z and reset gate r are sigmoids of the joined [x, h] input;
    the candidate state uses the reset-scaled hidden state, and z blends the
    candidate into the carried state.
    """
    h_t, _ = _gru_step_cached(weights, x_t, h_prev)
    return h_t


def _gru_step_cached(weights, x_t, h_prev):
    xh = np.concatenate([x_t, h_prev], axis=1)
    z = sigmoid(xh @ weights["Wz"] + weights["bz"])
    r = sigmoid(xh @ weights["Wr"] + weights["br"])
    xrh = np.concatenate([x_t, r * h_prev], axis=1)
    h_cand = np.tanh(xrh @ weights["Wh"] + weights["bh"])
    h_t = (1.0 - z) * h_prev + z * h_cand
    return h_t, (x_t, h_prev, z, r, h_cand)


def forward(spec: ModelSpec, params: Params, batch):
    """Run the network; returns (output, caches) with one cache per layer."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    expected = (spec.input_length, spec.input_channels)
    if x.shape[1:] != expected:
        raise DimensionError(
            f"input shape {x.shape[1:]} does not match spec {expected}"
        )
    caches = []
    for layer, w in zip(spec.layers, params.weights):
        x, cache = _layer_forward(layer, w, x)
        caches.append(cache)
    return x, caches


def _layer_forward(layer: LayerSpec, w: dict[str, np.ndarray], x):
    """One layer of forward; returns (output, cache for backprop)."""
    if isinstance(layer, Dense):
        return x @ w["W"] + w["b"], ("dense", x)
    if isinstance(layer, Conv1D):
        cols = _conv_cols(x, layer.kernel_size, layer.stride)
        b_, l_out, k, c = cols.shape
        flat = cols.reshape(b_ * l_out, k * c)
        out = flat @ w["W"].reshape(k * c, -1) + w["b"]
        return out.reshape(b_, l_out, -1), ("conv", x.shape, flat)
    if isinstance(layer, MaxPool1D):
        p = layer.pool_size
        b_, l, c = x.shape
        l_out = l // p
        trimmed = x[:, : l_out * p, :].reshape(b_, l_out, p, c)
        idx = np.argmax(trimmed, axis=2)
        out = np.take_along_axis(trimmed, idx[:, :, None, :], axis=2)[:, :, 0, :]
        return out, ("pool", x.shape, idx)
    if isinstance(layer, GRULayer):
        b_, t_steps, _ = x.shape
        h = np.zeros((b_, layer.units))
        steps = []
        for t in range(t_steps):
            h, step_cache = _gru_step_cached(w, x[:, t, :], h)
            steps.append(step_cache)
        return h, ("gru", x.shape, steps)
    if isinstance(layer, Flatten):
        return x.reshape(x.shape[0], -1), ("flatten", x.shape)
    out = apply_activation(layer.kind, x)
    return out, ("act", x, out)


# ---------------------------------------------------------------------------
# Inference on binary windows
# ---------------------------------------------------------------------------

# Widest receptive field the prefix table may cover: 2**12 rows.
TABLE_MAX_BITS = 12


class BitWindowKernel:
    """Inference for a single-channel network whose inputs are 0/1 windows.

    The longest leading run of stride-1 Conv1D, Activation and MaxPool1D
    layers whose receptive field w stays within TABLE_MAX_BITS maps each
    output cell, a window of w input bits every `stride` bits, to one of
    2**w values. Those layers run once, through the same per-layer code as
    forward, over every w-bit pattern to fill a table; a call gathers table
    rows by cell index. An empty prefix makes each bit its own cell (w = 1).

    A GRULayer right after the prefix has its input projection and biases
    folded into the table (Appleyard et al., 2016), so each recurrence step
    computes only h @ [Wz_h | Wr_h] and (r * h) @ Wh_h. Every later layer
    runs through the forward code. Outputs match forward up to float64
    rounding; the table is built from the given params and goes stale if
    they change.
    """

    def __init__(self, spec: ModelSpec, params: Params):
        if spec.input_channels != 1:
            raise ConfigError("bit-window inference needs a single input channel")
        self.input_length = spec.input_length
        width, stride, count = 1, 1, 0
        for layer in spec.layers:
            if isinstance(layer, Conv1D) and layer.stride == 1:
                grown = width + (layer.kernel_size - 1) * stride
            elif isinstance(layer, MaxPool1D):
                grown = width + (layer.pool_size - 1) * stride
            elif isinstance(layer, Activation):
                grown = width
            else:
                break
            if grown > TABLE_MAX_BITS:
                break
            width = grown
            if isinstance(layer, MaxPool1D):
                stride *= layer.pool_size
            count += 1
        self.width, self.stride = width, stride
        self.cells = infer_shapes(spec)[count][1]
        self.place = 1 << np.arange(width)[::-1]
        patterns = (np.arange(1 << width)[:, None] >> np.arange(width)[::-1]) & 1
        table = patterns[:, :, None].astype(np.float64)
        for layer, w in zip(spec.layers[:count], params.weights[:count]):
            table, _ = _layer_forward(layer, w, table)
        table = table[:, 0, :]  # (2**width, channels)
        self.gru = None
        rest = count
        if count < len(spec.layers) and isinstance(spec.layers[count], GRULayer):
            w = params.weights[count]
            c = table.shape[1]
            # The gates use sigmoid(v) = 0.5 * tanh(v / 2) + 0.5, one ufunc
            # pass instead of sigmoid's two masked branches. The halving is
            # applied to the z and r weights and biases up front; scaling by
            # 0.5 is exact in binary floating point.
            half = np.concatenate([np.full(2 * w["bz"].size, 0.5), np.ones(w["bh"].size)])
            w_in = np.concatenate([w["Wz"][:c], w["Wr"][:c], w["Wh"][:c]], axis=1)
            table = (table @ w_in + np.concatenate([w["bz"], w["br"], w["bh"]])) * half
            w_zr = 0.5 * np.concatenate([w["Wz"][c:], w["Wr"][c:]], axis=1)
            self.gru = (spec.layers[count].units, w_zr, w["Wh"][c:])
            rest += 1
        self.table = table
        self.tail = list(zip(spec.layers[rest:], params.weights[rest:]))

    def __call__(self, windows):
        """Network output for a (batch, input_length) array of 0/1 bits."""
        bits = np.asarray(windows)
        if bits.ndim != 2 or bits.shape[1] != self.input_length:
            raise DimensionError(
                f"windows shape {bits.shape} does not match length {self.input_length}"
            )
        if ((bits != 0) & (bits != 1)).any():
            raise DataFormatError("bit-window inference takes only 0/1 inputs")
        cells = np.lib.stride_tricks.sliding_window_view(
            bits.astype(np.intp), self.width, axis=1
        )[:, :: self.stride][:, : self.cells]
        index = cells @ self.place  # (batch, cells)
        if self.gru is None:
            x = self.table[index]
        else:
            units, w_zr, w_h = self.gru
            steps = self.table[index.T]  # (cells, batch, 3 * units)
            x = np.zeros((len(bits), units))
            for a in steps:
                zr = np.tanh(a[:, : 2 * units] + x @ w_zr) * 0.5 + 0.5
                z, r = zr[:, :units], zr[:, units:]
                h_cand = np.tanh(a[:, 2 * units :] + (r * x) @ w_h)
                x = (1.0 - z) * x + z * h_cand
        for layer, w in self.tail:
            x, _ = _layer_forward(layer, w, x)
        return x


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def output_kind(spec: ModelSpec) -> str:
    """The head's activation, "softmax" or "sigmoid"; any other head is refused."""
    last = spec.layers[-1]
    if not isinstance(last, Activation) or last.kind not in ("softmax", "sigmoid"):
        raise ConfigError("model must end in a softmax or sigmoid activation")
    return last.kind


def backward(spec: ModelSpec, params: Params, caches, y, l2_lambda: float = 0.0):
    """Gradient of (classification loss + l2_lambda * sum ||W||^2) w.r.t.
    every parameter, given the caches of a matching forward pass and the
    one-hot targets y. The loss is categorical cross-entropy for a softmax
    head and per-unit Bernoulli cross-entropy for a sigmoid head.

    Returns per-layer gradient dicts shaped like params.weights; biases are
    not regularized.
    """
    kind = output_kind(spec)
    out = caches[-1][2]
    batch = len(out)
    clamp = 1e-12
    if kind == "softmax":
        dx = -(y / np.clip(out, clamp, None)) / batch
    else:
        p = np.clip(out, clamp, 1.0 - clamp)
        dx = (-(y / p) + (1.0 - y) / (1.0 - p)) / batch
    grads = params.zero_like_weights()
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        w = params.weights[i]
        cache = caches[i]
        if isinstance(layer, Dense):
            x_in = cache[1]
            grads[i]["W"] = x_in.T @ dx
            grads[i]["b"] = dx.sum(axis=0)
            dx = dx @ w["W"].T
        elif isinstance(layer, Conv1D):
            _, x_shape, flat = cache
            b_, l_in, c = x_shape
            f = layer.filters
            k = layer.kernel_size
            s = layer.stride
            l_out = (l_in - k) // s + 1
            dout2 = dx.reshape(b_ * l_out, f)
            grads[i]["W"] = (flat.T @ dout2).reshape(k, c, f)
            grads[i]["b"] = dout2.sum(axis=0)
            dx_full = np.zeros((b_, l_in, c))
            dy = dx.reshape(b_, l_out, f)
            for kk in range(k):
                dx_full[:, kk : kk + s * l_out : s, :] += dy @ w["W"][kk].T
            dx = dx_full
        elif isinstance(layer, MaxPool1D):
            _, x_shape, idx = cache
            b_, l, c = x_shape
            p = layer.pool_size
            l_out = l // p
            d4 = np.zeros((b_, l_out, p, c))
            np.put_along_axis(d4, idx[:, :, None, :], dx[:, :, None, :], axis=2)
            dx_full = np.zeros((b_, l, c))
            dx_full[:, : l_out * p, :] = d4.reshape(b_, l_out * p, c)
            dx = dx_full
        elif isinstance(layer, GRULayer):
            _, x_shape, steps = cache
            dx = _gru_backward(w, steps, dx, x_shape, grads[i])
        elif isinstance(layer, Flatten):
            dx = dx.reshape(cache[1])
        elif isinstance(layer, Activation):
            _, x_in, out = cache
            dx = activation_backward(layer.kind, out, x_in, dx)
    if l2_lambda:
        for i, w in enumerate(params.weights):
            for key, arr in w.items():
                if key.startswith("W"):
                    grads[i][key] = grads[i][key] + 2.0 * l2_lambda * arr
    return grads


def _gru_backward(w, steps, dh, x_shape, grad):
    b_, t_steps, c = x_shape
    u = w["bz"].shape[0]
    for name in ("Wz", "Wr", "Wh"):
        grad[name] = np.zeros_like(w[name])
    for name in ("bz", "br", "bh"):
        grad[name] = np.zeros_like(w[name])
    dx_seq = np.zeros((b_, t_steps, c))
    for t in range(t_steps - 1, -1, -1):
        x_t, h_prev, z, r, h_cand = steps[t]
        dz = dh * (h_cand - h_prev)
        dh_cand = dh * z
        dh_prev = dh * (1.0 - z)

        da_h = dh_cand * (1.0 - h_cand * h_cand)
        xrh = np.concatenate([x_t, r * h_prev], axis=1)
        grad["Wh"] += xrh.T @ da_h
        grad["bh"] += da_h.sum(axis=0)
        dxrh = da_h @ w["Wh"].T
        dx_t = dxrh[:, :c]
        drh = dxrh[:, c:]
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r

        da_z = dz * z * (1.0 - z)
        da_r = dr * r * (1.0 - r)
        xh = np.concatenate([x_t, h_prev], axis=1)
        grad["Wz"] += xh.T @ da_z
        grad["bz"] += da_z.sum(axis=0)
        grad["Wr"] += xh.T @ da_r
        grad["br"] += da_r.sum(axis=0)
        dxh = da_z @ w["Wz"].T + da_r @ w["Wr"].T
        dx_t = dx_t + dxh[:, :c]
        dh_prev = dh_prev + dxh[:, c:]

        dx_seq[:, t, :] = dx_t
        dh = dh_prev
    return dx_seq

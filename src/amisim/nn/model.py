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
from math import prod

import numpy as np

from amisim.errors import ConfigError, DataFormatError, DimensionError
from amisim.nn.activations import ACTIVATIONS, sigmoid


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
        if self.kind not in ACTIVATIONS:
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
        if isinstance(layer, (Conv1D, MaxPool1D, GRULayer, Flatten)) and cur[0] != "seq":
            raise DimensionError(f"{name}: needs sequence input, got {cur}")
        if isinstance(layer, Conv1D):
            out_len = (cur[1] - layer.kernel_size) // layer.stride + 1
            if layer.kernel_size > cur[1]:
                raise DimensionError(f"{name}: kernel {layer.kernel_size} > length {cur[1]}")
            cur = ("seq", out_len, layer.filters)
        elif isinstance(layer, MaxPool1D):
            out_len = cur[1] // layer.pool_size
            if out_len < 1:
                raise DimensionError(f"{name}: pool {layer.pool_size} > length {cur[1]}")
            cur = ("seq", out_len, cur[2])
        elif isinstance(layer, GRULayer):
            cur = ("flat", layer.units)
        elif isinstance(layer, Flatten):
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


def weight_shapes(spec: ModelSpec) -> list[dict[str, tuple[int, ...]]]:
    """Per layer, the name and shape of each trainable array, in init order.

    Weights are named W (Dense, Conv1D) or Wz, Wr, Wh (GRU gates), each
    followed by its bias (b, bz, br, bh). A weight's last two axes are
    (inputs, outputs).
    """
    table = []
    for layer, before in zip(spec.layers, infer_shapes(spec)):
        if isinstance(layer, Dense):
            w = {"W": (before[1], layer.units)}
        elif isinstance(layer, Conv1D):
            w = {"W": (layer.kernel_size, before[2], layer.filters)}
        elif isinstance(layer, GRULayer):
            w = {f"W{gate}": (before[2] + layer.units, layer.units) for gate in "zrh"}
        else:
            w = {}
        # Each weight, then its bias: one value per output.
        table.append({k: v for name, shape in w.items()
                      for k, v in ((name, shape), ("b" + name[1:], shape[-1:]))})
    return table


def _glorot(rng, shape):
    """Glorot-uniform draw; a Conv1D kernel's fans count every tap."""
    fan_in = prod(shape[:-1])
    fan_out = prod(shape) // shape[-2]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(spec: ModelSpec, seed: int) -> Params:
    """Seeded Glorot-uniform weights and zero biases."""
    rng = np.random.default_rng(seed)
    weights = [
        {key: _glorot(rng, shape) if key.startswith("W") else np.zeros(shape)
         for key, shape in entry.items()}
        for entry in weight_shapes(spec)
    ]
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
        return trimmed.max(axis=2), ("pool", x.shape, trimmed)
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
    out = ACTIVATIONS[layer.kind][0](x)
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
    The output reads only a window's first `span` bits, those of its
    `cells` cells: (cells - 1) * stride + w. A pool that drops its input's
    last positions leaves the window's last bits unread.

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
        self.span = (self.cells - 1) * stride + width
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
    grads: list[dict[str, np.ndarray]] = [{} for _ in spec.layers]
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        w = params.weights[i]
        cache = caches[i]
        if isinstance(layer, Dense):
            grads[i] = {"W": cache[1].T @ dx, "b": dx.sum(axis=0)}
            dx = dx @ w["W"].T
        elif isinstance(layer, Conv1D):
            _, x_shape, flat = cache
            dy, dx = dx, np.zeros(x_shape)  # dy: (batch, l_out, filters)
            dout2 = dy.reshape(-1, layer.filters)
            grads[i] = {"W": (flat.T @ dout2).reshape(w["W"].shape), "b": dout2.sum(axis=0)}
            s, l_out = layer.stride, dy.shape[1]
            for kk in range(layer.kernel_size):
                dx[:, kk : kk + s * l_out : s, :] += dy @ w["W"][kk].T
        elif isinstance(layer, MaxPool1D):
            # argmax picks the first of tied maxima, which takes the gradient.
            _, x_shape, trimmed = cache
            b_, l_out, p, c = trimmed.shape
            d4 = np.zeros(trimmed.shape)
            np.put_along_axis(d4, np.argmax(trimmed, axis=2)[:, :, None], dx[:, :, None], axis=2)
            dx = np.zeros(x_shape)
            dx[:, : l_out * p] = d4.reshape(b_, l_out * p, c)
        elif isinstance(layer, GRULayer):
            _, x_shape, steps = cache
            dx = _gru_backward(w, steps, dx, x_shape, grads[i])
        elif isinstance(layer, Flatten):
            dx = dx.reshape(cache[1])
        elif isinstance(layer, Activation):
            _, x_in, out = cache
            dx = ACTIVATIONS[layer.kind][1](x_in, out, dx)
    if l2_lambda:
        for i, w in enumerate(params.weights):
            for key, arr in w.items():
                if key.startswith("W"):
                    grads[i][key] = grads[i][key] + 2.0 * l2_lambda * arr
    return grads


def _gru_backward(w, steps, dh, x_shape, grad):
    b_, t_steps, c = x_shape
    grad.update({name: np.zeros_like(arr) for name, arr in w.items()})
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

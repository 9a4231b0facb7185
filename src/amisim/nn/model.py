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
from amisim.nn.activations import ACTIVATIONS


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


def _gru_split(w, c: int):
    """A GRU layer's weights by what they multiply: the c input channels of
    all three gates (c, 3 * units), the state in the update and reset gates
    (units, 2 * units) and in the candidate (units, units); and the three
    biases, joined in the same z, r, h order."""
    w_in = np.concatenate([w["Wz"][:c], w["Wr"][:c], w["Wh"][:c]], axis=1)
    w_zr = np.concatenate([w["Wz"][c:], w["Wr"][c:]], axis=1)
    return w_in, w_zr, w["Wh"][c:], np.concatenate([w["bz"], w["br"], w["bh"]])


def _fold_gru(w, table):
    """The GRU's input projection and biases applied to every table row
    (Appleyard et al., 2016); returns (folded table, state weights) for
    _gru_scan.

    The gates use sigmoid(v) = 0.5 * tanh(v / 2) + 0.5, one ufunc pass
    instead of sigmoid's two masked branches. The halving is applied to the
    z and r weights and biases up front; scaling by 0.5 is exact in binary
    floating point.
    """
    w_in, w_zr, w_h, bias = _gru_split(w, table.shape[1])
    half = np.concatenate([np.full(2 * w["bz"].size, 0.5), np.ones(w["bh"].size)])
    return (table @ w_in + bias) * half, (0.5 * w_zr, w_h)


def _gru_scan(folded, index, w_zr, w_h, keep: bool = False):
    """A GRU (Cho et al., 2014) from a zero state whose step-t input is the
    folded row index[:, t]; each step computes only h @ w_zr and
    (r * h) @ w_h. Update gate z and reset gate r are sigmoids; the
    candidate sees the reset-scaled state, and z blends it into the carried
    state: h = (1 - z) * h + z * candidate.

    Returns (last state, stacks). With keep, stacks holds the stacked
    steps for backward: hs (cells + 1, batch, units), the states from the
    zero state on, and gates (cells, batch, 3 * units), each step's update
    gate, reset gate and candidate, written over the gathered inputs;
    without keep, stacks is None.
    """
    units = w_h.shape[0]
    steps = folded[index.T]  # (cells, batch, 3 * units)
    h = np.zeros((len(index), units))
    hs = np.zeros((len(steps) + 1,) + h.shape) if keep else None
    for t, a in enumerate(steps):
        zr = np.tanh(a[:, : 2 * units] + h @ w_zr) * 0.5 + 0.5
        z, r = zr[:, :units], zr[:, units:]
        h_cand = np.tanh(a[:, 2 * units :] + (r * h) @ w_h)
        h = (1.0 - z) * h + z * h_cand
        if keep:
            a[:, : 2 * units], a[:, 2 * units :], hs[t + 1] = zr, h_cand, h
    return h, ((hs, steps) if keep else None)


def _input_batch(spec: ModelSpec, batch):
    """The batch as float64 (batch, length, channels), checked against spec."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    expected = (spec.input_length, spec.input_channels)
    if x.shape[1:] != expected:
        raise DimensionError(
            f"input shape {x.shape[1:]} does not match spec {expected}"
        )
    return x


def forward(spec: ModelSpec, params: Params, batch):
    """Run the network; returns (output, caches) with one cache per layer."""
    x = _input_batch(spec, batch)
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
        # The batch's own positions as a table: row b * length + t is x[b, t].
        b_, t_steps, c = x.shape
        table = x.reshape(-1, c)
        index = np.arange(b_ * t_steps).reshape(b_, t_steps)
        folded, state = _fold_gru(w, table)
        h, gru = _gru_scan(folded, index, *state, keep=True)
        return h, ("gru", gru, index, table)
    if isinstance(layer, Flatten):
        return x.reshape(x.shape[0], -1), ("flatten", x.shape)
    out = ACTIVATIONS[layer.kind][0](x)
    return out, ("act", x, out)


# ---------------------------------------------------------------------------
# Binary windows: the prefix table
# ---------------------------------------------------------------------------

# Widest receptive field the prefix table may cover: 2**12 rows.
TABLE_MAX_BITS = 12


def _pattern_sums(index, rows, patterns: int):
    """Sum of the rows of `rows` that share a pattern number; row k of
    rows.reshape(index.size, -1) belongs to index.ravel()[k]. Returns
    (patterns, row width), zero for patterns that do not occur. A stable
    sort groups each pattern's rows in their original order."""
    flat = index.ravel()
    rows = rows.reshape(flat.size, -1)
    order = np.argsort(flat, kind="stable")
    keys = flat[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    sums = np.zeros((patterns, rows.shape[1]))
    for key, group in zip(keys[starts], np.split(order, starts[1:])):
        sums[key] = rows[group].sum(axis=0)
    return sums


def is_bit_batch(spec: ModelSpec, batch: np.ndarray) -> bool:
    """Whether a batch can take the table path: single-channel windows of
    the spec's length, shaped (batch, length) or (batch, length, 1), holding
    only 0 and 1."""
    return (
        spec.input_channels == 1
        and batch.shape[1:] in ((spec.input_length,), (spec.input_length, 1))
        and not ((batch != 0) & (batch != 1)).any()
    )


def table_forward(spec: ModelSpec, params: Params, batch):
    """forward for a batch of 0/1 windows of a single-channel network,
    through BitWindowKernel.run; returns (output, caches) for
    table_backward. Outputs match forward up to float64 rounding."""
    kernel = BitWindowKernel(spec, params)
    index = kernel.index(_input_batch(spec, batch)[:, :, 0])
    out, gru, caches = kernel.run(index, keep=True)
    return out, (kernel, index, gru, caches)


class BitWindowKernel:
    """A single-channel network on 0/1 windows: inference (a call) and the
    table path of training (table_forward, table_backward).

    The prefix is the longest leading run of stride-1 Conv1D, Activation
    and MaxPool1D layers whose receptive field w stays within
    TABLE_MAX_BITS. Each of its output cells reads w input bits, one cell
    every `stride` bits, so its `count` layers run once, through the same
    per-layer code as forward, over every w-bit pattern: `prefix_table`
    (2**w, channels) holds the outputs and `prefix_caches` their backward
    caches. An empty prefix makes each bit its own cell (w = 1). The output
    reads only a window's first `span` = (cells - 1) * stride + w bits; a
    pool that drops its input's last positions leaves the last bits unread.
    A GRULayer right after the prefix has its input projection and biases
    folded into `table` (Appleyard et al., 2016), so each recurrence step
    computes only h @ [Wz_h | Wr_h] and (r * h) @ Wh_h. Later layers run
    through the forward code. Outputs match forward up to float64 rounding.

    A call keeps each output row under its window's cell indices, so it
    runs each distinct window once; windows that differ only from bit
    `span` on share a row. Tables and memo hold for the params given.
    """

    def __init__(self, spec: ModelSpec, params: Params):
        if spec.input_channels != 1:
            raise ConfigError("bit-window inference needs a single input channel")
        self.input_length, self.classes = spec.input_length, spec.output_classes
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
        self.count, self.width, self.stride = count, width, stride
        self.cells = infer_shapes(spec)[count][1]
        self.span = (self.cells - 1) * stride + width
        self.place = 1 << np.arange(width)[::-1]
        patterns = (np.arange(1 << width)[:, None] >> np.arange(width)[::-1]) & 1
        table = patterns[:, :, None].astype(np.float64)
        self.prefix_caches = []
        for layer, w in zip(spec.layers[:count], params.weights[:count]):
            table, cache = _layer_forward(layer, w, table)
            self.prefix_caches.append(cache)
        self.prefix_table = self.table = table[:, 0, :]  # (2**width, channels)
        self.gru = None
        if count < len(spec.layers) and isinstance(spec.layers[count], GRULayer):
            self.table, self.gru = _fold_gru(params.weights[count], self.table)
            count += 1
        self.tail = list(zip(spec.layers[count:], params.weights[count:]))
        self.memo: dict[bytes, np.ndarray] = {}

    def index(self, windows):
        """Each cell's pattern number, (batch, cells), for a
        (batch, input_length) array of 0/1 bits."""
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
        return cells @ self.place

    def __call__(self, windows):
        """Network output for a (batch, input_length) array of 0/1 bits."""
        index = self.index(windows)
        keys = [row.tobytes() for row in index]
        unseen = {key: row for row, key in enumerate(keys) if key not in self.memo}
        if unseen:
            self.memo.update(zip(unseen, self.run(index[list(unseen.values())])[0]))
        return np.array([self.memo[key] for key in keys]).reshape(len(keys), self.classes)

    def run(self, index, keep: bool = False):
        """(output, GRU stacks, tail caches) for the windows of the given cell
        indices; the stacks (None without a GRU) and the later layers' caches
        are kept for table_backward only with keep."""
        if self.gru is None:
            x, gru = self.table[index], None
        else:
            x, gru = _gru_scan(self.table, index, *self.gru, keep=keep)
        caches = []
        for layer, w in self.tail:
            x, cache = _layer_forward(layer, w, x)
            if keep:
                caches.append(cache)
        return x, gru, caches


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def output_kind(spec: ModelSpec) -> str:
    """The head's activation, "softmax" or "sigmoid"; any other head is refused."""
    last = spec.layers[-1]
    if not isinstance(last, Activation) or last.kind not in ("softmax", "sigmoid"):
        raise ConfigError("model must end in a softmax or sigmoid activation")
    return last.kind


# The loss and its gradient clamp probabilities to [LOG_CLAMP, 1 - LOG_CLAMP].
LOG_CLAMP = 1e-12


def regularized_weights(params: Params):
    """(layer, key, array) for each array of the L2 term, in layer then key
    order: the W arrays; biases are not regularized."""
    return [(i, key, arr) for i, w in enumerate(params.weights)
            for key, arr in w.items() if key.startswith("W")]


def _head_gradient(spec: ModelSpec, out, y):
    """Gradient of the mean classification loss w.r.t. the head's output:
    categorical cross-entropy for a softmax head, per-unit Bernoulli
    cross-entropy for a sigmoid head."""
    if output_kind(spec) == "softmax":
        return -(y / np.clip(out, LOG_CLAMP, None)) / len(out)
    p = np.clip(out, LOG_CLAMP, 1.0 - LOG_CLAMP)
    return (-(y / p) + (1.0 - y) / (1.0 - p)) / len(out)


def _with_l2(params: Params, grads, l2_lambda: float):
    if l2_lambda:
        for i, key, arr in regularized_weights(params):
            grads[i][key] = grads[i][key] + 2.0 * l2_lambda * arr
    return grads


def backward(spec: ModelSpec, params: Params, caches, y, l2_lambda: float = 0.0):
    """Gradient of (classification loss + l2_lambda * sum ||W||^2) w.r.t.
    every parameter, given the caches of a matching forward pass and the
    one-hot targets y. The loss is categorical cross-entropy for a softmax
    head and per-unit Bernoulli cross-entropy for a sigmoid head.

    Returns per-layer gradient dicts shaped like params.weights; biases are
    not regularized. A GRU layer's cache is consumed: its gate stack is
    overwritten with the gate gradients.
    """
    dx = _head_gradient(spec, caches[-1][2], y)
    grads: list[dict[str, np.ndarray]] = [{} for _ in spec.layers]
    for i in range(len(spec.layers) - 1, -1, -1):
        # No caller reads the gradient w.r.t. the network input.
        grads[i], dx = _layer_backward(spec.layers[i], params.weights[i], caches[i], dx, i > 0)
    return _with_l2(params, grads, l2_lambda)


def table_backward(spec: ModelSpec, params: Params, caches, y, l2_lambda: float = 0.0):
    """backward for the caches of table_forward, which it consumes like
    backward does.

    The gradient reaching the table is summed per pattern (_pattern_sums),
    then backpropagated once through the prefix layers on the 2**w pattern
    rows. Gradients match backward up to float64 rounding.
    """
    kernel, index, gru, tail_caches = caches
    dx = _head_gradient(spec, tail_caches[-1][2], y)
    grads: list[dict[str, np.ndarray]] = [{} for _ in spec.layers]
    first_tail = len(spec.layers) - len(tail_caches)
    for i in range(len(spec.layers) - 1, first_tail - 1, -1):
        grads[i], dx = _layer_backward(
            spec.layers[i], params.weights[i], tail_caches[i - first_tail], dx, i > 0
        )
    count, table = kernel.count, kernel.prefix_table
    if gru is not None:
        grads[count], dx = _gru_backward(params.weights[count], gru, dx, index, table)
    elif count:
        dx = _pattern_sums(index, dx, len(table))
    if count:
        dx = dx[:, None, :]  # the prefix output of each pattern, one cell
    for i in range(count - 1, -1, -1):
        layer, w = spec.layers[i], params.weights[i]
        grads[i], dx = _layer_backward(layer, w, kernel.prefix_caches[i], dx, i > 0)
    return _with_l2(params, grads, l2_lambda)


def _gru_backward(w, gru, dh, index, table):
    """Gradients of a folded GRU (_fold_gru, _gru_scan) and of its table.

    The gates stack is overwritten, step by step, with the gradients of the
    gate pre-activations; the state weights' gradients are then one product
    over the stacked steps each, and the input weights' gradients one
    product with the table, after summing per pattern.
    """
    hs, gates = gru
    units = dh.shape[1]
    w_in, w_zr, w_h, _ = _gru_split(w, table.shape[1])
    rh = gates[:, :, units : 2 * units] * hs[:-1]  # the candidates' reset-scaled states
    for t in range(len(gates) - 1, -1, -1):
        g, h = gates[t], hs[t]
        z, r, h_cand = g[:, :units], g[:, units : 2 * units], g[:, 2 * units :]
        dz = dh * (h_cand - h)
        dh_prev = dh * (1.0 - z)
        da_h = dh * z * (1.0 - h_cand * h_cand)
        drh = da_h @ w_h.T
        dr = drh * h
        dh_prev += drh * r
        da_r = dr * r * (1.0 - r)
        g[:, :units] = dz * z * (1.0 - z)
        g[:, units : 2 * units] = da_r
        g[:, 2 * units :] = da_h
        dh = dh_prev + g[:, : 2 * units] @ w_zr.T
    da = gates.reshape(-1, 3 * units)
    g_zr = hs[:-1].reshape(-1, units).T @ da[:, : 2 * units]
    g_h = rh.reshape(-1, units).T @ da[:, 2 * units :]
    dfolded = _pattern_sums(index.T, gates, len(table))
    g_in = table.T @ dfolded
    bias = dfolded.sum(axis=0)
    grad = {}
    for k, name in enumerate("zrh"):
        cols = slice(k * units, (k + 1) * units)
        state = g_h if name == "h" else g_zr[:, cols]
        grad[f"W{name}"] = np.concatenate([g_in[:, cols], state])
        grad[f"b{name}"] = bias[cols]
    return grad, dfolded @ w_in.T


def _layer_backward(layer: LayerSpec, w, cache, dx, need_dx: bool):
    """One layer of backward; returns (its gradient dict, the gradient
    w.r.t. its input, or None when need_dx is false)."""
    if isinstance(layer, Dense):
        return {"W": cache[1].T @ dx, "b": dx.sum(axis=0)}, dx @ w["W"].T if need_dx else None
    if isinstance(layer, Conv1D):
        _, x_shape, flat = cache
        dout2 = dx.reshape(-1, layer.filters)
        grad = {"W": (flat.T @ dout2).reshape(w["W"].shape), "b": dout2.sum(axis=0)}
        if not need_dx:
            return grad, None
        dy, dx = dx, np.zeros(x_shape)  # dy: (batch, l_out, filters)
        s, l_out = layer.stride, dy.shape[1]
        for kk in range(layer.kernel_size):
            dx[:, kk : kk + s * l_out : s, :] += dy @ w["W"][kk].T
        return grad, dx
    if isinstance(layer, GRULayer):
        _, gru, index, table = cache
        grad, dtable = _gru_backward(w, gru, dx, index, table)
        return grad, dtable.reshape(index.shape + (-1,)) if need_dx else None
    if not need_dx:
        return {}, None
    if isinstance(layer, MaxPool1D):
        # argmax picks the first of tied maxima, which takes the gradient.
        _, x_shape, trimmed = cache
        b_, l_out, p, c = trimmed.shape
        d4 = np.zeros(trimmed.shape)
        np.put_along_axis(d4, np.argmax(trimmed, axis=2)[:, :, None], dx[:, :, None], axis=2)
        dx = np.zeros(x_shape)
        dx[:, : l_out * p] = d4.reshape(b_, l_out * p, c)
        return {}, dx
    if isinstance(layer, Flatten):
        return {}, dx.reshape(cache[1])
    _, x_in, out = cache
    return {}, ACTIVATIONS[layer.kind][1](x_in, out, dx)

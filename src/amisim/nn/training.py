"""Loss functions, the Adam optimizer, and the seeded training loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from amisim.errors import ConfigError, TrainingError
from amisim.nn.model import (
    LOG_CLAMP,
    BitWindowKernel,
    ModelSpec,
    Params,
    backward,
    forward,
    init_params,
    is_bit_batch,
    output_kind,
    regularized_weights,
    table_backward,
    table_forward,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PREDICT_BATCH = 1024  # rows per forward call in predict_proba


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    l2_lambda: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.learning_rate <= 0 or self.l2_lambda < 0:
            raise ConfigError("learning_rate must be > 0 and l2_lambda >= 0")


def one_hot(labels, classes: int):
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def cross_entropy(y, y_hat) -> float:
    """Mean categorical cross-entropy; probabilities clamped at 1e-12."""
    probs = np.clip(y_hat, LOG_CLAMP, None)
    return float(-(y * np.log(probs)).sum(axis=1).mean())


def binary_cross_entropy(y, y_hat) -> float:
    """Per-unit Bernoulli cross-entropy for sigmoid output heads."""
    p = np.clip(y_hat, LOG_CLAMP, 1.0 - LOG_CLAMP)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum(axis=1).mean())


def _loss(spec, params, out, y, l2_lambda: float) -> float:
    """Data term on the model output plus l2_lambda * sum ||W||^2."""
    kind = output_kind(spec)
    data = cross_entropy(y, out) if kind == "softmax" else binary_cross_entropy(y, out)
    reg = 0.0
    if l2_lambda:
        reg = l2_lambda * sum(float((arr * arr).sum()) for _, _, arr in regularized_weights(params))
    return data + reg


def model_loss(spec, params, x, y, l2_lambda: float = 0.0):
    """Loss (data term plus l2_lambda * sum ||W||^2) on a batch."""
    out, _ = forward(spec, params, x)
    return _loss(spec, params, out, y, l2_lambda)


def loss_and_grads(spec, params, x, y, l2_lambda: float = 0.0):
    """Forward + backward on a batch; returns (loss, output, gradients).

    A batch of single-channel 0/1 windows takes the table path
    (table_forward, table_backward), any other the positional reference
    (forward, backward); both give the same results up to float64 rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    if is_bit_batch(spec, x):
        out, caches = table_forward(spec, params, x)
        grads = table_backward(spec, params, caches, y, l2_lambda=l2_lambda)
    else:
        out, caches = forward(spec, params, x)
        grads = backward(spec, params, caches, y, l2_lambda=l2_lambda)
    return _loss(spec, params, out, y, l2_lambda), out, grads


def adam_step(params: Params, grads, m, v, config: TrainConfig, t: int) -> Params:
    """Standard Adam update with bias correction; t counts from 1. The
    weights and the moments m, v (shaped like the weights) change in place."""
    if t < 1:
        raise ConfigError("Adam step index starts at 1")
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    lr = config.learning_rate
    for i, layer_grads in enumerate(grads):
        for key, g in layer_grads.items():
            m_k, v_k = m[i][key], v[i][key]
            m_k *= b1
            m_k += (1.0 - b1) * g
            v_k *= b2
            v_k += (1.0 - b2) * g * g
            m_hat = m_k / (1.0 - b1**t)
            v_hat = v_k / (1.0 - b2**t)
            params.weights[i][key] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def train(spec: ModelSpec, x, labels, config: TrainConfig):
    """Mini-batch Adam training from init_params; returns (params, history).

    history holds one dict per epoch with mean loss and accuracy measured
    on the shuffled training stream before each update. Training is
    deterministic for a fixed config seed. A non-finite loss aborts with a
    TrainingError suggesting the usual suspects.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(x) != len(labels):
        raise ConfigError("x and labels length mismatch")
    if len(x) == 0:
        raise ConfigError("empty training set")
    y = one_hot(labels, spec.output_classes)

    params = init_params(spec, seed=config.rng_seed)
    m, v = params.zero_like_weights(), params.zero_like_weights()
    rng = np.random.default_rng(config.rng_seed + 1)
    history = []
    t = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(x))
        losses = []
        sizes = []
        correct = 0
        for start in range(0, len(x), config.batch_size):
            sel = order[start : start + config.batch_size]
            loss, out, grads = loss_and_grads(
                spec, params, x[sel], y[sel], l2_lambda=config.l2_lambda
            )
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, step {t + 1}; "
                    "try a lower learning rate or check inputs for overflow"
                )
            correct += int((np.argmax(out, axis=1) == labels[sel]).sum())
            losses.append(loss)
            sizes.append(len(sel))
            t += 1
            adam_step(params, grads, m, v, config, t)
        history.append(
            {
                "epoch": epoch + 1,
                "loss": float(np.average(losses, weights=sizes)),
                "accuracy": correct / len(x),
            }
        )
    return params, history


def predict_proba(spec, params, x):
    """Output rows for each input row, computed in chunks: through one
    BitWindowKernel for single-channel 0/1 windows, through forward
    otherwise. Zero rows give an empty (0, output_classes) array."""
    x = np.asarray(x, dtype=np.float64)
    if not len(x):
        return np.zeros((0, spec.output_classes))
    if is_bit_batch(spec, x):
        x, model = x.reshape(len(x), spec.input_length), BitWindowKernel(spec, params)
    else:
        def model(chunk):
            return forward(spec, params, chunk)[0]
    outs = [model(x[start : start + PREDICT_BATCH]) for start in range(0, len(x), PREDICT_BATCH)]
    return np.concatenate(outs, axis=0)

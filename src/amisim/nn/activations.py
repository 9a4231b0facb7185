"""Elementwise activations and their derivatives.

All functions take and return float64 numpy arrays. softmax normalizes the
last axis and subtracts the row max first so huge logits cannot overflow.
"""

from __future__ import annotations

import numpy as np

ACTIVATION_KINDS = ("relu", "elu", "sigmoid", "tanh", "softmax")


def relu(x):
    return np.maximum(0.0, x)


def elu(x):
    out = np.array(x, dtype=np.float64, copy=True)
    neg = x < 0
    out[neg] = np.expm1(x[neg])
    return out


def sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x):
    return np.tanh(x)


def softmax(v):
    shifted = v - np.max(v, axis=-1, keepdims=True)
    ev = np.exp(shifted)
    return ev / ev.sum(axis=-1, keepdims=True)


def apply_activation(kind: str, x):
    if kind == "relu":
        return relu(x)
    if kind == "elu":
        return elu(x)
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "tanh":
        return tanh(x)
    if kind == "softmax":
        return softmax(x)
    raise ValueError(f"unknown activation {kind!r}")


def activation_backward(kind: str, out, x, dout):
    """Gradient through an activation given its input x and output out."""
    if kind == "relu":
        return dout * (x > 0)
    if kind == "elu":
        grad = np.where(x > 0, 1.0, out + 1.0)
        return dout * grad
    if kind == "sigmoid":
        return dout * out * (1.0 - out)
    if kind == "tanh":
        return dout * (1.0 - out * out)
    if kind == "softmax":
        inner = (dout * out).sum(axis=-1, keepdims=True)
        return out * (dout - inner)
    raise ValueError(f"unknown activation {kind!r}")

"""Elementwise activations and their derivatives.

All functions take and return float64 numpy arrays. softmax normalizes the
last axis and subtracts the row max first so huge logits cannot overflow.
ACTIVATIONS is the one table of kinds: kind -> (forward, backward), where
forward(x) is the output and backward(x, out, dout) the gradient with
respect to x given the input x, output out and output gradient dout.
"""

from __future__ import annotations

import numpy as np


def relu(x):
    return np.maximum(0.0, x)


def elu(x):
    # minimum(x, 0) keeps expm1 from overflowing on the discarded branch and
    # is x itself where x < 0.
    return np.where(x < 0, np.expm1(np.minimum(x, 0.0)), x)


def sigmoid(x):
    # exp(-x) where x >= 0 and exp(x) elsewhere, so neither branch can
    # overflow. Not exp(-abs(x)): negating flips a NaN's sign bit.
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


def tanh(x):
    return np.tanh(x)


def softmax(v):
    shifted = v - np.max(v, axis=-1, keepdims=True)
    ev = np.exp(shifted)
    return ev / ev.sum(axis=-1, keepdims=True)


def _softmax_backward(x, out, dout):
    inner = (dout * out).sum(axis=-1, keepdims=True)
    return out * (dout - inner)


ACTIVATIONS = {
    "relu": (relu, lambda x, out, dout: dout * (x > 0)),
    "elu": (elu, lambda x, out, dout: dout * np.where(x > 0, 1.0, out + 1.0)),
    "sigmoid": (sigmoid, lambda x, out, dout: dout * out * (1.0 - out)),
    "tanh": (tanh, lambda x, out, dout: dout * (1.0 - out * out)),
    "softmax": (softmax, _softmax_backward),
}

"""Backpropagation checked against central finite differences.

The numeric oracle perturbs every parameter by +/-eps and differences the
full loss; it never touches the analytic path.
"""

import numpy as np

from amisim.nn import (
    Activation,
    Conv1D,
    Dense,
    Flatten,
    GRULayer,
    MaxPool1D,
    ModelSpec,
    init_params,
    loss_and_grads,
    model_loss,
    one_hot,
)
from amisim.nn.model import _layer_backward, _layer_forward

EPS = 1e-5


def finite_diff_grads(spec, params, x, y, l2_lambda=0.0, eps=EPS):
    grads = []
    for layer_weights in params.weights:
        layer_grads = {}
        for key, arr in layer_weights.items():
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                lp = model_loss(spec, params, x, y, l2_lambda)
                flat[j] = orig - eps
                lm = model_loss(spec, params, x, y, l2_lambda)
                flat[j] = orig
                gflat[j] = (lp - lm) / (2.0 * eps)
            layer_grads[key] = g
        grads.append(layer_grads)
    return grads


def max_rel_error(analytic, numeric, floor=1e-6):
    worst = 0.0
    for a_layer, n_layer in zip(analytic, numeric):
        for key in n_layer:
            a, n = a_layer[key], n_layer[key]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def _check(spec, seed=0, batch=4, l2_lambda=0.0, tol=1e-4):
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed=seed)
    x = rng.normal(size=(batch, spec.input_length, spec.input_channels))
    labels = rng.integers(0, spec.output_classes, size=batch)
    y = one_hot(labels, spec.output_classes)
    _, _, analytic = loss_and_grads(spec, params, x, y, l2_lambda=l2_lambda)
    numeric = finite_diff_grads(spec, params, x, y, l2_lambda=l2_lambda)
    err = max_rel_error(analytic, numeric)
    assert err <= tol, f"max relative gradient error {err:.3e} > {tol}"


def test_dense_net_gradients():
    spec = ModelSpec(
        input_length=6,
        input_channels=1,
        layers=(
            Flatten(),
            Dense(units=8),
            Activation("elu"),
            Dense(units=5),
            Activation("tanh"),
            Dense(units=3),
            Activation("softmax"),
        ),
        output_classes=3,
    )
    _check(spec, seed=1)


def test_conv_net_gradients():
    spec = ModelSpec(
        input_length=12,
        input_channels=2,
        layers=(
            Conv1D(filters=4, kernel_size=3),
            Activation("elu"),
            Conv1D(filters=3, kernel_size=3, stride=2),
            Activation("relu"),
            Flatten(),
            Dense(units=2),
            Activation("softmax"),
        ),
        output_classes=2,
    )
    _check(spec, seed=2)


def test_maxpool_path_gradients():
    spec = ModelSpec(
        input_length=11,
        input_channels=1,
        layers=(
            Conv1D(filters=3, kernel_size=2),
            Activation("elu"),
            MaxPool1D(pool_size=2),
            Flatten(),
            Dense(units=2),
            Activation("softmax"),
        ),
        output_classes=2,
    )
    _check(spec, seed=3)


def test_gru_net_gradients():
    spec = ModelSpec(
        input_length=7,
        input_channels=2,
        layers=(
            GRULayer(units=4),
            Dense(units=3),
            Activation("softmax"),
        ),
        output_classes=3,
    )
    _check(spec, seed=4)


def test_hybrid_conv_gru_gradients():
    spec = ModelSpec(
        input_length=14,
        input_channels=1,
        layers=(
            Conv1D(filters=3, kernel_size=3),
            Activation("relu"),
            MaxPool1D(pool_size=2),
            GRULayer(units=4),
            Dense(units=2),
            Activation("softmax"),
        ),
        output_classes=2,
    )
    _check(spec, seed=5)


def test_sigmoid_head_gradients():
    spec = ModelSpec(
        input_length=6,
        input_channels=1,
        layers=(
            Flatten(),
            Dense(units=5),
            Activation("elu"),
            Dense(units=2),
            Activation("sigmoid"),
        ),
        output_classes=2,
    )
    _check(spec, seed=6)


def test_l2_regularized_gradients():
    spec = ModelSpec(
        input_length=6,
        input_channels=1,
        layers=(
            Flatten(),
            Dense(units=6),
            Activation("tanh"),
            Dense(units=2),
            Activation("softmax"),
        ),
        output_classes=2,
    )
    _check(spec, seed=7, l2_lambda=0.01)


def test_gru_step_weight_gradients_fd():
    """A projection of one GRU layer's last state over a sequence,
    differentiated w.r.t. every weight and the input."""
    rng = np.random.default_rng(10)
    units, channels, batch, steps = 4, 2, 5, 4
    layer = GRULayer(units)
    weights = {
        "Wz": rng.normal(size=(channels + units, units)) * 0.5,
        "bz": rng.normal(size=units) * 0.1,
        "Wr": rng.normal(size=(channels + units, units)) * 0.5,
        "br": rng.normal(size=units) * 0.1,
        "Wh": rng.normal(size=(channels + units, units)) * 0.5,
        "bh": rng.normal(size=units) * 0.1,
    }
    x = rng.normal(size=(batch, steps, channels))
    proj = rng.normal(size=(batch, units))

    def objective():
        h, _ = _layer_forward(layer, weights, x)
        return float((h * proj).sum())

    _, cache = _layer_forward(layer, weights, x)
    grad, dx = _layer_backward(layer, weights, cache, proj, True)
    analytic = dict(grad, x=dx)

    worst = 0.0
    for key, arr in dict(weights, x=x).items():
        flat = arr.reshape(-1)
        aflat = analytic[key].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + EPS
            lp = objective()
            flat[j] = orig - EPS
            lm = objective()
            flat[j] = orig
            num = (lp - lm) / (2.0 * EPS)
            denom = max(abs(num), abs(aflat[j]), 1e-6)
            worst = max(worst, abs(num - aflat[j]) / denom)
    assert worst <= 1e-5, f"gru layer max relative error {worst:.3e}"


def test_backward_from_cache_matches_loss_and_grads():
    from amisim.nn import backward, forward

    spec = ModelSpec(
        input_length=5,
        input_channels=1,
        layers=(Flatten(), Dense(units=4), Activation("tanh"),
                Dense(units=2), Activation("softmax")),
        output_classes=2,
    )
    params = init_params(spec, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 5, 1))
    y = one_hot(rng.integers(0, 2, size=6), 2)
    _, caches = forward(spec, params, x)
    direct = backward(spec, params, caches, y, l2_lambda=0.01)
    _, _, via_loss = loss_and_grads(spec, params, x, y, l2_lambda=0.01)
    for a, b in zip(direct, via_loss):
        for key in a:
            assert np.array_equal(a[key], b[key])


def test_gradient_at_perfect_output_is_tiny():
    spec = ModelSpec(
        input_length=2,
        input_channels=1,
        layers=(Flatten(), Dense(units=2), Activation("softmax")),
        output_classes=2,
    )
    params = init_params(spec, seed=0)
    # Saturate the softmax so the predicted distribution is one-hot.
    params.weights[1]["W"][:] = np.array([[60.0, -60.0], [60.0, -60.0]])
    params.weights[1]["b"][:] = 0.0
    x = np.ones((3, 2, 1))
    y = one_hot(np.zeros(3, dtype=int), 2)
    _, _, grads = loss_and_grads(spec, params, x, y)
    norm = np.sqrt(sum(float((g**2).sum()) for layer in grads for g in layer.values()))
    assert norm < 1e-8


def test_duplicated_rows_match_single_row_gradient():
    spec = ModelSpec(
        input_length=4,
        input_channels=1,
        layers=(Flatten(), Dense(units=2), Activation("softmax")),
        output_classes=2,
    )
    params = init_params(spec, seed=8)
    row = np.random.default_rng(0).normal(size=(1, 4, 1))
    y1 = one_hot([1], 2)
    _, _, g_single = loss_and_grads(spec, params, row, y1)
    dup = np.repeat(row, 6, axis=0)
    _, _, g_dup = loss_and_grads(spec, params, dup, one_hot([1] * 6, 2))
    for a, b in zip(g_single, g_dup):
        for key in a:
            assert np.allclose(a[key], b[key], atol=1e-12)

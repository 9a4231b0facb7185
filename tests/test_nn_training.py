import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amisim.nn.training
from amisim.attacker import build_attacker, build_threeclass
from amisim.defense import build_defense
from amisim.errors import ConfigError
from amisim.nn import (
    Activation,
    Dense,
    Flatten,
    GRULayer,
    ModelSpec,
    TrainConfig,
    adam_step,
    binary_cross_entropy,
    cross_entropy,
    init_params,
    loss_and_grads,
    model_loss,
    one_hot,
    predict_proba,
    train,
)
from amisim.nn.model import backward, forward, table_backward, table_forward
from amisim.nn.training import ADAM_EPS


def _toy_spec(hidden=8):
    return ModelSpec(
        input_length=2,
        input_channels=1,
        layers=(
            Flatten(),
            Dense(units=hidden),
            Activation("elu"),
            Dense(units=2),
            Activation("softmax"),
        ),
        output_classes=2,
    )


def _separable_set(n=120, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(loc=(-1.5, -1.5), scale=0.4, size=(half, 2))
    b = rng.normal(loc=(1.5, 1.5), scale=0.4, size=(half, 2))
    x = np.concatenate([a, b])[:, :, None]
    labels = np.array([0] * half + [1] * half)
    return x, labels


def test_cross_entropy_values():
    y = one_hot([0], 2)
    assert cross_entropy(y, np.array([[1.0, 0.0]])) == pytest.approx(0.0)
    assert cross_entropy(y, np.array([[0.5, 0.5]])) == pytest.approx(np.log(2))


def test_cross_entropy_monotone_toward_truth():
    y = one_hot([0], 2)
    losses = [
        cross_entropy(y, np.array([[p, 1 - p]])) for p in (0.2, 0.4, 0.6, 0.8, 0.99)
    ]
    assert losses == sorted(losses, reverse=True)


def test_binary_cross_entropy_uniform():
    y = one_hot([1], 2)
    assert binary_cross_entropy(y, np.full((1, 2), 0.5)) == pytest.approx(2 * np.log(2))


def test_adam_zero_gradient_keeps_params():
    spec = _toy_spec()
    params = init_params(spec, seed=0)
    before = [{k: v.copy() for k, v in w.items()} for w in params.weights]
    zeros = params.zero_like_weights()
    m, v = params.zero_like_weights(), params.zero_like_weights()
    adam_step(params, zeros, m, v, TrainConfig(epochs=1, batch_size=1, learning_rate=0.1), t=1)
    for a, b in zip(before, params.weights):
        for key in a:
            assert np.array_equal(a[key], b[key])


def test_adam_first_step_closed_form():
    # Bias correction cancels the moment decay at t=1, so the step is
    # exactly lr * g / (|g| + eps) elementwise.
    spec = ModelSpec(
        input_length=1,
        input_channels=1,
        layers=(Flatten(), Dense(units=1), Activation("sigmoid")),
        output_classes=1,
    )
    config = TrainConfig(epochs=1, batch_size=1, learning_rate=0.05)
    params = init_params(spec, seed=0)
    w_before = params.weights[1]["W"].copy()
    g = np.array([[0.37]])
    grads = params.zero_like_weights()
    grads[1]["W"] = g
    m, v = params.zero_like_weights(), params.zero_like_weights()
    adam_step(params, grads, m, v, config, t=1)
    m_hat = g  # m/(1-b1) with m=(1-b1) g
    v_hat = g * g
    expected = w_before - config.learning_rate * m_hat / (
        np.sqrt(v_hat) + ADAM_EPS
    )
    assert np.allclose(params.weights[1]["W"], expected, atol=1e-12)


def test_adam_minimizes_scalar_quadratic():
    # f(w) = (w - 3)^2 from w = 0, lr 0.01: |w - 3| < 1e-3 within 2000 steps.
    config = TrainConfig(epochs=1, batch_size=1, learning_rate=0.01)
    spec = ModelSpec(
        input_length=1,
        input_channels=1,
        layers=(Flatten(), Dense(units=1), Activation("sigmoid")),
        output_classes=1,
    )
    params = init_params(spec, seed=0)
    params.weights[1]["W"][:] = 0.0
    m, v = params.zero_like_weights(), params.zero_like_weights()
    for t in range(1, 2001):
        w = params.weights[1]["W"][0, 0]
        grads = params.zero_like_weights()
        grads[1]["W"] = np.array([[2.0 * (w - 3.0)]])
        adam_step(params, grads, m, v, config, t=t)
    assert abs(params.weights[1]["W"][0, 0] - 3.0) < 1e-3


def test_train_toy_separable():
    spec = _toy_spec()
    x, labels = _separable_set()
    config = TrainConfig(epochs=50, batch_size=16, learning_rate=0.01, rng_seed=42)
    params, history = train(spec, x, labels, config)
    assert history[-1]["accuracy"] >= 0.99
    assert (np.argmax(predict_proba(spec, params, x), axis=1) == labels).mean() >= 0.99


def test_train_zero_epochs_returns_initial():
    spec = _toy_spec()
    x, labels = _separable_set(n=20)
    config = TrainConfig(epochs=0, batch_size=8, learning_rate=0.01, rng_seed=3)
    params, history = train(spec, x, labels, config)
    reference = init_params(spec, seed=3)
    assert history == []
    for a, b in zip(params.weights, reference.weights):
        for key in a:
            assert np.array_equal(a[key], b[key])


def test_train_deterministic_under_seed():
    spec = _toy_spec()
    x, labels = _separable_set(n=60, seed=5)
    config = TrainConfig(epochs=5, batch_size=16, learning_rate=0.005, rng_seed=11)
    p1, h1 = train(spec, x, labels, config)
    p2, h2 = train(spec, x, labels, config)
    assert h1 == h2
    for a, b in zip(p1.weights, p2.weights):
        for key in a:
            assert a[key].tobytes() == b[key].tobytes()


def test_full_batch_loss_non_increasing_first_steps():
    spec = _toy_spec()
    x, labels = _separable_set(n=40, seed=2)
    y = one_hot(labels, 2)
    config = TrainConfig(epochs=1, batch_size=40, learning_rate=1e-3, rng_seed=0)
    params = init_params(spec, seed=0)
    m, v = params.zero_like_weights(), params.zero_like_weights()
    losses = [model_loss(spec, params, x, y)]
    for t in range(1, 11):
        _, _, grads = loss_and_grads(spec, params, x, y)
        adam_step(params, grads, m, v, config, t=t)
        losses.append(model_loss(spec, params, x, y))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_train_rejects_empty_and_mismatched():
    spec = _toy_spec()
    config = TrainConfig(epochs=1, batch_size=4, learning_rate=0.01)
    with pytest.raises(ConfigError):
        train(spec, np.zeros((0, 2, 1)), np.zeros(0, dtype=int), config)
    with pytest.raises(ConfigError):
        train(spec, np.zeros((4, 2, 1)), np.zeros(3, dtype=int), config)


TABLE_SPECS = {
    f"{build.__name__.removeprefix('build_')}-{rate}": build(rate)
    for build in (build_attacker, build_defense, build_threeclass)
    for rate in ("per5min", "per30min")
}
# An empty prefix: each bit its own cell, before Flatten or a first GRU.
TABLE_SPECS["flatten-dense"] = _toy_spec()
TABLE_SPECS["gru-first"] = ModelSpec(5, 1, (GRULayer(3), Dense(2), Activation("softmax")), 2)


@pytest.mark.parametrize("name", sorted(TABLE_SPECS))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_table_path_matches_positional_reference(name, seed):
    spec = TABLE_SPECS[name]
    params = init_params(spec, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(10, spec.input_length, 1)).astype(np.float64)
    x[1] = x[0]  # a repeated window
    y = one_hot(rng.integers(0, spec.output_classes, size=len(x)), spec.output_classes)
    ref, caches = forward(spec, params, x)
    ref_grads = backward(spec, params, caches, y, l2_lambda=1e-3)
    out, caches = table_forward(spec, params, x)
    grads = table_backward(spec, params, caches, y, l2_lambda=1e-3)
    # Bounds fixed before measuring: float64 rounding of sums taken per
    # pattern instead of per position, and of the tanh form of the gates.
    assert np.abs(out - ref).max() <= 1e-12
    for layer, ref_layer in zip(grads, ref_grads):
        assert layer.keys() == ref_layer.keys()
        for key, r in ref_layer.items():
            assert layer[key].shape == r.shape
            assert np.abs(layer[key] - r).max() <= 1e-12 * np.abs(r).max()


def _refusing(*args, **kwargs):
    raise AssertionError("wrong path")


@pytest.mark.parametrize("kind", ["binary", "gaussian", "two-channel", "non-binary"])
def test_input_chooses_the_path(monkeypatch, kind):
    rng = np.random.default_rng(1)
    spec = _toy_spec()
    x = rng.integers(0, 2, size=(6, 2, 1)).astype(np.float64)
    if kind == "gaussian":
        x = rng.normal(size=x.shape)
    elif kind == "non-binary":
        x[3, 1, 0] = 0.5
    elif kind == "two-channel":
        spec = ModelSpec(2, 2, spec.layers, 2)
        x = rng.integers(0, 2, size=(6, 2, 2)).astype(np.float64)
    params = init_params(spec, seed=0)
    y = one_hot(rng.integers(0, 2, size=len(x)), 2)
    ref, caches = forward(spec, params, x)
    ref_grads = backward(spec, params, caches, y)
    if kind == "binary":
        monkeypatch.setattr(amisim.nn.training, "forward", _refusing)
        monkeypatch.setattr(amisim.nn.training, "backward", _refusing)
    else:
        monkeypatch.setattr(amisim.nn.training, "table_forward", _refusing)
        monkeypatch.setattr(amisim.nn.training, "BitWindowKernel", _refusing)
    _, out, grads = loss_and_grads(spec, params, x, y)
    assert np.abs(out - ref).max() <= 1e-12
    assert np.abs(grads[1]["W"] - ref_grads[1]["W"]).max() <= 1e-12
    assert np.abs(predict_proba(spec, params, x) - ref).max() <= 1e-12


@pytest.mark.parametrize("kind", ["binary", "two-channel"])
def test_predict_proba_of_no_rows_is_empty(kind):
    channels = 1 if kind == "binary" else 2
    spec = ModelSpec(2, channels, _toy_spec().layers, 2)
    out = predict_proba(spec, init_params(spec, seed=0), np.zeros((0, 2, channels)))
    assert out.shape == (0, 2)

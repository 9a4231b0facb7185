import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amisim.defense import build_defense
from amisim.errors import DataFormatError, DimensionError
from amisim.nn import (
    Activation,
    BitWindowKernel,
    Conv1D,
    Dense,
    Flatten,
    GRULayer,
    MaxPool1D,
    ModelSpec,
    backward,
    forward,
    infer_shapes,
    init_params,
    load_params,
    save_params,
)
from amisim.nn.model import _gru_step_cached


def _mlp(input_len, classes=2):
    return ModelSpec(
        input_length=input_len,
        input_channels=1,
        layers=(
            Flatten(),
            Dense(units=classes),
            Activation("softmax"),
        ),
        output_classes=classes,
    )


def test_zero_weight_dense_softmax_is_uniform():
    spec = _mlp(4)
    params = init_params(spec, seed=0)
    params.weights[1]["W"][:] = 0.0
    params.weights[1]["b"][:] = 0.0
    out, _ = forward(spec, params, np.random.default_rng(0).normal(size=(5, 4, 1)))
    assert np.allclose(out, 0.5)


def test_identity_conv_kernel():
    spec = ModelSpec(
        input_length=6,
        input_channels=1,
        layers=(Conv1D(filters=1, kernel_size=1), Flatten(), Activation("sigmoid")),
        output_classes=6,
    )
    params = init_params(spec, seed=1)
    params.weights[0]["W"][:] = 1.0
    params.weights[0]["b"][:] = 0.0
    x = np.arange(6.0).reshape(1, 6, 1)
    _, caches = forward(spec, params, x)
    flat_in = caches[2][1]  # sigmoid input = flattened conv output
    assert np.allclose(flat_in.ravel(), x.ravel())


def test_maxpool_definition():
    spec = ModelSpec(
        input_length=4,
        input_channels=1,
        layers=(MaxPool1D(pool_size=2), Flatten(), Activation("sigmoid")),
        output_classes=2,
    )
    params = init_params(spec, seed=0)
    x = np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1)
    _, caches = forward(spec, params, x)
    pooled = caches[2][1].ravel()  # sigmoid input = flattened pool output
    assert list(pooled) == [3.0, 5.0]


def test_maxpool_tie_sends_gradient_to_first_maximum():
    # A 1-tap conv copies channel 0 ([2, 2, 1, 2]: three tied maxima) and
    # ignores channel 1, whose distinct values show in the conv weight
    # gradient which position the pool routed the gradient to.
    spec = ModelSpec(
        input_length=4,
        input_channels=2,
        layers=(Conv1D(filters=1, kernel_size=1), MaxPool1D(pool_size=4),
                Flatten(), Activation("sigmoid")),
        output_classes=1,
    )
    params = init_params(spec, seed=0)
    params.weights[0]["W"][:] = [[[1.0], [0.0]]]
    params.weights[0]["b"][:] = 0.0
    x = np.array([[2.0, 1.0], [2.0, 10.0], [1.0, 100.0], [2.0, 1000.0]])[None]
    _, caches = forward(spec, params, x)
    assert caches[3][1].tolist() == [[2.0]]  # the pooled value
    grads = backward(spec, params, caches, np.zeros((1, 1)))
    g = grads[0]["b"][0]  # the gradient reaching the pool output
    assert g != 0.0
    assert grads[0]["W"][0, 0, 0] == 2.0 * g
    assert grads[0]["W"][0, 1, 0] == 1.0 * g  # channel 1 at position 0


def test_conv_and_pool_output_lengths():
    spec = ModelSpec(
        input_length=21,
        input_channels=2,
        layers=(
            Conv1D(filters=3, kernel_size=4, stride=2),
            MaxPool1D(pool_size=3),
            Flatten(),
            Dense(units=2),
            Activation("softmax"),
        ),
        output_classes=2,
    )
    shapes = infer_shapes(spec)
    assert shapes[1] == ("seq", (21 - 4) // 2 + 1, 3)  # conv: floor((L-K)/s)+1
    assert shapes[2] == ("seq", 9 // 3, 3)  # pool: floor(L/p)


def test_shape_mismatch_names_layer():
    with pytest.raises(DimensionError) as exc:
        ModelSpec(
            input_length=8,
            input_channels=1,
            layers=(Dense(units=2), Activation("softmax")),
            output_classes=2,
        )
    assert "layer 0" in str(exc.value)


def test_forward_rejects_wrong_input_shape():
    spec = _mlp(4)
    params = init_params(spec, seed=0)
    with pytest.raises(DimensionError):
        forward(spec, params, np.zeros((2, 5, 1)))


def test_gru_step_zero_weights():
    units, channels = 3, 2
    weights = {
        "Wz": np.zeros((channels + units, units)),
        "bz": np.zeros(units),
        "Wr": np.zeros((channels + units, units)),
        "br": np.zeros(units),
        "Wh": np.zeros((channels + units, units)),
        "bh": np.zeros(units),
    }
    x = np.random.default_rng(0).normal(size=(4, channels))
    h = np.zeros((4, units))
    h_next = _gru_step_cached(weights, x, h)[0]
    assert np.allclose(h_next, 0.0)


def test_gru_step_stays_in_unit_interval():
    rng = np.random.default_rng(7)
    units, channels = 5, 3
    weights = {
        "Wz": rng.normal(size=(channels + units, units)),
        "bz": rng.normal(size=units),
        "Wr": rng.normal(size=(channels + units, units)),
        "br": rng.normal(size=units),
        "Wh": rng.normal(size=(channels + units, units)),
        "bh": rng.normal(size=units),
    }
    h = rng.uniform(-0.99, 0.99, size=(6, units))
    for _ in range(20):
        h = _gru_step_cached(weights, rng.normal(size=(6, channels)), h)[0]
        assert np.all(np.abs(h) < 1.0)


def test_gru_gates_in_open_interval():
    rng = np.random.default_rng(3)
    units, channels = 4, 2
    weights = {
        "Wz": rng.normal(size=(channels + units, units)) * 3,
        "bz": rng.normal(size=units),
        "Wr": rng.normal(size=(channels + units, units)) * 3,
        "br": rng.normal(size=units),
        "Wh": rng.normal(size=(channels + units, units)),
        "bh": rng.normal(size=units),
    }
    _, (_, _, z, r, _) = _gru_step_cached(
        weights, rng.normal(size=(8, channels)), rng.normal(size=(8, units))
    )
    assert np.all((z > 0) & (z < 1))
    assert np.all((r > 0) & (r < 1))


def test_params_serialize_round_trip_bit_exact(tmp_path):
    spec = ModelSpec(
        input_length=12,
        input_channels=1,
        layers=(
            Conv1D(filters=4, kernel_size=3),
            Activation("relu"),
            GRULayer(units=5),
            Dense(units=2),
            Activation("softmax"),
        ),
        output_classes=2,
    )
    params = init_params(spec, seed=9)
    path = tmp_path / "params.bin"
    save_params(path, params)
    loaded = load_params(path, spec)
    for a, b in zip(params.weights, loaded.weights):
        for key in a:
            assert a[key].tobytes() == b[key].tobytes()
    # Weights only: no optimiser state rides along.
    n_weights = sum(arr.size for layer in params.weights for arr in layer.values())
    assert path.stat().st_size <= 8 * n_weights + 1024


def test_params_load_draws_no_weights(tmp_path, monkeypatch):
    import amisim.nn.model

    spec = build_defense("per30min")
    params = init_params(spec, seed=4)
    path = tmp_path / "params.bin"
    save_params(path, params)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_params drew initial weights")

    monkeypatch.setattr(amisim.nn.model, "_glorot", no_draw)
    loaded = load_params(path, spec)
    for a, b in zip(params.weights, loaded.weights):
        assert sorted(a) == sorted(b)
        for key in a:
            assert a[key].tobytes() == b[key].tobytes()


def test_params_load_refuses_format_version_1(tmp_path):
    spec = _mlp(4)
    path = tmp_path / "params.bin"
    save_params(path, init_params(spec, seed=0))
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])
    with pytest.raises(DataFormatError, match="version 1 "):
        load_params(path, spec)


def test_params_load_rejects_wrong_spec(tmp_path):
    spec = _mlp(4)
    other = _mlp(5)
    params = init_params(spec, seed=0)
    path = tmp_path / "params.bin"
    save_params(path, params)
    with pytest.raises(DataFormatError):
        load_params(path, other)


def test_params_load_rejects_every_truncation(tmp_path):
    spec = _mlp(4)
    path = tmp_path / "params.bin"
    save_params(path, init_params(spec, seed=0))
    blob = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(DataFormatError):
            load_params(cut, spec)


def test_params_load_rejects_undecodable_array_name(tmp_path):
    spec = _mlp(4)
    path = tmp_path / "params.bin"
    save_params(path, init_params(spec, seed=0))
    blob = bytearray(path.read_bytes())
    blob[blob.index(b"\x01\x00\x00\x00W", 44) + 4] = 0xFF  # the first array name, "W"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="names mismatch"):
        load_params(path, spec)


@pytest.mark.parametrize("group", ["weights"])
def test_params_load_rejects_misshapen_array_in_every_group(tmp_path, group):
    spec = _mlp(4)
    params = init_params(spec, seed=0)
    next(layer for layer in getattr(params, group) if "W" in layer)["W"] = np.zeros(1)
    path = tmp_path / "params.bin"
    save_params(path, params)
    with pytest.raises(DataFormatError, match="shape mismatch"):
        load_params(path, spec)


KERNEL_SPECS = {
    "per5min": build_defense("per5min"),
    "per30min": build_defense("per30min"),
    "flatten-dense": _mlp(6),
}


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_bit_window_kernel_matches_forward(name, seed, data):
    spec = KERNEL_SPECS[name]
    params = init_params(spec, seed=seed)
    rows = data.draw(st.integers(1, 6))
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=rows * spec.input_length,
                 max_size=rows * spec.input_length)
    )
    windows = np.array(bits, dtype=np.float64).reshape(rows, spec.input_length)
    ref, _ = forward(spec, params, windows[:, :, None])
    out = BitWindowKernel(spec, params)(windows)
    # Float64 rounding only: the table and the hoisted GRU input projection
    # sum the same products in another order, and the gates take the tanh
    # form of the sigmoid.
    assert np.abs(out - ref).max() <= 1e-12
    assert np.array_equal(out.argmax(axis=1), ref.argmax(axis=1))


def test_bit_window_kernel_table_sizes_and_input_checks():
    per5, per30, flat = (
        BitWindowKernel(KERNEL_SPECS[name], init_params(KERNEL_SPECS[name], seed=0))
        for name in ("per5min", "per30min", "flatten-dense")
    )
    assert (per5.width, per5.stride, per5.table.shape) == (6, 4, (64, 3 * 200))
    assert (per30.width, per30.stride, per30.table.shape) == (8, 2, (256, 3 * 128))
    assert (flat.width, flat.stride, flat.table.shape) == (1, 1, (2, 1))
    with pytest.raises(DataFormatError):
        flat(np.full((1, 6), 0.5))
    with pytest.raises(DimensionError):
        flat(np.zeros((1, 7)))


def test_bit_window_kernel_span():
    spans = {name: BitWindowKernel(spec, init_params(spec, seed=0)).span
             for name, spec in KERNEL_SPECS.items()}
    # per5min pools 98 conv outputs by 4 and drops the last two; per30min
    # pools 29 by 2 and drops one; Flatten -> Dense reads every bit.
    assert spans == {"per5min": 98, "per30min": 34, "flatten-dense": 6}


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_bit_window_kernel_ignores_bits_from_span_on(name, seed, data):
    spec = KERNEL_SPECS[name]
    kernel = BitWindowKernel(spec, init_params(spec, seed=seed))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=spec.input_length,
                              max_size=spec.input_length))
    unread = spec.input_length - kernel.span
    flips = data.draw(st.lists(st.booleans(), min_size=unread, max_size=unread))
    window = np.array([bits], dtype=np.float64)
    flipped = window.copy()
    flipped[0, kernel.span :] = np.where(flips, 1 - window[0, kernel.span :], window[0, kernel.span :])
    assert np.array_equal(kernel(flipped), kernel(window))

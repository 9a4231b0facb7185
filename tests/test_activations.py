import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amisim.nn import elu, relu, sigmoid, softmax, tanh


def test_relu_values():
    assert relu(np.array([-3.0]))[0] == 0.0
    assert relu(np.array([2.0]))[0] == 2.0


def test_elu_values():
    x = np.array([-1.0, 0.0, 2.0])
    out = elu(x)
    assert out[0] == np.expm1(-1.0)
    assert out[1] == 0.0
    assert out[2] == 2.0


def test_sigmoid_tanh_ranges():
    # Beyond |x| ~ 37 float64 rounds sigmoid to exactly 0/1, so probe inside.
    x = np.linspace(-30, 30, 101)
    s = sigmoid(x)
    assert np.all((s > 0) & (s < 1))
    assert abs(sigmoid(np.array([0.0]))[0] - 0.5) < 1e-15
    assert np.all(np.abs(tanh(x)) <= 1.0)
    assert np.isfinite(sigmoid(np.array([-1000.0, 1000.0]))).all()


def _sigmoid_two_branch(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _elu_two_branch(x):
    out = x.copy()
    neg = x < 0
    out[neg] = np.expm1(x[neg])
    return out


def test_sigmoid_and_elu_equal_two_branch_definitions_bitwise():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0]
    x = np.concatenate([special, np.random.default_rng(5).standard_normal(2000) * 50])
    with np.errstate(all="raise", under="ignore"):  # exp(-745) is subnormal
        assert sigmoid(x).tobytes() == _sigmoid_two_branch(x).tobytes()
        assert elu(x).tobytes() == _elu_two_branch(x).tobytes()


def test_softmax_uniform():
    out = softmax(np.array([0.0, 0.0]))
    assert np.allclose(out, [0.5, 0.5])
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_extreme_logits_no_overflow():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    assert out[0] > 0.999999
    assert out[1] < 1e-6


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-700, max_value=700, allow_nan=False),
        min_size=1,
        max_size=10,
    )
)
def test_softmax_rows_are_distributions(logits):
    out = softmax(np.array(logits))
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-9

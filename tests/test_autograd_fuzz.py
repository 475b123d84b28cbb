"""Fuzz testing of the autograd engine.

Hypothesis builds random expression DAGs from the op vocabulary and
checks the analytic gradient against central finite differences.  This
is the broadest correctness net over :mod:`repro.nn.tensor`: any op
whose backward closure is wrong fails here on some composition.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.nn import Tensor

# Finite differences lose all precision once forward values get huge
# (an eps-perturbation falls below float64 resolution), so examples
# whose outputs leave this range are rejected rather than compared
# against a meaningless numeric gradient.
_WELL_CONDITIONED = 1e6
# Likewise for gradients: where the analytic gradient is ~1e6, the
# truncation error of a central difference (eps² · f''') swamps the
# 1e-3 relative tolerance, so steep examples prove nothing either way.
_GRAD_CONDITIONED = 1e4


def _assume_well_conditioned(value: np.ndarray) -> None:
    value = np.asarray(value)
    assume(np.all(np.isfinite(value)) and np.abs(value).max() < _WELL_CONDITIONED)


def _assume_grad_conditioned(*grads: np.ndarray) -> None:
    for grad in grads:
        grad = np.asarray(grad)
        assume(np.all(np.isfinite(grad)) and np.abs(grad).max() < _GRAD_CONDITIONED)

# Unary ops applied to an intermediate (name, callable, input-domain-shift).
_UNARY = [
    ("sigmoid", lambda t: t.sigmoid(), 0.0),
    ("softplus", lambda t: t.softplus(), 0.0),
    ("exp", lambda t: (t * 0.3).exp(), 0.0),
    ("relu_shifted", lambda t: (t + 0.37).relu(), 0.0),  # shift avoids the kink
    ("square", lambda t: t * t, 0.0),
    ("scale", lambda t: t * -1.7 + 0.5, 0.0),
    ("leaky_relu_shifted", lambda t: (t - 0.41).leaky_relu(0.2), 0.0),
]

_BINARY = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("div_safe", lambda a, b: a / (b * b + 1.0)),
]


def numeric_grad(func, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        high = func(x)
        flat[i] = original - eps
        low = func(x)
        flat[i] = original
        out[i] = (high - low) / (2 * eps)
    return grad


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ops=st.lists(st.integers(0, len(_UNARY) - 1), min_size=1, max_size=5),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
)
def test_random_unary_chains(seed, ops, rows, cols):
    """Chains of unary ops: autograd == finite differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))

    def build(array):
        t = Tensor(array, requires_grad=isinstance(array, np.ndarray))
        out = t
        for op_index in ops:
            out = _UNARY[op_index][1](out)
        return out, t

    out, t = build(x.copy())
    _assume_well_conditioned(out.data)
    out.sum().backward()
    _assume_grad_conditioned(t.grad)

    def scalar(array):
        result, _ = build(array)
        return float(result.sum().data)

    expected = numeric_grad(scalar, x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=1e-5, rtol=1e-3)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    pairs=st.lists(
        st.tuples(st.integers(0, len(_BINARY) - 1), st.integers(0, len(_UNARY) - 1)),
        min_size=1,
        max_size=4,
    ),
)
def test_random_binary_dags(seed, pairs):
    """DAGs mixing two leaves through binary + unary ops."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 2))
    y = rng.normal(size=(3, 2))

    def build(ax, ay):
        a = Tensor(ax, requires_grad=True)
        b = Tensor(ay, requires_grad=True)
        out = a
        other = b
        for bin_index, un_index in pairs:
            out = _BINARY[bin_index][1](out, other)
            out = _UNARY[un_index][1](out)
            other = other + out * 0.1  # reuse: creates genuine DAG sharing
        return out.sum() + other.sum(), a, b

    loss, a, b = build(x.copy(), y.copy())
    _assume_well_conditioned(loss.data)
    loss.backward()
    _assume_grad_conditioned(a.grad, b.grad)

    def scalar_wrt_x(array):
        value, _, _ = build(array, y.copy())
        return float(value.data)

    def scalar_wrt_y(array):
        value, _, _ = build(x.copy(), array)
        return float(value.data)

    np.testing.assert_allclose(a.grad, numeric_grad(scalar_wrt_x, x.copy()), atol=1e-5, rtol=1e-3)
    np.testing.assert_allclose(b.grad, numeric_grad(scalar_wrt_y, y.copy()), atol=1e-5, rtol=1e-3)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    rows=st.integers(2, 5),
    hidden=st.integers(1, 4),
)
def test_random_two_layer_network_gradients(seed, rows, hidden):
    """Random MLP forward: weight gradients match finite differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 3))
    w1 = rng.normal(size=(3, hidden))
    w2 = rng.normal(size=(hidden, 1))

    def build(w1_arr, w2_arr):
        a = Tensor(w1_arr, requires_grad=True)
        b = Tensor(w2_arr, requires_grad=True)
        out = ((Tensor(x) @ a).softplus() @ b).sigmoid().sum()
        return out, a, b

    loss, a, b = build(w1.copy(), w2.copy())
    loss.backward()
    np.testing.assert_allclose(
        a.grad,
        numeric_grad(lambda arr: float(build(arr, w2.copy())[0].data), w1.copy()),
        atol=1e-5,
        rtol=1e-3,
    )
    np.testing.assert_allclose(
        b.grad,
        numeric_grad(lambda arr: float(build(w1.copy(), arr)[0].data), w2.copy()),
        atol=1e-5,
        rtol=1e-3,
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    num_edges=st.integers(1, 12),
    num_nodes=st.integers(1, 5),
    agg=st.sampled_from(["sum", "mean"]),
)
def test_scatter_gradients_fuzz(seed, num_edges, num_nodes, agg):
    """Scatter sum/mean gradients match finite differences."""
    from repro.gnn.scatter import scatter_mean, scatter_sum

    rng = np.random.default_rng(seed)
    messages = rng.normal(size=(num_edges, 2))
    index = rng.integers(0, num_nodes, size=num_edges)
    scatter = scatter_sum if agg == "sum" else scatter_mean

    def build(arr):
        t = Tensor(arr, requires_grad=True)
        out = scatter(t, index, num_nodes)
        return (out * out).sum(), t

    loss, t = build(messages.copy())
    loss.backward()
    expected = numeric_grad(lambda arr: float(build(arr)[0].data), messages.copy())
    np.testing.assert_allclose(t.grad, expected, atol=1e-5, rtol=1e-3)

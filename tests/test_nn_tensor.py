"""Autograd engine tests, including finite-difference gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, no_grad


def numeric_grad(func, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued func of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
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


def check_gradient(build, x: np.ndarray, atol=1e-6, rtol=1e-4):
    """Compare autograd gradient of scalar build(Tensor) with numeric grad."""
    tensor = Tensor(x.copy(), requires_grad=True)
    loss = build(tensor)
    loss.backward()
    expected = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x.copy())
    np.testing.assert_allclose(tensor.grad, expected, atol=atol, rtol=rtol)


def sq(t: Tensor) -> Tensor:
    """Elementwise square through the product rule."""
    return t * t


RNG = np.random.default_rng(0)


class TestBasicOps:
    def test_add_forward(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        assert out.data.tolist() == [4.0, 6.0]

    def test_scalar_broadcast(self):
        out = Tensor([1.0, 2.0]) + 5.0
        assert out.data.tolist() == [6.0, 7.0]

    def test_radd_rmul(self):
        assert (5.0 + Tensor([1.0])).data.tolist() == [6.0]
        assert (2.0 * Tensor([3.0])).data.tolist() == [6.0]

    def test_sub_div(self):
        assert (Tensor([4.0]) - 1.0).data.tolist() == [3.0]
        assert (Tensor([4.0]) / 2.0).data.tolist() == [2.0]

    def test_matmul_forward(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert (a @ b).data.tolist() == [[3.0], [7.0]]

    def test_item(self):
        assert Tensor([[3.5]]).item() == 3.5
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

class TestGradients:
    def test_add_grad(self):
        check_gradient(lambda t: (t + t).sum(), RNG.normal(size=(3, 2)))

    def test_mul_grad(self):
        check_gradient(lambda t: (t * t * 2.0).sum(), RNG.normal(size=(4,)))

    def test_div_grad(self):
        check_gradient(lambda t: (t / 3.0 + Tensor(2.0) / (t + 10.0)).sum(), RNG.normal(size=(5,)))

    def test_matmul_grad(self):
        w = RNG.normal(size=(3, 2))
        check_gradient(lambda t: (t @ Tensor(w)).sum(), RNG.normal(size=(4, 3)))

    def test_matmul_grad_right(self):
        x = RNG.normal(size=(4, 3))
        check_gradient(lambda t: (Tensor(x) @ t).sum(), RNG.normal(size=(3, 2)))

    def test_matvec_grad(self):
        v = RNG.normal(size=(3,))
        check_gradient(lambda t: (t @ Tensor(v)).sum(), RNG.normal(size=(4, 3)))

    def test_exp_grad(self):
        check_gradient(lambda t: t.exp().sum(), RNG.normal(size=(4,)))

    def test_sigmoid_grad(self):
        check_gradient(lambda t: t.sigmoid().sum(), RNG.normal(size=(6,)))

    def test_relu_grad(self):
        x = RNG.normal(size=(10,))
        x[np.abs(x) < 0.1] += 0.5  # avoid the kink
        check_gradient(lambda t: t.relu().sum(), x)

    def test_leaky_relu_grad(self):
        x = RNG.normal(size=(10,)) + 0.2
        x[np.abs(x) < 0.1] += 0.5
        check_gradient(lambda t: t.leaky_relu(0.1).sum(), x)

    def test_mean_axis_grad(self):
        check_gradient(lambda t: sq(t.mean(axis=0)).sum(), RNG.normal(size=(4, 3)))

    def test_sum_keepdims_grad(self):
        check_gradient(
            lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), RNG.normal(size=(3, 4))
        )

    def test_reshape_transpose_grad(self):
        check_gradient(
            lambda t: sq(t.reshape(6, 2).transpose()).sum(), RNG.normal(size=(3, 4))
        )

    def test_take_grad_with_repeats(self):
        idx = np.array([0, 1, 1, 2])
        check_gradient(lambda t: sq(t.take(idx)).sum(), RNG.normal(size=(3, 2)))

    def test_slice_rows_grad(self):
        check_gradient(lambda t: sq(t.slice_rows(1, 3)).sum(), RNG.normal(size=(4, 2)))

    def test_broadcast_bias_grad(self):
        bias = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        x = Tensor(RNG.normal(size=(5, 3)))
        sq(x + bias).sum().backward()
        assert bias.grad.shape == (3,)
        np.testing.assert_allclose(bias.grad, (2 * (x.data + bias.data)).sum(axis=0))


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        t = Tensor([2.0], requires_grad=True)
        out = t * 3.0 + t * 4.0
        out.backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2.0).backward()
        t.zero_grad()
        assert t.grad is None

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_context(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_no_grad_is_per_thread(self):
        # Interleaved no_grad blocks on two threads (a serving worker and a
        # trainer) used to leave the process-global flag stuck off.
        import threading

        inside, leave = threading.Barrier(3), threading.Barrier(3)

        def serve_like():
            with no_grad():
                inside.wait(5.0)
                leave.wait(5.0)

        threads = [threading.Thread(target=serve_like) for _ in range(2)]
        for thread in threads:
            thread.start()
        inside.wait(5.0)  # both threads are inside no_grad right now
        t = Tensor([1.0], requires_grad=True)
        out = t * 2.0
        assert out.requires_grad, "another thread's no_grad leaked into this one"
        leave.wait(5.0)
        for thread in threads:
            thread.join(5.0)
        assert not any(thread.is_alive() for thread in threads)
        (Tensor([1.0], requires_grad=True) * 2.0).backward()  # still on afterwards

    def test_detach(self):
        t = Tensor([1.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_diamond_graph(self):
        # f(t) = (a + b) where a = t*2, b = t*3; df/dt = 5
        t = Tensor([1.0], requires_grad=True)
        a = t * 2.0
        b = t * 3.0
        (a + b).backward()
        np.testing.assert_allclose(t.grad, [5.0])

    def test_deep_chain_no_recursion_error(self):
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 1.0
        out.backward()
        np.testing.assert_allclose(t.grad, [1.0])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=10),
    st.lists(st.floats(-3, 3), min_size=1, max_size=10),
)
def test_add_commutes(xs, ys):
    n = min(len(xs), len(ys))
    a, b = np.array(xs[:n]), np.array(ys[:n])
    left = (Tensor(a) + Tensor(b)).data
    right = (Tensor(b) + Tensor(a)).data
    np.testing.assert_allclose(left, right)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=12))
def test_sigmoid_bounded_and_monotone(xs):
    x = np.sort(np.array(xs))
    s = Tensor(x).sigmoid().data
    assert np.all(s >= 0) and np.all(s <= 1)
    assert np.all(np.diff(s) >= -1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 1000))
def test_matmul_grad_random_shapes(n, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    w = rng.normal(size=(m, 2))
    t = Tensor(x, requires_grad=True)
    sq(t @ Tensor(w)).sum().backward()
    expected = 2 * (x @ w) @ w.T
    np.testing.assert_allclose(t.grad, expected, atol=1e-8)

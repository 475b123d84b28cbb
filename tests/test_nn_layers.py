"""Tests for modules, layers, losses and optimizers."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    AdamW,
    Embedding,
    Linear,
    MLP,
    Module,
    Parameter,
    Tensor,
    binary_cross_entropy_with_logits,
    bpr_loss,
    mse_loss,
)
from tests.oracles import clip_grad_norm


def rng():
    return np.random.default_rng(7)


class TestModule:
    def test_parameter_discovery_nested(self):
        class Inner(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(2))

        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()
                self.bias = Parameter(np.zeros(3))
                self.by_rel = {"a": Inner(), "b": Parameter(np.ones(1))}
                self.stack = [Inner(), Inner()]

        model = Outer()
        names = [name for name, _ in model.named_parameters()]
        assert "inner.w" in names
        assert "bias" in names
        assert "by_rel.a.w" in names
        assert "by_rel.b" in names
        assert "stack.0.w" in names and "stack.1.w" in names
        assert model.num_parameters() == 2 + 3 + 2 + 1 + 2 + 2

    def test_state_dict_roundtrip(self):
        a = MLP([3, 4, 1], rng())
        b = MLP([3, 4, 1], np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_mismatch(self):
        a = MLP([3, 4, 1], rng())
        state = a.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_state_dict_shape_mismatch(self):
        a = MLP([3, 4, 1], rng())
        state = a.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_zero_grad(self):
        model = Linear(2, 2, rng())
        model(Tensor(np.ones((1, 2)))).sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(4, 3, rng())
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_linear_no_bias(self):
        layer = Linear(4, 3, rng(), bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_mlp_requires_two_dims(self):
        with pytest.raises(ValueError):
            MLP([3], rng())

    def test_mlp_forward_and_backward(self):
        model = MLP([3, 8, 8, 1], rng())
        x = Tensor(np.random.default_rng(1).normal(size=(10, 3)))
        out = model(x)
        loss = (out * out).mean()
        loss.backward()
        for param in model.parameters():
            assert param.grad is not None

    def test_embedding_lookup_and_grad(self):
        emb = Embedding(5, 3, rng())
        out = emb(np.array([0, 0, 4]))
        assert out.shape == (3, 3)
        out.sum().backward()
        # Row 0 used twice => gradient 2, row 4 once => 1, others 0.
        np.testing.assert_allclose(emb.weight.grad[0], 2.0)
        np.testing.assert_allclose(emb.weight.grad[4], 1.0)
        np.testing.assert_allclose(emb.weight.grad[1], 0.0)

    def test_embedding_out_of_range(self):
        emb = Embedding(5, 3, rng())
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

class TestLosses:
    def test_bce_matches_reference(self):
        logits = Tensor(np.array([0.0, 2.0, -2.0]))
        targets = np.array([1.0, 1.0, 0.0])
        loss = binary_cross_entropy_with_logits(logits, targets)
        p = 1 / (1 + np.exp(-logits.data))
        expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert loss.item() == pytest.approx(expected, rel=1e-9)

    def test_bce_extreme_logits_stable(self):
        logits = Tensor(np.array([1000.0, -1000.0]))
        loss = binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_bce_pos_weight(self):
        logits = Tensor(np.array([0.0, 0.0]))
        plain = binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        weighted = binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]), pos_weight=3.0)
        assert weighted.item() > plain.item()

    def test_bce_gradient_sign(self):
        logits = Tensor(np.array([0.0]), requires_grad=True)
        binary_cross_entropy_with_logits(logits, np.array([1.0])).backward()
        assert logits.grad[0] < 0  # push logit up for a positive

    def test_mse(self):
        pred = Tensor(np.array([1.0, 3.0]))
        target = np.array([0.0, 0.0])
        assert mse_loss(pred, target).item() == pytest.approx(5.0)

    def test_bpr_loss_ordering(self):
        good = bpr_loss(Tensor(np.array([5.0])), Tensor(np.array([0.0]))).item()
        bad = bpr_loss(Tensor(np.array([0.0])), Tensor(np.array([5.0]))).item()
        assert good < bad
        equal = bpr_loss(Tensor(np.array([1.0])), Tensor(np.array([1.0]))).item()
        assert equal == pytest.approx(np.log(2.0), rel=1e-6)

    def test_bpr_stable_extremes(self):
        loss = bpr_loss(Tensor(np.array([-1000.0])), Tensor(np.array([1000.0])))
        assert np.isfinite(loss.item())


class TestOptim:
    def quadratic_problem(self):
        # minimize ||w - target||^2
        target = np.array([1.0, -2.0, 3.0])
        w = Parameter(np.zeros(3))
        return w, target

    def run(self, optimizer, w, target, steps=300):
        for _ in range(steps):
            optimizer.zero_grad()
            diff = w - Tensor(target)
            loss = (diff * diff).sum()
            loss.backward()
            optimizer.step()
        return np.abs(w.data - target).max()

    def test_adam_converges(self):
        w, target = self.quadratic_problem()
        assert self.run(Adam([w], lr=0.1), w, target, steps=500) < 1e-4

    def test_adamw_decay_shrinks_weights(self):
        w = Parameter(np.full(3, 10.0))
        opt = AdamW([w], lr=0.01, weight_decay=0.1)
        for _ in range(10):
            opt.zero_grad()
            (w * 0.0).sum().backward()
            opt.step()
        assert np.all(np.abs(w.data) < 10.0)

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_clip_grad_norm(self):
        w = Parameter(np.zeros(4))
        w.grad = np.full(4, 10.0)
        norm = clip_grad_norm([w], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0)

    def test_clip_noop_under_threshold(self):
        w = Parameter(np.zeros(2))
        w.grad = np.array([0.3, 0.4])
        clip_grad_norm([w], max_norm=1.0)
        np.testing.assert_allclose(w.grad, [0.3, 0.4])

class TestEndToEndLearning:
    def test_mlp_learns_xor(self):
        generator = np.random.default_rng(0)
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 8)
        y = np.array([0.0, 1.0, 1.0, 0.0] * 8)
        model = MLP([2, 16, 1], generator)
        opt = Adam(model.parameters(), lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            logits = model(Tensor(x)).reshape(len(x))
            loss = binary_cross_entropy_with_logits(logits, y)
            loss.backward()
            opt.step()
        preds = (model(Tensor(x)).data.reshape(-1) > 0).astype(float)
        assert (preds == y).mean() == 1.0

    def test_linear_regression_recovers_weights(self):
        generator = np.random.default_rng(1)
        true_w = np.array([[2.0], [-3.0]])
        x = generator.normal(size=(200, 2))
        y = x @ true_w
        model = Linear(2, 1, generator)
        opt = Adam(model.parameters(), lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            loss = mse_loss(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        np.testing.assert_allclose(model.weight.data, true_w, atol=1e-3)

"""Tests for modules, layers, losses, optimizers, and schedules."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    AdamW,
    CosineSchedule,
    Embedding,
    LayerNorm,
    Linear,
    MLP,
    Module,
    Parameter,
    ReLU,
    SGD,
    Sequential,
    StepSchedule,
    Tensor,
    binary_cross_entropy_with_logits,
    bpr_loss,
    clip_grad_norm,
    cross_entropy,
    huber_loss,
    l1_loss,
    mse_loss,
)


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
        loss = (model(x) ** 2).mean()
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

    def test_layernorm_normalizes(self):
        layer = LayerNorm(6)
        x = Tensor(np.random.default_rng(2).normal(5.0, 3.0, size=(4, 6)))
        out = layer(x)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_grad_flows(self):
        layer = LayerNorm(4)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4)), requires_grad=True)
        (layer(x) ** 2).sum().backward()
        assert x.grad is not None
        assert layer.gamma.grad is not None

    def test_sequential_indexing(self):
        model = Sequential(Linear(2, 2, rng()), ReLU())
        assert len(model) == 2
        assert isinstance(model[1], ReLU)


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

    def test_cross_entropy_matches_reference(self):
        logits_data = np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        targets = np.array([0, 2])
        loss = cross_entropy(Tensor(logits_data), targets)
        shifted = logits_data - logits_data.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(2), targets].mean()
        assert loss.item() == pytest.approx(expected, rel=1e-9)

    def test_cross_entropy_shape_check(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))

    def test_mse_and_l1(self):
        pred = Tensor(np.array([1.0, 3.0]))
        target = np.array([0.0, 0.0])
        assert mse_loss(pred, target).item() == pytest.approx(5.0)
        assert l1_loss(pred, target).item() == pytest.approx(2.0)

    def test_huber_between_l1_and_l2_regimes(self):
        small = huber_loss(Tensor(np.array([0.1])), np.array([0.0]), delta=1.0).item()
        assert small == pytest.approx(0.5 * 0.01, rel=0.01)
        big_h = huber_loss(Tensor(np.array([100.0])), np.array([0.0]), delta=1.0).item()
        assert big_h < 0.5 * 100.0**2  # far below the quadratic loss

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
            loss = ((w - Tensor(target)) ** 2).sum()
            loss.backward()
            optimizer.step()
        return np.abs(w.data - target).max()

    def test_sgd_converges(self):
        w, target = self.quadratic_problem()
        assert self.run(SGD([w], lr=0.1), w, target) < 1e-6

    def test_sgd_momentum_converges(self):
        w, target = self.quadratic_problem()
        assert self.run(SGD([w], lr=0.05, momentum=0.9), w, target) < 1e-6

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

    def test_weight_decay_sgd(self):
        w = Parameter(np.full(2, 4.0))
        opt = SGD([w], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (w * 0.0).sum().backward()
        opt.step()
        np.testing.assert_allclose(w.data, 4.0 - 0.1 * 4.0)

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

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

    def test_step_schedule(self):
        w = Parameter(np.zeros(1))
        opt = SGD([w], lr=1.0)
        sched = StepSchedule(opt, step_size=2, gamma=0.1)
        sched.step()
        assert opt.lr == pytest.approx(1.0)
        sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_cosine_schedule_endpoints(self):
        w = Parameter(np.zeros(1))
        opt = SGD([w], lr=1.0)
        sched = CosineSchedule(opt, total_epochs=10, min_lr=0.0)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.0, abs=1e-12)


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
        opt = SGD(model.parameters(), lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = mse_loss(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        np.testing.assert_allclose(model.weight.data, true_w, atol=1e-3)

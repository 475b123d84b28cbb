"""Tests for gradcheck and the golden end-to-end result."""

import numpy as np
import pytest

from repro.nn import Tensor
from tests.gradcheck import check_gradients, numeric_gradient


class TestGradcheck:
    def test_passes_for_correct_op(self):
        rng = np.random.default_rng(0)
        check_gradients(lambda t: (t.sigmoid() * t).sum(), rng.normal(size=(3, 2)))

    def test_fails_for_broken_gradient(self):
        # sin forward with cos-free (wrong) backward via a hand-built op.
        def broken(t: Tensor) -> Tensor:
            data = np.sin(t.data)

            def backward(grad):
                if t.requires_grad:
                    t._accumulate(grad)  # wrong: missing cos factor

            return Tensor._make(data, (t,), backward).sum()

        with pytest.raises(AssertionError):
            check_gradients(broken, np.array([0.7, -1.2]))

    def test_scalar_output_required(self):
        with pytest.raises(ValueError):
            check_gradients(lambda t: t * 2.0, np.ones(3))

    def test_numeric_gradient_of_quadratic(self):
        grad = numeric_gradient(lambda arr: float((arr**2).sum()), np.array([1.0, -2.0]))
        np.testing.assert_allclose(grad, [2.0, -4.0], atol=1e-6)


class TestGoldenPipeline:
    def test_churn_auroc_regression_guard(self):
        """Golden number: the flagship demo's AUROC must not silently drift.

        Same seeds, same dataset, same config as the quickstart; any
        change to sampler/encoder/trainer semantics that moves this by
        more than the tolerance should be deliberate.
        """
        from repro.datasets import make_ecommerce
        from repro.eval import make_temporal_split
        from repro.pql import PredictiveQueryPlanner

        db = make_ecommerce(num_customers=300, seed=0)
        start, end = db.time_span()
        split = make_temporal_split(start, end, horizon_seconds=30 * 86400, num_train_cutoffs=3)
        planner = PredictiveQueryPlanner(db)
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        auroc = model.evaluate(split.test_cutoff)["auroc"]
        assert auroc == pytest.approx(0.920, abs=0.03)

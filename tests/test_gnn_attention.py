"""Tests for segment softmax and the attention-based convolution."""

import numpy as np
import pytest

from repro.gnn import GraphMetadata, HeteroGATConv, HeteroGNN, segment_softmax
from repro.gnn.scatter import scatter_sum
from repro.graph import NeighborSampler, build_graph
from repro.nn import Tensor
from tests.test_gnn import shop_db


class TestSegmentSoftmax:
    def test_segments_sum_to_one(self):
        scores = Tensor(np.random.default_rng(0).normal(size=(7, 1)))
        index = np.array([0, 0, 0, 1, 1, 2, 2])
        alpha = segment_softmax(scores, index, 3)
        sums = scatter_sum(alpha, index, 3)
        np.testing.assert_allclose(sums.data, 1.0)

    def test_matches_dense_softmax(self):
        scores = Tensor(np.array([[1.0], [2.0], [3.0]]))
        alpha = segment_softmax(scores, np.array([0, 0, 0]), 1)
        expected = np.exp([1.0, 2.0, 3.0])
        expected /= expected.sum()
        np.testing.assert_allclose(alpha.data.ravel(), expected)

    def test_single_edge_segment_is_one(self):
        alpha = segment_softmax(Tensor(np.array([[-5.0]])), np.array([0]), 1)
        np.testing.assert_allclose(alpha.data, 1.0)

    def test_numerically_stable_large_scores(self):
        scores = Tensor(np.array([[1000.0], [999.0]]))
        alpha = segment_softmax(scores, np.array([0, 0]), 1)
        assert np.isfinite(alpha.data).all()
        assert alpha.data.sum() == pytest.approx(1.0)

    def test_gradient_matches_softmax_jacobian(self):
        raw = np.array([[0.3], [-0.7], [1.1]])
        scores = Tensor(raw.copy(), requires_grad=True)
        index = np.array([0, 0, 0])
        alpha = segment_softmax(scores, index, 1)
        # d alpha_0 / d s_j = alpha_0 (delta_0j - alpha_j)
        (alpha * Tensor(np.array([[1.0], [0.0], [0.0]]))).sum().backward()
        probs = np.exp(raw.ravel() - raw.max())
        probs /= probs.sum()
        expected = probs[0] * (np.eye(3)[0] - probs)
        np.testing.assert_allclose(scores.grad.ravel(), expected, atol=1e-12)

    def test_rejects_wide_scores(self):
        with pytest.raises(ValueError):
            segment_softmax(Tensor(np.zeros((2, 2))), np.array([0, 0]), 1)

    def test_empty_segment_ok(self):
        alpha = segment_softmax(Tensor(np.zeros((1, 1))), np.array([1]), 3)
        assert alpha.shape == (1, 1)


class TestHeteroGAT:
    def make_inputs(self):
        graph = build_graph(shop_db())
        sampler = NeighborSampler(graph, fanouts=[6], seed=0)
        subgraph = sampler.sample("customers", np.arange(8), np.full(8, 2000, dtype=np.int64))
        return graph, subgraph

    def test_output_shapes(self):
        graph, subgraph = self.make_inputs()
        rng = np.random.default_rng(1)
        conv = HeteroGATConv(graph.node_types, graph.edge_types, 8, rng)
        hidden = {
            t: Tensor(rng.normal(size=(subgraph.num_nodes(t), 8)))
            for t in subgraph.node_types
        }
        out = conv(hidden, subgraph)
        for node_type in subgraph.node_types:
            assert out[node_type].shape == (subgraph.num_nodes(node_type), 8)
            assert np.isfinite(out[node_type].data).all()

    def test_gradients_flow_through_attention(self):
        graph, subgraph = self.make_inputs()
        rng = np.random.default_rng(1)
        conv = HeteroGATConv(graph.node_types, graph.edge_types, 8, rng)
        hidden = {
            t: Tensor(rng.normal(size=(subgraph.num_nodes(t), 8)))
            for t in subgraph.node_types
        }
        out = conv(hidden, subgraph)
        out["customers"].sum().backward()
        attn_grads = [
            linear.weight.grad
            for linear in conv.attn_src.values()
            if linear.weight.grad is not None
        ]
        assert attn_grads, "attention parameters received no gradient"

    def test_gat_model_trains_on_degree_task(self):
        db = shop_db(num_customers=40)
        graph = build_graph(db)
        metadata = GraphMetadata.from_graph(graph)
        model = HeteroGNN(
            metadata, hidden_dim=16, out_dim=1, num_layers=1,
            rng=np.random.default_rng(0), conv_type="gat",
        )
        sampler = NeighborSampler(graph, fanouts=[8], seed=1)
        from repro.gnn import NodeTaskTrainer, TrainConfig

        trainer = NodeTaskTrainer(
            model, graph, sampler, "binary",
            config=TrainConfig(epochs=15, batch_size=20, lr=0.01, patience=15),
        )
        ids = np.arange(40)
        labels = (ids % 2 == 0).astype(np.float64)
        times = np.full(40, 2000, dtype=np.int64)
        trainer.fit("customers", ids, times, labels)
        preds = trainer.predict("customers", ids, times)
        assert ((preds > 0.5) == labels).mean() >= 0.85

    def test_bad_conv_type_rejected(self):
        graph = build_graph(shop_db(num_customers=4))
        metadata = GraphMetadata.from_graph(graph)
        with pytest.raises(ValueError):
            HeteroGNN(metadata, 8, 1, 1, np.random.default_rng(0), conv_type="transformer")

    def test_planner_gat_end_to_end(self):
        from repro.datasets import make_ecommerce
        from repro.eval import make_temporal_split
        from repro.pql import PlannerConfig, PredictiveQueryPlanner

        db = make_ecommerce(num_customers=80, seed=0)
        span = db.time_span()
        split = make_temporal_split(span[0], span[1], horizon_seconds=30 * 86400, num_train_cutoffs=2)
        planner = PredictiveQueryPlanner(
            db, PlannerConfig(hidden_dim=16, num_layers=1, epochs=4, conv_type="gat", seed=0)
        )
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        metrics = model.evaluate(split.test_cutoff)
        assert np.isfinite(metrics["auroc"])

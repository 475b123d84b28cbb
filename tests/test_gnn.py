"""Tests for scatter ops, hetero convolutions, models, and the trainer."""

import numpy as np
import pytest

from repro.gnn import (
    GraphMetadata,
    HeteroGNN,
    HeteroSAGEConv,
    NodeTaskTrainer,
    TrainConfig,
    TwoTowerModel,
    scatter_max,
    scatter_mean,
    scatter_sum,
)
from repro.graph import EdgeType, NeighborSampler, build_graph
from repro.nn import Tensor
from repro.relational import (
    ColumnSpec,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
)


class TestScatter:
    def test_scatter_sum_forward(self):
        msgs = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = scatter_sum(msgs, np.array([0, 0, 1]), 3)
        np.testing.assert_allclose(out.data, [[4.0, 6.0], [5.0, 6.0], [0.0, 0.0]])

    def test_scatter_sum_grad(self):
        msgs = Tensor(np.random.default_rng(0).normal(size=(4, 2)), requires_grad=True)
        out = scatter_sum(msgs, np.array([0, 1, 0, 1]), 2)
        (out * Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))).sum().backward()
        np.testing.assert_allclose(msgs.grad, [[1, 2], [3, 4], [1, 2], [3, 4]])

    def test_scatter_mean_forward(self):
        msgs = Tensor([[2.0], [4.0], [10.0]])
        out = scatter_mean(msgs, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [10.0]])

    def test_scatter_mean_grad_divides_by_count(self):
        msgs = Tensor(np.ones((4, 1)), requires_grad=True)
        out = scatter_mean(msgs, np.array([0, 0, 0, 1]), 2)
        out.sum().backward()
        np.testing.assert_allclose(msgs.grad, [[1 / 3], [1 / 3], [1 / 3], [1.0]])

    def test_scatter_max_forward_and_empty_slot(self):
        msgs = Tensor([[1.0], [5.0], [3.0]])
        out = scatter_max(msgs, np.array([0, 0, 0]), 2)
        np.testing.assert_allclose(out.data, [[5.0], [0.0]])

    def test_scatter_max_grad_goes_to_argmax(self):
        msgs = Tensor(np.array([[1.0], [5.0], [3.0]]), requires_grad=True)
        scatter_max(msgs, np.array([0, 0, 0]), 1).sum().backward()
        np.testing.assert_allclose(msgs.grad, [[0.0], [1.0], [0.0]])

    def test_scatter_max_ties_split(self):
        msgs = Tensor(np.array([[2.0], [2.0]]), requires_grad=True)
        scatter_max(msgs, np.array([0, 0]), 1).sum().backward()
        np.testing.assert_allclose(msgs.grad, [[0.5], [0.5]])

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            scatter_sum(Tensor(np.ones((1, 1))), np.array([2]), 2)

    def test_bad_message_rank(self):
        with pytest.raises(ValueError):
            scatter_sum(Tensor(np.ones(3)), np.array([0, 0, 0]), 1)

    def test_index_length_mismatch(self):
        with pytest.raises(ValueError):
            scatter_sum(Tensor(np.ones((3, 1))), np.array([0, 0]), 1)

    def test_empty_messages(self):
        out = scatter_sum(Tensor(np.zeros((0, 4))), np.array([], dtype=int), 3)
        assert out.shape == (3, 4)


def shop_db(num_customers=40, orders_per_heavy=6, rng_seed=0):
    """Synthetic shop where 'heavy' customers (even ids) have many orders."""
    rng = np.random.default_rng(rng_seed)
    customers = Table.from_dict(
        TableSchema(
            "customers",
            [ColumnSpec("id", DType.INT64), ColumnSpec("age", DType.FLOAT64)],
            primary_key="id",
        ),
        {
            "id": list(range(num_customers)),
            "age": rng.normal(40, 10, num_customers).tolist(),
        },
    )
    order_rows = {"id": [], "customer_id": [], "amount": [], "ts": []}
    oid = 0
    for cid in range(num_customers):
        count = orders_per_heavy if cid % 2 == 0 else 1
        for _ in range(count):
            order_rows["id"].append(oid)
            order_rows["customer_id"].append(cid)
            order_rows["amount"].append(float(rng.uniform(1, 20)))
            order_rows["ts"].append(int(rng.integers(0, 1000)))
            oid += 1
    orders = Table.from_dict(
        TableSchema(
            "orders",
            [
                ColumnSpec("id", DType.INT64),
                ColumnSpec("customer_id", DType.INT64),
                ColumnSpec("amount", DType.FLOAT64),
                ColumnSpec("ts", DType.TIMESTAMP),
            ],
            primary_key="id",
            foreign_keys=[ForeignKey("customer_id", "customers", "id")],
            time_column="ts",
        ),
        order_rows,
    )
    db = Database("shop")
    db.add_table(customers)
    db.add_table(orders)
    return db


class TestConv:
    def make_inputs(self):
        graph = build_graph(shop_db())
        sampler = NeighborSampler(graph, fanouts=[8], seed=0)
        subgraph = sampler.sample(
            "customers", np.arange(10), np.full(10, 2000, dtype=np.int64)
        )
        return graph, subgraph

    def hidden_for(self, subgraph, dim, rng):
        return {
            t: Tensor(rng.normal(size=(subgraph.num_nodes(t), dim)))
            for t in subgraph.node_types
        }

    def test_output_shapes(self):
        graph, subgraph = self.make_inputs()
        rng = np.random.default_rng(1)
        conv = HeteroSAGEConv(graph.node_types, graph.edge_types, 8, rng)
        hidden = self.hidden_for(subgraph, 8, rng)
        out = conv(hidden, subgraph)
        for node_type in subgraph.node_types:
            assert out[node_type].shape == (subgraph.num_nodes(node_type), 8)

    def test_aggregation_options(self):
        graph, subgraph = self.make_inputs()
        rng = np.random.default_rng(1)
        for agg in ("sum", "mean", "max"):
            conv = HeteroSAGEConv(graph.node_types, graph.edge_types, 4, rng, aggregation=agg)
            out = conv(self.hidden_for(subgraph, 4, rng), subgraph)
            assert all(np.isfinite(t.data).all() for t in out.values())

    def test_bad_aggregation(self):
        with pytest.raises(ValueError):
            HeteroSAGEConv(["a"], [], 4, np.random.default_rng(0), aggregation="median")

    def test_shared_weights_have_fewer_parameters(self):
        graph, _ = self.make_inputs()
        rng = np.random.default_rng(1)
        per_rel = HeteroSAGEConv(graph.node_types, graph.edge_types, 8, rng)
        shared = HeteroSAGEConv(graph.node_types, graph.edge_types, 8, rng, shared_weights=True)
        assert shared.num_parameters() < per_rel.num_parameters()

    def test_isolated_node_keeps_self_signal(self):
        # A subgraph with no edges should still produce output via self weights.
        graph, _ = self.make_inputs()
        rng = np.random.default_rng(1)
        conv = HeteroSAGEConv(graph.node_types, graph.edge_types, 4, rng, activation=False)
        from repro.graph.sampler import SampledSubgraph

        sub = SampledSubgraph("customers")
        sub.add_node("customers", 0, 100)
        hidden = {"customers": Tensor(np.ones((1, 4)))}
        out = conv(hidden, sub)
        assert out["customers"].shape == (1, 4)
        assert np.abs(out["customers"].data).sum() > 0

    def test_unknown_edge_type_raises(self):
        graph, subgraph = self.make_inputs()
        rng = np.random.default_rng(1)
        conv = HeteroSAGEConv(graph.node_types, [], 4, rng)
        with pytest.raises(KeyError):
            conv(self.hidden_for(subgraph, 4, rng), subgraph)


class TestHeteroGNN:
    def setup_model(self, num_layers=1, out_dim=1):
        graph = build_graph(shop_db())
        metadata = GraphMetadata.from_graph(graph)
        rng = np.random.default_rng(0)
        model = HeteroGNN(metadata, hidden_dim=16, out_dim=out_dim, num_layers=num_layers, rng=rng)
        sampler = NeighborSampler(graph, fanouts=[8] * max(num_layers, 1), seed=1)
        return graph, model, sampler

    def test_forward_shape(self):
        graph, model, sampler = self.setup_model(out_dim=3)
        sub = sampler.sample("customers", np.arange(5), np.full(5, 2000))
        out = model(sub, graph)
        assert out.shape == (5, 3)

    def test_zero_layer_model(self):
        graph, model, sampler = self.setup_model(num_layers=0)
        sub = sampler.sample("customers", np.arange(4), np.full(4, 2000))
        assert model(sub, graph).shape == (4, 1)
        assert model.num_layers == 0

    def test_gradients_reach_encoder(self):
        graph, model, sampler = self.setup_model()
        sub = sampler.sample("customers", np.arange(5), np.full(5, 2000))
        model(sub, graph).sum().backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert len(grads) > 0

    def test_metadata_from_graph(self):
        graph = build_graph(shop_db())
        metadata = GraphMetadata.from_graph(graph)
        assert set(metadata.node_types) == {"customers", "orders"}
        assert metadata.numeric_dims["customers"] == 2  # age + isnull
        assert len(metadata.edge_types) == 2


class TestTrainer:
    def test_learns_degree_signal(self):
        """Binary task: heavy customers (even id, 6 orders) vs light (1 order).

        Purely structural — features don't carry the label — so the GNN
        must use message passing to solve it.
        """
        db = shop_db(num_customers=60)
        graph = build_graph(db, stats_cutoff=1000)
        metadata = GraphMetadata.from_graph(graph)
        model = HeteroGNN(metadata, hidden_dim=16, out_dim=1, num_layers=1, rng=np.random.default_rng(0))
        sampler = NeighborSampler(graph, fanouts=[10], seed=1)
        trainer = NodeTaskTrainer(
            model,
            graph,
            sampler,
            task_type="binary",
            config=TrainConfig(epochs=30, batch_size=32, lr=0.01, patience=30),
        )
        ids = np.arange(60)
        labels = (ids % 2 == 0).astype(np.float64)
        times = np.full(60, 2000, dtype=np.int64)
        train = np.arange(0, 40)
        val = np.arange(40, 60)
        trainer.fit("customers", ids[train], times[train], labels[train], ids[val], times[val], labels[val])
        preds = trainer.predict("customers", ids[val], times[val])
        accuracy = ((preds > 0.5) == labels[val]).mean()
        assert accuracy >= 0.9

    def test_regression_standardization_roundtrip(self):
        db = shop_db(num_customers=30)
        graph = build_graph(db)
        metadata = GraphMetadata.from_graph(graph)
        model = HeteroGNN(metadata, hidden_dim=8, out_dim=1, num_layers=1, rng=np.random.default_rng(0))
        sampler = NeighborSampler(graph, fanouts=[5], seed=1)
        trainer = NodeTaskTrainer(
            model, graph, sampler, task_type="regression",
            config=TrainConfig(epochs=3, batch_size=16),
        )
        ids = np.arange(30)
        times = np.full(30, 2000, dtype=np.int64)
        labels = np.where(ids % 2 == 0, 100.0, 50.0)
        trainer.fit("customers", ids, times, labels)
        preds = trainer.predict("customers", ids, times)
        # Predictions live on the label scale, not the standardized scale.
        assert 30.0 < preds.mean() < 120.0

    def test_bad_task_type(self):
        db = shop_db(num_customers=4)
        graph = build_graph(db)
        metadata = GraphMetadata.from_graph(graph)
        model = HeteroGNN(metadata, hidden_dim=4, out_dim=1, num_layers=1, rng=np.random.default_rng(0))
        sampler = NeighborSampler(graph, fanouts=[2], seed=1)
        with pytest.raises(ValueError):
            NodeTaskTrainer(model, graph, sampler, task_type="ranking")

    def test_early_stopping_restores_best(self):
        db = shop_db(num_customers=24)
        graph = build_graph(db)
        metadata = GraphMetadata.from_graph(graph)
        model = HeteroGNN(metadata, hidden_dim=8, out_dim=1, num_layers=1, rng=np.random.default_rng(0))
        sampler = NeighborSampler(graph, fanouts=[4], seed=1)
        trainer = NodeTaskTrainer(
            model, graph, sampler, task_type="binary",
            config=TrainConfig(epochs=12, batch_size=8, patience=2),
        )
        ids = np.arange(24)
        times = np.full(24, 2000, dtype=np.int64)
        labels = (ids % 2 == 0).astype(np.float64)
        history = trainer.fit(
            "customers", ids[:16], times[:16], labels[:16], ids[16:], times[16:], labels[16:]
        )
        assert history.best_epoch >= 0
        assert len(history.val_loss) >= 1


    def fit_counting_samples(self):
        """A 4-epoch fit with 2 train batches + 1 validation batch per epoch;
        returns (sample() calls that reached the sampler, val losses)."""
        db = shop_db(num_customers=24)
        graph = build_graph(db)
        model = HeteroGNN(
            GraphMetadata.from_graph(graph), hidden_dim=8, out_dim=1, num_layers=1,
            rng=np.random.default_rng(0),
        )
        sampler = NeighborSampler(graph, fanouts=[2], seed=0)
        calls = []
        sample = sampler.sample
        sampler.sample = lambda *args: calls.append(len(args[1])) or sample(*args)
        trainer = NodeTaskTrainer(
            model, graph, sampler, task_type="binary",
            config=TrainConfig(epochs=4, batch_size=8, patience=9),
        )
        ids = np.arange(24)
        times = np.full(24, 2000, dtype=np.int64)
        labels = (ids % 2 == 0).astype(np.float64)
        history = trainer.fit(
            "customers", ids[:16], times[:16], labels[:16], ids[16:], times[16:], labels[16:]
        )
        return calls, history.val_loss

    def test_validation_batches_are_sampled_once_per_fit_when_draws_are_pure(self):
        held_calls, _ = self.fit_counting_samples()
        assert len(held_calls) == 4 * 2 + 1  # validation drawn in epoch 1 only

    def test_held_validation_equals_resampling_every_epoch(self, monkeypatch):
        import repro.gnn.trainer as trainer_module

        _, held = self.fit_counting_samples()
        monkeypatch.setattr(trainer_module, "_HELD_BATCHES", 0)
        calls, resampled = self.fit_counting_samples()
        assert len(calls) == 4 * (2 + 1)
        assert resampled == held


class TestTwoTower:
    def test_scores_shape(self):
        graph = build_graph(shop_db(num_customers=10))
        metadata = GraphMetadata.from_graph(graph)
        rng = np.random.default_rng(0)
        model = TwoTowerModel(
            HeteroGNN(metadata, hidden_dim=8, out_dim=8, num_layers=1, rng=rng),
            metadata,
            item_type="orders",
            num_items=graph.num_nodes("orders"),
            rng=rng,
        )
        sampler = NeighborSampler(graph, fanouts=[4], seed=1)
        sub = sampler.sample("customers", np.arange(3), np.full(3, 2000))
        queries = model.query_embeddings(sub, graph)
        items = model.item_embeddings(np.arange(5), graph)
        assert model.score(queries, items).shape == (3, 5)
        paired = model.score_pairs(queries, model.item_embeddings(np.arange(3), graph))
        assert paired.shape == (3,)


class TestTimeEncoding:
    def test_time_features_are_log_age_and_static_flag(self):
        from repro.gnn.models import _time_features
        from repro.graph.hetero import TIME_MIN

        ctx = np.array([100 * 86400, 200 * 86400, 50 * 86400])
        node = np.array([0, 100 * 86400, TIME_MIN])
        np.testing.assert_allclose(
            _time_features(ctx, node), [[np.log1p(100.0), 0.0], [np.log1p(100.0), 0.0], [0.0, 1.0]]
        )

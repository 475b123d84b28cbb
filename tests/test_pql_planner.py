"""Integration tests for the query → trained-model compiler."""

import numpy as np
import pytest

from repro.pql import PlannerConfig, PredictiveQueryPlanner, TaskType, parse
from tests.conftest import DAY, planner_config as fast_config


@pytest.fixture(scope="module")
def db(ecommerce_db):
    return ecommerce_db


@pytest.fixture(scope="module")
def split(ecommerce_split):
    return ecommerce_split


class TestPlan:
    def test_plan_accepts_string_and_ast(self, db):
        planner = PredictiveQueryPlanner(db)
        text = "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
        binding1 = planner.plan(text)
        binding2 = planner.plan(parse(text))
        assert binding1.query == binding2.query

    def test_config_fanout_default(self):
        config = PlannerConfig(num_layers=3)
        assert config.resolved_fanouts() == [8, 8, 8]
        config = PlannerConfig(num_layers=2, fanouts=[4, 2])
        assert config.resolved_fanouts() == [4, 2]


class TestBinaryPipeline:
    def test_fit_and_evaluate(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config())
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        assert model.task_type == TaskType.BINARY
        metrics = model.evaluate(split.test_cutoff)
        assert metrics["auroc"] > 0.6  # small model/data, but far above chance
        assert 0 <= metrics["accuracy"] <= 1

    def test_predict_returns_probabilities(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=2))
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        keys = db["customers"]["id"].values[:10]
        preds = model.predict(keys, split.test_cutoff)
        assert preds.shape == (10,)
        assert np.all((preds >= 0) & (preds <= 1))

    def test_rank_items_rejected_for_node_task(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=1))
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        with pytest.raises(RuntimeError):
            model.rank_items(np.array([0]), split.test_cutoff)


class TestRegressionPipeline:
    def test_fit_and_evaluate(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config())
        model = planner.fit(
            "PREDICT SUM(orders.amount) FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        assert model.task_type == TaskType.REGRESSION
        metrics = model.evaluate(split.test_cutoff)
        assert np.isfinite(metrics["mae"])
        assert metrics["rmse"] >= metrics["mae"]


class TestLinkPipeline:
    def test_fit_and_evaluate(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=3))
        model = planner.fit(
            "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
            split,
        )
        assert model.task_type == TaskType.LINK
        metrics = model.evaluate(split.test_cutoff, k=10)
        assert 0 <= metrics["mrr"] <= 1
        assert metrics["num_queries"] > 0

    def test_rank_items_shape(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=1))
        model = planner.fit(
            "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
            split,
        )
        keys = db["customers"]["id"].values[:3]
        results = model.rank_items(keys, split.test_cutoff, k=5)
        assert len(results) == 3
        item_keys, scores = results[0]
        assert len(item_keys) == 5
        assert np.all(np.diff(scores) <= 1e-12)  # descending

    def test_predict_rejected_for_link_task(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=1))
        model = planner.fit(
            "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
            split,
        )
        with pytest.raises(RuntimeError):
            model.predict(np.array([0]), split.test_cutoff)


class TestConfigKnobs:
    def test_max_train_rows_caps(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=1, max_train_rows=20))
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        # trained without error on the subsample; history exists
        assert len(model.node_trainer.history.train_loss) >= 1

    def test_leaky_mode_runs(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=1, time_respecting=False))
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        assert np.isfinite(model.evaluate(split.test_cutoff)["auroc"])

    def test_pre_data_training_cutoff_is_refused_before_any_encoder(
        self, db, split, monkeypatch
    ):
        from repro.eval.splits import TemporalSplit
        from repro.pql import planner as planner_module

        horizon = 30 * DAY
        early = db.time_span()[0] - horizon
        pre_data = TemporalSplit(
            train_cutoffs=(early,) + split.train_cutoffs,
            val_cutoff=split.val_cutoff, test_cutoff=split.test_cutoff,
        )
        built = []
        monkeypatch.setattr(planner_module, "build_graph",
                            lambda *a, **kw: built.append(a))
        planner = PredictiveQueryPlanner(db, fast_config(epochs=1))
        with pytest.raises(ValueError, match=f"training cutoff {early} precedes"):
            planner.fit(
                "PREDICT COUNT(orders) = 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
                pre_data,
            )
        assert built == []

    def test_empty_training_rows_raise(self, db):
        span = db.time_span()
        # Cutoffs before any entity exists.
        from repro.eval.splits import TemporalSplit

        bad_split = TemporalSplit(
            train_cutoffs=(span[0] - 100 * DAY,),
            val_cutoff=span[0] - 50 * DAY,
            test_cutoff=span[0] - 10 * DAY,
        )
        planner = PredictiveQueryPlanner(db, fast_config(epochs=1))
        with pytest.raises(ValueError):
            planner.fit(
                "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
                bad_split,
            )


class TestPersistence:
    def test_save_load_roundtrip_binary(self, db, split, tmp_path):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=2))
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        keys = db["customers"]["id"].values[:20]
        before = model.predict(keys, split.test_cutoff)
        model.save(str(tmp_path / "model"))
        reloaded = type(model).load(str(tmp_path / "model"), db)
        after = reloaded.predict(keys, split.test_cutoff)
        np.testing.assert_allclose(before, after, atol=1e-10)

    def test_save_load_roundtrip_regression(self, db, split, tmp_path):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=2))
        model = planner.fit(
            "PREDICT SUM(orders.amount) FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        keys = db["customers"]["id"].values[:10]
        before = model.predict(keys, split.test_cutoff)
        model.save(str(tmp_path / "model"))
        reloaded = type(model).load(str(tmp_path / "model"), db)
        after = reloaded.predict(keys, split.test_cutoff)
        # Target de-standardization parameters survive the roundtrip.
        np.testing.assert_allclose(before, after, atol=1e-10)

    def test_save_load_link_model(self, db, split, tmp_path):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=1))
        model = planner.fit(
            "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
            split,
        )
        model.save(str(tmp_path / "model"))
        reloaded = type(model).load(str(tmp_path / "model"), db)
        keys = db["customers"]["id"].values[:2]
        original = model.rank_items(keys, split.test_cutoff, k=5)
        restored = reloaded.rank_items(keys, split.test_cutoff, k=5)
        for (keys_a, scores_a), (keys_b, scores_b) in zip(original, restored):
            np.testing.assert_array_equal(keys_a, keys_b)
            np.testing.assert_allclose(scores_a, scores_b, atol=1e-10)


class TestExplain:
    def test_explain_ranks_order_relation_high(self, db, split):
        from repro.pql import explain_relations

        planner = PredictiveQueryPlanner(db, fast_config(epochs=6))
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        keys = db["customers"]["id"].values[:40]
        importances = explain_relations(model, keys, split.test_cutoff)
        # Every relation of the graph is scored.
        assert len(importances) == len(model.graph.edge_types)
        assert all(v >= 0 for v in importances.values())
        # The customer<-orders relation carries the churn signal.
        top_relation = next(iter(importances))
        assert "orders" in top_relation

    def test_explain_is_deterministic(self, db, split):
        from repro.pql import explain_relations

        planner = PredictiveQueryPlanner(db, fast_config(epochs=1))
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        keys = db["customers"]["id"].values[:10]
        a = explain_relations(model, keys, split.test_cutoff, seed=3)
        b = explain_relations(model, keys, split.test_cutoff, seed=3)
        assert a == b

    def test_baseline_and_every_knockout_start_from_one_neighborhood(self, db, split, monkeypatch):
        """One sampler, asked again per knockout: what it hands back —
        before ``_knock_out`` edits it — is the baseline's subgraph."""
        import copy

        import repro.pql.explain as explain_module
        from tests.conftest import assert_subgraphs_identical

        model = PredictiveQueryPlanner(db, fast_config(epochs=1, fanouts=[2], batch_size=8)).fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        built, drawn = [], []

        class Spy(explain_module.NeighborSampler):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

            def sample(self, *args):
                subgraph = super().sample(*args)
                drawn.append(copy.deepcopy(subgraph))  # the caller's is about to be edited
                return subgraph

        monkeypatch.setattr(explain_module, "NeighborSampler", Spy)
        keys = db["customers"]["id"].values[:16]
        explain_module.explain_relations(model, keys, split.test_cutoff, seed=3)
        per_batch = 1 + len(model.graph.edge_types)
        assert len(built) == 1 and len(drawn) == 2 * per_batch
        assert any(sub.total_nodes() for sub in drawn)
        for batch in (drawn[:per_batch], drawn[per_batch:]):
            for knockout_input in batch[1:]:
                assert_subgraphs_identical(batch[0], knockout_input)

    def test_explain_rejected_for_link(self, db, split):
        from repro.pql import explain_relations

        planner = PredictiveQueryPlanner(db, fast_config(epochs=1))
        model = planner.fit(
            "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
            split,
        )
        with pytest.raises(ValueError):
            explain_relations(model, np.array([0]), split.test_cutoff)


class TestAutoPosWeight:
    def test_evaluate_includes_calibration(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=1))
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        metrics = model.evaluate(split.test_cutoff)
        assert 0 <= metrics["brier"] <= 1
        assert 0 <= metrics["ece"] <= 1


class TestVectorizedSamplerConfig:
    """One sampler, one dtype: the knobs that selected alternatives are gone,
    and models saved while they existed still load."""

    QUERY = "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"

    def test_fit_with_vectorized_sampler(self, db, split):
        from repro.graph import NeighborSampler

        model = PredictiveQueryPlanner(db, fast_config(epochs=3)).fit(self.QUERY, split)
        trainer = model.node_trainer
        assert type(trainer.sampler) is NeighborSampler
        assert {p.data.dtype for p in trainer.model.parameters()} == {np.dtype("float32")}
        assert model.evaluate(split.test_cutoff)["auroc"] > 0.6

    def test_bad_sampler_impl(self):
        from repro.gnn.trainer import TrainConfig

        for retired in ("sampler_impl", "compute_dtype", "shared_graph"):
            with pytest.raises(TypeError):
                PlannerConfig(**{retired: "reference"})
        with pytest.raises(TypeError):
            TrainConfig(shared_graph=True)

    def test_vectorized_save_load_roundtrip(self, db, split, tmp_path):
        """A model directory written before the knobs were removed — the
        three retired config keys in its manifest, float64 weights —
        loads, as float32, and predicts what the weights say."""
        import hashlib
        import json

        model = PredictiveQueryPlanner(db, fast_config(epochs=1)).fit(self.QUERY, split)
        keys = db["customers"]["id"].values[:8]
        before = model.predict(keys, split.test_cutoff)
        directory = tmp_path / "m"
        model.save(str(directory))
        manifest = json.loads((directory / "manifest.json").read_text())
        legacy = {"sampler_impl": "vectorized-unique", "compute_dtype": "float64",
                  "shared_graph": True}
        assert not set(legacy) & set(manifest["config"])  # save no longer writes them

        with np.load(directory / "weights.npz") as saved:
            arrays = {name: saved[name].astype(np.float64) for name in saved.files}
        np.savez(directory / "weights.npz", **arrays)
        manifest["config"].update(legacy)
        manifest["weights_sha256"] = hashlib.sha256(
            (directory / "weights.npz").read_bytes()
        ).hexdigest()
        (directory / "manifest.json").write_text(json.dumps(manifest))

        restored = type(model).load(str(directory), db)
        network = restored.node_trainer.model
        assert {p.data.dtype for p in network.parameters()} == {np.dtype("float32")}
        np.testing.assert_array_equal(before, restored.predict(keys, split.test_cutoff))


class TestViaPipeline:
    def test_via_task_trains_end_to_end(self, forum_db, forum_split):
        """The registered two-hop (VIA) forum task runs through the planner."""
        planner = PredictiveQueryPlanner(forum_db, fast_config(epochs=2))
        model = planner.fit(
            "PREDICT COUNT(votes VIA posts) FOR EACH users.id ASSUMING HORIZON 14 DAYS",
            forum_split,
        )
        metrics = model.evaluate(forum_split.test_cutoff)
        assert np.isfinite(metrics["mae"])
        assert metrics["num_examples"] > 0


class TestMaterialize:
    def test_materialize_predictions_table(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=1))
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS", split
        )
        table = model.materialize(split.test_cutoff, table_name="churn_scores")
        assert table.name == "churn_scores"
        assert table.num_rows == db["customers"].num_rows
        scores = np.asarray(table["score"].to_list())
        assert np.all((scores >= 0) & (scores <= 1))
        # The table is SQL-queryable like any other.
        from repro.relational import Database, execute_sql

        scratch = Database("scratch")
        scratch.add_table(table)
        top = execute_sql(
            scratch, "SELECT entity_key FROM churn_scores ORDER BY score DESC LIMIT 3"
        )
        assert top.num_rows == 3

    def test_materialize_rejected_for_link(self, db, split):
        planner = PredictiveQueryPlanner(db, fast_config(epochs=1))
        model = planner.fit(
            "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
            split,
        )
        with pytest.raises(RuntimeError):
            model.materialize(split.test_cutoff)

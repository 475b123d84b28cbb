"""Failure-injection tests: degenerate and adversarial inputs.

Every scenario here is something a real deployment hits eventually:
corrupt references, empty activity, one-class labels, all-null
columns, cutoffs outside the data.  The pipeline must fail loudly
where the input is wrong and degrade gracefully where it is merely
extreme.
"""

import numpy as np
import pytest

from repro.eval import make_temporal_split
from repro.graph import NeighborSampler, build_graph
from repro.pql import (
    PlannerConfig,
    PredictiveQueryPlanner,
    build_label_table,
    parse,
    validate,
)
from repro.relational import (
    Column,
    ColumnSpec,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
)

DAY = 86400


def minimal_db(order_rows=None):
    db = Database("mini")
    db.add_table(
        Table.from_dict(
            TableSchema(
                "customers",
                [ColumnSpec("id", DType.INT64), ColumnSpec("age", DType.FLOAT64)],
                primary_key="id",
            ),
            {"id": [1, 2, 3], "age": [30.0, 40.0, 50.0]},
        )
    )
    rows = order_rows or {"id": [], "customer_id": [], "amount": [], "ts": []}
    db.add_table(
        Table.from_dict(
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
            rows,
        )
    )
    return db


class TestCorruptDatabases:
    def test_dangling_fk_caught_by_validate_before_build(self):
        db = minimal_db({"id": [1], "customer_id": [99], "amount": [1.0], "ts": [1]})
        from repro.relational.database import IntegrityError

        with pytest.raises(IntegrityError):
            db.validate()

    def test_builder_rejects_dangling_fk_too(self):
        db = minimal_db({"id": [1], "customer_id": [99], "amount": [1.0], "ts": [1]})
        with pytest.raises(KeyError):
            build_graph(db)

    def test_all_null_feature_column_encodes(self):
        db = minimal_db()
        table = db["customers"].with_column("bonus", Column([None, None, None], DType.FLOAT64))
        db2 = Database("m2")
        db2.add_table(table)
        graph_db = Database("m3")
        graph_db.add_table(table)
        graph_db.add_table(db["orders"])
        graph = build_graph(graph_db)
        feats = graph.features["customers"]
        isnull = feats.numeric[:, feats.numeric_names.index("bonus__isnull")]
        np.testing.assert_array_equal(isnull, 1.0)
        assert np.isfinite(feats.numeric).all()


class TestDegenerateActivity:
    def test_empty_fact_table_labels_all_zero(self):
        db = minimal_db()
        binding = validate(
            parse("PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 10 DAYS"),
            db,
        )
        labels = build_label_table(db, binding, [0])
        assert len(labels) == 3
        assert (labels.labels == 0).all()

    def test_sampler_on_graph_with_no_fact_nodes(self):
        db = minimal_db()
        graph = build_graph(db)
        sampler = NeighborSampler(graph, fanouts=[4, 4], seed=0)
        sub = sampler.sample("customers", np.array([0, 1, 2]), np.full(3, 100))
        assert sub.num_nodes("customers") == 3
        assert sub.num_nodes("orders") == 0

    def test_single_class_training_does_not_crash(self):
        """All-negative labels: training proceeds; AUROC is honestly NaN."""
        rows = {
            "id": list(range(6)),
            "customer_id": [1, 1, 2, 2, 3, 3],
            "amount": [1.0] * 6,
            "ts": [k * DAY for k in range(6)],
        }
        db = minimal_db(rows)
        from repro.eval.splits import TemporalSplit

        split = TemporalSplit(
            train_cutoffs=(20 * DAY,), val_cutoff=40 * DAY, test_cutoff=60 * DAY
        )
        planner = PredictiveQueryPlanner(
            db, PlannerConfig(hidden_dim=4, num_layers=1, epochs=1, seed=0)
        )
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 10 DAYS", split
        )
        metrics = model.evaluate(split.test_cutoff)
        assert np.isnan(metrics["auroc"])  # single class: undefined, not wrong
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_cutoff_before_any_data(self):
        rows = {"id": [1], "customer_id": [1], "amount": [1.0], "ts": [100 * DAY]}
        db = minimal_db(rows)
        binding = validate(
            parse("PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 10 DAYS"),
            db,
        )
        labels = build_label_table(db, binding, [-10 * DAY])
        # Static entities are always eligible; labels are all zero.
        assert len(labels) == 3
        assert labels.labels.sum() == 0

    def test_extreme_feature_values_clipped(self):
        rows = {
            "id": [1, 2],
            "customer_id": [1, 2],
            "amount": [1.0, 1e12],  # absurd outlier
            "ts": [1, 2],
        }
        db = minimal_db(rows)
        graph = build_graph(db, stats_cutoff=1)
        feats = graph.features["orders"]
        assert np.isfinite(feats.numeric).all()
        assert np.abs(feats.numeric).max() <= 10.0  # encoder clip


class TestSplitMisuse:
    def test_split_too_short_raises_cleanly(self):
        with pytest.raises(ValueError) as err:
            make_temporal_split(0, 5 * DAY, horizon_seconds=30 * DAY)
        assert "too short" in str(err.value)

    def test_planner_rejects_future_only_cutoffs(self):
        rows = {"id": [1], "customer_id": [1], "amount": [1.0], "ts": [DAY]}
        db = minimal_db(rows)
        from repro.eval.splits import TemporalSplit

        # Entities are static so they are always eligible; labels exist but
        # every one is zero => single-class training still completes.
        split = TemporalSplit(
            train_cutoffs=(1000 * DAY,), val_cutoff=2000 * DAY, test_cutoff=3000 * DAY
        )
        planner = PredictiveQueryPlanner(
            db, PlannerConfig(hidden_dim=4, num_layers=1, epochs=1)
        )
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 10 DAYS", split
        )
        assert model is not None

"""Cross-engine consistency: SQL, relational algebra, and the PQL labeler
must agree when computing the same quantity.

These tests execute the same window aggregate through two independent
code paths and require identical answers — catching semantics drift
between the engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import make_ecommerce
from repro.pql import build_label_table, parse, validate
from repro.relational import execute_sql
from repro.relational.sql import SQLError
from tests.oracles import in_degree

DAY = 86400


@pytest.fixture(scope="module")
def db():
    return make_ecommerce(num_customers=80, num_products=30, seed=7)


class TestLabelerVsSQL:
    def test_count_labels_match_sql_window_aggregate(self, db):
        span = db.time_span()
        cutoff = span[1] - 60 * DAY
        horizon = 30 * DAY
        binding = validate(
            parse("PREDICT COUNT(orders) FOR EACH customers.id ASSUMING HORIZON 30 DAYS"), db
        )
        labels = build_label_table(db, binding, [cutoff])
        label_by_key = dict(zip(labels.entity_keys.tolist(), labels.labels.tolist()))

        sql_counts = execute_sql(
            db,
            f"SELECT customer_id, COUNT(*) AS n FROM orders "
            f"WHERE ts > {cutoff} AND ts <= {cutoff + horizon} GROUP BY customer_id",
        )
        sql_by_key = {row["customer_id"]: row["n"] for row in sql_counts.iter_rows()}

        for key, label in label_by_key.items():
            assert label == sql_by_key.get(key, 0.0)
        # And no SQL group refers to an entity the labeler missed.
        assert set(sql_by_key) <= set(label_by_key)

    def test_sum_labels_match_sql(self, db):
        span = db.time_span()
        cutoff = span[1] - 90 * DAY
        binding = validate(
            parse("PREDICT SUM(orders.amount) FOR EACH customers.id ASSUMING HORIZON 60 DAYS"), db
        )
        labels = build_label_table(db, binding, [cutoff])
        label_by_key = dict(zip(labels.entity_keys.tolist(), labels.labels.tolist()))
        sql = execute_sql(
            db,
            f"SELECT customer_id, SUM(amount) AS total FROM orders "
            f"WHERE ts > {cutoff} AND ts <= {cutoff + 60 * DAY} GROUP BY customer_id",
        )
        for row in sql.iter_rows():
            assert label_by_key[row["customer_id"]] == pytest.approx(row["total"])

    def test_conditioned_count_matches_sql(self, db):
        span = db.time_span()
        cutoff = span[1] - 60 * DAY
        binding = validate(
            parse(
                "PREDICT COUNT(orders WHERE amount > 20) FOR EACH customers.id "
                "ASSUMING HORIZON 30 DAYS"
            ),
            db,
        )
        labels = build_label_table(db, binding, [cutoff])
        label_by_key = dict(zip(labels.entity_keys.tolist(), labels.labels.tolist()))
        sql = execute_sql(
            db,
            f"SELECT customer_id, COUNT(*) AS n FROM orders "
            f"WHERE amount > 20 AND ts > {cutoff} AND ts <= {cutoff + 30 * DAY} "
            f"GROUP BY customer_id",
        )
        for row in sql.iter_rows():
            assert label_by_key[row["customer_id"]] == row["n"]


class TestSQLVsAlgebra:
    def test_join_count_matches_algebra(self, db):
        from repro.relational import algebra

        sql = execute_sql(
            db,
            "SELECT COUNT(*) AS n FROM orders JOIN customers ON orders.customer_id = customers.id",
        )
        joined = algebra.inner_join(db["orders"], db["customers"], "customer_id", "id")
        assert sql["n"].to_list() == [float(joined.num_rows)]

    def test_group_aggregate_matches_algebra(self, db):
        from repro.relational import algebra

        sql = execute_sql(
            db, "SELECT product_id, AVG(amount) AS m FROM orders GROUP BY product_id"
        )
        alg = algebra.group_aggregate(db["orders"], "product_id", {"m": ("avg", "amount")})
        sql_by_key = {row["product_id"]: row["m"] for row in sql.iter_rows()}
        alg_by_key = {row["product_id"]: row["m"] for row in alg.iter_rows()}
        assert sql_by_key.keys() == alg_by_key.keys()
        for key in sql_by_key:
            assert sql_by_key[key] == pytest.approx(alg_by_key[key])


class TestGraphVsSQL:
    def test_edge_counts_match_sql_group_counts(self, db):
        """In-degree of customer nodes == per-customer order counts."""
        from repro.graph import EdgeType, build_graph
        from repro.graph.builder import node_index_for_keys

        graph = build_graph(db, encode_features=False)
        degrees = in_degree(graph, EdgeType("orders", "customer_id", "customers"))
        sql = execute_sql(
            db, "SELECT customer_id, COUNT(*) AS n FROM orders GROUP BY customer_id"
        )
        keys = np.asarray([row["customer_id"] for row in sql.iter_rows()])
        counts = np.asarray([row["n"] for row in sql.iter_rows()])
        nodes = node_index_for_keys(graph, "customers", keys)
        np.testing.assert_array_equal(degrees[nodes], counts)
        # Customers with no orders have degree zero.
        with_orders = set(keys.tolist())
        for key, node in zip(graph.node_keys["customers"].tolist(), range(len(degrees))):
            if key not in with_orders:
                assert degrees[node] == 0

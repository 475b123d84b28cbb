"""Shared deterministic fixtures for the test suite.

Everything here is a pure function of an explicit integer seed, so the
expensive objects (synthetic databases, temporal splits, compiled
graphs) can be built once per session and shared across modules
without coupling any test to another test's random stream.

Two kinds of helpers:

* **Plain factories** (``shop_db``, ``planner_config``,
  ``tiny_planner_config``, ``make_split``) — importable from test
  modules that need a fresh or customized instance.
* **Session fixtures** (``ecommerce_db``, ``small_ecommerce_db``,
  ``forum_db`` and their splits, ``shop_graph``) — cached instances
  for read-only use.  Tests must not mutate them.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import make_ecommerce, make_forum
from repro.eval import make_temporal_split
from repro.pql import PlannerConfig
from repro.relational import (
    ColumnSpec,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
)

DAY = 86400

#: Hypothesis profile with the long budget of the generator-vs-oracle
#: grid (``tests/test_generator_oracles.py``); CI's perf-smoke step runs
#: that file with ``--hypothesis-profile=generators-long``.
LONG_GENERATOR_PROFILE = "generators-long"

settings.register_profile(LONG_GENERATOR_PROFILE, max_examples=200, deadline=None)


# ----------------------------------------------------------------------
# Factories (import these when a test needs its own instance)
# ----------------------------------------------------------------------
def shop_db() -> Database:
    """Two customers, three products, five timestamped orders."""
    customers = Table.from_dict(
        TableSchema(
            "customers",
            [
                ColumnSpec("id", DType.INT64),
                ColumnSpec("region", DType.STRING),
                ColumnSpec("age", DType.FLOAT64),
            ],
            primary_key="id",
        ),
        {"id": [10, 20], "region": ["eu", "us"], "age": [33.0, None]},
    )
    products = Table.from_dict(
        TableSchema(
            "products",
            [ColumnSpec("id", DType.INT64), ColumnSpec("price", DType.FLOAT64)],
            primary_key="id",
        ),
        {"id": [1, 2, 3], "price": [9.0, 19.0, 29.0]},
    )
    orders = Table.from_dict(
        TableSchema(
            "orders",
            [
                ColumnSpec("id", DType.INT64),
                ColumnSpec("customer_id", DType.INT64),
                ColumnSpec("product_id", DType.INT64),
                ColumnSpec("amount", DType.FLOAT64),
                ColumnSpec("ts", DType.TIMESTAMP),
            ],
            primary_key="id",
            foreign_keys=[
                ForeignKey("customer_id", "customers", "id"),
                ForeignKey("product_id", "products", "id"),
            ],
            time_column="ts",
        ),
        {
            "id": [100, 101, 102, 103, 104],
            "customer_id": [10, 10, 20, 20, 10],
            "product_id": [1, 2, 2, 3, 3],
            "amount": [5.0, 7.0, 2.0, 9.0, 4.0],
            "ts": [100, 200, 300, 400, 500],
        },
    )
    db = Database("shop")
    db.add_table(customers)
    db.add_table(products)
    db.add_table(orders)
    db.validate()
    return db


def assert_subgraphs_identical(a, b) -> None:
    """Assert two SampledSubgraphs are bit-identical, field by field."""
    assert a.seed_type == b.seed_type
    np.testing.assert_array_equal(a.seed_locals, b.seed_locals)
    assert sorted(a.node_types) == sorted(b.node_types)
    for node_type in a.node_types:
        np.testing.assert_array_equal(a.node_orig(node_type), b.node_orig(node_type))
        np.testing.assert_array_equal(a.node_ctx_time(node_type), b.node_ctx_time(node_type))
        np.testing.assert_array_equal(a.node_degrees(node_type), b.node_degrees(node_type))
    assert sorted(map(str, a.edge_types)) == sorted(map(str, b.edge_types))
    for edge_type in a.edge_types:
        src_a, dst_a = a.edges_for(edge_type)
        src_b, dst_b = b.edges_for(edge_type)
        np.testing.assert_array_equal(src_a, src_b)
        np.testing.assert_array_equal(dst_a, dst_b)


def assert_graphs_equivalent(a, b) -> None:
    """Assert two HeteroGraphs agree on nodes, CSR arrays, features,
    keys and fingerprint."""
    from repro.graph import graph_fingerprint

    assert sorted(a.node_types) == sorted(b.node_types)
    assert sorted(map(str, a.edge_types)) == sorted(map(str, b.edge_types))
    for node_type in a.node_types:
        assert a.num_nodes(node_type) == b.num_nodes(node_type)
        np.testing.assert_array_equal(a.node_times(node_type), b.node_times(node_type))
    for edge_type in a.edge_types:
        sa, sb = a._edges[edge_type], b._edges[edge_type]
        np.testing.assert_array_equal(sa.indptr, sb.indptr)
        np.testing.assert_array_equal(sa.nbr_src, sb.nbr_src)
        np.testing.assert_array_equal(sa.nbr_time, sb.nbr_time)
    for node_type, feats in a.features.items():
        other = b.features[node_type]
        np.testing.assert_array_equal(feats.numeric, other.numeric)
        assert feats.numeric_names == other.numeric_names
        assert len(feats.categorical) == len(other.categorical)
        for cat_a, cat_b in zip(feats.categorical, other.categorical):
            assert cat_a.name == cat_b.name
            assert cat_a.cardinality == cat_b.cardinality
            np.testing.assert_array_equal(cat_a.codes, cat_b.codes)
            assert cat_a.vocabulary == cat_b.vocabulary
    for node_type, keys in a.node_keys.items():
        np.testing.assert_array_equal(np.asarray(keys), np.asarray(b.node_keys[node_type]))
    assert graph_fingerprint(a) == graph_fingerprint(b)


def column_digest(column) -> str:
    """SHA-256 of a column's physical dtype, values bytes (strings as a
    JSON list) and null mask: equal digests are equal columns, bit for bit."""
    digest = hashlib.sha256(column.values.dtype.str.encode())
    if column.values.dtype == object:
        digest.update(json.dumps(column.values.tolist()).encode())
    else:
        digest.update(column.values.tobytes())
    digest.update(column.null_mask().tobytes())
    return digest.hexdigest()


def database_digests(db: Database) -> dict:
    """``{table: (first 16 hex digits of each column's digest, ...)}``,
    columns in schema order."""
    return {
        table.name: tuple(column_digest(table[name])[:16] for name in table.column_names)
        for table in db
    }


def subgraph_instances(subgraph) -> dict:
    """``{node type: sorted (original id, context time) pairs}`` of a subgraph."""
    return {
        node_type: sorted(zip(
            subgraph.node_orig(node_type).tolist(), subgraph.node_ctx_time(node_type).tolist()
        ))
        for node_type in subgraph.node_types
    }


def make_split(db: Database, horizon_days: int, num_train_cutoffs: int = 2):
    """Standard temporal split over a database's full time span."""
    span = db.time_span()
    return make_temporal_split(
        span[0], span[1],
        horizon_seconds=horizon_days * DAY,
        num_train_cutoffs=num_train_cutoffs,
    )


def planner_config(**overrides) -> PlannerConfig:
    """Small-but-still-learns config for integration tests."""
    defaults = dict(hidden_dim=16, num_layers=1, epochs=6, batch_size=128, seed=0)
    defaults.update(overrides)
    return PlannerConfig(**defaults)


def tiny_planner_config(**overrides) -> PlannerConfig:
    """Fastest config that still trains (resilience/differential tests)."""
    defaults = dict(hidden_dim=8, num_layers=1, epochs=4, batch_size=64, seed=0)
    defaults.update(overrides)
    return PlannerConfig(**defaults)


# ----------------------------------------------------------------------
# Session-scoped shared instances (read-only)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def ecommerce_db():
    return make_ecommerce(num_customers=120, num_products=40, seed=0)


@pytest.fixture(scope="session")
def ecommerce_split(ecommerce_db):
    return make_split(ecommerce_db, horizon_days=30)


@pytest.fixture(scope="session")
def small_ecommerce_db():
    return make_ecommerce(num_customers=80, num_products=25, seed=0)


@pytest.fixture(scope="session")
def small_ecommerce_split(small_ecommerce_db):
    return make_split(small_ecommerce_db, horizon_days=30)


@pytest.fixture(scope="session")
def forum_db():
    return make_forum(num_users=60, seed=0)


@pytest.fixture(scope="session")
def forum_split(forum_db):
    return make_split(forum_db, horizon_days=14)


@pytest.fixture(scope="session")
def shop_graph():
    from repro.graph import build_graph

    return build_graph(shop_db())


@pytest.fixture()
def seeded_rng():
    """Factory fixture: ``seeded_rng(seed)`` -> fresh Generator."""

    def factory(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(seed)

    return factory

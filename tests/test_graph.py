"""Tests for the heterogeneous graph: structure, builder, encoders, sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    EdgeType,
    HeteroGraph,
    NeighborSampler,
    TIME_MIN,
    build_graph,
    encode_table_features,
)
from repro.graph.builder import node_index_for_keys
from tests.conftest import shop_db
from tests.oracles import all_neighbors, edge_list, in_degree, neighbors_before
from repro.relational import (
    ColumnSpec,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
)


class TestEdgeType:
    def test_reverse_roundtrip(self):
        et = EdgeType("orders", "customer_id", "customers")
        rev = et.reverse()
        assert rev == EdgeType("customers", "rev_customer_id", "orders")
        assert rev.reverse() == et

    def test_str(self):
        assert str(EdgeType("a", "r", "b")) == "a--r-->b"


class TestHeteroGraph:
    def make(self):
        g = HeteroGraph()
        g.add_node_type("a", 3, times=np.array([10, 20, 30]))
        g.add_node_type("b", 2)
        g.add_edge_type(
            EdgeType("a", "r", "b"),
            src_ids=np.array([0, 1, 2]),
            dst_ids=np.array([0, 0, 1]),
            times=np.array([10, 20, 30]),
        )
        return g

    def test_counts(self):
        g = self.make()
        assert g.num_nodes("a") == 3
        assert g.total_nodes() == 5
        assert g.num_edges(EdgeType("a", "r", "b")) == 3
        assert g.total_edges() == 3

    def test_static_nodes_get_time_min(self):
        g = self.make()
        assert (g.node_times("b") == TIME_MIN).all()

    def test_duplicate_node_type_rejected(self):
        g = self.make()
        with pytest.raises(ValueError):
            g.add_node_type("a", 1)

    def test_edge_with_unknown_type_rejected(self):
        g = self.make()
        with pytest.raises(KeyError):
            g.add_edge_type(EdgeType("z", "r", "b"), np.array([0]), np.array([0]))

    def test_edge_ids_out_of_range(self):
        g = self.make()
        with pytest.raises(IndexError):
            g.add_edge_type(EdgeType("b", "r2", "a"), np.array([5]), np.array([0]))

    def test_neighbors_before_respects_time(self):
        g = self.make()
        et = EdgeType("a", "r", "b")
        nbrs, times = neighbors_before(g, et, 0, 15)
        assert nbrs.tolist() == [0]
        nbrs, _ = neighbors_before(g, et, 0, 25)
        assert sorted(nbrs.tolist()) == [0, 1]
        nbrs, _ = neighbors_before(g, et, 0, 5)
        assert nbrs.tolist() == []

    def test_all_neighbors_ignores_time(self):
        g = self.make()
        assert sorted(all_neighbors(g, EdgeType("a", "r", "b"), 0).tolist()) == [0, 1]

    def test_in_degree(self):
        g = self.make()
        assert in_degree(g, EdgeType("a", "r", "b")).tolist() == [2, 1]

    def test_edge_types_into(self):
        g = self.make()
        assert g.edge_types_into("b") == [EdgeType("a", "r", "b")]
        assert g.edge_types_into("a") == []

    def test_summary(self):
        summary = self.make().summary()
        assert summary["nodes"] == 5
        assert summary["edge_types"] == 1


class TestBuilder:
    def test_node_types_and_counts(self):
        g = build_graph(shop_db())
        assert set(g.node_types) == {"customers", "products", "orders"}
        assert g.num_nodes("orders") == 5

    def test_forward_and_reverse_edges(self):
        g = build_graph(shop_db())
        fwd = EdgeType("orders", "customer_id", "customers")
        rev = fwd.reverse()
        assert g.num_edges(fwd) == 5
        assert g.num_edges(rev) == 5
        src, dst, _ = edge_list(g, fwd)
        rsrc, rdst, _ = edge_list(g, rev)
        assert sorted(zip(src, dst)) == sorted(zip(rdst, rsrc))

    def test_edge_times_inherit_child_row(self):
        g = build_graph(shop_db())
        _, _, times = edge_list(g, EdgeType("orders", "customer_id", "customers"))
        assert sorted(times.tolist()) == [100, 200, 300, 400, 500]

    def test_node_times(self):
        g = build_graph(shop_db())
        assert (g.node_times("customers") == TIME_MIN).all()
        assert sorted(g.node_times("orders").tolist()) == [100, 200, 300, 400, 500]

    def test_features_built(self):
        g = build_graph(shop_db())
        feats = g.features["customers"]
        assert feats.num_nodes == 2
        assert "age" in feats.numeric_names
        assert feats.categorical[0].name == "region"

    def test_skip_features(self):
        g = build_graph(shop_db(), encode_features=False)
        assert g.features == {}

    def test_node_index_for_keys(self):
        g = build_graph(shop_db())
        idx = node_index_for_keys(g, "customers", np.array([20, 10]))
        assert idx.tolist() == [1, 0]
        with pytest.raises(KeyError):
            node_index_for_keys(g, "customers", np.array([99]))

    def test_fk_to_table_without_pk_rejected(self):
        db = Database()
        no_pk = TableSchema("plain", [ColumnSpec("x", DType.INT64)])
        db.add_table(Table.from_dict(no_pk, {"x": [1]}))
        child = TableSchema(
            "child",
            [ColumnSpec("id", DType.INT64), ColumnSpec("x", DType.INT64)],
            primary_key="id",
            foreign_keys=[ForeignKey("x", "plain", "x")],
        )
        db.add_table(Table.from_dict(child, {"id": [1], "x": [1]}))
        with pytest.raises(ValueError):
            build_graph(db)

    def test_null_fk_skipped(self):
        db = shop_db()
        orders = db["orders"]
        # Null out one customer_id: that edge should vanish.
        from repro.relational import Column

        values = orders["customer_id"].to_list()
        values[0] = None
        patched = orders.with_column("customer_id", Column(values, DType.INT64))
        # with_column drops FK metadata for the replaced column; rebuild schema
        db2 = Database()
        db2.add_table(db["customers"])
        db2.add_table(db["products"])
        rebuilt = Table(orders.schema, {n: patched[n] for n in orders.column_names})
        db2.add_table(rebuilt)
        g = build_graph(db2)
        assert g.num_edges(EdgeType("orders", "customer_id", "customers")) == 4


class TestEncoders:
    def test_numeric_standardized_with_null_indicator(self):
        db = shop_db()
        feats = encode_table_features(db["customers"])
        age_idx = feats.numeric_names.index("age")
        null_idx = feats.numeric_names.index("age__isnull")
        assert feats.numeric[1, null_idx] == 1.0
        assert feats.numeric[1, age_idx] == 0.0

    def test_bool_column(self):
        schema = TableSchema("t", [ColumnSpec("id", DType.INT64), ColumnSpec("f", DType.BOOL)], primary_key="id")
        table = Table.from_dict(schema, {"id": [1, 2], "f": [True, None]})
        feats = encode_table_features(table)
        assert feats.numeric[:, feats.numeric_names.index("f")].tolist() == [1.0, 0.0]

    def test_categorical_codes(self):
        db = shop_db()
        feats = encode_table_features(db["customers"])
        cat = feats.categorical[0]
        assert cat.codes[0] != cat.codes[1]
        assert cat.cardinality >= len(cat.vocabulary) + 1

    def test_stats_cutoff_excludes_future_rows(self):
        schema = TableSchema(
            "t",
            [
                ColumnSpec("id", DType.INT64),
                ColumnSpec("v", DType.FLOAT64),
                ColumnSpec("ts", DType.TIMESTAMP),
            ],
            primary_key="id",
            time_column="ts",
        )
        table = Table.from_dict(
            schema, {"id": [1, 2, 3], "v": [1.0, 2.0, 1000.0], "ts": [10, 20, 30]}
        )
        with_cutoff = encode_table_features(table, stats_cutoff=20)
        without = encode_table_features(table)
        v_idx = with_cutoff.numeric_names.index("v")
        # With the cutoff, stats come from {1, 2}: the future outlier is huge.
        assert with_cutoff.numeric[2, v_idx] == 10.0  # clipped
        assert abs(without.numeric[2, v_idx]) < 10.0

    def test_timestamp_feature_column_encoded_as_age(self):
        schema = TableSchema(
            "t",
            [ColumnSpec("id", DType.INT64), ColumnSpec("birth", DType.TIMESTAMP)],
            primary_key="id",
        )
        table = Table.from_dict(schema, {"id": [1, 2], "birth": [0, 86400]})
        feats = encode_table_features(table, stats_cutoff=2 * 86400)
        assert "birth__age_days" in feats.numeric_names

    def test_high_cardinality_hashed(self):
        schema = TableSchema(
            "t", [ColumnSpec("id", DType.INT64), ColumnSpec("s", DType.STRING)], primary_key="id"
        )
        n = 400
        table = Table.from_dict(schema, {"id": list(range(n)), "s": [f"val{i}" for i in range(n)]})
        feats = encode_table_features(table)
        cat = feats.categorical[0]
        assert cat.vocabulary == {}
        assert cat.codes.max() < cat.cardinality

    def test_empty_feature_table(self):
        schema = TableSchema("t", [ColumnSpec("id", DType.INT64)], primary_key="id")
        feats = encode_table_features(Table.from_dict(schema, {"id": [1, 2]}))
        assert feats.numeric.shape == (2, 0)
        assert feats.categorical == []


class TestSampler:
    def graph(self):
        return build_graph(shop_db())

    def test_seed_nodes_present(self):
        g = self.graph()
        sampler = NeighborSampler(g, fanouts=[4, 4], seed=0)
        sub = sampler.sample("customers", np.array([0, 1]), np.array([1000, 1000]))
        assert sub.num_nodes("customers") >= 2
        assert sub.seed_locals.tolist() == [0, 1]
        assert sub.node_orig("customers")[sub.seed_locals].tolist() == [0, 1]

    def test_time_respecting_excludes_future_orders(self):
        g = self.graph()
        sampler = NeighborSampler(g, fanouts=[10], seed=0)
        # Customer 10 (node 0) has orders at ts 100, 200, 500.
        sub = sampler.sample("customers", np.array([0]), np.array([250]))
        orders_orig = sub.node_orig("orders")
        times = g.node_times("orders")[orders_orig]
        assert (times <= 250).all()
        assert len(orders_orig) == 2

    def test_leaky_mode_sees_future(self):
        g = self.graph()
        sampler = NeighborSampler(
            g, fanouts=[10], seed=0, time_respecting=False
        )
        sub = sampler.sample("customers", np.array([0]), np.array([250]))
        times = g.node_times("orders")[sub.node_orig("orders")]
        assert (times > 250).any()

    def test_two_hops_reach_products(self):
        g = self.graph()
        sampler = NeighborSampler(g, fanouts=[10, 10], seed=0)
        sub = sampler.sample("customers", np.array([0]), np.array([1000]))
        assert sub.num_nodes("products") > 0

    def test_fanout_limits_neighbors(self):
        g = self.graph()
        sampler = NeighborSampler(g, fanouts=[1], seed=0)
        sub = sampler.sample("customers", np.array([0]), np.array([1000]))
        # Only one order sampled despite three existing.
        assert sub.num_nodes("orders") == 1

    def test_same_seed_two_times_gets_two_instances(self):
        g = self.graph()
        sampler = NeighborSampler(g, fanouts=[10], seed=0)
        sub = sampler.sample("customers", np.array([0, 0]), np.array([150, 1000]))
        assert sub.num_nodes("customers") == 2

    def test_duplicate_seed_same_time_deduped(self):
        g = self.graph()
        sampler = NeighborSampler(g, fanouts=[10], seed=0)
        sub = sampler.sample("customers", np.array([0, 0]), np.array([150, 150]))
        assert sub.num_nodes("customers") == 1
        assert sub.seed_locals.tolist() == [0, 0]

    def test_bad_fanout_rejected(self):
        with pytest.raises(ValueError):
            NeighborSampler(self.graph(), fanouts=[0], seed=0)

    def test_shape_mismatch_rejected(self):
        sampler = NeighborSampler(self.graph(), fanouts=[2], seed=0)
        with pytest.raises(ValueError):
            sampler.sample("customers", np.array([0]), np.array([1, 2]))

    def test_edges_reference_valid_locals(self):
        g = self.graph()
        sampler = NeighborSampler(g, fanouts=[5, 5], seed=0)
        sub = sampler.sample("customers", np.array([0, 1]), np.array([1000, 400]))
        for et in sub.edge_types:
            src, dst = sub.edges_for(et)
            assert (src < sub.num_nodes(et.src)).all()
            assert (dst < sub.num_nodes(et.dst)).all()


@settings(max_examples=25, deadline=None)
@given(
    seed_time=st.integers(0, 600),
    fanout=st.integers(1, 8),
    hops=st.integers(1, 3),
    rng_seed=st.integers(0, 100),
)
def test_property_no_node_or_edge_from_future(seed_time, fanout, hops, rng_seed):
    """The temporal invariant: nothing sampled postdates the seed time."""
    g = build_graph(shop_db())
    sampler = NeighborSampler(g, fanouts=[fanout] * hops, seed=rng_seed)
    sub = sampler.sample("customers", np.array([0, 1]), np.array([seed_time, seed_time]))
    for node_type in sub.node_types:
        node_times = g.node_times(node_type)[sub.node_orig(node_type)]
        assert (node_times <= seed_time).all()

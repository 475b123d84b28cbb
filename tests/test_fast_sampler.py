"""Tests for the neighbor sampler's vectorized kernels.

``LoopNeighborSampler`` (``tests/oracles.py``) is the per-node oracle.
Cases that exercise the time-valid counts run once with a single-cutoff
seed batch and once with a mixed-cutoff one: the sampler takes a
shortcut when every seed shares one cutoff, and both arms must agree
with ``count_before`` and the sampler oracle (``tests/oracles.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import NeighborSampler, build_graph
from tests.conftest import shop_db, subgraph_instances
from tests.oracles import (
    LoopNeighborSampler, count_before, neighbors_before, snapshot_subgraph,
)

#: (seed ids, seed times) over the shop graph's two customers: one
#: cutoff shared by every seed, then a different cutoff per seed.
CUTOFF_BATCHES = [
    (np.array([0, 1]), np.array([400, 400])),
    (np.array([0, 1, 0]), np.array([400, 250, 10**9])),
]


def graph():
    return build_graph(shop_db())


class TestVectorizedSampler:
    def test_seed_layout_matches_reference(self):
        g = graph()
        fast = NeighborSampler(g, fanouts=[4], seed=0)
        sub = fast.sample("customers", np.array([0, 1, 0]), np.array([1000, 1000, 1000]))
        assert sub.seed_locals.tolist() == [0, 1, 0]  # duplicate seed deduped
        assert sub.node_orig("customers")[sub.seed_locals].tolist() == [0, 1, 0]

    def test_time_respecting(self):
        g = graph()
        fast = NeighborSampler(g, fanouts=[10, 10], seed=0)
        sub = fast.sample("customers", np.array([0]), np.array([250]))
        times = g.node_times("orders")[sub.node_orig("orders")]
        assert (times <= 250).all()

    def test_low_degree_takes_all_neighbors(self):
        g = graph()
        # Customer 0 has 3 orders total; fanout 10 >= 3 -> all sampled.
        fast = NeighborSampler(g, fanouts=[10], seed=0)
        sub = fast.sample("customers", np.array([0]), np.array([10**9]))
        ref = LoopNeighborSampler(g, fanouts=[10], rng=np.random.default_rng(0))
        ref_sub = ref.sample("customers", np.array([0]), np.array([10**9]))
        assert sorted(sub.node_orig("orders").tolist()) == sorted(
            ref_sub.node_orig("orders").tolist()
        )

    def test_fanout_caps_high_degree(self):
        g = graph()
        fast = NeighborSampler(g, fanouts=[2], seed=0)
        sub = fast.sample("customers", np.array([0]), np.array([10**9]))
        assert sub.num_nodes("orders") <= 2

    def test_degrees_recorded_for_all_nodes(self):
        g = graph()
        fast = NeighborSampler(g, fanouts=[5, 5], seed=0)
        sub = fast.sample("customers", np.array([0, 1]), np.array([1000, 1000]))
        for node_type in sub.node_types:
            expected_width = len(g.edge_types_into(node_type))
            degrees = sub.node_degrees(node_type)
            if expected_width:
                assert degrees.shape == (sub.num_nodes(node_type), expected_width)

    def test_degrees_match_reference_sampler(self):
        g = graph()
        fast = NeighborSampler(g, fanouts=[10, 10], seed=0)
        ref = LoopNeighborSampler(g, fanouts=[10, 10], rng=np.random.default_rng(0))
        for seed_ids, seed_times in CUTOFF_BATCHES:
            f_sub = fast.sample("customers", seed_ids, seed_times)
            r_sub = ref.sample("customers", seed_ids, seed_times)
            # Same seeds, same ctx: per-seed degree vectors must agree.
            f_deg = f_sub.node_degrees("customers")[f_sub.seed_locals]
            r_deg = r_sub.node_degrees("customers")[r_sub.seed_locals]
            np.testing.assert_array_equal(f_deg, r_deg)
            # Fanout 10 exceeds every degree, so both samplers reach the
            # same instances; each one's degrees are the graph's counts.
            assert subgraph_instances(f_sub) == subgraph_instances(r_sub)
            for node_type in f_sub.node_types:
                degrees = f_sub.node_degrees(node_type)
                for j, edge_type in enumerate(g.edge_types_into(node_type)):
                    expected = [
                        count_before(g, edge_type, orig, ctx)
                        for orig, ctx in zip(
                            f_sub.node_orig(node_type).tolist(),
                            f_sub.node_ctx_time(node_type).tolist(),
                        )
                    ]
                    assert degrees[:, j].tolist() == expected

    def test_edges_reference_valid_locals(self):
        g = graph()
        fast = NeighborSampler(g, fanouts=[4, 4], seed=2)
        sub = fast.sample("customers", np.array([0, 1]), np.array([1000, 500]))
        for et in sub.edge_types:
            src, dst = sub.edges_for(et)
            assert (src < sub.num_nodes(et.src)).all()
            assert (dst < sub.num_nodes(et.dst)).all()

    def test_leaky_mode(self):
        g = graph()
        fast = NeighborSampler(
            g, fanouts=[10], seed=0, time_respecting=False
        )
        sub = fast.sample("customers", np.array([0]), np.array([250]))
        times = g.node_times("orders")[sub.node_orig("orders")]
        assert (times > 250).any()

    def test_bad_fanout(self):
        with pytest.raises(ValueError):
            NeighborSampler(graph(), fanouts=[0], seed=0)

    def test_shape_mismatch(self):
        fast = NeighborSampler(graph(), fanouts=[2], seed=0)
        with pytest.raises(ValueError):
            fast.sample("customers", np.array([0]), np.array([1, 2]))

    def test_model_runs_on_fast_subgraph(self):
        """A HeteroGNN consumes the vectorized sampler's output directly."""
        from repro.gnn import GraphMetadata, HeteroGNN

        g = graph()
        metadata = GraphMetadata.from_graph(g)
        model = HeteroGNN(metadata, hidden_dim=8, out_dim=1, num_layers=2,
                          rng=np.random.default_rng(0))
        fast = NeighborSampler(g, fanouts=[4, 4], seed=1)
        sub = fast.sample("customers", np.array([0, 1]), np.array([1000, 1000]))
        out = model(sub, g)
        assert out.shape == (2, 1)
        out.sum().backward()


class TestUniqueMode:
    """Without-replacement draws on nodes with more neighbors than the fanout."""

    def test_exact_fanout_distinct_neighbors(self):
        g = graph()
        # Customer 0 has 3 orders; fanout 2 < 3 puts it on the
        # high-degree path, which must pick exactly 2 distinct orders.
        for seed in range(20):
            fast = NeighborSampler(g, fanouts=[2], seed=seed)
            sub = fast.sample("customers", np.array([0]), np.array([10**9]))
            orders = sub.node_orig("orders").tolist()
            assert len(orders) == 2
            assert len(set(orders)) == 2
        # Mixed cutoffs: customer 0 at two context times is two
        # instances.  At 10**9 it has 3 valid orders (truncated to 2
        # distinct); at 250 only the 2 placed by then (kept exactly);
        # customer 1 at 400 has its 2.
        order_edge = next(et for et in g.edge_types_into("customers") if et.src == "orders")
        seed_ids, seed_times = np.array([0, 0, 1]), np.array([10**9, 250, 400])
        for seed in range(20):
            fast = NeighborSampler(g, fanouts=[2], seed=seed)
            sub = fast.sample("customers", seed_ids, seed_times)
            src, dst = sub.edges_for(order_edge)
            for seed_local, seed_id, cutoff in zip(sub.seed_locals, seed_ids, seed_times):
                picked = sub.node_orig("orders")[src[dst == seed_local]].tolist()
                valid, _ = neighbors_before(g, order_edge, seed_id, cutoff)
                assert len(picked) == len(set(picked)) == min(2, len(valid))
                assert set(picked) <= set(valid.tolist())

    def test_covers_all_neighbors_across_draws(self):
        g = graph()
        seen = set()
        for seed in range(40):  # one batch draws one way per seed
            fast = NeighborSampler(g, fanouts=[2], seed=seed)
            sub = fast.sample("customers", np.array([0]), np.array([10**9]))
            seen.update(sub.node_orig("orders").tolist())
        # Customer 0's three orders are rows 0, 1, 4 of the orders table.
        assert seen == {0, 1, 4}

    def test_low_degree_path_unchanged(self):
        g = graph()
        fast = NeighborSampler(g, fanouts=[10], seed=0)
        sub = fast.sample("customers", np.array([0]), np.array([10**9]))
        ref = LoopNeighborSampler(g, fanouts=[10], rng=np.random.default_rng(0))
        ref_sub = ref.sample("customers", np.array([0]), np.array([10**9]))
        assert sorted(sub.node_orig("orders").tolist()) == sorted(
            ref_sub.node_orig("orders").tolist()
        )

    def test_mixed_degree_frontier(self):
        g = graph()
        # Fanout 2: customer 0 (3 orders) goes without-replacement,
        # customer 1 (2 orders) takes the exact low-degree path.
        fast = NeighborSampler(g, fanouts=[2, 2], seed=3)
        sub = fast.sample("customers", np.array([0, 1]), np.array([10**9, 10**9]))
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
    other_time=st.none() | st.integers(0, 600),
)
def test_property_fast_sampler_never_sees_future(seed_time, fanout, hops, rng_seed, other_time):
    """``other_time=None`` is a single-cutoff batch, else customer 1 gets its own."""
    g = build_graph(shop_db())
    fast = NeighborSampler(g, fanouts=[fanout] * hops, seed=rng_seed)
    seed_times = np.array([seed_time, seed_time if other_time is None else other_time])
    sub = fast.sample("customers", np.array([0, 1]), seed_times)
    for node_type in sub.node_types:
        node_times = g.node_times(node_type)[sub.node_orig(node_type)]
        assert (node_times <= sub.node_ctx_time(node_type)).all()
    assert set(sub.node_ctx_time("customers").tolist()) == set(seed_times.tolist())


class TestSnapshotSubgraph:
    def test_contains_all_valid_nodes_and_edges(self):
        g = graph()
        sub = snapshot_subgraph(g, 250, "customers", [0, 1])
        # Customers and products are static -> all present.
        assert sub.num_nodes("customers") == g.num_nodes("customers")
        assert sub.num_nodes("products") == g.num_nodes("products")
        # Orders: only those at ts <= 250 (ts 100, 200).
        assert sub.num_nodes("orders") == 2
        times = g.node_times("orders")[sub.node_orig("orders")]
        assert (times <= 250).all()

    def test_edges_complete_and_valid(self):
        from repro.graph import EdgeType

        g = graph()
        sub = snapshot_subgraph(g, 10**9, "customers", [0])
        et = EdgeType("orders", "customer_id", "customers")
        src, dst = sub.edges_for(et)
        assert len(src) == g.num_edges(et)

    def test_exact_degrees(self):
        g = graph()
        sub = snapshot_subgraph(g, 250, "customers", [0, 1])
        degrees = sub.node_degrees("customers")[sub.seed_locals]
        # Customer 0 has orders at 100, 200 <= 250; customer 1 has none... check via graph
        from repro.graph import EdgeType

        et = EdgeType("orders", "customer_id", "customers")
        col = g.edge_types_into("customers").index(et)
        assert degrees[0, col] == count_before(g, et, 0, 250)
        assert degrees[1, col] == count_before(g, et, 1, 250)

    def test_invalid_seed_rejected(self):
        from repro.relational import Column

        g = graph()
        # Orders node type is temporal: an order created later is invalid early.
        with pytest.raises(ValueError):
            snapshot_subgraph(g, 50, "orders", [0])

    def test_model_exact_inference_runs(self):
        from repro.gnn import GraphMetadata, HeteroGNN

        g = graph()
        metadata = GraphMetadata.from_graph(g)
        model = HeteroGNN(metadata, hidden_dim=8, out_dim=1, num_layers=2,
                          rng=np.random.default_rng(0))
        sub = snapshot_subgraph(g, 10**9, "customers", [0, 1])
        out = model(sub, g)
        assert out.shape == (2, 1)

    def test_exact_matches_sampler_with_huge_fanout(self):
        """With fanout >= max degree, sampled inference == exact inference."""
        from repro.gnn import GraphMetadata, HeteroGNN
        from repro.nn import no_grad

        g = graph()
        metadata = GraphMetadata.from_graph(g)
        model = HeteroGNN(metadata, hidden_dim=8, out_dim=1, num_layers=2,
                          rng=np.random.default_rng(0))
        exact = snapshot_subgraph(g, 10**9, "customers", [0, 1])
        sampler = NeighborSampler(g, fanouts=[100, 100], seed=1)
        sampled = sampler.sample("customers", np.array([0, 1]), np.full(2, 10**9))
        with no_grad():
            a = model(exact, g).data
            b = model(sampled, g).data
        np.testing.assert_allclose(a, b, atol=1e-10)

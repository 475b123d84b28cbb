"""Shared-memory CSR graph store: round-trip and bit-identity tests.

The :class:`~repro.graph.shared.SharedGraphStore` packs a
:class:`HeteroGraph` into one shared-memory segment; sampler workers
materialize a zero-copy view.  These tests pin the two guarantees the
parallel loader rests on:

* **round trip** — the view is observationally equal to the source
  graph (node counts/times, CSR arrays, features, keys, fingerprint),
  including edge cases: empty relations, isolated nodes, zero-node
  types, and edges timestamped exactly at a query cutoff;
* **bit-identity** — under the content-keyed RNG contract, samples
  drawn from the view are bit-identical to samples drawn from the
  source graph.

Segment lifecycle (create → listed in /dev/shm → cleanup → gone) is
covered here for the happy path; crash paths live in
``tests/test_chaos_sampling.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import make_clinical, make_ecommerce, make_forum
from repro.graph import (
    CachedSampler,
    EdgeType,
    HeteroGraph,
    NeighborSampler,
    SharedGraphStore,
    TIME_MIN,
    build_graph,
    graph_fingerprint,
    list_shared_segments,
)
from tests.conftest import assert_subgraphs_identical, shop_db
from tests.oracles import LoopNeighborSampler

GENERATORS = {
    "ecommerce": lambda: build_graph(make_ecommerce(num_customers=30, num_products=10, seed=1)),
    "forum": lambda: build_graph(make_forum(num_users=25, span_days=120, seed=1)),
    "clinical": lambda: build_graph(make_clinical(num_patients=25, span_days=180, seed=1)),
}


def assert_graphs_equivalent(a: HeteroGraph, b: HeteroGraph) -> None:
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


class TestRoundTrip:
    def test_shop_graph_round_trips(self):
        graph = build_graph(shop_db())
        store = SharedGraphStore.create(graph)
        try:
            view = store.graph()
            # Packing hashed nothing: the view's fingerprint is computed
            # on demand from the shared arrays, and equals the source's.
            assert "fingerprint" not in store._manifest
            assert getattr(view, "_fingerprint", None) is None
            assert_graphs_equivalent(graph, view)
            assert view._fingerprint == (0, graph_fingerprint(graph))
        finally:
            store.cleanup()

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_dataset_generators_round_trip(self, name):
        graph = GENERATORS[name]()
        store = SharedGraphStore.create(graph)
        try:
            assert_graphs_equivalent(graph, store.graph())
        finally:
            store.cleanup()

    def test_empty_relation_and_zero_node_type(self):
        graph = HeteroGraph()
        graph.add_node_type("a", 3, times=np.array([0, 50, 100]))
        graph.add_node_type("b", 4)          # static nodes
        graph.add_node_type("ghost", 0)      # zero nodes
        graph.add_edge_type(
            EdgeType("a", "touches", "b"), np.array([0, 2]), np.array([1, 3]),
            times=np.array([50, 100]),
        )
        graph.add_edge_type(  # empty relation
            EdgeType("b", "owns", "a"), np.empty(0, np.int64), np.empty(0, np.int64)
        )
        store = SharedGraphStore.create(graph)
        try:
            view = store.graph()
            assert_graphs_equivalent(graph, view)
            assert view.num_nodes("ghost") == 0
            assert view.num_edges(EdgeType("b", "owns", "a")) == 0
            # Isolated node 1 of type "a" has no incoming edges either way.
            assert view.in_degree(EdgeType("b", "owns", "a")).tolist() == [0, 0, 0]
        finally:
            store.cleanup()

    def test_view_arrays_are_read_only(self):
        graph = build_graph(shop_db())
        store = SharedGraphStore.create(graph)
        try:
            view = store.graph()
            with pytest.raises(ValueError):
                view.node_times("customers")[0] = 123
        finally:
            store.cleanup()


@st.composite
def tiny_graphs(draw):
    """Random small graphs with empty relations and boundary timestamps."""
    n_a = draw(st.integers(0, 5))
    n_b = draw(st.integers(1, 5))
    time_pool = [TIME_MIN, 0, 50, 100]
    graph = HeteroGraph()
    graph.add_node_type(
        "a", n_a,
        times=np.array(draw(st.lists(st.sampled_from(time_pool), min_size=n_a, max_size=n_a)),
                       dtype=np.int64),
    )
    graph.add_node_type(
        "b", n_b,
        times=np.array(draw(st.lists(st.sampled_from(time_pool), min_size=n_b, max_size=n_b)),
                       dtype=np.int64),
    )
    num_edges = draw(st.integers(0, 10)) if n_a else 0
    src = np.array(
        draw(st.lists(st.integers(0, max(n_a - 1, 0)), min_size=num_edges, max_size=num_edges)),
        dtype=np.int64,
    )
    dst = np.array(
        draw(st.lists(st.integers(0, n_b - 1), min_size=num_edges, max_size=num_edges)),
        dtype=np.int64,
    )
    etimes = np.array(
        draw(st.lists(st.sampled_from(time_pool), min_size=num_edges, max_size=num_edges)),
        dtype=np.int64,
    )
    graph.add_edge_type(EdgeType("a", "points", "b"), src, dst, times=etimes)
    graph.add_edge_type(  # always-empty reverse relation
        EdgeType("b", "back", "a"), np.empty(0, np.int64), np.empty(0, np.int64)
    )
    return graph


@settings(max_examples=25, deadline=None)
@given(graph=tiny_graphs(), cutoff=st.sampled_from([TIME_MIN, 0, 50, 100]))
def test_property_view_matches_source_at_time_boundaries(graph, cutoff):
    """Round trip + neighbors_before parity at exact edge timestamps.

    The cutoffs probed are exactly the values edges carry, so the
    ``<=`` boundary semantics of the time-sorted CSR must agree
    between the source arrays and the shared-memory views.
    """
    store = SharedGraphStore.create(graph)
    try:
        view = store.graph()
        assert_graphs_equivalent(graph, view)
        et = EdgeType("a", "points", "b")
        for dst in range(graph.num_nodes("b")):
            src_a, times_a = graph.neighbors_before(et, dst, cutoff)
            src_b, times_b = view.neighbors_before(et, dst, cutoff)
            np.testing.assert_array_equal(src_a, src_b)
            np.testing.assert_array_equal(times_a, times_b)
            assert graph.count_before(et, dst, cutoff) == view.count_before(et, dst, cutoff)
    finally:
        store.cleanup()


class TestSampleBitIdentity:
    """Samples drawn from either store are bit-identical.

    The content-keyed RNG contract seeds each draw from (fanouts,
    seeds) and from nothing about the graph object, so the draws must
    coincide exactly — through the vectorized sampler's
    array reads and through the scalar ``neighbors_before`` /
    ``count_before`` API the loop oracle ("reference") walks.
    """

    @pytest.mark.parametrize("impl", ["reference", "vectorized"])
    def test_shop_graph_samples_match(self, impl):
        graph = build_graph(shop_db())
        store = SharedGraphStore.create(graph)
        try:
            view = store.graph()

            def sampler_for(g, seed):
                cls = LoopNeighborSampler if impl == "reference" else NeighborSampler
                return CachedSampler(cls(g, [3, 3], np.random.default_rng(seed)), base_seed=11)

            ids = np.array([0, 1], dtype=np.int64)
            times = np.array([300, 10**9], dtype=np.int64)
            # Different construction-time rng seeds on purpose: the
            # contract re-seeds per batch, so they must not matter.
            sub_src = sampler_for(graph, 0).sample("customers", ids, times)
            sub_view = sampler_for(view, 999).sample("customers", ids, times)
            assert_subgraphs_identical(sub_src, sub_view)
        finally:
            store.cleanup()

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_dataset_generator_samples_match(self, name):
        graph = GENERATORS[name]()
        store = SharedGraphStore.create(graph)
        try:
            view = store.graph()
            seed_type = graph.node_types[0]
            count = min(graph.num_nodes(seed_type), 12)
            ids = np.arange(count, dtype=np.int64)
            times = np.full(count, 10**10, dtype=np.int64)
            for g, label in ((graph, "src"), (view, "view")):
                assert g.num_nodes(seed_type) >= count, label
            a = CachedSampler(
                NeighborSampler(graph, [4, 4], np.random.default_rng(0)),
                base_seed=3,
            ).sample(seed_type, ids, times)
            b = CachedSampler(
                NeighborSampler(view, [4, 4], np.random.default_rng(7)),
                base_seed=3,
            ).sample(seed_type, ids, times)
            assert_subgraphs_identical(a, b)
        finally:
            store.cleanup()


class TestLifecycle:
    def test_segment_visible_then_removed(self):
        graph = build_graph(shop_db())
        store = SharedGraphStore.create(graph)
        name = store.name
        if list_shared_segments():  # /dev/shm exists on this platform
            assert name in list_shared_segments()
        store.cleanup()
        assert name not in list_shared_segments()
        # Idempotent: double cleanup and double unlink are no-ops.
        store.cleanup()
        store.unlink()

    def test_attach_sees_same_content(self):
        graph = build_graph(shop_db())
        store = SharedGraphStore.create(graph)
        try:
            attached = SharedGraphStore.attach(store._manifest)
            try:
                assert not attached.is_owner
                assert_graphs_equivalent(graph, attached.graph())
            finally:
                attached.close()
        finally:
            store.cleanup()

    def test_closed_store_rejects_graph(self):
        graph = build_graph(shop_db())
        store = SharedGraphStore.create(graph)
        store.cleanup()
        with pytest.raises(ValueError):
            store.graph()

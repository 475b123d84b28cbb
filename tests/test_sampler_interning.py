"""The sampler's array interner against its per-node dict oracle.

``NeighborSampler`` numbers node instances by looking packed ``(node,
context rank)`` keys up in tables it owns; ``tests/oracles.DictInterner``
is the python loop that did it before.  Swapping one for the other must
not move a single local index, edge or random draw — and the tables,
being state that outlives a ``sample()``, must come back clean from
every call, including one that raises.
"""

import numpy as np
import pytest

from repro.graph import NeighborSampler, build_graph
from repro.graph.hetero import TIME_MIN
from repro.resilience.faults import InjectedFault, injected
from tests.conftest import assert_subgraphs_identical, shop_db, subgraph_instances
from tests.oracles import DictInterner, LoopNeighborSampler


def make_sampler(graph, fanouts=(3, 3), seed=0, oracle=False):
    sampler = NeighborSampler(graph, list(fanouts), seed=seed)
    if oracle:
        sampler._interner = DictInterner(graph)
    return sampler


def tables_are_clean(sampler) -> bool:
    return all((table == -1).all() for table in sampler._interner._tables.values())


@pytest.fixture(scope="module", params=["ecommerce", "forum"])
def dataset(request, small_ecommerce_db, forum_db):
    db = {"ecommerce": small_ecommerce_db, "forum": forum_db}[request.param]
    graph = build_graph(db)
    seed_type = {"ecommerce": "customers", "forum": "users"}[request.param]
    span = db.time_span()
    return graph, seed_type, [int(span[0] + (span[1] - span[0]) * f) for f in (0.5, 0.75, 1.0)]


class TestAgainstDictInterner:
    @pytest.mark.parametrize("fanouts", [(8, 8), (2, 2, 2)])
    @pytest.mark.parametrize("batch_size", [1, 16, 256])
    @pytest.mark.parametrize("cutoffs", ["one", "three"])
    def test_subgraphs_and_draws_identical(self, dataset, fanouts, batch_size, cutoffs):
        """Sizes on both sides of every shortcut; 256 > entities, so the
        large batches repeat seeds."""
        graph, seed_type, times = dataset
        rng = np.random.default_rng(batch_size)
        for trial in range(3):
            ids = rng.integers(0, graph.num_nodes(seed_type), size=batch_size)
            seed_times = np.full(batch_size, times[-1]) if cutoffs == "one" else rng.choice(times, batch_size)
            array_side = make_sampler(graph, fanouts, seed=trial)
            dict_side = make_sampler(graph, fanouts, seed=trial, oracle=True)
            assert_subgraphs_identical(
                array_side.sample(seed_type, ids, seed_times),
                dict_side.sample(seed_type, ids, seed_times),
            )
            assert tables_are_clean(array_side)

    def test_frontier_visits_types_in_the_order_a_hop_first_reached_them(self, forum_db):
        """Three hops out of a comment reach ``posts`` first through an
        edge type that finds nothing new and again through one that
        does, with other types numbered in between: the next frontier's
        order (hence every later draw and local) hangs on the first."""
        graph = build_graph(forum_db)
        cutoff = np.array([int(forum_db.time_span()[1])])
        for comment in range(40):
            array_side = make_sampler(graph, (2, 2, 2), seed=comment)
            dict_side = make_sampler(graph, (2, 2, 2), seed=comment, oracle=True)
            assert_subgraphs_identical(
                array_side.sample("comments", np.array([comment]), cutoff),
                dict_side.sample("comments", np.array([comment]), cutoff),
            )

    @pytest.mark.parametrize("batch_size", [1, 16, 256])
    def test_reaches_what_the_loop_sampler_reaches(self, dataset, batch_size):
        """With nothing left to chance (fanout above every degree) the
        node instances are the per-node loop sampler's."""
        graph, seed_type, times = dataset
        rng = np.random.default_rng(batch_size)
        ids = rng.integers(0, graph.num_nodes(seed_type), size=batch_size)
        seed_times = rng.choice(times, batch_size)
        ours = make_sampler(graph, (10**6, 10**6)).sample(seed_type, ids, seed_times)
        loop = LoopNeighborSampler(graph, [10**6, 10**6], np.random.default_rng(0))
        assert subgraph_instances(ours) == subgraph_instances(loop.sample(seed_type, ids, seed_times))


class TestInterningRules:
    def test_duplicate_seeds_share_an_instance_numbered_by_first_appearance(self):
        sampler = make_sampler(build_graph(shop_db()))
        sub = sampler.sample("customers", np.array([1, 0, 1, 1, 0]), np.full(5, 10**9))
        assert sub.seed_locals.tolist() == [0, 1, 0, 0, 1]
        assert sub.node_orig("customers").tolist() == [1, 0]
        assert sub.seed_locals.dtype == np.int64

    def test_same_node_under_two_cutoffs_is_two_instances(self):
        sampler = make_sampler(build_graph(shop_db()))
        sub = sampler.sample("customers", np.array([0, 0, 0]), np.array([250, 10**9, 250]))
        assert sub.seed_locals.tolist() == [0, 1, 0]
        assert sub.node_ctx_time("customers").tolist() == [250, 10**9]
        # Each instance's orders are the ones its own cutoff admits.
        orders = sub.node_ctx_time("orders").tolist()
        assert orders.count(250) == 2 and orders.count(10**9) == 3

    def test_a_seed_met_again_as_a_neighbor_keeps_its_local(self):
        graph = build_graph(shop_db())
        sub = make_sampler(graph).sample("customers", np.array([0]), np.array([10**9]))
        # hop 2 walks orders -> their customer, which is the seed itself
        back = next(et for et in sub.edge_types if et.src == "customers")
        assert sub.num_nodes("customers") == 1
        assert set(sub.edges_for(back)[0].tolist()) == {int(sub.seed_locals[0])}

    def test_three_cutoffs_in_one_batch_equal_their_single_cutoff_parts(self):
        graph = build_graph(shop_db())
        ids, times = np.array([0, 1, 0, 1, 0, 1]), np.array([250, 250, 450, 450, 10**9, 10**9])
        merged = subgraph_instances(make_sampler(graph).sample("customers", ids, times))
        parts = {}
        for cutoff in (250, 450, 10**9):
            rows = times == cutoff
            part = make_sampler(graph).sample("customers", ids[rows], times[rows])
            for node_type, instances in subgraph_instances(part).items():
                parts.setdefault(node_type, []).extend(instances)
        assert merged == {node_type: sorted(found) for node_type, found in parts.items()}

    def test_empty_batch(self):
        sub = make_sampler(build_graph(shop_db())).sample(
            "customers", np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert sub.node_types == [] and sub.total_edges() == 0 and len(sub.seed_locals) == 0


class TestTablesOutliveTheCall:
    def test_a_batch_after_grow_node_type_sees_the_new_node(self):
        graph, fresh_graph = build_graph(shop_db()), build_graph(shop_db())
        sampler = make_sampler(graph)
        sampler.sample("customers", np.array([0, 1]), np.array([400, 10**9]))  # sizes the tables
        for g in (graph, fresh_graph):
            g.grow_node_type("customers", np.array([TIME_MIN, TIME_MIN]), keys=np.array([30, 40]))
        ids, times = np.array([3, 0, 2]), np.array([10**9, 400, 400])
        sampler.rng = np.random.default_rng(5)
        grown = sampler.sample("customers", ids, times)
        assert grown.node_orig("customers").tolist()[:3] == [3, 0, 2]
        assert_subgraphs_identical(
            grown, make_sampler(fresh_graph, seed=5).sample("customers", ids, times)
        )
        assert tables_are_clean(sampler)

    def test_one_cutoff_then_many_then_one(self):
        """The table stride follows the batch: a wide batch must not
        leave a narrow one reading stale or out-of-range entries."""
        graph = build_graph(shop_db())
        sampler = make_sampler(graph)
        batches = [
            (np.array([0, 1]), np.array([400, 400])),
            (np.array([0, 1, 0, 1]), np.array([150, 250, 350, 450])),
            (np.array([1]), np.array([10**9])),
        ]
        for ids, times in batches:
            sampler.rng = np.random.default_rng(1)
            assert_subgraphs_identical(
                sampler.sample("customers", ids, times),
                make_sampler(graph, seed=1).sample("customers", ids, times),
            )

    @pytest.mark.parametrize("site", ["sampler.expand@1:raise", "sampler.expand@2:raise"])
    def test_a_fault_mid_expansion_leaves_the_tables_clean(self, site):
        graph = build_graph(shop_db())
        sampler = make_sampler(graph)
        ids, times = np.array([0, 1, 0]), np.array([400, 10**9, 250])
        with injected(site):
            with pytest.raises(InjectedFault):
                sampler.sample("customers", ids, times)  # seeds (and hop 1) already interned
        assert sampler._interner._tables and tables_are_clean(sampler)
        sampler.rng = np.random.default_rng(2)
        assert_subgraphs_identical(
            sampler.sample("customers", ids, times),
            make_sampler(graph, seed=2).sample("customers", ids, times),
        )

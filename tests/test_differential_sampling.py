"""Differential tests: every sampling path produces the same answers.

One sampler (:class:`repro.graph.NeighborSampler`, vectorized kernels)
feeds three paths — direct, the LRU-cached wrapper, and the
multi-process loader — and ``tests/oracles.py`` keeps the per-node loop
sampler it replaced as the reference.  This suite pins down their
relationships:

* **temporal validity** holds for the sampler and the oracle, cached or
  not;
* **distribution equivalence**: the sampler's without-replacement draws
  select each neighbor with the same frequency as the reference's;
* **bit-identity**: for one seed, the serial, cached, and parallel
  paths yield identical subgraphs, identical training histories, and
  identical eval metrics — on the e-commerce and forum datasets, end
  to end;
* **seed sharding**: the bulk ``sample_shards`` path over the
  shared-memory store matches serial and cached sampling shard for
  shard, and a warm cache keeps serving identical results across a
  worker kill.
"""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import NeighborSampler, build_graph
from repro.graph.cache import CachedSampler, LRUSubgraphCache
from repro.graph.parallel import ParallelSampleLoader
from repro.pql import PredictiveQueryPlanner
from tests.conftest import (
    assert_subgraphs_identical,
    shop_db,
    subgraph_instances,
    tiny_planner_config,
)
from tests.oracles import LoopNeighborSampler

ECOM_QUERY = "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
ECOM_LINK_QUERY = (
    "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
)
FORUM_QUERY = "PREDICT COUNT(votes VIA posts) FOR EACH users.id ASSUMING HORIZON 14 DAYS"

#: "vectorized" is the product sampler, "reference" the loop oracle.
IMPLS = {"reference": LoopNeighborSampler, "vectorized": NeighborSampler}


def build_impl(graph, impl="vectorized", fanouts=(3, 3), rng_seed=0):
    return IMPLS[impl](graph, list(fanouts), np.random.default_rng(rng_seed))


# ----------------------------------------------------------------------
# Temporal validity, sampler and oracle
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    seed_time=st.integers(0, 600),
    other_time=st.none() | st.integers(0, 600),
    fanout=st.integers(1, 6),
    rng_seed=st.integers(0, 50),
    cached=st.booleans(),
)
def test_property_no_path_sees_the_future(seed_time, other_time, fanout, rng_seed, cached):
    """``other_time=None`` is a single-cutoff batch, else customer 1 gets its own.

    Nothing newer than an instance's context time is reachable, and the
    sampler reaches exactly the nodes and degrees the oracle does
    whenever the fanout leaves nothing to chance.
    """
    g = build_graph(shop_db())
    seed_ids = np.array([0, 1])
    seed_times = np.array([seed_time, seed_time if other_time is None else other_time])
    subs = {}
    for impl in IMPLS:
        sampler = build_impl(g, impl, fanouts=(fanout, fanout), rng_seed=rng_seed)
        if cached:
            sampler = CachedSampler(sampler, base_seed=rng_seed, cache=LRUSubgraphCache(4))
        sub = subs[impl] = sampler.sample("customers", seed_ids, seed_times)
        for node_type in sub.node_types:
            node_times = g.node_times(node_type)[sub.node_orig(node_type)]
            assert (node_times <= sub.node_ctx_time(node_type)).all()
    for impl, sub in subs.items():
        seed_degrees = sub.node_degrees("customers")[sub.seed_locals]
        for j, edge_type in enumerate(g.edge_types_into("customers")):
            assert seed_degrees[:, j].tolist() == [
                g.count_before(edge_type, i, t) for i, t in zip(seed_ids, seed_times)
            ], impl
    if fanout >= 3:  # no shop node has more than 3 neighbors under one edge type
        assert subgraph_instances(subs["vectorized"]) == subgraph_instances(subs["reference"])


# ----------------------------------------------------------------------
# Distribution equivalence of without-replacement draws
# ----------------------------------------------------------------------
class TestDistributionEquivalence:
    def neighbor_frequencies(self, impl, draws=400):
        """How often each of customer 0's three orders is picked at fanout 2."""
        g = build_graph(shop_db())
        counts = {}
        for base_seed in range(draws):
            sampler = CachedSampler(build_impl(g, impl, fanouts=(2,)), base_seed=base_seed)
            sub = sampler.sample("customers", np.array([0]), np.array([10**9]))
            for orig in sub.node_orig("orders").tolist():
                counts[orig] = counts.get(orig, 0) + 1
        return counts

    @pytest.mark.parametrize("impl", IMPLS)
    def test_each_neighbor_uniformly_likely(self, impl):
        # 2 of 3 orders per draw -> expected count = draws * 2/3 ≈ 267.
        # sigma = sqrt(400 * 2/3 * 1/3) ≈ 9.4; allow ±5 sigma.
        counts = self.neighbor_frequencies(impl)
        assert set(counts) == {0, 1, 4}  # customer 0's orders
        for value in counts.values():
            assert abs(value - 400 * 2 / 3) < 50

    def test_reference_and_unique_mode_distributions_agree(self):
        ref = self.neighbor_frequencies("reference")
        uni = self.neighbor_frequencies("vectorized")
        assert set(ref) == set(uni)
        for orig in ref:
            assert abs(ref[orig] - uni[orig]) < 70  # both near 267


# ----------------------------------------------------------------------
# Subgraph-level bit-identity of serial / cached / parallel paths
# ----------------------------------------------------------------------
class TestSubgraphBitIdentity:
    @pytest.mark.parametrize("impl", IMPLS)
    def test_serial_cached_parallel_identical(self, impl):
        """Re-seeding per batch makes any base sampler pure, so cached ==
        serial for the oracle too; worker processes run the product
        sampler, so parallel == serial is checked for it alone."""
        g = build_graph(shop_db())
        ids = np.array([0, 1], dtype=np.int64)
        times = np.array([400, 10**9], dtype=np.int64)
        batches = [np.array([0]), np.array([1]), np.array([0, 1])]

        serial = CachedSampler(build_impl(g, impl), base_seed=0)
        cached = CachedSampler(build_impl(g, impl), base_seed=0, cache=LRUSubgraphCache(8))
        with ParallelSampleLoader(
            CachedSampler(build_impl(g), base_seed=0, cache=LRUSubgraphCache(8)),
            num_workers=2,
        ) as loader:
            for batch, parallel_sub in loader.iter_epoch("customers", ids, times, batches):
                serial_sub = serial.sample("customers", ids[batch], times[batch])
                for trial in range(2):  # second round hits the cache
                    cached_sub = cached.sample("customers", ids[batch], times[batch])
                    assert_subgraphs_identical(serial_sub, cached_sub)
                if impl == "vectorized":
                    assert_subgraphs_identical(serial_sub, parallel_sub)


    @pytest.mark.parametrize("batch_size", [1, 16, 256])
    def test_identity_holds_at_every_batch_size(self, small_ecommerce_db, batch_size):
        """One seed, a few, and more than there are entities (repeated
        seeds, two cutoffs): the interner takes a different shortcut
        for each.  serial == cached == parallel draw for draw, and with
        the fanout above every degree the loop oracle reaches the same
        instances."""
        g = build_graph(small_ecommerce_db)
        span = small_ecommerce_db.time_span()
        rng = np.random.default_rng(batch_size)
        ids = rng.integers(0, g.num_nodes("customers"), size=3 * batch_size)
        times = rng.choice([(span[0] + span[1]) // 2, span[1]], size=3 * batch_size)
        batches = [np.arange(i * batch_size, (i + 1) * batch_size) for i in range(3)]

        serial = CachedSampler(build_impl(g), base_seed=0)
        cached = CachedSampler(build_impl(g), base_seed=0, cache=LRUSubgraphCache(8))
        with ParallelSampleLoader(CachedSampler(build_impl(g), base_seed=0), num_workers=2) as loader:
            for batch, parallel_sub in loader.iter_epoch("customers", ids, times, batches):
                serial_sub = serial.sample("customers", ids[batch], times[batch])
                assert_subgraphs_identical(serial_sub, parallel_sub)
                for trial in range(2):  # second round hits the cache
                    assert_subgraphs_identical(
                        serial_sub, cached.sample("customers", ids[batch], times[batch])
                    )
        exhaustive = {impl: build_impl(g, impl, fanouts=(10**6, 10**6)) for impl in IMPLS}
        for batch in batches:
            product, oracle = (
                exhaustive[impl].sample("customers", ids[batch], times[batch])
                for impl in ("vectorized", "reference")
            )
            assert subgraph_instances(product) == subgraph_instances(oracle)


# ----------------------------------------------------------------------
# Seed-sharded bulk sampling over the shared-memory store
# ----------------------------------------------------------------------
class TestShardedSeedPath:
    """``sample_shards``: serial == cached == parallel, shard for shard.

    The loader shards the seed entities contiguously across workers;
    each shard is one batch under the content-keyed contract, so
    recomputing the same shard partition serially must be bit-identical.
    """

    @staticmethod
    def shard_batches(total, shard_size):
        return [
            np.arange(start, min(start + shard_size, total), dtype=np.int64)
            for start in range(0, total, shard_size)
        ]

    def check_sharded(self, graph, seed_type):
        n = graph.num_nodes(seed_type)
        ids = np.arange(n, dtype=np.int64)
        times = np.full(n, 10**10, dtype=np.int64)
        serial = CachedSampler(build_impl(graph), base_seed=0)
        cached = CachedSampler(build_impl(graph), base_seed=0, cache=LRUSubgraphCache(16))
        with ParallelSampleLoader(
            CachedSampler(build_impl(graph), base_seed=0, cache=LRUSubgraphCache(16)),
            num_workers=2,
        ) as loader:
            shards = loader.sample_shards(seed_type, ids, times)
            batches = self.shard_batches(n, max(1, -(-n // 2)))
            assert len(shards) == len(batches)
            for batch, shard_sub in zip(batches, shards):
                expected = serial.sample(seed_type, ids[batch], times[batch])
                assert_subgraphs_identical(expected, shard_sub)
                for _ in range(2):  # second round is a cache hit
                    assert_subgraphs_identical(
                        expected, cached.sample(seed_type, ids[batch], times[batch])
                    )

    def test_sharded_seeds_match_serial_on_ecommerce(self, small_ecommerce_db):
        self.check_sharded(build_graph(small_ecommerce_db), "customers")

    @pytest.mark.slow
    def test_sharded_seeds_match_serial_on_forum(self, forum_db):
        self.check_sharded(build_graph(forum_db), "users")

    def test_warm_cache_survives_worker_kill(self):
        """Kill the workers after a warm epoch: cache hits keep flowing,
        and fresh batches fall back in-process — all bit-identical."""
        g = build_graph(shop_db())
        ids = np.array([0, 1], dtype=np.int64)
        times = np.array([400, 10**9], dtype=np.int64)
        warm_batches = [np.array([0]), np.array([1])]
        fresh_batches = [np.array([0, 1]), np.array([1, 0])]
        serial = CachedSampler(build_impl(g), base_seed=0)
        loader = ParallelSampleLoader(
            CachedSampler(build_impl(g), base_seed=0, cache=LRUSubgraphCache(16)),
            num_workers=2,
        )
        try:
            if loader._executor is None:
                pytest.skip("worker pool unavailable on this host")
            first = {
                tuple(batch.tolist()): sub
                for batch, sub in loader.iter_epoch("customers", ids, times, warm_batches)
            }
            for pid in list(loader._executor._processes):
                os.kill(pid, signal.SIGKILL)
            # Replay the warm epoch: every batch is a cache hit, so the
            # dead pool is never touched and results are unchanged.
            for batch, sub in loader.iter_epoch("customers", ids, times, warm_batches):
                assert_subgraphs_identical(first[tuple(batch.tolist())], sub)
            # Fresh batches must dispatch, hit the broken pool, and
            # degrade to in-process sampling — still bit-identical.
            for batch, sub in loader.iter_epoch("customers", ids, times, fresh_batches):
                assert_subgraphs_identical(
                    serial.sample("customers", ids[batch], times[batch]), sub
                )
            assert loader._executor is None
        finally:
            loader.close()


# ----------------------------------------------------------------------
# Full-pipeline bit-identity: training + eval through the planner
# ----------------------------------------------------------------------
def fit_once(db, split, query, **overrides):
    config = tiny_planner_config(epochs=2, **overrides)
    model = PredictiveQueryPlanner(db, config).fit(query, split)
    return model


def history_of(model):
    trainer = model.node_trainer or model.link_trainer
    return (trainer.history.train_loss, trainer.history.val_loss)


class TestPipelineBitIdentity:
    def test_cached_and_parallel_match_reference_on_ecommerce(
        self, small_ecommerce_db, small_ecommerce_split
    ):
        db, split = small_ecommerce_db, small_ecommerce_split
        base = fit_once(db, split, ECOM_QUERY)
        cached = fit_once(db, split, ECOM_QUERY, cache_size=256)
        parallel = fit_once(db, split, ECOM_QUERY, cache_size=256, num_workers=2)
        workers4 = fit_once(db, split, ECOM_QUERY, num_workers=4, prefetch_batches=4)

        expected = base.evaluate(split.test_cutoff)
        for model in (cached, parallel, workers4):
            assert model.evaluate(split.test_cutoff) == expected
            assert history_of(model) == history_of(base)
        stats = cached.sampler_cache_stats()
        assert stats is not None and stats["hits"] > 0

    @pytest.mark.slow
    def test_link_task_is_path_invariant(self, small_ecommerce_db, small_ecommerce_split):
        db, split = small_ecommerce_db, small_ecommerce_split
        base = fit_once(db, split, ECOM_LINK_QUERY)
        parallel = fit_once(db, split, ECOM_LINK_QUERY, cache_size=256, num_workers=2)
        assert parallel.evaluate(split.test_cutoff, k=10) == base.evaluate(
            split.test_cutoff, k=10
        )
        assert history_of(parallel) == history_of(base)

    @pytest.mark.slow
    def test_cached_and_parallel_match_reference_on_forum(self, forum_db, forum_split):
        base = fit_once(forum_db, forum_split, FORUM_QUERY)
        cached = fit_once(forum_db, forum_split, FORUM_QUERY, cache_size=256)
        parallel = fit_once(
            forum_db, forum_split, FORUM_QUERY, cache_size=256, num_workers=2
        )
        expected = base.evaluate(forum_split.test_cutoff)
        for model in (cached, parallel):
            assert model.evaluate(forum_split.test_cutoff) == expected
            assert history_of(model) == history_of(base)


class TestBatchedPrediction:
    """predict()/rank_items() accept per-entity cutoff vectors."""

    @pytest.fixture(scope="class")
    def model(self, small_ecommerce_db, small_ecommerce_split):
        return fit_once(small_ecommerce_db, small_ecommerce_split, ECOM_QUERY)

    def test_uniform_vector_cutoff_matches_scalar(
        self, model, small_ecommerce_db, small_ecommerce_split
    ):
        keys = small_ecommerce_db["customers"]["id"].values[:6]
        cutoff = small_ecommerce_split.test_cutoff
        scalar = model.predict(keys, cutoff)
        batched = model.predict(keys, np.full(6, cutoff, dtype=np.int64))
        np.testing.assert_array_equal(batched, scalar)

    def test_mixed_cutoffs_are_deterministic(
        self, model, small_ecommerce_db, small_ecommerce_split
    ):
        keys = small_ecommerce_db["customers"]["id"].values[:6]
        cutoff = small_ecommerce_split.test_cutoff
        cutoffs = np.array([cutoff - 86400 * i for i in range(6)])
        first = model.predict(keys, cutoffs)
        second = model.predict(keys, cutoffs)
        assert first.shape == (6,)
        np.testing.assert_array_equal(first, second)

    def test_cutoff_shape_mismatch_rejected(
        self, model, small_ecommerce_db, small_ecommerce_split
    ):
        keys = small_ecommerce_db["customers"]["id"].values[:4]
        with pytest.raises(ValueError):
            model.predict(keys, np.array([1, 2]))

"""Tests for the multi-process sample loader.

Everything rides on the deterministic contract: a worker's subgraph
must be bit-identical to the serial path's, so worker count, prefetch
depth, and scheduling order are unobservable in the results.
"""

import numpy as np
import pytest

from repro.graph import NeighborSampler, build_graph
from repro.graph.cache import CachedSampler, LRUSubgraphCache
from repro.graph.parallel import ParallelSampleLoader
from repro.obs import get_registry
from tests.conftest import assert_subgraphs_identical, shop_db


@pytest.fixture(scope="module")
def graph():
    return build_graph(shop_db())


def make_cached(graph, cache_size=16, seed=0):
    base = NeighborSampler(graph, fanouts=[3, 3], rng=np.random.default_rng(0))
    cache = LRUSubgraphCache(cache_size) if cache_size else None
    return CachedSampler(base, base_seed=seed, cache=cache)


def epoch_batches():
    # Two customers; batches repeat so the cache path gets exercised.
    ids = np.array([0, 1], dtype=np.int64)
    times = np.array([10**9, 10**9], dtype=np.int64)
    batches = [np.array([0]), np.array([1]), np.array([0, 1]), np.array([0])]
    return ids, times, batches


class TestSerialPath:
    def test_zero_workers_matches_direct_sampling(self, graph):
        ids, times, batches = epoch_batches()
        direct = make_cached(graph)
        loader = ParallelSampleLoader(make_cached(graph), num_workers=0)
        produced = list(loader.iter_epoch("customers", ids, times, batches))
        assert len(produced) == len(batches)
        for (batch, subgraph), expected_batch in zip(produced, batches):
            np.testing.assert_array_equal(batch, expected_batch)
            assert_subgraphs_identical(
                subgraph, direct.sample("customers", ids[expected_batch], times[expected_batch])
            )

    def test_wraps_plain_sampler_in_cached(self, graph):
        plain = NeighborSampler(graph, fanouts=[2], rng=np.random.default_rng(0))
        loader = ParallelSampleLoader(plain, num_workers=0)
        assert isinstance(loader.sampler, CachedSampler)
        loader.close()

    def test_invalid_args_rejected(self, graph):
        with pytest.raises(ValueError):
            ParallelSampleLoader(make_cached(graph), num_workers=-1)
        with pytest.raises(ValueError):
            ParallelSampleLoader(make_cached(graph), num_workers=0, prefetch_batches=-1)


class TestParallelPath:
    def test_workers_match_serial_bit_for_bit(self, graph):
        ids, times, batches = epoch_batches()
        serial = make_cached(graph)
        with ParallelSampleLoader(make_cached(graph), num_workers=2) as loader:
            for (batch, subgraph) in loader.iter_epoch("customers", ids, times, batches):
                assert_subgraphs_identical(
                    subgraph, serial.sample("customers", ids[batch], times[batch])
                )

    def test_yields_in_submission_order(self, graph):
        ids, times, batches = epoch_batches()
        with ParallelSampleLoader(
            make_cached(graph), num_workers=2, prefetch_batches=4
        ) as loader:
            order = [batch.tolist() for batch, _ in
                     loader.iter_epoch("customers", ids, times, batches)]
        assert order == [b.tolist() for b in batches]

    def test_worker_results_warm_the_cache(self, graph):
        ids, times, batches = epoch_batches()
        loader = ParallelSampleLoader(make_cached(graph), num_workers=2)
        try:
            list(loader.iter_epoch("customers", ids, times, batches))
            stats_first = loader.sampler.cache.stats()
            # The prefetch window (2 workers + 2) covers all 4 batches,
            # so the in-epoch repeat is submitted before the first
            # result lands: every batch misses on the cold epoch.
            assert stats_first["misses"] == len(batches)
            assert stats_first["hits"] == 0
            # Warm epoch: every batch is a hit, nothing is dispatched.
            list(loader.iter_epoch("customers", ids, times, batches))
            stats_second = loader.sampler.cache.stats()
            assert stats_second["misses"] == len(batches)
            assert stats_second["hits"] == len(batches)
        finally:
            loader.close()

    def test_one_off_sample_goes_through_cache(self, graph):
        loader = ParallelSampleLoader(make_cached(graph), num_workers=0)
        ids, times = np.array([0, 1]), np.array([10**9, 10**9])
        a = loader.sample("customers", ids, times)
        b = loader.sample("customers", ids, times)
        assert b is a
        loader.close()

    def test_close_is_idempotent(self, graph):
        loader = ParallelSampleLoader(make_cached(graph), num_workers=1)
        loader.close()
        loader.close()
        # Still usable serially after close.
        ids, times, batches = epoch_batches()
        produced = list(loader.iter_epoch("customers", ids, times, batches))
        assert len(produced) == len(batches)


class _FailingFuture:
    def result(self):
        raise RuntimeError("worker exploded")


class _FailingExecutor:
    def submit(self, *args, **kwargs):
        return _FailingFuture()

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestFallback:
    def test_worker_failure_degrades_to_serial(self, graph):
        ids, times, batches = epoch_batches()
        serial = make_cached(graph)
        # Window of 1: only one batch is in flight when the failure
        # hits, so exactly one fallback is recorded before the pool is
        # retired and the rest of the epoch goes serial.
        loader = ParallelSampleLoader(make_cached(graph), num_workers=1, prefetch_batches=0)
        loader.close()
        loader._executor = _FailingExecutor()  # every dispatch fails
        before = get_registry().counter("sampler.parallel.fallbacks").value
        produced = list(loader.iter_epoch("customers", ids, times, batches))
        # The run survives and results are still bit-identical.
        assert len(produced) == len(batches)
        for batch, subgraph in produced:
            assert_subgraphs_identical(
                subgraph, serial.sample("customers", ids[batch], times[batch])
            )
        assert loader._executor is None
        assert get_registry().counter("sampler.parallel.fallbacks").value == before + 1

    def test_no_shared_memory_falls_back_to_fork_inheritance(self, graph, monkeypatch):
        """Hosts without usable shm: workers inherit the graph, same results."""
        from repro.graph.shared import SharedGraphStore, list_shared_segments

        def unavailable(cls, graph):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(SharedGraphStore, "create", classmethod(unavailable))
        segments_before = set(list_shared_segments())
        ids, times, batches = epoch_batches()
        serial = make_cached(graph)
        with ParallelSampleLoader(make_cached(graph, cache_size=0), num_workers=2) as loader:
            if loader._executor is None:
                pytest.skip("worker pool unavailable on this host")
            assert loader._store is None
            for batch, subgraph in loader.iter_epoch("customers", ids, times, batches):
                assert_subgraphs_identical(
                    subgraph, serial.sample("customers", ids[batch], times[batch])
                )
            assert loader._executor is not None  # the workers did the sampling
        assert set(list_shared_segments()) == segments_before

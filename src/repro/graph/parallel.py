"""Multi-process minibatch sampling over a shared-memory graph.

:class:`ParallelSampleLoader` shards the per-batch subgraph sampling
of an epoch across worker processes so that sampling overlaps model
compute: while the trainer runs forward/backward on batch *j*, the
workers are already sampling batches *j+1 … j+window*.

Determinism is inherited from the contract in
:mod:`repro.graph.cache`: every batch's generator seed is derived
from the batch *content* (:func:`~repro.graph.cache.batch_rng_seed`),
so the subgraph a worker produces is bit-identical to the one the
serial path would have produced — regardless of worker count,
scheduling order, chunking, or prefetch depth.  Batches are yielded
strictly in submission order.

Zero-copy IPC
-------------

The graph itself never crosses a pipe.  The loader packs it into a
:class:`~repro.graph.shared.SharedGraphStore` — one shared-memory
segment of contiguous CSR/columnar arrays — and forked workers
materialize a read-only view that aliases the segment (when shared
memory is unavailable, workers fall back to plain fork inheritance,
which still shares pages copy-on-write).  Results travel back as
compact per-type index arrays
(:meth:`~repro.graph.sampler.SampledSubgraph.to_arrays`), not pickled
object graphs, and cache-miss batches are dispatched in *chunks* —
about one per worker — so per-task executor overhead is amortized
across the epoch.  Workers are spawned eagerly at construction so the
fork cost lands in setup, not in the first timed epoch.

The segment lifecycle is explicit: :meth:`close` unmaps and unlinks
the store, an ``atexit`` hook covers abandoned loaders, and the
resource-tracker registration made at create time removes the segment
even if the parent is ``kill -9``-ed (see :mod:`repro.graph.shared`).
Workers arm ``PR_SET_PDEATHSIG`` so parent death terminates them too —
otherwise orphaned workers would pin the call-queue pipes (and with
them the resource tracker) open forever.

Any failure to create or use the pool degrades the loader to
in-process sampling with a logged warning and a
``sampler.parallel.fallbacks`` counter — a slow epoch beats a dead
run (the repo-wide resilience posture).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.cache import CachedSampler
from repro.graph.sampler import NeighborSampler, SampledSubgraph
from repro.graph.shared import SharedGraphStore
from repro.obs import get_logger, get_registry
from repro.obs import trace as obs_trace

__all__ = ["ParallelSampleLoader"]

_log = get_logger("graph.parallel")

#: Per-worker state installed by the fork initializer.
_WORKER: Dict[str, object] = {}

#: Upper bound on batches per dispatched chunk; keeps the fallback
#: re-sampling cost of one lost chunk bounded on very long epochs.
_MAX_CHUNK = 32


def _arm_parent_death_signal(parent_pid: int) -> None:
    """Make this worker die when its parent does (Linux only, best effort).

    Fork-pool workers block reading the call queue; because every
    sibling inherits the queue's write end, they never see EOF when the
    parent is ``kill -9``-ed and would survive as orphans — keeping the
    resource tracker (and the shared-memory segment) alive.
    ``PR_SET_PDEATHSIG`` turns parent death into a ``SIGTERM`` here, so
    the tracker drains and unlinks the segment.
    """
    try:
        import ctypes

        PR_SET_PDEATHSIG = 1
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, int(signal.SIGTERM), 0, 0, 0)
    except Exception:  # noqa: BLE001 - non-Linux or no libc: skip
        return
    if os.getppid() != parent_pid:
        # The parent died in the window before prctl armed: exit now.
        os._exit(1)


def _init_worker(graph_source, fanouts, time_respecting: bool, parent_pid: int) -> None:
    _arm_parent_death_signal(parent_pid)
    if isinstance(graph_source, SharedGraphStore):
        graph = graph_source.graph()
    else:
        graph = graph_source
    _WORKER["sampler"] = NeighborSampler(
        graph,
        fanouts=fanouts,
        rng=np.random.default_rng(0),  # re-seeded per task
        time_respecting=time_respecting,
    )


def _worker_ready() -> bool:
    """Probe task used to spawn and verify workers eagerly."""
    return _WORKER.get("sampler") is not None


def _sample_chunk_task(
    seed_type: str, payload: List[Tuple[np.ndarray, np.ndarray, int]]
) -> List[Dict[str, object]]:
    """Sample a chunk of batches; returns compact array payloads."""
    sampler = _WORKER["sampler"]
    results = []
    for seed_ids, seed_times, rng_seed in payload:
        sampler.rng = np.random.default_rng(rng_seed)
        results.append(sampler.sample(seed_type, seed_ids, seed_times).to_arrays())
    return results


class ParallelSampleLoader:
    """Samples minibatch subgraphs on worker processes, in order.

    Parameters
    ----------
    sampler:
        A :class:`~repro.graph.cache.CachedSampler` (or any sampler,
        which will be wrapped in one).  Its fanouts, base seed, and
        cache define both the serial fallback path and the worker
        configuration — one source of truth, so the two paths cannot
        drift.
    num_workers:
        Worker processes; ``0`` means sample in-process (the loader
        then only adds cache handling).
    prefetch_batches:
        Extra batches kept in flight beyond the chunked per-worker
        window.  Bounds both memory and speculative work lost to an
        abandoned epoch.
    """

    def __init__(
        self,
        sampler,
        num_workers: int = 0,
        prefetch_batches: int = 2,
    ) -> None:
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        if prefetch_batches < 0:
            raise ValueError(f"prefetch_batches must be >= 0, got {prefetch_batches}")
        if not isinstance(sampler, CachedSampler):
            sampler = CachedSampler(sampler)
        self.sampler = sampler
        self.num_workers = int(num_workers)
        self.prefetch_batches = int(prefetch_batches)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._store: Optional[SharedGraphStore] = None
        #: Graph version the workers' copy of the graph was taken at.
        self._pool_version = -1
        if self.num_workers > 0:
            self._executor = self._start_pool()

    # -- pool lifecycle -------------------------------------------------
    def _start_pool(self) -> Optional[ProcessPoolExecutor]:
        graph_source = self.sampler.graph
        self._pool_version = graph_source.version
        store = None
        try:
            store = SharedGraphStore.create(self.sampler.graph)
            graph_source = store
        except Exception as err:  # noqa: BLE001 - degrade, don't die
            _log.warning(
                f"shared graph store unavailable ({type(err).__name__}: {err}); "
                "workers inherit the graph instead",
                extra={"num_workers": self.num_workers},
            )
        executor = None
        try:
            context = multiprocessing.get_context("fork")
            executor = ProcessPoolExecutor(
                max_workers=self.num_workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(
                    graph_source, list(self.sampler.fanouts),
                    self.sampler.time_respecting, os.getpid(),
                ),
            )
            # Spawn + verify the workers now: the fork cost belongs to
            # loader setup, not to the first epoch, and an initializer
            # failure should degrade immediately rather than mid-run.
            probes = [executor.submit(_worker_ready) for _ in range(self.num_workers)]
            for probe in probes:
                if not probe.result(timeout=120):
                    raise RuntimeError("worker initializer left no sampler")
        except Exception as err:  # noqa: BLE001 - degrade, don't die
            self._note_fallback(
                f"worker pool unavailable ({type(err).__name__}: {err}); "
                "sampling in-process"
            )
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)
            if store is not None:
                store.cleanup()
            return None
        self._store = store
        return executor

    def _note_fallback(self, message: str) -> None:
        get_registry().counter("sampler.parallel.fallbacks").inc()
        if obs_trace.enabled():
            obs_trace.add_counter("sampler.parallel.fallbacks")
        _log.warning(message, extra={"num_workers": self.num_workers})

    def close(self) -> None:
        """Shut the pool down and release the shared-memory segment.

        The loader stays usable serially.  Waits for workers to exit:
        an abandoned fork pool tears down its pipes at interpreter
        exit and spews ``Bad file descriptor`` tracebacks from the
        atexit hook.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self._store is not None:
            self._store.cleanup()
            self._store = None

    def __enter__(self) -> "ParallelSampleLoader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- epoch iteration ------------------------------------------------
    def iter_epoch(
        self,
        seed_type: str,
        seed_ids: np.ndarray,
        seed_times: np.ndarray,
        batches: Sequence[np.ndarray],
    ) -> Iterator[Tuple[np.ndarray, SampledSubgraph]]:
        """Yield ``(batch_indices, subgraph)`` for every batch, in order.

        ``batches`` are index arrays into ``seed_ids``/``seed_times``
        (the trainer's shuffled batch slices).  Cache hits are served
        without touching the pool; misses are grouped into chunks of
        roughly ``len(batches) / num_workers`` (at most ``32``) and
        dispatched up to the prefetch window ahead of consumption,
        with results decoded zero-copy and inserted into the cache as
        they arrive.
        """
        seed_ids = np.asarray(seed_ids, dtype=np.int64)
        seed_times = np.asarray(seed_times, dtype=np.int64)
        batches = list(batches)
        n = len(batches)
        cache = self.sampler.cache
        self.sampler.reconcile()
        if self._executor is not None and self._pool_version != self.sampler.graph.version:
            # The workers sample a copy of the graph taken at pool
            # start; the graph has grown since, so take a new one.
            self.close()
            self._executor = self._start_pool()
        if self._executor is not None and self.num_workers > 0:
            chunk_size = min(_MAX_CHUNK, max(1, -(-n // self.num_workers)))
        else:
            chunk_size = 1
        window = max(self.num_workers, 1) * chunk_size + self.prefetch_batches
        #: position -> ("hit", subgraph) | ("chunk", record, index-in-chunk)
        state: Dict[int, Tuple] = {}
        #: accumulating chunk of cache misses: (position, key, ids, times)
        pending: List[Tuple[int, bytes, np.ndarray, np.ndarray]] = []
        next_submit = 0

        def flush() -> None:
            nonlocal pending
            if not pending:
                return
            items, pending = pending, []
            if self._executor is None:
                for position, _, ids, times in items:
                    state[position] = ("hit", self.sampler.sample(seed_type, ids, times))
                return
            payload = [
                (ids, times, int.from_bytes(key[:8], "little"))
                for _, key, ids, times in items
            ]
            try:
                future = self._executor.submit(_sample_chunk_task, seed_type, payload)
            except Exception as err:  # noqa: BLE001 - degrade, don't die
                self._note_fallback(
                    f"chunk dispatch failed ({type(err).__name__}: {err}); "
                    "resampling in-process and retiring the pool"
                )
                self.close()
                for position, _, ids, times in items:
                    state[position] = ("hit", self.sampler.sample(seed_type, ids, times))
                return
            record = {"future": future, "items": items, "results": None}
            for index, (position, _, _, _) in enumerate(items):
                state[position] = ("chunk", record, index)

        def resolve(record: Dict[str, object]) -> None:
            if record["results"] is not None:
                return
            items = record["items"]
            try:
                payloads = record["future"].result()
                if len(payloads) != len(items):
                    raise RuntimeError("worker returned a mis-sized chunk")
                decoded = [SampledSubgraph.from_arrays(p) for p in payloads]
            except Exception as err:  # noqa: BLE001 - degrade, don't die
                self._note_fallback(
                    f"worker chunk failed ({type(err).__name__}: {err}); "
                    "resampling in-process and retiring the pool"
                )
                self.close()
                record["results"] = [
                    self.sampler.sample(seed_type, ids, times)
                    for _, _, ids, times in items
                ]
                return
            if cache is not None:
                for (_, key, _, _), subgraph in zip(items, decoded):
                    cache.put(key, subgraph)
            record["results"] = decoded

        for position in range(n):
            while next_submit < n and next_submit - position < window:
                batch = batches[next_submit]
                ids, times = seed_ids[batch], seed_times[batch]
                if self._executor is None:
                    # Serial path: CachedSampler re-derives the same key.
                    state[next_submit] = ("hit", self.sampler.sample(seed_type, ids, times))
                else:
                    key = self.sampler.batch_key(seed_type, ids, times)
                    hit = cache.get(key) if cache is not None else None
                    if hit is not None:
                        state[next_submit] = ("hit", hit)
                    else:
                        pending.append((next_submit, key, ids, times))
                        if len(pending) >= chunk_size:
                            flush()
                next_submit += 1
            if position not in state:
                flush()

            entry = state.pop(position)
            if entry[0] == "hit":
                subgraph = entry[1]
            else:
                _, record, index = entry
                resolve(record)
                subgraph = record["results"][index]
                if obs_trace.enabled():
                    obs_trace.add_counter("sampler.parallel.batches")
            yield batches[position], subgraph

    # -- seed sharding ---------------------------------------------------
    def sample_shards(
        self,
        seed_type: str,
        seed_ids: np.ndarray,
        seed_times: np.ndarray,
        shard_size: Optional[int] = None,
    ) -> List[SampledSubgraph]:
        """Shard the seed entities contiguously and sample every shard.

        ``shard_size`` defaults to an even split across the workers
        (the whole seed set as one shard when serial).  Each shard is
        one batch under the content-keyed contract, so the result list
        is bit-identical to sampling the same shards serially — this
        is the bulk "seed-sharded" entry point used for whole-split
        scoring and the differential suite.
        """
        seed_ids = np.asarray(seed_ids, dtype=np.int64)
        seed_times = np.asarray(seed_times, dtype=np.int64)
        total = len(seed_ids)
        if total == 0:
            return []
        if shard_size is None:
            shard_size = max(1, -(-total // max(self.num_workers, 1)))
        if shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        batches = [
            np.arange(start, min(start + shard_size, total), dtype=np.int64)
            for start in range(0, total, shard_size)
        ]
        return [
            subgraph
            for _, subgraph in self.iter_epoch(seed_type, seed_ids, seed_times, batches)
        ]

    def sample(
        self, seed_type: str, seed_ids: np.ndarray, seed_times: np.ndarray
    ) -> SampledSubgraph:
        """One-off in-process sample through the shared cache."""
        return self.sampler.sample(seed_type, seed_ids, seed_times)

"""Subgraph memoization and the deterministic sampling contract.

The throughput layer (this module plus
:mod:`repro.graph.parallel`) rests on one invariant:

    **Sampling is a pure function of the batch.**  The subgraph for a
    batch depends only on (fanouts, time-respecting flag, base seed,
    seed type, seed ids, seed times)
    drawn against the current graph — never on how many batches were
    sampled before it, which worker sampled it, or whether a cache
    served it.

:class:`CachedSampler` enforces the invariant by re-seeding the
wrapped sampler's generator from a content digest before every draw
(:func:`batch_rng_seed`).  Because the draw is pure, a memoized
subgraph is *bit-identical* to a re-sampled one, so the LRU cache and
the parallel loader are semantically invisible: serial, cached, and
multi-worker runs produce the same metrics for a fixed seed.  The
differential test suite (``tests/test_differential_sampling.py``)
locks this in.

The cache key is the 16-byte batch digest and the RNG seed its first
8 bytes; the graph is deliberately *not* an input.  That is what
makes incremental ingest cheap: after a delta grows the graph, a
cached subgraph that provably cannot see the new rows (no touched node
at a context time that admits them) is *still* bit-identical to a
fresh draw, because the draw's RNG stream did not move and every CSR
prefix it read is unchanged.  :class:`CachedSampler` reads the graph's
change journal before answering from a newer graph and keeps exactly
those entries — nobody has to tell it that a delta landed.

:class:`LRUSubgraphCache` memoizes :class:`~repro.graph.sampler.SampledSubgraph`
values across epochs and across train/eval phases, keyed on the same
digest.  Hit/miss/eviction counts are mirrored into the global
:mod:`repro.obs.metrics` registry (``sampler.cache.*``) and, inside a
trace window, onto the current span — so ``--profile`` reports show
cache behavior per stage.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.hetero import TIME_MIN, HeteroGraph
from repro.graph.sampler import SampledSubgraph
from repro.obs import get_registry
from repro.obs import trace as obs_trace

__all__ = [
    "graph_fingerprint",
    "batch_rng_seed",
    "LRUSubgraphCache",
    "CachedSampler",
]


def graph_fingerprint(graph: HeteroGraph) -> str:
    """A stable digest of the graph's structure and timestamps.

    The cold-rebuild equality oracle: two graphs built from the same
    database contents share a fingerprint; any change to node counts,
    edges, or timestamps changes it.  It hashes every CSR array (the
    ones a :class:`~repro.graph.shared.SharedGraphStore` packs, so a
    view fingerprints like its source), so nothing on the sampling or
    refresh path asks for it: computed on demand, memoized per version.
    """
    cached = getattr(graph, "_fingerprint", None)
    if cached is not None and cached[0] == graph.version:
        return cached[1]
    digest = hashlib.blake2b(digest_size=16)
    for node_type in sorted(graph.node_types):
        digest.update(node_type.encode())
        digest.update(np.int64(graph.num_nodes(node_type)).tobytes())
        digest.update(np.ascontiguousarray(graph.node_times(node_type)).tobytes())
    for edge_type in sorted(graph.edge_types, key=str):
        store = graph._edges[edge_type]
        digest.update(str(edge_type).encode())
        digest.update(np.ascontiguousarray(store.nbr_src).tobytes())
        digest.update(np.ascontiguousarray(store.nbr_time).tobytes())
        digest.update(np.ascontiguousarray(store.indptr).tobytes())
    fingerprint = digest.hexdigest()
    graph._fingerprint = (graph.version, fingerprint)
    return fingerprint


#: First bytes of every batch digest.  They once named the sampler
#: implementation; the tag of the surviving exact-fanout kernel is kept
#: verbatim so per-batch RNG seeds — and with them every trained model
#: and prediction — are unchanged from what that implementation drew.
_DIGEST_TAG = b"vectorized-unique"


def _batch_digest(
    fanouts,
    time_respecting: bool,
    base_seed: int,
    seed_type: str,
    seed_ids: np.ndarray,
    seed_times: np.ndarray,
) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(_DIGEST_TAG)
    digest.update(np.asarray(list(fanouts), dtype=np.int64).tobytes())
    digest.update(b"T" if time_respecting else b"F")
    digest.update(np.int64(base_seed).tobytes())
    digest.update(seed_type.encode())
    digest.update(b"\x00")
    digest.update(np.ascontiguousarray(seed_ids, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(seed_times, dtype=np.int64).tobytes())
    return digest.digest()


def batch_rng_seed(
    fanouts,
    time_respecting: bool,
    base_seed: int,
    seed_type: str,
    seed_ids: np.ndarray,
    seed_times: np.ndarray,
) -> int:
    """The per-batch generator seed under the deterministic contract.

    Shared by :class:`CachedSampler` (serial path) and the parallel
    workers, which is what makes their draws bit-identical.  The graph
    is deliberately *not* an input: the RNG stream for a batch is
    stable across graph deltas, so subgraphs whose inputs a delta
    provably did not touch stay valid (see the module docstring).
    """
    digest = _batch_digest(
        fanouts, time_respecting, base_seed, seed_type, seed_ids, seed_times,
    )
    return int.from_bytes(digest[:8], "little")


def _could_see(subgraph: SampledSubgraph, touched: Dict[str, np.ndarray], min_time: int) -> bool:
    """Whether ``subgraph`` holds a touched node at a context time that
    admits rows as early as ``min_time``."""
    for node_type, ids in touched.items():
        orig = subgraph.node_orig(node_type)
        if len(orig) == 0 or len(ids) == 0:
            continue
        hit = np.isin(orig, ids)
        if min_time != TIME_MIN:
            hit &= subgraph.node_ctx_time(node_type) >= min_time
        if hit.any():
            return True
    return False


class LRUSubgraphCache:
    """Bounded LRU of sampled subgraphs keyed by batch digest.

    Thread-safe: the parallel loader inserts from the main thread
    while trainer code reads, and future work may share one cache
    across loaders.  Counters are mirrored into the global metrics
    registry under ``sampler.cache.{hits,misses,evictions}``.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[bytes, SampledSubgraph]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # reset_stats() moves these baselines instead of zeroing the
        # raw counters, so hits/misses/evictions stay monotonic for
        # concurrent readers (snapshot()) while stats() reports
        # per-owner traffic since the last reset.
        self._hits_base = 0
        self._misses_base = 0
        self._evictions_base = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes) -> Optional[SampledSubgraph]:
        """The cached subgraph for ``key``, refreshed as most recent."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                counted = "sampler.cache.misses"
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                counted = "sampler.cache.hits"
        get_registry().counter(counted).inc()
        if obs_trace.enabled():
            obs_trace.add_counter(counted)
        return entry

    def put(self, key: bytes, subgraph: SampledSubgraph) -> None:
        """Insert (or refresh) one entry, evicting the least recent."""
        evicted = 0
        with self._lock:
            self._entries[key] = subgraph
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
        if evicted:
            get_registry().counter("sampler.cache.evictions").inc(evicted)
            if obs_trace.enabled():
                obs_trace.add_counter("sampler.cache.evictions", evicted)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def apply_delta(
        self, touched: Optional[Dict[str, np.ndarray]], min_time: int
    ) -> Dict[str, int]:
        """Selectively retain entries after an incremental graph delta.

        An entry survives iff its subgraph contains no node of a
        touched type whose original id is in ``touched[type]`` *and*
        whose context time is ``>= min_time``, the earliest timestamp
        the delta introduced.  Such a subgraph read only CSR prefixes
        the delta left byte-identical (appended edges land strictly
        after every pre-existing ``(dst, time <= ctx)`` prefix), so a
        fresh draw on the grown graph reproduces it bit-for-bit.
        ``min_time = TIME_MIN`` (static rows, or a sampler that is not
        time-respecting) makes the context-time guard vacuous, and
        ``touched = None`` (what changed is unknown) drops every entry.

        Returns ``{"cache_retained": n, "cache_invalidated": m}``; the
        same counts land on ``sampler.cache.{retained,invalidated}``.
        """
        with self._lock:
            stale = [
                key for key, subgraph in self._entries.items()
                if touched is None or _could_see(subgraph, touched, min_time)
            ]
            for key in stale:
                del self._entries[key]
            retained = len(self._entries)
        registry = get_registry()
        registry.counter("sampler.cache.retained").inc(retained)
        registry.counter("sampler.cache.invalidated").inc(len(stale))
        return {"cache_retained": retained, "cache_invalidated": len(stale)}

    def reset_stats(self) -> None:
        """Rebase the hit/miss/eviction counters, keeping cached entries.

        A warm cache is worth keeping across owners (a reloaded model,
        a fresh serving instance); its traffic history is not.  The
        raw counters are never zeroed — the reset only moves the
        baseline :meth:`stats` subtracts — so :meth:`snapshot` readers
        never observe counters going backwards.
        """
        with self._lock:
            self._hits_base = self.hits
            self._misses_base = self.misses
            self._evictions_base = self.evictions

    def stats(self) -> Dict[str, int]:
        """``{hits, misses, evictions, entries, max_entries}`` since the
        last :meth:`reset_stats` (the per-owner view)."""
        with self._lock:
            return {
                "hits": self.hits - self._hits_base,
                "misses": self.misses - self._misses_base,
                "evictions": self.evictions - self._evictions_base,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
            }

    def snapshot(self) -> Dict[str, int]:
        """Monotonic lifetime counters, unaffected by :meth:`reset_stats`.

        A probe can poll the hit rate at any time without racing an
        owner that rebases its reporting window.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
            }


class CachedSampler:
    """Deterministic (and optionally memoizing) sampler wrapper.

    Wraps a :class:`~repro.graph.sampler.NeighborSampler` and re-seeds
    its generator per batch from the content digest, making every draw a pure
    function of the batch (see the module docstring).  With a
    :class:`LRUSubgraphCache` attached, repeated batches — across
    epochs, across train/eval, across ``predict`` calls — are served
    from memory, bit-identically.

    The wrapper mirrors the sampler surface the rest of the system
    touches (``sample``, ``fanouts``, ``num_hops``, ``graph``,
    ``time_respecting``, ``rng``), so it is a drop-in replacement.
    """

    #: ``sample()`` is a pure function of the batch and the graph:
    #: callers may keep a subgraph instead of asking for it again.
    pure = True

    def __init__(
        self,
        base,
        base_seed: int = 0,
        cache: Optional[LRUSubgraphCache] = None,
    ) -> None:
        self.base = base
        self.base_seed = int(base_seed)
        self.cache = cache
        self._seen = base.graph.version

    # -- sampler surface ------------------------------------------------
    @property
    def graph(self) -> HeteroGraph:
        return self.base.graph

    @property
    def fanouts(self):
        return self.base.fanouts

    @property
    def num_hops(self) -> int:
        return self.base.num_hops

    @property
    def time_respecting(self) -> bool:
        return self.base.time_respecting

    @property
    def rng(self) -> np.random.Generator:
        # Exposed for checkpointing code that snapshots generator
        # states; under the deterministic contract its position is
        # irrelevant (every sample() call re-seeds it).
        return self.base.rng

    @rng.setter
    def rng(self, value: np.random.Generator) -> None:
        self.base.rng = value

    # -- keys -----------------------------------------------------------
    def batch_key(self, seed_type: str, seed_ids: np.ndarray, seed_times: np.ndarray) -> bytes:
        """The 16-byte content digest of one batch: its cache key, and
        (first 8 bytes) its RNG seed.  See the module docstring for why
        the graph is not part of it."""
        return _batch_digest(
            self.base.fanouts, self.base.time_respecting, self.base_seed,
            seed_type, seed_ids, seed_times,
        )

    # -- sampling -------------------------------------------------------
    def sample(
        self, seed_type: str, seed_ids: np.ndarray, seed_times: np.ndarray
    ) -> SampledSubgraph:
        """Sample (or recall) the subgraph for one batch."""
        seed_ids = np.asarray(seed_ids, dtype=np.int64)
        seed_times = np.asarray(seed_times, dtype=np.int64)
        key = self.batch_key(seed_type, seed_ids, seed_times)
        if self.cache is not None:
            self.reconcile()
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        self.base.rng = np.random.default_rng(int.from_bytes(key[:8], "little"))
        subgraph = self.base.sample(seed_type, seed_ids, seed_times)
        if self.cache is not None:
            self.cache.put(key, subgraph)
        return subgraph

    # -- incremental maintenance ---------------------------------------
    def reconcile(self) -> Dict[str, int]:
        """Bring the cache up to the graph's current version.

        Runs before every cached lookup (one integer compare when
        nothing changed) and from ``refresh_model``, which only moves
        the work off the first request after a delta.  Keeps what
        :meth:`LRUSubgraphCache.apply_delta` keeps; a sampler that is
        not time-respecting reads full neighbor lists, so for it any
        touched entity invalidates, and one left further behind than
        the journal reaches drops everything.  Returns this call's
        counts.
        """
        graph = self.base.graph
        if self.cache is None or self._seen == graph.version:
            return {"cache_retained": 0, "cache_invalidated": 0}
        change = graph.changes_since(self._seen)
        self._seen = graph.version
        if change is None:
            return self.cache.apply_delta(None, TIME_MIN)
        min_time = change.min_time if self.base.time_respecting else TIME_MIN
        return self.cache.apply_delta(change.touched, min_time)

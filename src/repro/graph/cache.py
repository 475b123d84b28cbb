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

The cache key is a 32-byte composite: the 16-byte graph fingerprint
followed by the 16-byte batch digest.  The RNG seed derives from the
batch digest *only* (bytes 16:24 of the key) — deliberately excluding
the fingerprint.  The split is what makes incremental ingest cheap:
after a delta mutates the graph, a retained cache entry whose
subgraph provably cannot see the new rows (no touched node at a
context time that admits them) is *still* bit-identical to a fresh
draw on the new graph, because the draw's RNG stream did not move
with the fingerprint and every CSR prefix it read is unchanged.
:meth:`LRUSubgraphCache.apply_delta` applies exactly that rule,
re-keying survivors under the new fingerprint instead of flushing
the cache wholesale.

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
    "KEY_PREFIX_LEN",
    "LRUSubgraphCache",
    "CachedSampler",
]


def graph_fingerprint(graph: HeteroGraph) -> str:
    """A stable digest of the graph's structure and timestamps.

    Two graphs built from the same database contents share a
    fingerprint; any change to node counts, edges, or timestamps
    changes it.  Computed once per graph instance and memoized, since
    it hashes every edge array.

    The digest covers exactly the CSR layout (``indptr``, ``nbr_src``,
    ``nbr_time``) plus node counts and timestamps — the same arrays a
    :class:`~repro.graph.shared.SharedGraphStore` packs — so a
    shared-memory view of a graph (which carries the precomputed
    fingerprint in its manifest) derives identical content keys, and
    worker-sampled batches stay bit-identical to serial ones.
    """
    cached = getattr(graph, "_fingerprint", None)
    if cached is not None:
        return cached
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
    graph._fingerprint = fingerprint
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
    fingerprint is deliberately *not* an input: the RNG stream for a
    batch is stable across graph deltas, so subgraphs whose inputs a
    delta provably did not touch stay valid (see the module
    docstring).
    """
    digest = _batch_digest(
        fanouts, time_respecting, base_seed, seed_type, seed_ids, seed_times,
    )
    return int.from_bytes(digest[:8], "little")


#: Byte length of the graph-fingerprint prefix in a composite cache key.
KEY_PREFIX_LEN = 16


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
        self,
        old_prefix: bytes,
        new_prefix: bytes,
        touched: Dict[str, np.ndarray],
        min_time: int,
    ) -> Dict[str, int]:
        """Selectively retain entries after an incremental graph delta.

        An entry keyed under ``old_prefix`` (the pre-delta fingerprint)
        survives iff its subgraph contains no node of a touched type
        whose original id is in ``touched[type]`` *and* whose context
        time is ``>= min_time`` — the earliest timestamp the delta
        introduced.  Such a subgraph read only CSR prefixes the delta
        left byte-identical (appended edges land strictly after every
        pre-existing ``(dst, time <= ctx)`` prefix), and since the RNG
        seed excludes the fingerprint, a fresh draw on the new graph
        reproduces it bit-for-bit.  Survivors are re-keyed under
        ``new_prefix`` preserving LRU order; everything else (touched
        entries and entries from other graph versions) is dropped.

        Callers pass ``min_time = TIME_MIN`` when the delta includes
        static rows (visible at every context time) or when the
        sampler is not time-respecting — both make the context-time
        guard vacuous, so only untouched-entity entries survive.

        Returns ``{"retained": n, "invalidated": m}``; the same counts
        land on the ``sampler.cache.{retained,invalidated}`` counters.
        """
        touched = {
            t: np.asarray(ids, dtype=np.int64)
            for t, ids in touched.items()
            if len(ids) > 0
        }
        retained = 0
        invalidated = 0
        with self._lock:
            survivors: "OrderedDict[bytes, SampledSubgraph]" = OrderedDict()
            for key, subgraph in self._entries.items():
                if not key.startswith(old_prefix):
                    invalidated += 1
                    continue
                stale = False
                for node_type, ids in touched.items():
                    orig = subgraph.node_orig(node_type)
                    if len(orig) == 0:
                        continue
                    hit = np.isin(orig, ids)
                    if min_time != TIME_MIN:
                        hit &= subgraph.node_ctx_time(node_type) >= min_time
                    if hit.any():
                        stale = True
                        break
                if stale:
                    invalidated += 1
                else:
                    survivors[new_prefix + key[len(old_prefix):]] = subgraph
                    retained += 1
            self._entries = survivors
        registry = get_registry()
        registry.counter("sampler.cache.retained").inc(retained)
        registry.counter("sampler.cache.invalidated").inc(invalidated)
        return {"retained": retained, "invalidated": invalidated}

    def reset_stats(self) -> None:
        """Rebase the hit/miss/eviction counters, keeping cached entries.

        A warm cache is an asset worth keeping across owners (e.g. a
        reloaded model or a fresh serving instance), but its traffic
        history is not — resetting stops a previous owner's counters
        from leaking into a new owner's reports.  The raw counters are
        never zeroed; the reset only moves the baseline that
        :meth:`stats` subtracts, so :meth:`snapshot` readers (the query
        router estimating hit likelihood mid-run) never observe
        counters going backwards.
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

        The non-destructive accessor for concurrent readers: routing
        code can poll hit/miss likelihood at any time without racing an
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

    def __init__(
        self,
        base,
        base_seed: int = 0,
        cache: Optional[LRUSubgraphCache] = None,
    ) -> None:
        self.base = base
        self.base_seed = int(base_seed)
        self.cache = cache
        self._fingerprint = graph_fingerprint(base.graph)

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
        """The composite cache key for one batch.

        32 bytes: the 16-byte graph fingerprint (content versioning)
        followed by the 16-byte batch digest (RNG derivation).  See the
        module docstring for why the two halves are kept separate.
        """
        return bytes.fromhex(self._fingerprint) + _batch_digest(
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
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        seed_slice = key[KEY_PREFIX_LEN : KEY_PREFIX_LEN + 8]
        self.base.rng = np.random.default_rng(int.from_bytes(seed_slice, "little"))
        subgraph = self.base.sample(seed_type, seed_ids, seed_times)
        if self.cache is not None:
            self.cache.put(key, subgraph)
        return subgraph

    # -- incremental maintenance ---------------------------------------
    def apply_delta(
        self, touched: Dict[str, np.ndarray], min_event_time: int
    ) -> Dict[str, int]:
        """Refresh the wrapper after an in-place graph delta.

        Recomputes the captured fingerprint from the (mutated) graph
        and selectively retains cache entries via
        :meth:`LRUSubgraphCache.apply_delta`.  ``touched`` maps node
        type → original ids whose rows or incident edges the delta
        changed; ``min_event_time`` is the earliest event timestamp it
        introduced.  A non-time-respecting base sampler reads full
        neighbor lists, so any touched entity invalidates regardless
        of context time (``min_time`` collapses to ``TIME_MIN``).
        """
        old_fingerprint = self._fingerprint
        self._fingerprint = graph_fingerprint(self.base.graph)
        if self.cache is None:
            return {"retained": 0, "invalidated": 0}
        min_time = min_event_time if self.base.time_respecting else TIME_MIN
        return self.cache.apply_delta(
            bytes.fromhex(old_fingerprint),
            bytes.fromhex(self._fingerprint),
            touched,
            min_time,
        )

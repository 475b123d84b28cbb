"""Time-respecting neighbor sampling.

Given seed nodes with seed times, the sampler grows an L-hop sampled
subgraph in which every traversed edge and every reached node existed
at the seed's time.  This is the property that makes the compiled
pipeline leak-free: a model input at prediction time ``t`` can only see
the database as of ``t``.

Node *instances* in a sampled subgraph are keyed by
``(original node id, seed-context time)``: the same row sampled under
two different seed times is two instances, because its valid
neighborhood differs.  Within one batch, seeds usually share a few
distinct cutoff times, so deduplication keeps subgraphs compact.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.hetero import CutoffMemo, EdgeType, HeteroGraph
from repro.nn.segment import SegmentPlan
from repro.obs import trace as obs_trace
from repro.resilience.faults import fault_point

__all__ = ["SampledSubgraph", "NeighborSampler"]


def _concat_parts(parts: List[object]) -> np.ndarray:
    """Collapse a mixed list of int lists / int64 arrays into one array."""
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return np.asarray(parts[0], dtype=np.int64)
    return np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])


class SampledSubgraph:
    """The result of one sampling call.

    Internally, node/edge/degree columns are stored as *parts* — the
    numpy blocks :meth:`add_nodes` / :meth:`add_edges` /
    :meth:`set_degrees_block` append — and collapsed into contiguous
    int64/float64 arrays by :meth:`finalize`.  The per-edge-type
    aggregation plans (:meth:`edge_plans`) are derived from the edge
    arrays on first use.

    Attributes
    ----------
    seed_type:
        Node type of the seeds.
    seed_locals:
        Local indices (within ``seed_type``) of the seed instances, in
        the order the seeds were given.
    """

    def __init__(self, seed_type: str) -> None:
        self.seed_type = seed_type
        self.seed_locals: np.ndarray = np.empty(0, dtype=np.int64)
        # Per node type: parts of original ids / context times.  A part
        # is either a python list (scalar appends) or an int64 array.
        self._orig: Dict[str, List[object]] = {}
        self._ctx_time: Dict[str, List[object]] = {}
        self._index: Dict[str, Dict[Tuple[int, int], int]] = {}
        # Per edge type: (src parts, dst parts), int64 arrays.
        self._edges: Dict[EdgeType, Tuple[List[np.ndarray], List[np.ndarray]]] = {}
        # Per node type: 2-D float64 blocks of degree rows.
        self._degrees: Dict[str, List[np.ndarray]] = {}
        self._degree_rows: Dict[str, int] = {}
        # Per edge type: (src plan, dst plan), derived from ``_edges``.
        self._plans: Dict[EdgeType, Tuple[SegmentPlan, SegmentPlan]] = {}

    # -- construction ---------------------------------------------------
    def add_nodes(self, node_type: str, origs: np.ndarray, ctx_times: np.ndarray) -> None:
        """Append a block of instances the caller already deduplicated;
        they take the next ``len(origs)`` local indices of the type."""
        self._orig.setdefault(node_type, []).append(origs)
        self._ctx_time.setdefault(node_type, []).append(ctx_times)

    def add_node(self, node_type: str, orig_id: int, ctx_time: int) -> Tuple[int, bool]:
        """Intern one node instance; returns (local index, was-new).

        The scalar construction API of hand-built subgraphs and the
        test oracles; do not mix with :meth:`add_nodes` on one type.
        """
        index = self._index.setdefault(node_type, {})
        key = (orig_id, ctx_time)
        local = index.get(key)
        if local is not None:
            return local, False
        local = len(index)
        index[key] = local
        self._orig.setdefault(node_type, [[]])[-1].append(orig_id)
        self._ctx_time.setdefault(node_type, [[]])[-1].append(ctx_time)
        return local, True

    def set_degrees_block(
        self, node_type: str, locals_: np.ndarray, degrees: np.ndarray
    ) -> None:
        """Record time-valid in-degrees, one column per incoming edge type.

        ``locals_`` must be the next contiguous ascending run of local
        indices (the sampler interns a hop's new nodes sequentially, so
        this always holds there).
        """
        count = len(locals_)
        if count == 0:
            return
        rows = self._degree_rows.get(node_type, 0)
        if locals_[0] != rows or locals_[-1] != rows + count - 1:
            raise ValueError("degree blocks must cover the next contiguous locals")
        block = np.asarray(degrees, dtype=np.float64)
        if len(block) != count:
            raise ValueError(f"{count} locals but {len(block)} degree rows")
        self._degrees.setdefault(node_type, []).append(block)
        self._degree_rows[node_type] = rows + count

    def add_edges(self, edge_type: EdgeType, src_locals, dst_locals) -> None:
        """Record edges between local node instances (one array block)."""
        src_parts, dst_parts = self._edges.setdefault(edge_type, ([], []))
        src_parts.append(np.asarray(src_locals, dtype=np.int64))
        dst_parts.append(np.asarray(dst_locals, dtype=np.int64))
        self._plans.pop(edge_type, None)

    def drop_edge_type(self, edge_type: EdgeType) -> None:
        """Remove one edge type's edges (and the plans derived from them)."""
        self._edges.pop(edge_type, None)
        self._plans.pop(edge_type, None)

    def finalize(self) -> "SampledSubgraph":
        """Collapse part lists into contiguous arrays (idempotent).

        Samplers call this once sampling ends; afterwards every
        accessor returns (views of) a single contiguous array.
        """
        for store in (self._orig, self._ctx_time):
            for node_type, parts in store.items():
                store[node_type] = [_concat_parts(parts)]
        for edge_type, (src_parts, dst_parts) in self._edges.items():
            self._edges[edge_type] = (
                [_concat_parts(src_parts)],
                [_concat_parts(dst_parts)],
            )
        for node_type, parts in self._degrees.items():
            self._degrees[node_type] = [self._collapse_degrees(parts)]
        return self

    @staticmethod
    def _collapse_degrees(parts: List[np.ndarray]) -> np.ndarray:
        return parts[0] if len(parts) == 1 else np.vstack(parts)

    # -- read access (used by the model) -------------------------------
    @property
    def node_types(self) -> List[str]:
        """Node types present in the subgraph."""
        return list(self._orig)

    @property
    def edge_types(self) -> List[EdgeType]:
        """Edge types present in the subgraph."""
        return list(self._edges)

    def num_nodes(self, node_type: str) -> int:
        """Instances of one node type."""
        return sum(len(p) for p in self._orig.get(node_type, ()))

    def total_nodes(self) -> int:
        """Instances over all types."""
        return sum(self.num_nodes(node_type) for node_type in self._orig)

    def total_edges(self) -> int:
        """Edges over all types."""
        return sum(
            sum(len(p) for p in src_parts) for src_parts, _ in self._edges.values()
        )

    def node_orig(self, node_type: str) -> np.ndarray:
        """Original (full-graph) node ids per instance."""
        return _concat_parts(self._orig.get(node_type, []))

    def node_ctx_time(self, node_type: str) -> np.ndarray:
        """Seed-context time per instance."""
        return _concat_parts(self._ctx_time.get(node_type, []))

    def edges_for(self, edge_type: EdgeType) -> Tuple[np.ndarray, np.ndarray]:
        """(src_local, dst_local) arrays for one edge type."""
        src_parts, dst_parts = self._edges.get(edge_type, ((), ()))
        return _concat_parts(list(src_parts)), _concat_parts(list(dst_parts))

    def edge_plans(self, edge_type: EdgeType) -> Tuple[SegmentPlan, SegmentPlan]:
        """``(src, dst)`` :class:`~repro.nn.segment.SegmentPlan` of one
        edge type's local index arrays.

        Built (and range-checked) on first use and kept, so both conv
        layers — gather and aggregation, forward and backward — and
        every epoch that reuses the subgraph share one grouping.
        """
        plans = self._plans.get(edge_type)
        if plans is None:
            src, dst = self.edges_for(edge_type)
            plans = self._plans[edge_type] = (
                SegmentPlan(src, self.num_nodes(edge_type.src)),
                SegmentPlan(dst, self.num_nodes(edge_type.dst)),
            )
        return plans

    def node_degrees(self, node_type: str) -> np.ndarray:
        """Time-valid in-degrees per instance, shape (n, k).

        ``k`` is the number of edge types into ``node_type`` in the
        full graph, in :meth:`HeteroGraph.edge_types_into` order.
        Types with no incoming relations return shape (n, 0).
        """
        parts = self._degrees.get(node_type, [])
        if not parts:
            return np.zeros((self.num_nodes(node_type), 0))
        return self._collapse_degrees(parts)

    def zero_degree_channel(self, node_type: str, channel: int) -> None:
        """Zero one in-degree channel across every node of ``node_type``.

        Used by relation knockouts (``explain_relations``): removing an
        edge type's messages must also blank its degree feature.
        """
        for part in self._degrees.get(node_type, []):
            part[:, channel] = 0.0


class _Interner:
    """Array interning of node instances: packed ``node * contexts +
    context rank`` keys index one int32 table of local indices per node
    type, so a hop's python work is O(edge types), not O(nodes).

    The tables cost 4 bytes per node and distinct cutoff of the widest
    batch seen; they are allocated once, re-grown only when the graph
    grows, hold -1 between calls, and :meth:`reset` clears exactly the
    entries a call wrote — nothing here is O(num_nodes) per sample.
    """

    def __init__(self, graph: HeteroGraph) -> None:
        self.graph = graph
        self._tables: Dict[str, np.ndarray] = {}
        #: Distinct context times of the subgraph being sampled.
        self.contexts = np.empty(0, dtype=np.int64)
        self._written: List[Tuple[np.ndarray, np.ndarray]] = []
        self.reset()

    def reset(self) -> None:
        """Return every table entry the last subgraph wrote to -1."""
        for table, keys in self._written:
            table[keys] = -1
        self._written = []
        self._counts: Dict[str, int] = {}
        #: node type -> key blocks numbered since :meth:`take_reached`.
        self._reached: Dict[str, List[np.ndarray]] = {}

    def _table(self, node_type: str) -> np.ndarray:
        need = self.graph.num_nodes(node_type) * len(self.contexts)
        table = self._tables.get(node_type)
        if table is None or len(table) < need:
            # Slack, so a stream of small deltas re-allocates rarely.
            table = self._tables[node_type] = np.full(need + need // 4, -1, dtype=np.int32)
        return table

    def intern(self, node_type: str, keys: np.ndarray, ascending: bool = True) -> np.ndarray:
        """Local index per key.  Unseen instances take the type's next
        local indices in ascending key — ``(node, context)`` — order
        (neighbors), or by first appearance (the seeds)."""
        table = self._table(node_type)
        # Registered even when nothing is new: the next frontier visits
        # node types in the order this hop first reached them.
        blocks = self._reached.setdefault(node_type, [])
        locals_ = table[keys]
        unseen = locals_ < 0
        if unseen.any():
            fresh = keys[unseen]
            self._written.append((table, fresh))
            if ascending:
                fresh = np.sort(fresh)
                fresh = fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))]
            else:  # written back to front, a key's first position survives
                position = np.arange(len(fresh))
                table[fresh[::-1]] = position[::-1]
                fresh = fresh[table[fresh] == position]
            base = self._counts.get(node_type, 0)
            self._counts[node_type] = base + len(fresh)
            table[fresh] = np.arange(base, base + len(fresh))
            blocks.append(fresh)
            locals_ = table[keys]
        return locals_

    def take_reached(self) -> Dict[str, List[np.ndarray]]:
        """Key blocks numbered since the last call, per node type."""
        reached, self._reached = self._reached, {}
        return {node_type: blocks for node_type, blocks in reached.items() if blocks}


#: One hop's frontier for one node type: context ranks (``None`` when
#: the batch has one cutoff), local indices, and per incoming edge type
#: the ``(CSR start, valid count)`` ranges
#: :meth:`NeighborSampler._record_degrees` computed.
_Frontier = Tuple[Optional[np.ndarray], np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]


#: First bytes of every batch digest.  They once named the sampler
#: implementation; the tag of the surviving exact-fanout kernel is kept
#: verbatim so per-batch RNG seeds — and with them every trained model
#: and prediction — are unchanged from what that implementation drew.
_DIGEST_TAG = b"vectorized-unique"


class NeighborSampler:
    """Samples L-hop time-respecting neighborhoods.

    **A draw is a pure function of the batch and the graph.**  Every
    :meth:`sample` call seeds its own generator from the batch's content
    digest (:meth:`batch_digest`), so the subgraph for a batch never
    depends on how many batches were sampled before it or on which
    sampler instance (of equal configuration) drew it.  Callers may
    therefore keep a subgraph instead of asking for it again.  The
    graph is deliberately *not* an input of the digest: the stream for
    a batch is stable across graph deltas, so a draw whose inputs a
    delta did not touch reproduces bit for bit on the grown graph.

    The per-node work of a hop is batched into numpy kernels:

    * time-valid neighbor counts for a whole frontier come from prefix
      sums over each edge store's time-sorted neighbor lists (valid
      neighbors are a prefix of every CSR segment), so no candidate
      arrays are materialized;
    * a node with at most ``fanout`` valid neighbors keeps all of them;
      a node with more draws exactly ``fanout`` distinct ones, uniformly
      **without replacement** — rows are grouped by valid degree and
      each group argpartitions one matrix of uniform keys, so the cost
      of a truncated node scales with its degree;
    * node instances are interned by table lookup (:class:`_Interner`),
      whose per-call state makes one sampler serve one ``sample()`` at
      a time.

    Parameters
    ----------
    graph:
        The full heterogeneous graph.
    fanouts:
        Neighbors sampled per edge type at each hop; ``len(fanouts)``
        is the number of hops (use the model depth).
    seed:
        The model seed; with the batch content it determines the
        without-replacement draws.
    time_respecting:
        When false, ignores timestamps entirely — the *leaky* variant
        used by the Figure 3 ablation.  Never use in production.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        fanouts: Sequence[int],
        seed: int = 0,
        time_respecting: bool = True,
    ) -> None:
        if any(f <= 0 for f in fanouts):
            raise ValueError(f"fanouts must be positive, got {list(fanouts)}")
        self.graph = graph
        self.fanouts = list(fanouts)
        self.seed = int(seed)
        self.time_respecting = time_respecting
        self._edge_types_into: Dict[str, List[EdgeType]] = {
            node_type: graph.edge_types_into(node_type) for node_type in graph.node_types
        }
        #: cutoff -> {edge type: time-valid in-degree of every
        #: destination node}.  Batches share a handful of cutoffs, so
        #: this converts per-node binary searches into one gather.
        self._valid_degrees = CutoffMemo(graph)
        self._interner = _Interner(graph)

    @property
    def num_hops(self) -> int:
        """Sampling depth."""
        return len(self.fanouts)

    # ------------------------------------------------------------------
    # Vectorized primitives
    # ------------------------------------------------------------------
    def _valid_degree(self, edge_type: EdgeType, cutoff: int) -> np.ndarray:
        """Time-valid in-degree of every destination node at ``cutoff``."""
        per_type = self._valid_degrees.get(cutoff, dict)
        store = self.graph._edges[edge_type]
        num_dst = len(store.indptr) - 1
        degree = per_type.get(edge_type)
        if degree is None:
            csum = np.concatenate([[0], np.cumsum(store.nbr_time <= cutoff, dtype=np.int64)])
            degree = per_type[edge_type] = csum[store.indptr[1:]] - csum[store.indptr[:-1]]
        elif len(degree) < num_dst:
            # The entry outlived a delta, so every node that delta added
            # (and every edge into it) is later than the cutoff.
            pad = np.zeros(num_dst - len(degree), dtype=np.int64)
            degree = per_type[edge_type] = np.concatenate([degree, pad])
        return degree

    def _valid_counts(
        self, edge_type: EdgeType, dsts: np.ndarray, ranks: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(CSR start offsets, time-valid neighbor count) per dst node.

        Valid neighbors are a prefix of each CSR segment (lists are
        time-sorted), so the count doubles as the sampling range.
        ``ranks`` index the batch's context times, or are ``None`` when
        it has a single one.
        """
        store = self.graph._edges[edge_type]
        starts = store.indptr[dsts]
        if not self.time_respecting:
            return starts, store.indptr[dsts + 1] - starts
        contexts = self._interner.contexts
        if ranks is None:
            return starts, self._valid_degree(edge_type, int(contexts[0]))[dsts]
        counts = np.empty(len(dsts), dtype=np.int64)
        for rank in np.flatnonzero(np.bincount(ranks)).tolist():
            mask = ranks == rank
            counts[mask] = self._valid_degree(edge_type, int(contexts[rank]))[dsts[mask]]
        return starts, counts

    def batch_digest(
        self, seed_type: str, seed_ids: np.ndarray, seed_times: np.ndarray
    ) -> bytes:
        """The 16-byte content digest of one batch — fanouts, time flag,
        model seed, seed type, ids, times; its first 8 bytes seed the
        batch's generator."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(_DIGEST_TAG)
        digest.update(np.asarray(self.fanouts, dtype=np.int64).tobytes())
        digest.update(b"T" if self.time_respecting else b"F")
        digest.update(np.int64(self.seed).tobytes())
        digest.update(seed_type.encode())
        digest.update(b"\x00")
        digest.update(np.ascontiguousarray(seed_ids, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(seed_times, dtype=np.int64).tobytes())
        return digest.digest()

    def sample(
        self,
        seed_type: str,
        seed_ids: np.ndarray,
        seed_times: np.ndarray,
    ) -> SampledSubgraph:
        """Sample the merged subgraph around the given seeds.

        ``seed_times`` gives the prediction time of each seed; every
        sampled node/edge satisfies ``timestamp <= seed time`` when
        ``time_respecting`` is on.
        """
        fault_point("sampler.sample")
        seed_ids = np.asarray(seed_ids, dtype=np.int64)
        seed_times = np.asarray(seed_times, dtype=np.int64)
        if seed_ids.shape != seed_times.shape:
            raise ValueError("seed_ids and seed_times must have the same shape")
        digest = self.batch_digest(seed_type, seed_ids, seed_times)
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        # Every context time in the subgraph is some seed's time, so a
        # batch whose seeds share one cutoff (the common case: a point
        # predict, a scoring sweep) needs no context packing or per-hop
        # grouping by time: the node id is the key.
        if len(seed_times) == 0 or (seed_times == seed_times[0]).all():
            contexts, keys = seed_times[:1], seed_ids
        else:
            contexts, ranks = np.unique(seed_times, return_inverse=True)
            keys = seed_ids * len(contexts) + ranks
        subgraph = SampledSubgraph(seed_type)
        interner = self._interner
        interner.contexts = contexts
        truncations = 0
        try:
            seed_locals = interner.intern(seed_type, keys, ascending=False)
            subgraph.seed_locals = seed_locals.astype(np.int64)
            frontier = self._record_degrees(subgraph)
            for fanout in self.fanouts:
                fault_point("sampler.expand")
                for node_type, (ranks, locals_, ranges) in frontier.items():
                    for edge_type, (starts, counts) in zip(self._edge_types_into[node_type], ranges):
                        truncations += self._expand_edge_type(
                            subgraph, edge_type, starts, counts, ranks, locals_, fanout, rng
                        )
                frontier = self._record_degrees(subgraph)
        finally:
            interner.reset()
        if obs_trace.enabled():
            obs_trace.add_counter("sampler.calls")
            obs_trace.add_counter("sampler.seeds", len(seed_ids))
            obs_trace.add_counter("sampler.nodes_sampled", subgraph.total_nodes())
            obs_trace.add_counter("sampler.edges_sampled", subgraph.total_edges())
            obs_trace.add_counter("sampler.fanout_truncations", truncations)
        return subgraph.finalize()

    def _expand_edge_type(
        self,
        subgraph: SampledSubgraph,
        edge_type: EdgeType,
        starts: np.ndarray,
        counts: np.ndarray,
        ranks: Optional[np.ndarray],
        dst_locals: np.ndarray,
        fanout: int,
        rng: np.random.Generator,
    ) -> int:
        """Expand one edge type; returns the fanout-truncated node count."""
        store = self.graph._edges[edge_type]
        small = np.flatnonzero((counts > 0) & (counts <= fanout))
        large = np.flatnonzero(counts > fanout)
        if not (len(small) or len(large)):
            return 0

        # Flat (neighbor id, frontier row) edge candidates, in blocks.
        nbr_blocks: List[np.ndarray] = []
        row_blocks: List[np.ndarray] = []
        # Low-degree nodes: take every valid neighbor, gathered with one
        # repeat-based index.
        if len(small):
            lengths = counts[small]
            segment_starts = np.cumsum(lengths) - lengths
            flat_index = np.arange(int(lengths.sum())) + np.repeat(
                starts[small] - segment_starts, lengths
            )
            nbr_blocks.append(store.nbr_src[flat_index])
            row_blocks.append(np.repeat(small, lengths))
        # High-degree nodes: rows are grouped by valid degree so each
        # group becomes one matrix of uniform keys whose smallest
        # `fanout` entries pick distinct neighbor positions.
        if len(large):
            large_counts = counts[large]
            for degree in np.unique(large_counts).tolist():
                rows_d = large[large_counts == degree]
                keys = rng.random((len(rows_d), degree))
                offsets = np.argpartition(keys, fanout - 1, axis=1)[:, :fanout]
                picks = store.nbr_src[starts[rows_d][:, None] + offsets]
                nbr_blocks.append(picks.reshape(-1))
                row_blocks.append(np.repeat(rows_d, fanout))
        if len(nbr_blocks) == 1:
            nbrs, edge_rows = nbr_blocks[0], row_blocks[0]
        else:
            nbrs, edge_rows = np.concatenate(nbr_blocks), np.concatenate(row_blocks)

        # A neighbor inherits the context of the frontier row it hangs
        # off; with a single cutoff the node id is the whole key.
        if ranks is not None:
            nbrs = nbrs * len(self._interner.contexts) + ranks[edge_rows]
        src_locals = self._interner.intern(edge_type.src, nbrs)
        subgraph.add_edges(edge_type, src_locals, dst_locals[edge_rows])
        return len(large)

    def _record_degrees(self, subgraph: SampledSubgraph) -> Dict[str, _Frontier]:
        """Append the instances interned since the last call, with their
        time-valid in-degree per incoming edge type.

        Returns them as the next hop's frontier: the ``(starts,
        counts)`` ranges behind the degrees are exactly what expanding
        each incoming edge type needs, so they are computed once.
        """
        contexts = self._interner.contexts
        frontier: Dict[str, _Frontier] = {}
        for node_type, parts in self._interner.take_reached().items():
            keys = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if len(contexts) == 1:
                origs, ranks, times = keys, None, np.full(len(keys), contexts[0])
            else:
                origs, ranks = np.divmod(keys, len(contexts))
                times = contexts[ranks]
            # Numbered sequentially by the interner, so the block takes
            # the type's next contiguous ascending locals.
            first = subgraph.num_nodes(node_type)
            locals_ = np.arange(first, first + len(keys))
            subgraph.add_nodes(node_type, origs, times)
            ranges = [
                self._valid_counts(edge_type, origs, ranks)
                for edge_type in self._edge_types_into[node_type]
            ]
            if ranges:
                degrees = np.empty((len(origs), len(ranges)))
                for j, (_, counts) in enumerate(ranges):
                    degrees[:, j] = counts
                subgraph.set_degrees_block(node_type, locals_, degrees)
            frontier[node_type] = ranks, locals_, ranges
        return frontier

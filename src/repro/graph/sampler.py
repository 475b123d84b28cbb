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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.hetero import CutoffMemo, EdgeType, HeteroGraph
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
    python lists :meth:`add_node` interns into plus the numpy blocks
    :meth:`add_edges` / :meth:`set_degrees_block` append — and
    collapsed into contiguous int64/float64 arrays by
    :meth:`finalize`.  The compact array form (:meth:`to_arrays` /
    :meth:`from_arrays`) is what parallel sampler workers ship back to
    the parent instead of a pickled object graph.

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

    # -- construction (used by the sampler) ----------------------------
    def add_node(self, node_type: str, orig_id: int, ctx_time: int) -> Tuple[int, bool]:
        """Intern a node instance; returns (local index, was-new)."""
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
        if len(locals_) == 0:
            return
        rows = self._degree_rows.get(node_type, 0)
        expected = np.arange(rows, rows + len(locals_), dtype=np.int64)
        if not np.array_equal(np.asarray(locals_, dtype=np.int64), expected):
            raise ValueError("degree blocks must cover the next contiguous locals")
        block = np.asarray(degrees, dtype=np.float64)
        self._degrees.setdefault(node_type, []).append(block)
        self._degree_rows[node_type] = rows + len(locals_)

    def add_edges(self, edge_type: EdgeType, src_locals, dst_locals) -> None:
        """Record edges between local node instances (one array block)."""
        src_parts, dst_parts = self._edges.setdefault(edge_type, ([], []))
        src_parts.append(np.asarray(src_locals, dtype=np.int64))
        dst_parts.append(np.asarray(dst_locals, dtype=np.int64))

    def finalize(self) -> "SampledSubgraph":
        """Collapse part lists into contiguous arrays (idempotent).

        Samplers call this once sampling ends; afterwards every
        accessor returns (views of) a single contiguous array and the
        subgraph is cheap to cache, compare, and serialize.
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

    # -- compact wire format (used by parallel sampler workers) ---------
    def to_arrays(self) -> Dict[str, object]:
        """Serialize to a dict of flat numpy arrays.

        The payload contains no python object graph — just the seed
        metadata plus per-type id/time/edge/degree columns — so it is
        cheap to pickle across a process boundary and rebuilds without
        re-interning via :meth:`from_arrays`.
        """
        self.finalize()
        return {
            "seed_type": self.seed_type,
            "seed_locals": self.seed_locals,
            "nodes": {
                node_type: (parts[0], self._ctx_time[node_type][0])
                for node_type, parts in self._orig.items()
            },
            "edges": {
                edge_type: (src_parts[0], dst_parts[0])
                for edge_type, (src_parts, dst_parts) in self._edges.items()
            },
            "degrees": {node_type: parts[0] for node_type, parts in self._degrees.items()},
        }

    @classmethod
    def from_arrays(cls, payload: Dict[str, object]) -> "SampledSubgraph":
        """Rebuild a (read-only) subgraph from :meth:`to_arrays` output."""
        subgraph = cls(payload["seed_type"])
        subgraph.seed_locals = np.asarray(payload["seed_locals"], dtype=np.int64)
        for node_type, (orig, ctx) in payload["nodes"].items():
            subgraph._orig[node_type] = [np.asarray(orig, dtype=np.int64)]
            subgraph._ctx_time[node_type] = [np.asarray(ctx, dtype=np.int64)]
        for edge_type, (src, dst) in payload["edges"].items():
            subgraph._edges[edge_type] = (
                [np.asarray(src, dtype=np.int64)],
                [np.asarray(dst, dtype=np.int64)],
            )
        for node_type, block in payload["degrees"].items():
            block = np.asarray(block, dtype=np.float64)
            subgraph._degrees[node_type] = [block]
            subgraph._degree_rows[node_type] = len(block)
        return subgraph

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


#: One hop's frontier for one node type: original ids, context times,
#: local indices, and per incoming edge type the ``(CSR start, valid
#: count)`` ranges :meth:`NeighborSampler._record_degrees` computed.
_Frontier = Tuple[np.ndarray, np.ndarray, np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]


class NeighborSampler:
    """Samples L-hop time-respecting neighborhoods.

    The per-node work of a hop is batched into numpy kernels:

    * time-valid neighbor counts for a whole frontier come from prefix
      sums over each edge store's time-sorted neighbor lists (valid
      neighbors are a prefix of every CSR segment), so no candidate
      arrays are materialized;
    * a node with at most ``fanout`` valid neighbors keeps all of them;
      a node with more draws exactly ``fanout`` distinct ones, uniformly
      **without replacement** — rows are grouped by valid degree and
      each group argpartitions one matrix of uniform keys, so the cost
      of a truncated node scales with its degree.

    Parameters
    ----------
    graph:
        The full heterogeneous graph.
    fanouts:
        Neighbors sampled per edge type at each hop; ``len(fanouts)``
        is the number of hops (use the model depth).
    rng:
        Random generator for the without-replacement draws.
    time_respecting:
        When false, ignores timestamps entirely — the *leaky* variant
        used by the Figure 3 ablation.  Never use in production.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        fanouts: Sequence[int],
        rng: np.random.Generator,
        time_respecting: bool = True,
    ) -> None:
        if any(f <= 0 for f in fanouts):
            raise ValueError(f"fanouts must be positive, got {list(fanouts)}")
        self.graph = graph
        self.fanouts = list(fanouts)
        self.rng = rng
        self.time_respecting = time_respecting
        self._edge_types_into: Dict[str, List[EdgeType]] = {
            node_type: graph.edge_types_into(node_type) for node_type in graph.node_types
        }
        #: cutoff -> {edge type: time-valid in-degree of every
        #: destination node}.  Batches share a handful of cutoffs, so
        #: this converts per-node binary searches into one gather.
        self._valid_degrees = CutoffMemo(graph)

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
        self, edge_type: EdgeType, dsts: np.ndarray, times: np.ndarray, cutoff: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(CSR start offsets, time-valid neighbor count) per dst node.

        Valid neighbors are a prefix of each CSR segment (lists are
        time-sorted), so the count doubles as the sampling range.
        ``cutoff`` is the batch's one context time, or ``None`` when
        ``times`` mixes several.
        """
        store = self.graph._edges[edge_type]
        starts = store.indptr[dsts]
        if not self.time_respecting:
            return starts, store.indptr[dsts + 1] - starts
        if cutoff is not None:
            return starts, self._valid_degree(edge_type, cutoff)[dsts]
        counts = np.empty(len(dsts), dtype=np.int64)
        for value in np.unique(times).tolist():
            mask = times == value
            counts[mask] = self._valid_degree(edge_type, value)[dsts[mask]]
        return starts, counts

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
        # Every context time in the subgraph is some seed's time, so a
        # batch whose seeds share one cutoff (the common case: a point
        # predict, a scoring sweep) needs no per-hop grouping by time.
        cutoff: Optional[int] = None
        if len(seed_times) and (seed_times == seed_times[0]).all():
            cutoff = int(seed_times[0])

        subgraph = SampledSubgraph(seed_type)
        frontier: Dict[str, _Frontier] = {}

        seed_locals = np.empty(len(seed_ids), dtype=np.int64)
        new_origs, new_times, new_locals = [], [], []
        for i, (orig, time) in enumerate(zip(seed_ids.tolist(), seed_times.tolist())):
            local, is_new = subgraph.add_node(seed_type, orig, time)
            seed_locals[i] = local
            if is_new:
                new_origs.append(orig)
                new_times.append(time)
                new_locals.append(local)
        subgraph.seed_locals = seed_locals
        if new_origs:
            frontier[seed_type] = self._record_degrees(
                subgraph, seed_type, new_origs, new_times, new_locals, cutoff
            )

        truncations = 0
        for fanout in self.fanouts:
            #: node type -> (origs, ctx times, locals) of this hop's new nodes
            reached: Dict[str, Tuple[List[int], List[int], List[int]]] = {}
            for node_type, (origs, times, locals_, ranges) in frontier.items():
                for edge_type, (starts, counts) in zip(self._edge_types_into[node_type], ranges):
                    truncations += self._expand_edge_type(
                        subgraph, edge_type, starts, counts, times, locals_,
                        fanout, cutoff, reached,
                    )
            frontier = {
                node_type: self._record_degrees(subgraph, node_type, *entries, cutoff)
                for node_type, entries in reached.items()
                if entries[0]
            }
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
        ctx_times: np.ndarray,
        dst_locals: np.ndarray,
        fanout: int,
        cutoff: Optional[int],
        reached: Dict[str, Tuple[List[int], List[int], List[int]]],
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
                keys = self.rng.random((len(rows_d), degree))
                offsets = np.argpartition(keys, fanout - 1, axis=1)[:, :fanout]
                picks = store.nbr_src[starts[rows_d][:, None] + offsets]
                nbr_blocks.append(picks.reshape(-1))
                row_blocks.append(np.repeat(rows_d, fanout))
        if len(nbr_blocks) == 1:
            nbrs, edge_rows = nbr_blocks[0], row_blocks[0]
        else:
            nbrs, edge_rows = np.concatenate(nbr_blocks), np.concatenate(row_blocks)

        # Bulk interning: python-level work scales with *unique* node
        # instances instead of with edges.  Instances are interned in
        # ascending (node, ctx) order via one packed int64 key (ctx
        # values per batch are few; with a single cutoff the node id
        # is the key).
        if cutoff is not None:
            unique_keys, inverse = np.unique(nbrs, return_inverse=True)
            new_nbrs = unique_keys.tolist()
            new_ctxs = [cutoff] * len(new_nbrs)
        else:
            ctx_values, ctx_ranks = np.unique(ctx_times[edge_rows], return_inverse=True)
            unique_keys, inverse = np.unique(
                nbrs * len(ctx_values) + ctx_ranks, return_inverse=True
            )
            new_nbrs = (unique_keys // len(ctx_values)).tolist()
            new_ctxs = ctx_values[unique_keys % len(ctx_values)].tolist()
        origs, times, locals_ = reached.setdefault(edge_type.src, ([], [], []))
        unique_locals = np.empty(len(new_nbrs), dtype=np.int64)
        for i, (nbr, ctx) in enumerate(zip(new_nbrs, new_ctxs)):
            local, is_new = subgraph.add_node(edge_type.src, nbr, ctx)
            unique_locals[i] = local
            if is_new:
                origs.append(nbr)
                times.append(ctx)
                locals_.append(local)
        subgraph.add_edges(edge_type, unique_locals[inverse], dst_locals[edge_rows])
        return len(large)

    def _record_degrees(
        self,
        subgraph: SampledSubgraph,
        node_type: str,
        origs: List[int],
        times: List[int],
        locals_: List[int],
        cutoff: Optional[int],
    ) -> _Frontier:
        """Store the new nodes' time-valid in-degree per incoming edge type.

        Returns them as the next hop's frontier: the ``(starts,
        counts)`` ranges behind the degrees are exactly what expanding
        each incoming edge type needs, so they are computed once.
        """
        origs = np.asarray(origs, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        locals_ = np.asarray(locals_, dtype=np.int64)
        ranges = [
            self._valid_counts(edge_type, origs, times, cutoff)
            for edge_type in self._edge_types_into[node_type]
        ]
        if ranges:
            degrees = np.empty((len(origs), len(ranges)))
            for j, (_, counts) in enumerate(ranges):
                degrees[:, j] = counts
            # A hop's new nodes are interned sequentially per type, so
            # their locals are the next contiguous ascending block.
            subgraph.set_degrees_block(node_type, locals_, degrees)
        return origs, times, locals_, ranges

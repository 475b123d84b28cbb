"""Reference implementations the suite diffs the product code against.

These used to ship in ``src/`` behind runtime switches; they are kept
here, unoptimized and obviously correct, as oracles only.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph.hetero import EdgeType, HeteroGraph
from repro.graph.sampler import SampledSubgraph


class LoopNeighborSampler:
    """Per-node loop sampler: the oracle for :class:`repro.graph.NeighborSampler`.

    Same contract — every valid neighbor when there are at most
    ``fanout`` of them, otherwise exactly ``fanout`` drawn uniformly
    without replacement, never anything newer than the seed time — but
    it walks one node at a time through the graph's scalar API
    (``neighbors_before`` / ``count_before``) and draws with
    ``rng.choice``.  It consumes the generator differently, so it agrees
    with the product sampler in distribution and on every deterministic
    quantity (degrees, low-degree neighborhoods), not draw for draw.
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

    @property
    def num_hops(self) -> int:
        return len(self.fanouts)

    def sample(
        self, seed_type: str, seed_ids: np.ndarray, seed_times: np.ndarray
    ) -> SampledSubgraph:
        seed_ids = np.asarray(seed_ids, dtype=np.int64)
        seed_times = np.asarray(seed_times, dtype=np.int64)
        if seed_ids.shape != seed_times.shape:
            raise ValueError("seed_ids and seed_times must have the same shape")

        subgraph = SampledSubgraph(seed_type)
        frontier: List[Tuple[str, int, int, int]] = []  # (type, orig, ctx_time, local)
        seed_locals = np.empty(len(seed_ids), dtype=np.int64)
        for i, (orig, time) in enumerate(zip(seed_ids.tolist(), seed_times.tolist())):
            local, new = subgraph.add_node(seed_type, orig, time)
            seed_locals[i] = local
            if new:
                self._record_degrees(subgraph, seed_type, orig, time, local)
                frontier.append((seed_type, orig, time, local))
        subgraph.seed_locals = seed_locals

        for fanout in self.fanouts:
            next_frontier: List[Tuple[str, int, int, int]] = []
            for node_type, orig, ctx_time, local in frontier:
                for edge_type in self._edge_types_into[node_type]:
                    for nbr in self._sample_neighbors(edge_type, orig, ctx_time, fanout):
                        nbr_local, new = subgraph.add_node(edge_type.src, int(nbr), ctx_time)
                        subgraph.add_edges(edge_type, [nbr_local], [local])
                        if new:
                            self._record_degrees(
                                subgraph, edge_type.src, int(nbr), ctx_time, nbr_local
                            )
                            next_frontier.append((edge_type.src, int(nbr), ctx_time, nbr_local))
            frontier = next_frontier
        return subgraph.finalize()

    def _record_degrees(
        self, subgraph: SampledSubgraph, node_type: str, orig: int, ctx_time: int, local: int
    ) -> None:
        incoming = self._edge_types_into[node_type]
        if not incoming:
            return
        if self.time_respecting:
            degrees = [float(self.graph.count_before(et, orig, ctx_time)) for et in incoming]
        else:
            degrees = [float(len(self.graph.all_neighbors(et, orig))) for et in incoming]
        subgraph.set_degrees_block(node_type, [local], [degrees])

    def _sample_neighbors(
        self, edge_type: EdgeType, dst: int, ctx_time: int, fanout: int
    ) -> np.ndarray:
        if self.time_respecting:
            candidates, _ = self.graph.neighbors_before(edge_type, dst, ctx_time)
        else:
            candidates = self.graph.all_neighbors(edge_type, dst)
        if len(candidates) <= fanout:
            return candidates
        return candidates[self.rng.choice(len(candidates), size=fanout, replace=False)]

"""Full-snapshot subgraphs: exact (non-sampled) inference.

:func:`snapshot_subgraph` materializes *every* node and edge valid at
one cutoff into a :class:`~repro.graph.sampler.SampledSubgraph`, so a
model forward pass aggregates over complete neighborhoods instead of a
fanout-bounded sample.  Useful when

* the graph is small enough that exactness is cheap,
* sampling variance must be eliminated (e.g. verifying that two
  samplers converge to the same exact prediction), or
* a whole-population scoring pass is wanted at one cutoff.

For large graphs prefer the samplers — cost here is O(nodes + edges)
per call regardless of how many seeds are queried.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.hetero import HeteroGraph
from repro.graph.sampler import SampledSubgraph

__all__ = ["snapshot_subgraph"]


def snapshot_subgraph(
    graph: HeteroGraph,
    cutoff: int,
    seed_type: str,
    seed_ids: Sequence[int],
) -> SampledSubgraph:
    """The complete time-valid graph at ``cutoff`` as a subgraph.

    Every node with timestamp ≤ ``cutoff`` (static nodes always) is
    included with exact per-relation degrees; every edge whose
    timestamp and endpoints are valid is included.  ``seed_ids`` must
    all be valid at ``cutoff``.
    """
    cutoff = int(cutoff)
    subgraph = SampledSubgraph(seed_type)
    local_of = {}

    for node_type in graph.node_types:
        valid = graph.node_times(node_type) <= cutoff
        origs = np.flatnonzero(valid)
        mapping = np.full(graph.num_nodes(node_type), -1, dtype=np.int64)
        incoming = graph.edge_types_into(node_type)
        degrees = np.zeros((len(origs), len(incoming)))
        for j, edge_type in enumerate(incoming):
            store = graph._edges[edge_type]
            csum = np.concatenate([[0], np.cumsum(store.nbr_time <= cutoff, dtype=np.int64)])
            degrees[:, j] = csum[store.indptr[origs + 1]] - csum[store.indptr[origs]]
        for orig in origs.tolist():
            mapping[orig], _ = subgraph.add_node(node_type, orig, cutoff)
        if incoming:
            subgraph.set_degrees_block(node_type, mapping[origs], degrees)
        local_of[node_type] = mapping

    for edge_type in graph.edge_types:
        src_ids, dst_ids, times = graph.edges(edge_type)
        valid = (
            (times <= cutoff)
            & (local_of[edge_type.src][src_ids] >= 0)
            & (local_of[edge_type.dst][dst_ids] >= 0)
        )
        if not valid.any():
            continue
        subgraph.add_edges(
            edge_type,
            local_of[edge_type.src][src_ids[valid]],
            local_of[edge_type.dst][dst_ids[valid]],
        )

    seed_ids = np.asarray(seed_ids, dtype=np.int64)
    seed_locals = local_of[seed_type][seed_ids]
    if (seed_locals < 0).any():
        missing = seed_ids[seed_locals < 0][:3].tolist()
        raise ValueError(f"seeds not valid at cutoff {cutoff}: e.g. {missing}")
    subgraph.seed_locals = seed_locals
    return subgraph

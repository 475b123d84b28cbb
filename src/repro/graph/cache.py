"""The graph fingerprint: the cold-rebuild equality oracle."""
# Module path kept for its reader benchmarks/e2e/workloads.py until the re-baseline PR.

from __future__ import annotations

import hashlib

import numpy as np

from repro.graph.hetero import HeteroGraph

__all__ = ["graph_fingerprint"]


def graph_fingerprint(graph: HeteroGraph) -> str:
    """A stable digest of the graph's structure and timestamps.

    The cold-rebuild equality oracle: two graphs built from the same
    database contents share a fingerprint; any change to node counts,
    edges, or timestamps changes it.  It hashes every CSR array, so
    nothing on the sampling or refresh path asks for it: computed on
    demand, memoized per version.
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

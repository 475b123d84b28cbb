"""Heterogeneous temporal graphs compiled from relational databases.

The core "databases as graphs" idea: every table becomes a node type,
every row a node, every foreign key an edge type (plus its reverse),
and every time column a timestamp on nodes and edges.

* :mod:`repro.graph.hetero` — the graph data structure (per-edge-type
  CSR with time-sorted neighbor lists);
* :mod:`repro.graph.encoders` — column encoders turning table columns
  into model-ready numeric arrays and categorical codes;
* :mod:`repro.graph.builder` — the DB→graph compiler;
* :mod:`repro.graph.sampler` — time-respecting neighbor sampling;
* :mod:`repro.graph.cache` — subgraph memoization plus the
  deterministic (content-keyed RNG) sampling contract;
* :mod:`repro.graph.shared` — the shared-memory CSR store that lets
  sampler workers view the graph zero-copy;
* :mod:`repro.graph.parallel` — multi-process minibatch sampling with
  bounded prefetch over the shared store.
"""

from repro.graph.hetero import EdgeType, HeteroGraph, TIME_MIN
from repro.graph.encoders import NodeFeatures, encode_table_features
from repro.graph.builder import build_graph
from repro.graph.sampler import NeighborSampler, SampledSubgraph
from repro.graph.cache import CachedSampler, LRUSubgraphCache, graph_fingerprint
from repro.graph.shared import SharedGraphStore, list_shared_segments
from repro.graph.parallel import ParallelSampleLoader

__all__ = [
    "EdgeType",
    "HeteroGraph",
    "TIME_MIN",
    "NodeFeatures",
    "encode_table_features",
    "build_graph",
    "NeighborSampler",
    "SampledSubgraph",
    "CachedSampler",
    "LRUSubgraphCache",
    "graph_fingerprint",
    "SharedGraphStore",
    "list_shared_segments",
    "ParallelSampleLoader",
]

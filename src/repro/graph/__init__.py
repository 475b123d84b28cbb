"""Heterogeneous temporal graphs compiled from relational databases.

The core "databases as graphs" idea: every table becomes a node type,
every row a node, every foreign key an edge type (plus its reverse),
and every time column a timestamp on nodes and edges.

* :mod:`repro.graph.hetero` — the graph data structure (per-edge-type
  CSR with time-sorted neighbor lists);
* :mod:`repro.graph.encoders` — column encoders turning table columns
  into model-ready numeric arrays and categorical codes;
* :mod:`repro.graph.builder` — the DB→graph compiler;
* :mod:`repro.graph.sampler` — time-respecting neighbor sampling, a
  pure function of the batch and the graph (content-keyed RNG);
* :mod:`repro.graph.cache` — ``graph_fingerprint``, the cold-rebuild
  equality oracle.
"""

from repro.graph.hetero import EdgeType, HeteroGraph, TIME_MIN
from repro.graph.encoders import NodeFeatures, encode_table_features
from repro.graph.builder import build_graph
from repro.graph.sampler import NeighborSampler, SampledSubgraph
from repro.graph.cache import graph_fingerprint

__all__ = [
    "EdgeType",
    "HeteroGraph",
    "TIME_MIN",
    "NodeFeatures",
    "encode_table_features",
    "build_graph",
    "NeighborSampler",
    "SampledSubgraph",
    "graph_fingerprint",
]

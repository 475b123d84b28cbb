"""GNN models: node encoders, the HeteroGNN predictor, and two-tower retrieval."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.gnn.conv import HeteroGATConv, HeteroSAGEConv
from repro.graph.hetero import EdgeType, HeteroGraph, TIME_MIN
from repro.graph.sampler import SampledSubgraph
from repro.nn.layers import Embedding, Linear, MLP
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_dtype

__all__ = ["GraphMetadata", "NodeEncoder", "HeteroGNN", "TwoTowerModel"]

_SECONDS_PER_DAY = 86400.0


@dataclass
class GraphMetadata:
    """Shape information a model needs about a graph (no data)."""

    node_types: List[str]
    edge_types: List[EdgeType]
    numeric_dims: Dict[str, int]
    categorical_cardinalities: Dict[str, List[int]]
    incoming_counts: Dict[str, int]

    @classmethod
    def from_graph(cls, graph: HeteroGraph) -> "GraphMetadata":
        """Extract metadata from a built graph (features must be encoded)."""
        numeric_dims = {}
        categorical = {}
        incoming = {}
        for node_type in graph.node_types:
            features = graph.features.get(node_type)
            if features is None:
                numeric_dims[node_type] = 0
                categorical[node_type] = []
            else:
                numeric_dims[node_type] = features.numeric_dim
                categorical[node_type] = [cat.cardinality for cat in features.categorical]
            incoming[node_type] = len(graph.edge_types_into(node_type))
        return cls(
            node_types=list(graph.node_types),
            edge_types=list(graph.edge_types),
            numeric_dims=numeric_dims,
            categorical_cardinalities=categorical,
            incoming_counts=incoming,
        )


def _time_features(ctx_times: np.ndarray, node_times: np.ndarray) -> np.ndarray:
    """Seed-relative time channels per node instance: ``log1p(age in
    days)`` plus an is-static flag."""
    static = node_times == TIME_MIN
    age_seconds = np.where(static, 0.0, ctx_times.astype(np.float64) - node_times.astype(np.float64))
    age_days = np.maximum(age_seconds, 0.0) / _SECONDS_PER_DAY
    return np.column_stack([np.log1p(age_days), static.astype(np.float64)])


class NodeEncoder(Module):
    """Encodes raw node features of every type into a shared hidden width.

    Per node type: standardized numerics pass through a Linear,
    categorical codes through per-column embeddings, and the two
    seed-relative time channels through another Linear; contributions
    are summed and passed through ReLU.
    """

    def __init__(
        self,
        metadata: GraphMetadata,
        dim: int,
        rng: np.random.Generator,
        degree_features: bool = True,
        dtype=None,
    ) -> None:
        super().__init__()
        self.dim = dim
        self.dtype = as_dtype(dtype)
        self.numeric_linears: Dict[str, Linear] = {}
        self.time_linears: Dict[str, Linear] = {}
        self.degree_linears: Dict[str, Linear] = {}
        self.cat_embeddings: Dict[str, List[Embedding]] = {}
        self.type_bias: Dict[str, Parameter] = {}
        for node_type in metadata.node_types:
            if metadata.numeric_dims[node_type] > 0:
                self.numeric_linears[node_type] = Linear(
                    metadata.numeric_dims[node_type], dim, rng, bias=False, dtype=dtype
                )
            self.time_linears[node_type] = Linear(2, dim, rng, bias=False, dtype=dtype)
            if degree_features and metadata.incoming_counts.get(node_type, 0) > 0:
                self.degree_linears[node_type] = Linear(
                    metadata.incoming_counts[node_type], dim, rng, bias=False, dtype=dtype
                )
            self.cat_embeddings[node_type] = [
                Embedding(cardinality, dim, rng, dtype=dtype)
                for cardinality in metadata.categorical_cardinalities[node_type]
            ]
            self.type_bias[node_type] = Parameter(np.zeros(dim), dtype=dtype)

    def forward(self, subgraph: SampledSubgraph, graph: HeteroGraph) -> Dict[str, Tensor]:
        """Hidden state per node type for all instances in ``subgraph``."""
        hidden: Dict[str, Tensor] = {}
        for node_type in subgraph.node_types:
            orig = subgraph.node_orig(node_type)
            ctx = subgraph.node_ctx_time(node_type)
            state = self.type_bias[node_type] + self.time_linears[node_type](
                Tensor(_time_features(ctx, graph.node_times(node_type)[orig]), dtype=self.dtype)
            )
            degree_linear = self.degree_linears.get(node_type)
            if degree_linear is not None:
                degrees = subgraph.node_degrees(node_type)
                if degrees.shape[1] == degree_linear.in_features:
                    state = state + degree_linear(Tensor(np.log1p(degrees), dtype=self.dtype))
            features = graph.features.get(node_type)
            if features is not None:
                if features.numeric_dim > 0:
                    state = state + self.numeric_linears[node_type](
                        Tensor(features.numeric[orig], dtype=self.dtype)
                    )
                for embedding, cat in zip(self.cat_embeddings[node_type], features.categorical):
                    state = state + embedding(cat.codes[orig])
            hidden[node_type] = state.relu()
        return hidden


class HeteroGNN(Module):
    """Encoder + L HeteroSAGE layers + MLP head over seed nodes.

    ``num_layers=0`` degrades gracefully to a per-node MLP on the
    seed's own features (the "0 hops" point of Figure 1).
    """

    def __init__(
        self,
        metadata: GraphMetadata,
        hidden_dim: int,
        out_dim: int,
        num_layers: int,
        rng: np.random.Generator,
        aggregation: str = "mean",
        shared_weights: bool = False,
        degree_features: bool = True,
        conv_type: str = "sage",
        dtype=None,
    ) -> None:
        super().__init__()
        self.metadata = metadata
        self.out_dim = out_dim
        self.dtype = as_dtype(dtype)
        self.encoder = NodeEncoder(
            metadata, hidden_dim, rng, degree_features=degree_features, dtype=dtype
        )
        if conv_type == "sage":
            self.convs = [
                HeteroSAGEConv(
                    metadata.node_types,
                    metadata.edge_types,
                    hidden_dim,
                    rng,
                    aggregation=aggregation,
                    shared_weights=shared_weights,
                    dtype=dtype,
                )
                for _ in range(num_layers)
            ]
        elif conv_type == "gat":
            self.convs = [
                HeteroGATConv(metadata.node_types, metadata.edge_types, hidden_dim, rng, dtype=dtype)
                for _ in range(num_layers)
            ]
        else:
            raise ValueError(f"conv_type must be 'sage' or 'gat', got {conv_type!r}")
        self.head = MLP([hidden_dim, hidden_dim, out_dim], rng, dtype=dtype)

    @property
    def num_layers(self) -> int:
        """Number of message-passing rounds."""
        return len(self.convs)

    def seed_embeddings(self, subgraph: SampledSubgraph, graph: HeteroGraph) -> Tensor:
        """Hidden representation of each seed, before the head."""
        hidden = self.encoder(subgraph, graph)
        for conv in self.convs:
            hidden = conv(hidden, subgraph)
        return hidden[subgraph.seed_type].take(subgraph.seed_locals)

    def forward(self, subgraph: SampledSubgraph, graph: HeteroGraph) -> Tensor:
        """Per-seed outputs of shape (num_seeds, out_dim)."""
        return self.head(self.seed_embeddings(subgraph, graph))


class TwoTowerModel(Module):
    """Retrieval model for link prediction (e.g. next-purchase).

    The *query* tower is the :class:`HeteroGNN` it is given, built by
    the caller (the same builder as a node query's network) over the
    seed entity's temporal neighborhood; its ``out_dim`` is the
    embedding width.  The *item* tower combines a learned id embedding
    with the item's encoded features, in the tower's dtype.  Scores are
    dot products, so scoring a query against the full catalogue is one
    matrix multiply.
    """

    def __init__(
        self,
        query_tower: HeteroGNN,
        metadata: GraphMetadata,
        item_type: str,
        num_items: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.item_type = item_type
        self.query_tower = query_tower
        self.dtype = dtype = query_tower.dtype
        embed_dim = query_tower.out_dim
        self.item_embedding = Embedding(num_items, embed_dim, rng, dtype=dtype)
        item_numeric = metadata.numeric_dims.get(item_type, 0)
        self.item_feature_linear = (
            Linear(item_numeric, embed_dim, rng, bias=False, dtype=dtype) if item_numeric > 0 else None
        )
        self.item_cat_embeddings = [
            Embedding(cardinality, embed_dim, rng, dtype=dtype)
            for cardinality in metadata.categorical_cardinalities.get(item_type, [])
        ]

    def query_embeddings(self, subgraph: SampledSubgraph, graph: HeteroGraph) -> Tensor:
        """Embed the batch of query seeds."""
        return self.query_tower(subgraph, graph)

    def item_embeddings(self, item_ids: np.ndarray, graph: HeteroGraph) -> Tensor:
        """Embed a set of items (by node index) from ids and features."""
        item_ids = np.asarray(item_ids, dtype=np.int64)
        embedding = self.item_embedding(item_ids)
        features = graph.features.get(self.item_type)
        if features is not None:
            if self.item_feature_linear is not None and features.numeric_dim > 0:
                embedding = embedding + self.item_feature_linear(
                    Tensor(features.numeric[item_ids], dtype=self.dtype)
                )
            for emb, cat in zip(self.item_cat_embeddings, features.categorical):
                embedding = embedding + emb(cat.codes[item_ids])
        return embedding

    def score(self, query: Tensor, items: Tensor) -> Tensor:
        """Pairwise scores: (num_queries, num_items)."""
        return query @ items.transpose()

    def score_pairs(self, query: Tensor, items: Tensor) -> Tensor:
        """Row-aligned scores: query[i] · items[i] → shape (n,)."""
        return (query * items).sum(axis=1)

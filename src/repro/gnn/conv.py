"""Relation-wise heterogeneous GraphSAGE convolution.

One layer updates every node type's hidden state from its incoming
relations:

.. math::

    h_T' = \\sigma\\Big( W^{self}_T h_T
            + \\sum_{(S, r, T)} \\mathrm{agg}_{e \\in r} W_r h_S[src(e)]
            + b_T \\Big)

with a weight matrix per relation (``shared_weights=False``, the
default) or a single weight matrix for all relations (the ablation
variant from DESIGN.md §6.2).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.gnn.scatter import scatter_max, scatter_mean, scatter_sum, segment_softmax
from repro.graph.hetero import EdgeType
from repro.graph.sampler import SampledSubgraph
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor

__all__ = ["HeteroSAGEConv", "HeteroGATConv"]

_AGGREGATORS = {"sum": scatter_sum, "mean": scatter_mean, "max": scatter_max}


class HeteroSAGEConv(Module):
    """One heterogeneous message-passing layer.

    Parameters
    ----------
    node_types:
        All node types of the graph.
    edge_types:
        All edge types of the graph (the layer allocates one relation
        weight per entry unless ``shared_weights``).
    dim:
        Hidden width (input and output).
    rng:
        Random generator for initialization.
    aggregation:
        ``"mean"`` (default, degree-robust), ``"sum"``, or ``"max"``.
    shared_weights:
        Use a single message transform for every relation.
    activation:
        Apply ReLU to the output (disable on the last layer if raw
        embeddings are wanted).
    dtype:
        Compute dtype for the layer parameters (default float64).
    """

    def __init__(
        self,
        node_types: Sequence[str],
        edge_types: Sequence[EdgeType],
        dim: int,
        rng: np.random.Generator,
        aggregation: str = "mean",
        shared_weights: bool = False,
        activation: bool = True,
        dtype=None,
    ) -> None:
        super().__init__()
        if aggregation not in _AGGREGATORS:
            raise ValueError(f"aggregation must be one of {sorted(_AGGREGATORS)}, got {aggregation!r}")
        self.dim = dim
        self.aggregation = aggregation
        self.activation = activation
        self.node_types = list(node_types)
        self.edge_types = list(edge_types)
        self.self_linears: Dict[str, Linear] = {
            node_type: Linear(dim, dim, rng, dtype=dtype) for node_type in node_types
        }
        if shared_weights:
            shared = Linear(dim, dim, rng, bias=False, dtype=dtype)
            self.rel_linears: Dict[str, Linear] = {str(et): shared for et in edge_types}
        else:
            self.rel_linears = {
                str(et): Linear(dim, dim, rng, bias=False, dtype=dtype) for et in edge_types
            }

    def forward(
        self,
        hidden: Dict[str, Tensor],
        subgraph: SampledSubgraph,
    ) -> Dict[str, Tensor]:
        """Apply the layer over the sampled subgraph's edges."""
        aggregate = _AGGREGATORS[self.aggregation]
        incoming: Dict[str, List[Tensor]] = {node_type: [] for node_type in hidden}
        for edge_type in subgraph.edge_types:
            key = str(edge_type)
            if key not in self.rel_linears:
                raise KeyError(f"layer has no weights for edge type {edge_type}")
            src_plan, dst_plan = subgraph.edge_plans(edge_type)
            if len(src_plan) == 0:
                continue
            source_hidden = hidden[edge_type.src].take(src_plan)
            messages = self.rel_linears[key](source_hidden)
            incoming[edge_type.dst].append(aggregate(messages, dst_plan, dst_plan.num_segments))

        output: Dict[str, Tensor] = {}
        for node_type, state in hidden.items():
            new_state = self.self_linears[node_type](state)
            for aggregated in incoming.get(node_type, ()):  # sum across relations
                new_state = new_state + aggregated
            output[node_type] = new_state.relu() if self.activation else new_state
        return output


class HeteroGATConv(Module):
    """Attention-based heterogeneous convolution (GAT-style).

    Per relation ``(S, r, T)``, each edge gets an attention score

    .. math::

        e = \\mathrm{LeakyReLU}(a_{src}^T W_r h_{src} + a_{dst}^T W_T h_{dst})

    normalized with a softmax over each destination node's incoming
    edges of that relation; messages are the attention-weighted sum of
    ``W_r h_{src}``.  Relations are then summed into the destination's
    self-transformed state, as in :class:`HeteroSAGEConv`.

    Single-head by design — the benchmark ablation compares inductive
    biases (uniform mean vs learned weights), not capacity.
    """

    def __init__(
        self,
        node_types: Sequence[str],
        edge_types: Sequence[EdgeType],
        dim: int,
        rng: np.random.Generator,
        activation: bool = True,
        negative_slope: float = 0.2,
        dtype=None,
    ) -> None:
        super().__init__()
        self.dim = dim
        self.activation = activation
        self.negative_slope = negative_slope
        self.node_types = list(node_types)
        self.edge_types = list(edge_types)
        self.self_linears: Dict[str, Linear] = {
            node_type: Linear(dim, dim, rng, dtype=dtype) for node_type in node_types
        }
        self.rel_linears: Dict[str, Linear] = {
            str(et): Linear(dim, dim, rng, bias=False, dtype=dtype) for et in edge_types
        }
        self.attn_src: Dict[str, Linear] = {
            str(et): Linear(dim, 1, rng, bias=False, dtype=dtype) for et in edge_types
        }
        self.attn_dst: Dict[str, Linear] = {
            str(et): Linear(dim, 1, rng, bias=False, dtype=dtype) for et in edge_types
        }

    def forward(
        self,
        hidden: Dict[str, Tensor],
        subgraph: SampledSubgraph,
    ) -> Dict[str, Tensor]:
        """Apply attention-weighted message passing over the subgraph."""
        incoming: Dict[str, List[Tensor]] = {node_type: [] for node_type in hidden}
        for edge_type in subgraph.edge_types:
            key = str(edge_type)
            if key not in self.rel_linears:
                raise KeyError(f"layer has no weights for edge type {edge_type}")
            src_plan, dst_plan = subgraph.edge_plans(edge_type)
            if len(src_plan) == 0:
                continue
            source_hidden = hidden[edge_type.src].take(src_plan)
            messages = self.rel_linears[key](source_hidden)
            dst_hidden = hidden[edge_type.dst].take(dst_plan)
            scores = self.attn_src[key](messages) + self.attn_dst[key](
                self.self_linears[edge_type.dst](dst_hidden)
            )
            scores = scores.leaky_relu(self.negative_slope)
            num_dst = dst_plan.num_segments
            alpha = segment_softmax(scores, dst_plan, num_dst)
            incoming[edge_type.dst].append(scatter_sum(messages * alpha, dst_plan, num_dst))

        output: Dict[str, Tensor] = {}
        for node_type, state in hidden.items():
            new_state = self.self_linears[node_type](state)
            for aggregated in incoming.get(node_type, ()):
                new_state = new_state + aggregated
            output[node_type] = new_state.relu() if self.activation else new_state
        return output

"""Relation-level explanations for trained predictive models.

``explain_relations`` answers "which foreign-key relationships does
this model actually use?" by perturbation: it re-scores the same
entities with one edge type knocked out of the sampled subgraph (its
messages removed and its degree channel zeroed) and reports the mean
absolute change in the prediction.  A relation the model ignores moves
nothing; the relation carrying the signal moves predictions a lot.

This is the declarative analogue of feature importance: the analyst
never wrote features, so importances are reported on the schema's own
vocabulary — its foreign keys.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.graph.hetero import EdgeType
from repro.graph.sampler import NeighborSampler, SampledSubgraph
from repro.nn.tensor import no_grad
from repro.pql.ast import TaskType

__all__ = ["explain_relations"]


def _knock_out(subgraph: SampledSubgraph, edge_type: EdgeType, graph) -> None:
    """Remove one edge type's messages and zero its degree channel."""
    subgraph.drop_edge_type(edge_type)
    dst = edge_type.dst
    incoming = graph.edge_types_into(dst)
    if edge_type in incoming:
        subgraph.zero_degree_channel(dst, incoming.index(edge_type))


def explain_relations(
    model,
    entity_keys: np.ndarray,
    cutoff: int,
    seed: int = 0,
) -> Dict[str, float]:
    """Per-relation importance for a node-task model.

    Parameters
    ----------
    model:
        A :class:`~repro.pql.planner.PredictiveModel` with a trained
        GNN, for a binary or regression query.
    entity_keys:
        Entities to explain (importances are averaged over them).
    cutoff:
        Prediction time.
    seed:
        Seed for the sampling used during explanation (the same
        subgraphs are reused for the baseline and every knockout, so
        deltas isolate the relation, not sampling noise).

    Returns
    -------
    dict
        ``str(edge_type) -> mean |Δ prediction|``, sorted descending.
    """
    if model.task_type not in (TaskType.BINARY, TaskType.REGRESSION):
        raise ValueError("explain_relations supports binary and regression tasks only")
    trainer = model.node_trainer
    graph = model.graph
    entity_type = model.binding.query.entity_table
    from repro.graph.builder import node_index_for_keys

    ids = node_index_for_keys(graph, entity_type, np.asarray(entity_keys))
    times = np.full(len(ids), int(cutoff), dtype=np.int64)

    def forward(subgraph: SampledSubgraph) -> np.ndarray:
        with no_grad():
            raw = trainer.model(subgraph, graph).reshape(len(subgraph.seed_locals))
            if model.task_type == TaskType.BINARY:
                return raw.sigmoid().data
            return raw.data * trainer._target_std + trainer._target_mean

    importances: Dict[str, float] = {}
    baseline_scores: List[np.ndarray] = []
    knocked_scores: Dict[EdgeType, List[np.ndarray]] = {et: [] for et in graph.edge_types}
    batch = trainer.config.batch_size

    # A draw is a function of the batch, so re-sampling hands the
    # baseline and every knockout the *same* neighborhoods (each its own
    # copy: a knockout edits the subgraph in place).
    sampler = NeighborSampler(
        graph,
        fanouts=trainer.sampler.fanouts,
        seed=seed,
        time_respecting=trainer.sampler.time_respecting,
    )
    for start in range(0, len(ids), batch):
        stop = start + batch
        base_subgraph = sampler.sample(entity_type, ids[start:stop], times[start:stop])
        baseline_scores.append(forward(base_subgraph))
        for edge_type in graph.edge_types:
            subgraph = sampler.sample(entity_type, ids[start:stop], times[start:stop])
            _knock_out(subgraph, edge_type, graph)
            knocked_scores[edge_type].append(forward(subgraph))

    baseline = np.concatenate(baseline_scores)
    for edge_type, blocks in knocked_scores.items():
        knocked = np.concatenate(blocks)
        importances[str(edge_type)] = float(np.abs(baseline - knocked).mean())
    return dict(sorted(importances.items(), key=lambda kv: -kv[1]))

"""The graceful-degradation ladder: GNN → GBDT → heuristic.

When the GNN training stage exhausts its retries or its deadline
budget, the planner should still return *a* model — a worse one, with
its provenance recorded — rather than burn the labeling and graph
work already done.  The rungs:

1. **GBDT** — hand-flattened features (:class:`FeatureBuilder`) into
   the from-scratch gradient-boosting baseline; typically within a few
   AUROC points of the GNN.
2. **Heuristic** — the training base rate (binary) or target mean
   (regression); for LIST queries, global item popularity.

Fallback models deliberately hold **no database reference** so they
pickle cleanly into a saved model directory; the database is passed
back in at prediction time, mirroring how the GNN path reloads.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.features import FeatureBuilder
from repro.baselines.trees import GradientBoostingClassifier, GradientBoostingRegressor
from repro.obs import get_logger
from repro.pql.ast import TaskType
from repro.pql.labeler import LabelTable
from repro.resilience.faults import fault_point

__all__ = [
    "GBDTFallback",
    "HeuristicFallback",
    "PopularityFallback",
    "fit_fallback",
    "FALLBACK_KINDS",
]

_log = get_logger("resilience.fallback")

FALLBACK_KINDS = ("gbdt", "heuristic", "popularity")


class GBDTFallback:
    """GBDT over hand-flattened features, behind the GNN predict API."""

    kind = "gbdt"

    def __init__(self, entity_table: str, task: str, estimator, include_two_hop: bool) -> None:
        self.entity_table = entity_table
        self.task = task  # "binary" | "regression"
        self.estimator = estimator
        self.include_two_hop = include_two_hop

    def predict(self, db, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        """Probabilities (binary) or values (regression) per entity."""
        builder = FeatureBuilder(db, self.entity_table, include_two_hop=self.include_two_hop)
        features = builder.build(np.asarray(entity_keys), np.asarray(cutoffs))
        if self.task == "binary":
            return np.asarray(self.estimator.predict_proba(features), dtype=np.float64)
        return np.asarray(self.estimator.predict(features), dtype=np.float64)


class HeuristicFallback:
    """Constant prediction: base rate (binary) or target mean (regression)."""

    kind = "heuristic"

    def __init__(self, task: str, constant: float) -> None:
        self.task = task
        self.constant = float(constant)

    def predict(self, db, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        """The same constant for every entity."""
        return np.full(len(np.asarray(entity_keys)), self.constant, dtype=np.float64)


class PopularityFallback:
    """Global item-popularity ranking for LIST queries."""

    kind = "popularity"

    def __init__(self, item_scores: np.ndarray) -> None:
        #: Interaction count per item *node id* (graph node order).
        self.item_scores = np.asarray(item_scores, dtype=np.float64)

    def score_against_items(self, seed_type, query_ids, query_times, item_ids) -> np.ndarray:
        """Popularity scores, identical for every query: (queries, items)."""
        row = self.item_scores[np.asarray(item_ids, dtype=np.int64)]
        return np.tile(row, (len(np.asarray(query_ids)), 1))


def _fit_gbdt(db, binding, train: LabelTable, val: LabelTable, include_two_hop: bool):
    entity = binding.query.entity_table
    builder = FeatureBuilder(db, entity, include_two_hop=include_two_hop)
    x_train = builder.build(train.entity_keys, train.cutoffs)
    eval_set = None
    if len(val):
        eval_set = (builder.build(val.entity_keys, val.cutoffs), val.labels)
    if binding.task_type == TaskType.BINARY:
        estimator = GradientBoostingClassifier(num_rounds=100, learning_rate=0.1, max_depth=4)
        task = "binary"
    else:
        estimator = GradientBoostingRegressor(num_rounds=100, learning_rate=0.1, max_depth=4)
        task = "regression"
    estimator.fit(x_train, train.labels, eval_set=eval_set)
    return GBDTFallback(entity, task, estimator, include_two_hop)


def _fit_heuristic(binding, train: LabelTable) -> HeuristicFallback:
    labels = np.asarray(train.labels, dtype=np.float64)
    constant = float(labels.mean()) if len(labels) else 0.0
    task = "binary" if binding.task_type == TaskType.BINARY else "regression"
    return HeuristicFallback(task, constant)


def _fit_popularity(graph, item_type: str, train: LabelTable) -> PopularityFallback:
    num_items = graph.num_nodes(item_type)
    key_to_node = graph.key_index(item_type)
    counts = np.zeros(num_items, dtype=np.float64)
    for item_keys in train.item_keys or []:
        for key in np.asarray(item_keys).tolist():
            node = key_to_node.get(key)
            if node is not None:
                counts[node] += 1.0
    return PopularityFallback(counts)


def fit_fallback(db, binding, graph, train: LabelTable, val: LabelTable,
                 include_two_hop: bool = False):
    """Descend the ladder; returns the first rung that fits successfully.

    LIST queries go straight to popularity (there is no tabular GBDT
    formulation of retrieval here).  Node tasks try GBDT first and the
    constant heuristic as the rung of last resort — the heuristic
    cannot fail, so this function always returns a model.
    """
    if binding.task_type == TaskType.LINK:
        _log.warning("degrading LIST query to the popularity heuristic")
        return _fit_popularity(graph, binding.item_table, train)
    try:
        fault_point("fallback.gbdt")
        model = _fit_gbdt(db, binding, train, val, include_two_hop)
        _log.warning("degraded to the GBDT baseline", extra={"entity": binding.query.entity_table})
        return model
    except Exception as err:  # noqa: BLE001 — any GBDT failure drops a rung
        _log.warning(
            "GBDT fallback failed; degrading to the constant heuristic",
            extra={"error": f"{type(err).__name__}: {err}"},
        )
        return _fit_heuristic(binding, train)

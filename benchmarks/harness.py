"""Shared experiment harness for the benchmark suite.

Each ``bench_*.py`` module regenerates one table or figure from
DESIGN.md §4.  This module holds the model-fitting code they share so
that every row of every table goes through the exact same pipeline.

All experiment functions cache on (dataset, seed) where possible to
keep the whole suite runnable in a few minutes on a laptop CPU.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.baselines import (
    BPRMatrixFactorization,
    FeatureBuilder,
    GlobalMeanBaseline,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    LinearRegression,
    LogisticRegression,
    MajorityClassBaseline,
    PopularityRanker,
)
from repro.datasets import REGISTRY, get_dataset
from repro.eval import auroc, average_precision, hit_rate_at_k, mae, make_temporal_split, mrr, ndcg_at_k, rmse
from repro.eval.splits import TemporalSplit
from repro.pql import PlannerConfig, PredictiveQueryPlanner, build_label_table, parse

DAY = 86400

@functools.lru_cache(maxsize=None)
def dataset_and_split(dataset_name: str, task_name: str, scale: float = 1.0, seed: int = 0):
    """Build (db, task, split) for one registered task, cached."""
    spec = get_dataset(dataset_name)
    db = spec.build(scale=scale, seed=seed)
    task = spec.task(task_name)
    horizon = parse(task.query).horizon_seconds
    split = spec.split_for(db, task, horizon)
    return db, task, split


def fit_pql_gnn(db, query: str, split: TemporalSplit, **overrides):
    """Train the declarative pipeline and return the trained model.

    Every PQL-GNN row of every table starts from ``PlannerConfig()``,
    the configuration ``repro fit`` runs — the declarative claim is
    that one config serves all tasks; ``overrides`` are only the knobs
    a figure varies.
    """
    config = PlannerConfig(**overrides)
    planner = PredictiveQueryPlanner(db, config)
    return planner.fit(query, split)


@contextlib.contextmanager
def row_trace():
    """Span collection for one benchmark row.

    Yields a live :class:`repro.obs.Trace` (or ``None`` when a caller
    higher up — e.g. the CLI profiler — already owns the collection
    window; the spans then land on that trace instead).  Use
    :func:`row_timings` on the yielded value after the block.
    """
    if obs.enabled():
        yield None
        return
    with obs.collect() as trace:
        yield trace


def row_timings(trace) -> Dict[str, float]:
    """Flat stage → seconds dict for one benchmark row's trace."""
    if trace is None:
        return {}
    return {name: round(seconds, 6) for name, seconds in obs.stage_timings(trace).items()}


def node_task_tables(db, query: str, split: TemporalSplit):
    """(train, val, test) label tables for a node task."""
    planner = PredictiveQueryPlanner(db)
    binding = planner.plan(query)
    train = build_label_table(db, binding, split.train_cutoffs)
    val = build_label_table(db, binding, [split.val_cutoff])
    test = build_label_table(db, binding, [split.test_cutoff])
    return binding, train, val, test


def manual_features(db, entity_table: str, train, val, test, include_two_hop: bool = True):
    """Feature matrices for the tabular baselines."""
    builder = FeatureBuilder(db, entity_table, include_two_hop=include_two_hop)
    x_train = builder.build(train.entity_keys, train.cutoffs)
    x_val = builder.build(val.entity_keys, val.cutoffs)
    x_test = builder.build(test.entity_keys, test.cutoffs)
    return builder, x_train, x_val, x_test


def classification_row(db, query: str, split: TemporalSplit) -> Dict[str, Dict[str, float]]:
    """All Table 2 models on one binary task; returns model → metrics."""
    binding, train, val, test = node_task_tables(db, query, split)
    entity = binding.query.entity_table
    results: Dict[str, Dict[str, float]] = {}

    with row_trace() as trace:
        model = fit_pql_gnn(db, query, split)
        results["pql_gnn"] = model.evaluate(split.test_cutoff)

        with obs.span("baselines.features"):
            _, x_train, x_val, x_test = manual_features(db, entity, train, val, test)
        with obs.span("baselines.gbdt"):
            gbdt = GradientBoostingClassifier(num_rounds=200, learning_rate=0.1, max_depth=4)
            gbdt.fit(x_train, train.labels, eval_set=(x_val, val.labels))
            scores = gbdt.predict_proba(x_test)
        results["gbdt"] = {"auroc": auroc(test.labels, scores), "average_precision": average_precision(test.labels, scores)}

        with obs.span("baselines.logistic"):
            logistic = LogisticRegression(alpha=1.0).fit(x_train, train.labels)
            scores = logistic.predict_proba(x_test)
        results["logistic"] = {"auroc": auroc(test.labels, scores), "average_precision": average_precision(test.labels, scores)}

        majority = MajorityClassBaseline().fit(train.labels)
        scores = majority.predict_proba(len(test))
        results["majority"] = {"auroc": 0.5, "average_precision": average_precision(test.labels, scores)}
    results["_meta"] = {"num_test": float(len(test)), "positive_rate": test.positive_rate}
    results["_timings"] = row_timings(trace)
    return results


def regression_row(db, query: str, split: TemporalSplit) -> Dict[str, Dict[str, float]]:
    """All Table 3 models on one regression task; returns model → metrics."""
    binding, train, val, test = node_task_tables(db, query, split)
    entity = binding.query.entity_table
    results: Dict[str, Dict[str, float]] = {}

    with row_trace() as trace:
        model = fit_pql_gnn(db, query, split)
        results["pql_gnn"] = model.evaluate(split.test_cutoff)

        with obs.span("baselines.features"):
            _, x_train, x_val, x_test = manual_features(db, entity, train, val, test)
        with obs.span("baselines.gbdt"):
            gbdt = GradientBoostingRegressor(num_rounds=200, learning_rate=0.1, max_depth=4)
            gbdt.fit(x_train, train.labels, eval_set=(x_val, val.labels))
            preds = gbdt.predict(x_test)
        results["gbdt"] = {"mae": mae(test.labels, preds), "rmse": rmse(test.labels, preds)}

        with obs.span("baselines.ridge"):
            ridge = LinearRegression(alpha=1.0).fit(x_train, train.labels)
            preds = ridge.predict(x_test)
        results["ridge"] = {"mae": mae(test.labels, preds), "rmse": rmse(test.labels, preds)}

        mean = GlobalMeanBaseline().fit(train.labels)
        preds = mean.predict(len(test))
        results["global_mean"] = {"mae": mae(test.labels, preds), "rmse": rmse(test.labels, preds)}
    results["_meta"] = {"num_test": float(len(test)), "target_mean": float(test.labels.mean())}
    results["_timings"] = row_timings(trace)
    return results


def link_row(db, query: str, split: TemporalSplit, k: int = 10) -> Dict[str, Dict[str, float]]:
    """All Table 4 models on the link task."""
    planner = PredictiveQueryPlanner(db)
    binding = planner.plan(query)
    item_table = binding.item_table
    train = build_label_table(db, binding, split.train_cutoffs)
    test = build_label_table(db, binding, [split.test_cutoff])
    keep = np.asarray([i for i, items in enumerate(test.item_keys) if len(items) > 0])
    test = test.subset(keep)

    results: Dict[str, Dict[str, float]] = {}
    with row_trace() as trace:
        model = fit_pql_gnn(db, query, split, epochs=10)
        results["pql_two_tower"] = model.evaluate(split.test_cutoff, k=k)
        _link_baselines(db, binding, item_table, train, test, results, k)
    results["_timings"] = row_timings(trace)
    return results


def _link_baselines(db, binding, item_table, train, test, results, k) -> None:
    """Matrix-factorization and popularity rows (inside the row trace)."""
    item_keys = db[item_table][db[item_table].schema.primary_key].values
    num_items = len(item_keys)
    item_to_col = {key: i for i, key in enumerate(item_keys.tolist())}
    entity_keys = db[binding.query.entity_table][binding.entity_schema.primary_key].values
    user_to_row = {key: i for i, key in enumerate(entity_keys.tolist())}

    train_users, train_items = [], []
    for key, items in zip(train.entity_keys.tolist(), train.item_keys):
        for item in np.asarray(items).tolist():
            train_users.append(user_to_row[key])
            train_items.append(item_to_col[item])
    train_users = np.asarray(train_users, dtype=np.int64)
    train_items = np.asarray(train_items, dtype=np.int64)

    relevance = []
    for items in test.item_keys:
        mask = np.zeros(num_items, dtype=bool)
        for key in np.asarray(items).tolist():
            mask[item_to_col[key]] = True
        relevance.append(mask)

    def rank_metrics(scores):
        lists = [scores[i] for i in range(len(scores))]
        return {
            "mrr": mrr(lists, relevance),
            f"hit_rate@{k}": hit_rate_at_k(lists, relevance, k),
            f"ndcg@{k}": ndcg_at_k(lists, relevance, k),
        }

    with obs.span("baselines.matrix_factorization"):
        mf = BPRMatrixFactorization(len(entity_keys), num_items, dim=16, epochs=15, seed=0)
        mf.fit(train_users, train_items)
        results["matrix_factorization"] = rank_metrics(
            mf.score_all(np.asarray([user_to_row[key] for key in test.entity_keys.tolist()]))
        )

    popularity = PopularityRanker(num_items).fit(train_items)
    results["popularity"] = rank_metrics(popularity.score_all(len(test)))
    results["_meta"] = {"num_queries": float(len(test)), "num_items": float(num_items)}


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    """Render one paper-style table to stdout."""
    widths = [max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) for i in range(len(headers))]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    print()


def fmt(value: float, digits: int = 3) -> str:
    """Format one metric value."""
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return "-"
    return f"{value:.{digits}f}"

"""Figure 2 — data efficiency: AUROC vs training-set fraction.

Subsamples the churn training table to {5, 10, 25, 50, 100}% and fits
both the PQL-GNN and the manual-feature GBDT at each size.  Expected
shape: the GNN's relational inductive bias keeps it usable at small
fractions; the curves converge as data grows.
"""

import numpy as np
import pytest

from harness import (
    dataset_and_split,
    fit_pql_gnn,
    fmt,
    manual_features,
    node_task_tables,
    print_table,
)
from repro.baselines import GradientBoostingClassifier
from repro.eval import auroc

FRACTIONS = [0.05, 0.1, 0.25, 0.5, 1.0]


@pytest.fixture(scope="module")
def results():
    db, task, split = dataset_and_split("ecommerce", "churn")
    binding, train, val, test = node_task_tables(db, task.query, split)
    builder, x_train, x_val, x_test = manual_features(db, "customers", train, val, test)
    rng = np.random.default_rng(0)
    order = rng.permutation(len(train))

    gnn_series, gbdt_series, sizes = {}, {}, {}
    for fraction in FRACTIONS:
        n = max(int(len(train) * fraction), 20)
        sizes[fraction] = n
        model = fit_pql_gnn(db, task.query, split, max_train_rows=n)
        gnn_series[fraction] = model.evaluate(split.test_cutoff)["auroc"]

        picks = order[:n]
        gbdt = GradientBoostingClassifier(num_rounds=200, learning_rate=0.1, max_depth=4)
        gbdt.fit(x_train[picks], train.labels[picks], eval_set=(x_val, val.labels))
        gbdt_series[fraction] = auroc(test.labels, gbdt.predict_proba(x_test))
    return gnn_series, gbdt_series, sizes


def test_fig2_data_efficiency(results, benchmark):
    gnn_series, gbdt_series, sizes = results
    rows = [
        ["train rows"] + [str(sizes[f]) for f in FRACTIONS],
        ["pql_gnn"] + [fmt(gnn_series[f]) for f in FRACTIONS],
        ["gbdt"] + [fmt(gbdt_series[f]) for f in FRACTIONS],
    ]
    print_table(
        "Figure 2: AUROC vs training fraction (churn)",
        ["series"] + [f"{int(f * 100)}%" for f in FRACTIONS],
        rows,
    )
    # Both models improve (or at least do not degrade much) with data.
    assert gnn_series[1.0] >= gnn_series[0.05] - 0.05
    assert gbdt_series[1.0] >= gbdt_series[0.05] - 0.05
    # Both are far above chance at full data.
    assert gnn_series[1.0] > 0.7 and gbdt_series[1.0] > 0.7

    db, task, split = dataset_and_split("ecommerce", "churn")
    _, train, _, test = node_task_tables(db, task.query, split)
    from repro.baselines import FeatureBuilder

    builder = FeatureBuilder(db, "customers")
    benchmark(lambda: builder.build(test.entity_keys[:64], test.cutoffs[:64]))

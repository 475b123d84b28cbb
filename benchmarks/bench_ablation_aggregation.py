"""Ablation — neighbor aggregation function and weight sharing.

Two design choices from DESIGN.md §6:

* **sum vs mean vs max aggregation** in the HeteroSAGE layer.  Mean is
  the degree-robust default; sum can encode counts but saturates
  activations on high-degree nodes; max keeps only the strongest
  message.
* **per-relation vs shared message weights.**  Sharing collapses all
  relations onto one transform — fewer parameters, blunter model.

Expected shape: all variants in the same band on churn (the signal is
reachable by every aggregator once degree features are on), with
shared weights slightly behind and strictly fewer parameters.
"""

import numpy as np
import pytest

from harness import dataset_and_split, fit_pql_gnn, fmt, print_table

AGGREGATIONS = ["mean", "sum", "max"]


@pytest.fixture(scope="module")
def results():
    db, task, split = dataset_and_split("ecommerce", "churn")
    aurocs = {}
    params = {}
    for aggregation in AGGREGATIONS:
        model = fit_pql_gnn(db, task.query, split, aggregation=aggregation)
        aurocs[aggregation] = model.evaluate(split.test_cutoff)["auroc"]
        params[aggregation] = model.node_trainer.model.num_parameters()
    shared = fit_pql_gnn(db, task.query, split, shared_weights=True)
    aurocs["mean+shared_weights"] = shared.evaluate(split.test_cutoff)["auroc"]
    params["mean+shared_weights"] = shared.node_trainer.model.num_parameters()
    gat = fit_pql_gnn(db, task.query, split, conv_type="gat")
    aurocs["gat_attention"] = gat.evaluate(split.test_cutoff)["auroc"]
    params["gat_attention"] = gat.node_trainer.model.num_parameters()
    return aurocs, params


def test_ablation_aggregation_and_sharing(results, benchmark):
    aurocs, params = results
    rows = [
        [name, fmt(aurocs[name]), str(params[name])]
        for name in AGGREGATIONS + ["mean+shared_weights", "gat_attention"]
    ]
    print_table(
        "Ablation: aggregation function and weight sharing (churn AUROC)",
        ["variant", "AUROC", "parameters"],
        rows,
    )
    # Every variant learns the task.
    for name in AGGREGATIONS:
        assert aurocs[name] > 0.8
    # Weight sharing reduces parameters and stays in a sane band.
    assert params["mean+shared_weights"] < params["mean"]
    assert aurocs["mean+shared_weights"] > 0.75
    # Attention is an alternative, not a requirement, on these tasks.
    assert aurocs["gat_attention"] > 0.75

    db, task, split = dataset_and_split("ecommerce", "churn")
    benchmark(lambda: fit_pql_gnn(db, task.query, split, epochs=1, aggregation="sum"))

"""Figure 3 — the temporal-leakage ablation.

Three measurements on the churn task:

1. **clean** — the default time-respecting pipeline, evaluated
   honestly (this is the deployable number);
2. **leaky, offline eval** — sampling ignores timestamps during both
   training and evaluation, so the model literally sees the label
   window's orders among its inputs: offline metrics inflate towards
   1.0;
3. **leaky, deployed** — the same leaky-trained model evaluated with
   time-respecting sampling (at deployment the future genuinely does
   not exist): performance collapses below the clean pipeline.

Expected shape: (2) ≫ (1) > (3).  This is the correctness property the
compiler's time-respecting sampler exists to guarantee.
"""

import numpy as np
import pytest

from harness import dataset_and_split, fit_pql_gnn, fmt, print_table
from repro.graph.sampler import NeighborSampler


@pytest.fixture(scope="module")
def results():
    db, task, split = dataset_and_split("ecommerce", "churn")

    clean_model = fit_pql_gnn(db, task.query, split)
    clean = clean_model.evaluate(split.test_cutoff)["auroc"]

    leaky_model = fit_pql_gnn(db, task.query, split, time_respecting=False)
    leaky_offline = leaky_model.evaluate(split.test_cutoff)["auroc"]

    # Deploy the leaky-trained model behind an honest sampler.
    trainer = leaky_model.node_trainer
    trainer.sampler = NeighborSampler(
        leaky_model.graph,
        fanouts=trainer.sampler.fanouts,
        seed=123,
        time_respecting=True,
    )
    leaky_deployed = leaky_model.evaluate(split.test_cutoff)["auroc"]
    return clean, leaky_offline, leaky_deployed


def test_fig3_temporal_leakage(results, benchmark):
    clean, leaky_offline, leaky_deployed = results
    print_table(
        "Figure 3: temporal leakage ablation (churn AUROC)",
        ["pipeline", "AUROC"],
        [
            ["clean (time-respecting)", fmt(clean)],
            ["leaky, offline eval", fmt(leaky_offline)],
            ["leaky, deployed honestly", fmt(leaky_deployed)],
        ],
    )
    # Leaky offline numbers look spectacular...
    assert leaky_offline > clean
    assert leaky_offline > 0.95
    # ...but the leaky model collapses when the future disappears.
    assert leaky_deployed < clean

    db, task, split = dataset_and_split("ecommerce", "churn")
    from repro.graph import build_graph

    graph = build_graph(db)
    sampler = NeighborSampler(graph, fanouts=[8, 8], seed=0)
    seeds = np.arange(64)
    times = np.full(64, split.test_cutoff, dtype=np.int64)
    benchmark(lambda: sampler.sample("customers", seeds, times))

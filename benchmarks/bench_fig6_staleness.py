"""Figure 6 (extension) — model staleness: AUROC vs prediction-time distance.

A deployed predictive-query model is trained once and then queried at
ever-later cutoffs.  This experiment trains the churn model on early
cutoffs and evaluates it at increasing distances past its validation
cutoff, answering the operational question the declarative pipeline
makes easy to ask: *how often must this query be re-fit?*

Expected shape: no cliff.  The seed-relative time encoding makes the
model largely translation-invariant, so any drift with distance should
be gentle — in either direction (on this dataset discrimination can
even *improve* with distance, because more customers become
definitively lapsed and the classes separate further).
"""

import pytest

from harness import DAY, dataset_and_split, fit_pql_gnn, fmt, print_table
from repro.eval.splits import TemporalSplit

#: Days past the validation cutoff at which the model is queried.
DISTANCES_DAYS = [30, 60, 90, 120]


@pytest.fixture(scope="module")
def results():
    db, task, _ = dataset_and_split("ecommerce", "churn")
    span = db.time_span()
    horizon = 30 * DAY
    # Anchor training early so there is room to walk forward.
    last_eval = span[1] - horizon  # latest cutoff whose label window fits
    val_cutoff = last_eval - DISTANCES_DAYS[-1] * DAY
    split = TemporalSplit(
        train_cutoffs=tuple(val_cutoff - horizon * k for k in (3, 2, 1)),
        val_cutoff=val_cutoff,
        test_cutoff=val_cutoff + 1,  # placeholder; evaluation walks forward manually
    )
    model = fit_pql_gnn(db, task.query, split)
    series = {}
    for distance in DISTANCES_DAYS:
        cutoff = val_cutoff + distance * DAY
        series[distance] = model.evaluate(int(cutoff))["auroc"]
    return series


def test_fig6_model_staleness(results, benchmark):
    print_table(
        "Figure 6: churn AUROC vs days since validation cutoff (model staleness)",
        ["days ahead"] + [str(d) for d in DISTANCES_DAYS],
        [["auroc"] + [fmt(results[d]) for d in DISTANCES_DAYS]],
    )
    # The model remains usable at every distance...
    for value in results.values():
        assert value > 0.7
    # ...and decay over 90 extra days is bounded (no cliff).
    assert results[DISTANCES_DAYS[0]] - results[DISTANCES_DAYS[-1]] < 0.15

    db, task, split = dataset_and_split("ecommerce", "churn")
    model = fit_pql_gnn(db, task.query, split, epochs=1)
    benchmark(lambda: model.evaluate(split.test_cutoff))


def test_fig6_streaming_staleness():
    """Streaming arm: ingest keeps a deployed model current.

    The walk-forward arm above quantifies decay when the graph is
    frozen at fit time.  This arm closes the loop the ingest subsystem
    enables: the tail of the dataset is carved into an event stream,
    applied incrementally to the *live* model's graph, and the model
    reconciles with each batch (``refresh_model``) — so it answers
    at cutoffs it could never have evaluated from its fit-time
    snapshot.  Headline numbers (throughput, bit-identity) are gated
    in ``BENCH_ingest.json``; this arm asserts the quality-side claim:
    the incrementally maintained model stays usable at the stream's
    frontier.
    """
    from bench_ingest import carve_stream
    from repro.ingest import DeltaGraphBuilder, refresh_model

    db, task, _ = dataset_and_split("ecommerce", "churn")
    t_cut, base, events = carve_stream(db, 400)
    horizon = 30 * DAY
    val_cutoff = int(t_cut - horizon)  # training ends before the stream
    split = TemporalSplit(
        train_cutoffs=(val_cutoff - 2 * horizon, val_cutoff - horizon),
        val_cutoff=val_cutoff,
        test_cutoff=val_cutoff + 1,  # placeholder; the stream moves the frontier
    )
    model = fit_pql_gnn(base, task.query, split, epochs=2)
    stale_auroc = model.evaluate(val_cutoff)["auroc"]

    builder = DeltaGraphBuilder(
        model.db, graph=model.graph, stats_cutoff=model.stats_cutoff
    )
    for offset in range(0, len(events), 100):
        refresh_model(model, builder.apply(events[offset : offset + 100]))

    live_cutoff = int(builder.watermark - horizon)
    live_auroc = model.evaluate(live_cutoff)["auroc"]
    print_table(
        "Figure 6 (streaming): model quality at the stream frontier",
        ["", "fit-time", "frontier"],
        [["cutoff", str(val_cutoff), str(live_cutoff)],
         ["auroc", fmt(stale_auroc), fmt(live_auroc)]],
    )
    # The frontier cutoff lies beyond the fit-time snapshot entirely —
    # answering there at all is the ingest path's doing, and quality
    # holds up.
    assert live_cutoff > t_cut - horizon
    assert live_auroc > 0.7

"""Regression guards for the hot primitives of a fit.

A default-config training step used to spend most of its time in
``np.add.at`` (scatter aggregation, gather backward) and in
``SampledSubgraph.add_node`` (one python-level dict intern per sampled
node).  Both are gone from the hot path; these tests fail loudly if
either comes back, or if a change to the interner or the segment kernel
makes the default fit draw different nodes.  A routed fit used to spend
most of its time in the GBDT's per-feature, per-bin split loop; the
next two tests fail if a per-feature histogram comes back or if the
default routed fit grows different trees.  Dataset generation used to
spend most of its time in one ``Generator.choice`` call per categorical
draw; the next test fails if a per-row ``choice`` comes back.  An
ingest batch used to merge into the CSR with one binary search per
destination it touched; the next test fails if that loop comes back.
A routed predict used to count each row's activity with one binary
search per row and relation, look its keys up one by one and bin its
rows before walking the trees; the last test fails if a per-row call
or a predict-time binning comes back.
"""

import contextlib
import io
import sys

import numpy as np
import pytest

from repro import obs
from repro.baselines import DecisionTreeRegressor
from repro.baselines.trees import _Binner
from repro.cli import main as cli_main
from repro.datasets import get_dataset
from repro.graph import NeighborSampler, SampledSubgraph, build_graph
from repro.graph.hetero import _EdgeStore
from repro.nn.segment import SegmentPlan
from repro.pql import PlannerConfig, PredictiveQueryPlanner, RouterConfig
from tests.conftest import shop_db, tiny_planner_config


class _NoAt:
    """``np.add`` / ``np.maximum`` with ``.at`` turned into a failure
    (ufunc attributes are read-only, so the module attribute is swapped
    for this stand-in that forwards everything else)."""

    def __init__(self, ufunc: np.ufunc) -> None:
        self._ufunc = ufunc

    def __call__(self, *args, **kwargs):
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)

    def at(self, *args, **kwargs):
        raise AssertionError(f"np.{self._ufunc.__name__}.at called on the hot path")


def test_training_step_and_bulk_predict_never_call_ufunc_at(monkeypatch):
    """Every flag at its default but the epoch count; 300 customers so
    the 256-row batches put each relation above the kernel's base case
    (below it ``ufunc.at`` is the kernel, by design)."""
    spec = get_dataset("ecommerce")
    db = spec.build(scale=1.0, seed=0)
    task = spec.task("churn")
    split = spec.split_for(db, task, 30 * 86400)
    planner = PredictiveQueryPlanner(db, PlannerConfig(epochs=1))
    monkeypatch.setattr(np, "add", _NoAt(np.add))
    monkeypatch.setattr(np, "maximum", _NoAt(np.maximum))
    model = planner.fit(task.query, split)
    assert len(model.node_trainer.history.train_loss) == 1
    keys = db["customers"]["id"].values[:256]
    assert len(keys) == 256 > SegmentPlan.BASE_CASE_ROWS
    scores = model.predict(keys, split.test_cutoff)
    assert scores.shape == (256,) and np.isfinite(scores).all()


def test_sample_never_calls_add_node(monkeypatch):
    """``add_node`` stays as the scalar construction API of the oracles
    and hand-built subgraphs; the sampler's hops are array work."""

    def forbidden(self, *args):
        raise AssertionError("NeighborSampler.sample interned a node through add_node")

    monkeypatch.setattr(SampledSubgraph, "add_node", forbidden)
    sampler = NeighborSampler(build_graph(shop_db()), [3, 3], seed=0)
    sub = sampler.sample("customers", np.array([0, 1, 0]), np.array([400, 10**9, 400]))
    assert sub.total_nodes() > 3


#: ``--profile`` counters of `repro fit --dataset ecommerce --task churn
#: --scale 0.5` (every other flag default), taken on the commit before
#: the array interner and the segment kernel; they repeat exactly.
#: (nodes_sampled, edges_sampled, fanout_truncations)
TRAIN_BATCHES = (61317, 148500, 2940)  # 15 epochs x 2 batches
VALIDATION_PASS = (1404, 3588, 83)  # one batch; that commit drew it after every epoch
TEST_EVALUATION = (1438, 3684, 86)


def test_default_fit_samples_exactly_what_it_always_sampled():
    """The sampler must keep drawing the same nodes.  ``planner.train``
    used to read ``TRAIN_BATCHES + 15 * VALIDATION_PASS`` (82377 nodes);
    the validation batch is now drawn once per fit, every draw in it
    identical to each of the fifteen."""
    with obs.collect() as trace, contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["fit", "--dataset", "ecommerce", "--task", "churn", "--scale", "0.5"]) == 0

    def sampled(span):
        return tuple(
            int(span.counters[f"sampler.{name}"])
            for name in ("nodes_sampled", "edges_sampled", "fanout_truncations")
        )

    assert trace.find("planner.train").counters["train.epochs"] == 15
    assert sampled(trace.find("planner.train")) == tuple(
        np.add(TRAIN_BATCHES, VALIDATION_PASS).tolist())
    # The evaluation's predict is a routed call, answered by red.
    routed = trace.find("planner.evaluate").find("router.predict")
    assert routed.counters["router.route.red"] == 1
    assert sampled(routed) == TEST_EVALUATION


def test_tree_histograms_all_features_in_one_pass(monkeypatch):
    """Three ``np.bincount`` calls (gradient, hessian, count) per
    searched node, whatever the feature count; the per-feature loop
    made ``3 * features`` of them."""
    calls = []
    bincount = np.bincount

    def counting(*args, **kwargs):
        calls.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    rng = np.random.default_rng(0)
    for num_features in (4, 40):
        x = rng.normal(size=(400, num_features))
        y = x[:, 0] * x[:, 1] + x[:, 2]
        calls.clear()
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        assert len(tree.nodes) > 7
        assert 0 < len(calls) <= 3 * len(tree.nodes)


#: The YELLOW tier of a routed fit (default ``RouterConfig``) on the
#: suite's small ecommerce database, read off the commit before the
#: all-feature histogram pass; they repeat exactly.
#: (boosting rounds run, trees kept, nodes in them, validation AUROC in bp)
ROUTED_YELLOW = (70, 60, 806, 9749)


def test_default_routed_fit_grows_exactly_the_trees_it_always_grew(
    small_ecommerce_db, small_ecommerce_split
):
    planner = PredictiveQueryPlanner(small_ecommerce_db, tiny_planner_config())
    with obs.collect() as trace:
        model = planner.fit(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
            small_ecommerce_split, router=RouterConfig(),
        )
    counters = trace.find("router.fit_yellow").counters
    quality_bp = trace.find("router.calibrate").counters["router.quality_bp.yellow"]
    reported = tuple(int(counters[f"yellow.{name}"]) for name in ("rounds", "trees", "nodes"))
    assert reported + (int(quality_bp),) == ROUTED_YELLOW
    # The counters say what the estimator holds and what it was given.
    trees = model.yellow.estimator.trees_
    assert (len(trees), sum(len(tree.nodes) for tree in trees)) == reported[1:]
    assert counters["yellow.train_rows"] == 160
    assert counters["yellow.features"] == model.yellow._builder.num_features + 1  # + green's
    # The unblended GNN's quality is on record next to the tiers', not among them.
    calibrate = trace.find("router.calibrate").counters
    assert calibrate["router.quality_bp.raw_gnn"] == int(model.raw_gnn_quality * 10000)
    assert set(model.quality) == {"green", "yellow", "red"}


class _CountingGenerator:
    """A ``Generator`` stand-in that counts ``choice`` calls and forwards
    everything else to the generator it wraps."""

    def __init__(self, rng: np.random.Generator, calls: list) -> None:
        self._rng = rng
        self._calls = calls

    def choice(self, *args, **kwargs):
        self._calls.append(1)
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("name", ["ecommerce", "forum", "clinical"])
def test_generators_make_no_per_row_choice_call(monkeypatch, name):
    """``Generator.choice(k, p=row)`` rebuilds and re-checks its CDF on
    every call; the generators draw categoricals off CDFs built once, so
    their ``choice`` count does not grow with the data."""
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda *args: _CountingGenerator(default_rng(*args), calls)
    )
    counts = []
    for scale in (1.0, 6.0):
        calls.clear()
        get_dataset(name).build(scale=scale, seed=0)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 1


def test_edge_merge_calls_do_not_grow_with_destinations():
    """Merging 500 edges into one destination and into 500 makes the
    same calls: the delta is placed by one vectorised search.  Every
    segment holds 8 edges and every delta edge lands inside one, so
    both merges search; a per-destination loop adds calls per
    destination."""
    num_dst, degree = 600, 8
    base = _EdgeStore(
        np.zeros(num_dst * degree), np.repeat(np.arange(num_dst), degree),
        np.tile(np.arange(degree) * 10, num_dst), num_dst,
    )

    def calls(dst_ids):
        count = [0]

        def tally(frame, event, arg):
            if event in ("call", "c_call"):
                count[0] += 1

        sys.setprofile(tally)
        try:
            merged = base.merged(np.ones(500), dst_ids, np.full(500, 35), num_dst)
        finally:
            sys.setprofile(None)
        assert merged.num_edges == num_dst * degree + 500
        return count[0]

    assert calls(np.zeros(500, dtype=np.int64)) == calls(np.arange(500)) < 200


def test_routed_predict_calls_do_not_grow_with_rows(
    small_ecommerce_db, small_ecommerce_split, monkeypatch
):
    """A routed ``auto`` predict (YELLOW answers) and a forced ``green``
    one make the same Python-level calls for 256 rows as for 1: GREEN's
    time-valid counts, YELLOW's key lookup, block gather and tree descent
    are a fixed number of numpy passes per batch.  Only ``fit`` bins.
    Floor 1.0 leaves ``auto`` only the best tier, YELLOW here, whatever
    the cost estimates read."""
    model = PredictiveQueryPlanner(small_ecommerce_db, tiny_planner_config()).fit(
        "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
        small_ecommerce_split, router=RouterConfig(),
    )
    cutoff = small_ecommerce_split.test_cutoff
    keys = small_ecommerce_db["customers"]["id"].values

    def forbidden(self, x):
        raise AssertionError("a predict binned its rows")

    monkeypatch.setattr(_Binner, "transform", forbidden)

    def calls(route, rows):
        batch = np.resize(keys, rows)
        model.predict(batch, cutoff, route=route, quality_floor=1.0)  # builds what is built once
        count = [0]

        def tally(frame, event, arg):
            if event in ("call", "c_call"):
                count[0] += 1

        sys.setprofile(tally)
        try:
            model.predict(batch, cutoff, route=route, quality_floor=1.0)
        finally:
            sys.setprofile(None)
        return model.last_route.tier, count[0]

    for route, tier in (("auto", "yellow"), ("green", "green")):
        one, many = calls(route, 1), calls(route, 256)
        assert one == many and one[0] == tier, (one, many)

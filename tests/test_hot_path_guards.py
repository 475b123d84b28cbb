"""Regression guards for the hot primitives of a fit.

A default-config training step used to spend most of its time in
``np.add.at`` (scatter aggregation, gather backward) and in
``SampledSubgraph.add_node`` (one python-level dict intern per sampled
node).  Both are gone from the hot path; these tests fail loudly if
either comes back, or if a change to the interner or the segment kernel
makes the default fit draw different nodes.  A routed fit used to spend
most of its time in the GBDT's per-feature, per-bin split loop; the
last two tests fail if a per-feature histogram comes back or if the
default routed fit grows different trees.
"""

import contextlib
import io

import numpy as np

from repro import obs
from repro.baselines import DecisionTreeRegressor
from repro.cli import main as cli_main
from repro.datasets import get_dataset
from repro.graph import NeighborSampler, SampledSubgraph, build_graph
from repro.nn.segment import SegmentPlan
from repro.pql import PlannerConfig, PredictiveQueryPlanner
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

    def sampled(span_name):
        counters = trace.find(span_name).counters
        return tuple(
            int(counters[f"sampler.{name}"])
            for name in ("nodes_sampled", "edges_sampled", "fanout_truncations")
        )

    assert trace.find("planner.train").counters["train.epochs"] == 15
    assert sampled("planner.train") == tuple(np.add(TRAIN_BATCHES, VALIDATION_PASS).tolist())
    assert sampled("planner.evaluate") == TEST_EVALUATION


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


#: The YELLOW tier of ``fit_routed`` (default ``RouterConfig``) on the
#: suite's small ecommerce database, read off the commit before the
#: all-feature histogram pass; they repeat exactly.
#: (boosting rounds run, trees kept, nodes in them, validation AUROC in bp)
ROUTED_YELLOW = (70, 60, 806, 9749)


def test_default_routed_fit_grows_exactly_the_trees_it_always_grew(
    small_ecommerce_db, small_ecommerce_split
):
    planner = PredictiveQueryPlanner(small_ecommerce_db, tiny_planner_config())
    with obs.collect() as trace:
        model = planner.fit_routed(
            "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS",
            small_ecommerce_split,
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

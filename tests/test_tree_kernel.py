"""The all-feature histogram split search against its loop oracle.

``repro.baselines.trees.DecisionTreeRegressor`` histograms every
feature of a node in one ``np.bincount`` pass and scans every
candidate's gain in one array expression; ``tests/oracles.py`` keeps
the per-feature, per-bin loop it replaced.  Both accumulate a
histogram cell's rows in ascending row order, square by multiplying
and keep the first strictly best gain in feature-major / bin-major /
missing-left-first order, so trees must be *equal* node for node —
split fields compared with ``==``, leaf values by their bytes — not
close — even where two candidates' gains are equal on paper and differ
in the last bit (``mirror`` columns).  The loop as it shipped squared
with scalar ``**`` (libm ``pow``, one ulp off the product on about one
input in a thousand): the seeded cases also run against that
arithmetic, the random ones cannot (see ``LoopTreeGrower``).

Prediction descends on raw values, each node comparing against its
split value ``edges[threshold_bin - 1]``; ``binned_raw_predict`` (the
oracles) bins the rows first and compares bins, as prediction did
before.  Every booster below must score the same bytes both ways on
rows that put NaN, ``±inf``, every bin edge and its neighbouring
floats in every column.
"""

import pickle

import numpy as np
import pytest

from repro.baselines.trees import (
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    _Binner,
    _SplitPlan,
)
from tests.oracles import LoopTreeGrower, PowLoopTreeGrower, binned_raw_predict

from hypothesis import given, settings, strategies as st

COLUMN_KINDS = (
    "normal", "nan_heavy", "all_nan", "constant", "duplicate", "mirror", "few_ints", "binary",
)


def make_features(rng: np.random.Generator, n: int, kinds) -> np.ndarray:
    """One column per kind; ``duplicate`` copies column 0 exactly and
    ``mirror`` negates it (the same partitions, left and right swapped)."""
    columns = []
    for kind in kinds:
        column = rng.normal(size=n)
        if kind == "nan_heavy":
            column[rng.random(n) < 0.6] = np.nan
        elif kind == "all_nan":
            column[:] = np.nan
        elif kind == "constant":
            column[:] = 3.0
        elif kind == "duplicate" and columns:
            column = columns[0].copy()
        elif kind == "mirror" and columns:
            column = -columns[0]
        elif kind == "few_ints":
            column = rng.integers(0, 4, n).astype(np.float64)
        elif kind == "binary":
            column = (column > 0.3).astype(np.float64)
        columns.append(column)
    return np.stack(columns, axis=1)


def assert_same_tree(product: DecisionTreeRegressor, oracle: DecisionTreeRegressor) -> None:
    assert len(product.nodes) == len(oracle.nodes)
    for index, (ours, theirs) in enumerate(zip(product.nodes, oracle.nodes)):
        for field in ("feature", "threshold_bin", "missing_left", "left", "right", "is_leaf"):
            mine, reference = getattr(ours, field), getattr(theirs, field)
            assert type(mine) is type(reference), (index, field, type(mine))
            assert mine == reference, (index, field, mine, reference)
        assert np.float64(ours.value).tobytes() == np.float64(theirs.value).tobytes(), index


def grow_both(x, gradients, hessians, max_bins=32, **params):
    binner = _Binner(max_bins).fit(x)
    binned = binner.transform(x)
    product = DecisionTreeRegressor(**params).fit_binned(
        _SplitPlan(binned, binner), gradients, hessians
    )
    oracle = LoopTreeGrower(**params).fit_binned(binned, binner, gradients, hessians)
    assert_same_tree(product, oracle)
    return product


def assert_booster_replays_under_the_loop(model, x, y, grower=LoopTreeGrower) -> None:
    """Every tree ``model.fit`` kept (one shared plan, early stopping
    and all) equals the loop-grown tree on that round's gradients."""
    binned = model._binner.transform(x)
    rng = np.random.default_rng(model.seed)
    raw = np.full(len(y), model.base_score_)
    for tree in model.trees_:
        gradients, hessians = model._grad_hess(y, raw)
        if model.subsample < 1.0:
            keep = rng.random(len(y)) < model.subsample
            gradients = np.where(keep, gradients, 0.0)
            hessians = np.where(keep, hessians, 0.0)
        oracle = grower(
            max_depth=model.max_depth,
            min_samples_leaf=model.min_samples_leaf,
            reg_lambda=model.reg_lambda,
        ).fit_binned(binned, model._binner, gradients, hessians)
        assert_same_tree(tree, oracle)
        raw = raw + model.learning_rate * tree.predict_binned(binned)


def probe_rows(rng: np.random.Generator, binner: _Binner, x: np.ndarray, n: int = 200):
    """Rows whose every column draws from the fit's values, the column's
    bin edges, the floats either side of each edge, NaN and ``±inf``."""
    columns = []
    for j, edges in enumerate(binner.edges_):
        pool = np.concatenate([
            x[:, j], edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [np.nan, np.inf, -np.inf],
        ])
        columns.append(rng.choice(pool, n))
    return np.stack(columns, axis=1)


def assert_raw_walk_is_the_binned_walk(model, x, seed) -> None:
    probe = probe_rows(np.random.default_rng(seed), model._binner, x)
    for rows in (probe, probe[:1], probe[:0]):
        assert model._raw_predict(rows).tobytes() == binned_raw_predict(model, rows).tobytes()


def check_boosting_case(
    seed, n, kinds, loss, leaf, max_bins, subsample, max_depth=3, grower=LoopTreeGrower
) -> int:
    """Fit a small booster on a seeded dataset and replay it under the
    loop; returns how many nodes were compared."""
    rng = np.random.default_rng(seed)
    x = make_features(rng, n + 20, kinds)
    y = np.nan_to_num(x[:, 0]) + 0.5 * rng.normal(size=n + 20)
    booster = GradientBoostingRegressor
    if loss == "logistic":
        y, booster = (y > 0).astype(np.float64), GradientBoostingClassifier
    (x, val_x), (y, val_y) = np.split(x, [n]), np.split(y, [n])
    model = booster(
        num_rounds=4,
        learning_rate=0.3,
        max_depth=max_depth,
        min_samples_leaf={"one": 1, "half": max(n // 2, 1), "ten": 10}[leaf],
        subsample=subsample,
        max_bins=max_bins,
        seed=seed,
    )
    model.fit(x, y, eval_set=(val_x, val_y))
    assert_booster_replays_under_the_loop(model, x, y, grower)
    assert_raw_walk_is_the_binned_walk(model, x, seed)
    return sum(len(tree.nodes) for tree in model.trees_)


SEEDED_CASES = [
    # (n, kinds, loss, min_samples_leaf, max_bins, subsample)
    (300, COLUMN_KINDS, "squared", "ten", 32, 1.0),
    (300, COLUMN_KINDS, "logistic", "ten", 32, 0.7),
    (120, COLUMN_KINDS, "logistic", "one", 32, 1.0),
    (120, COLUMN_KINDS, "squared", "one", 2, 0.7),
    (120, COLUMN_KINDS, "squared", "half", 32, 1.0),
    (90, ("few_ints", "binary", "few_ints", "constant"), "logistic", "one", 32, 0.7),
    (90, ("all_nan", "nan_heavy", "constant"), "squared", "one", 32, 1.0),
    (60, ("all_nan", "constant"), "logistic", "one", 32, 1.0),
    (3, ("normal", "few_ints"), "squared", "one", 32, 1.0),
    (2, ("normal", "binary"), "squared", "one", 2, 1.0),
    (1, ("normal",), "squared", "one", 32, 1.0),
]


@pytest.mark.parametrize("grower", [LoopTreeGrower, PowLoopTreeGrower])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", SEEDED_CASES, ids=lambda case: f"n{case[0]}-{case[2]}-{case[3]}")
def test_seeded_boosters_equal_the_loop_node_for_node(case, seed, grower):
    n, kinds, loss, leaf, max_bins, subsample = case
    if grower is PowLoopTreeGrower:  # on-paper ties are the product arithmetic's to settle
        kinds = [kind for kind in kinds if kind != "mirror"]
    nodes = check_boosting_case(
        seed, n, kinds, loss, leaf, max_bins, subsample, max_depth=4, grower=grower
    )
    if n >= 90 and leaf == "one" and max_bins == 32 and "normal" in kinds:
        assert nodes > 20  # the comparison is not between stumps


def test_duplicated_column_ties_go_to_the_lower_feature_index():
    rng = np.random.default_rng(3)
    column = rng.normal(size=200)
    x = np.stack([rng.normal(size=200), column, column], axis=1)
    y = np.where(column > 0.2, 4.0, -1.0)
    tree = grow_both(x, -y, np.ones(200), min_samples_leaf=5)
    assert tree.nodes[0].feature == 1
    assert all(node.feature != 2 for node in tree.nodes)


def test_no_missing_rows_ties_go_to_missing_left():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(150, 3))
    tree = grow_both(x, -x[:, 1], np.ones(150), min_samples_leaf=3)
    assert len(tree.nodes) > 3
    assert all(node.missing_left for node in tree.nodes)


def test_zeroed_rows_still_count_toward_min_samples_leaf():
    """Subsampling zeroes a row's gradient and hessian; the row still
    counts as a sample, so a leaf can be all-zero rows."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(100, 2))
    keep = x[:, 0] > 0
    gradients = np.where(keep, rng.normal(size=100), 0.0)
    tree = grow_both(x, gradients, keep.astype(np.float64), min_samples_leaf=30, max_depth=2)
    assert not tree.nodes[0].is_leaf


def test_narrow_and_unsplittable_features_are_masked_not_scanned():
    """Features narrower than the widest one are padded in the plan.
    Padding and an all-NaN column (two bins) offer no candidate; a
    constant column offers one that leaves a side empty."""
    rng = np.random.default_rng(7)
    x = make_features(rng, 80, ("all_nan", "constant", "binary", "normal"))
    binner = _Binner(32).fit(x)
    plan = _SplitPlan(binner.transform(x), binner)
    assert plan.valid.sum(axis=1).tolist() == [0, 1, 2, 31]
    y = 2.0 * x[:, 2] + 0.01 * x[:, 3]
    tree = grow_both(x, -y, np.ones(80), min_samples_leaf=1)
    assert tree.nodes[0].feature == 2 and tree.nodes[0].threshold_bin == 2
    only_unsplittable = grow_both(x[:, :2], -y, np.ones(80), min_samples_leaf=1)
    assert len(only_unsplittable.nodes) == 1


def test_fitted_estimators_carry_no_plan():
    """Plan scratch lives for the duration of ``fit`` only, so the
    pickled form of a tree or booster is what it always was."""
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(60, 3)), rng.normal(size=60)
    tree = DecisionTreeRegressor(min_samples_leaf=2).fit(x, y)
    assert set(vars(tree)) == {
        "max_depth", "min_samples_leaf", "reg_lambda", "min_gain", "nodes", "_binner", "_flat",
    }
    model = GradientBoostingRegressor(num_rounds=3).fit(x, y)
    assert set(vars(model)) == {
        "num_rounds", "learning_rate", "max_depth", "min_samples_leaf", "reg_lambda",
        "subsample", "max_bins", "early_stopping_rounds", "seed", "trees_", "base_score_",
        "_binner", "best_iteration_", "_arena",
    }
    assert set(vars(model.trees_[0])) <= set(vars(tree))
    assert set(vars(model._binner)) == {"max_bins", "edges_", "_matrix"}


def test_a_tree_predicts_its_binned_leaves_from_raw_values():
    rng = np.random.default_rng(9)
    x = make_features(rng, 300, COLUMN_KINDS)
    tree = DecisionTreeRegressor(min_samples_leaf=3).fit(x, np.nan_to_num(x[:, 0]) + x[:, 6])
    assert len(tree.nodes) > 7
    probe = probe_rows(rng, tree._binner, x)
    expected = tree.predict_binned(tree._binner.transform(probe))
    assert tree.predict(probe).tobytes() == expected.tobytes()


def test_prediction_never_bins_and_never_pickles_its_split_values(monkeypatch):
    """Only ``fit`` bins.  The split values a predict builds stay out of
    the pickle, so a saved booster holds what it held before they
    existed, and a reloaded one rebuilds them to the same scores."""
    rng = np.random.default_rng(10)
    x = make_features(rng, 200, COLUMN_KINDS)
    model = GradientBoostingClassifier(num_rounds=5).fit(x, (x[:, 0] > 0).astype(np.float64))
    probe = probe_rows(rng, model._binner, x)

    def forbidden(self, x):
        raise AssertionError("prediction binned its rows")

    monkeypatch.setattr(_Binner, "transform", forbidden)
    scores = model.predict_proba(probe)
    reloaded = pickle.loads(pickle.dumps(model))
    assert set(vars(model)) - set(vars(reloaded)) == {"_walk"}
    assert reloaded.predict_proba(probe).tobytes() == scores.tobytes()


def test_random_boosters_equal_the_loop_node_for_node():
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.sampled_from([1, 2, 5, 37, 120]),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6),
        loss=st.sampled_from(["squared", "logistic"]),
        leaf=st.sampled_from(["one", "half", "ten"]),
        max_bins=st.sampled_from([2, 5, 32]),
        subsample=st.sampled_from([1.0, 0.7]),
    )
    def run(seed, n, kinds, loss, leaf, max_bins, subsample):
        check_boosting_case(seed, n, kinds, loss, leaf, max_bins, subsample)

    run()

"""Tests for GBDT, linear models, heuristics, MF, and the feature builder."""

import numpy as np
import pytest

from repro.baselines import (
    BPRMatrixFactorization,
    DecisionTreeRegressor,
    FeatureBuilder,
    GlobalMeanBaseline,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    LinearRegression,
    LogisticRegression,
    MajorityClassBaseline,
    PopularityRanker,
)
from repro.eval import auroc
from repro.relational import (
    ColumnSpec,
    Database,
    DType,
    ForeignKey,
    Table,
    TableSchema,
)

from tests.oracles import loop_child_groups, loop_grandchild_groups

RNG = np.random.default_rng(0)
DAY = 86400


class TestDecisionTree:
    def test_fits_step_function(self):
        x = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (x[:, 0] > 0.5).astype(float) * 10.0
        tree = DecisionTreeRegressor(max_depth=2, min_samples_leaf=5).fit(x, y)
        preds = tree.predict(x)
        assert np.abs(preds - y).max() < 0.5

    def test_respects_max_depth(self):
        x = RNG.normal(size=(300, 3))
        y = RNG.normal(size=300)
        tree = DecisionTreeRegressor(max_depth=2, min_samples_leaf=1).fit(x, y)
        assert tree.num_leaves <= 4

    def test_min_samples_leaf(self):
        x = RNG.normal(size=(20, 1))
        y = RNG.normal(size=20)
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=10).fit(x, y)
        assert tree.num_leaves <= 2

    def test_handles_nan_features(self):
        x = np.array([[np.nan], [np.nan], [1.0], [2.0], [3.0], [4.0]] * 5)
        y = np.array([10.0, 10.0, 0.0, 0.0, 0.0, 0.0] * 5)
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=2).fit(x, y)
        preds = tree.predict(np.array([[np.nan], [2.0]]))
        assert preds[0] > preds[1]

    def test_constant_target_single_leaf(self):
        x = RNG.normal(size=(50, 2))
        y = np.full(50, 3.0)
        tree = DecisionTreeRegressor().fit(x, y)
        np.testing.assert_allclose(tree.predict(x), 3.0, atol=0.2)


class TestGradientBoosting:
    def test_regressor_learns_nonlinear_function(self):
        x = RNG.uniform(-2, 2, size=(500, 2))
        y = np.sin(x[:, 0] * 2) + x[:, 1] ** 2
        model = GradientBoostingRegressor(num_rounds=80, learning_rate=0.2, max_depth=3)
        model.fit(x, y)
        preds = model.predict(x)
        mse = ((preds - y) ** 2).mean()
        assert mse < 0.1 * y.var()

    def test_classifier_learns_xor(self):
        x = RNG.uniform(-1, 1, size=(600, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(float)
        model = GradientBoostingClassifier(num_rounds=60, learning_rate=0.3, max_depth=3)
        model.fit(x, y)
        assert ((model.predict_proba(x) > 0.5) == y).mean() > 0.95

    def test_early_stopping_limits_trees(self):
        x = RNG.normal(size=(300, 2))
        y = x[:, 0] + RNG.normal(0, 0.01, 300)
        val_x = RNG.normal(size=(100, 2))
        val_y = val_x[:, 0]
        model = GradientBoostingRegressor(
            num_rounds=300, learning_rate=0.3, early_stopping_rounds=5
        )
        model.fit(x, y, eval_set=(val_x, val_y))
        assert len(model.trees_) < 300
        assert model.best_iteration_ is not None

    def test_refit_without_eval_set_forgets_the_last_early_stop(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 2))
        y = x[:, 0]
        noise = (rng.normal(size=(50, 2)), rng.normal(size=50) * 100.0)
        model = GradientBoostingRegressor(num_rounds=60, early_stopping_rounds=3)
        model.fit(x, y, eval_set=noise)
        assert model.best_iteration_ is not None and len(model.trees_) < 60
        model.fit(x, y)
        assert model.best_iteration_ is None
        assert len(model.trees_) == 60

    def test_subsample(self):
        x = RNG.normal(size=(200, 2))
        y = x[:, 0]
        model = GradientBoostingRegressor(num_rounds=30, subsample=0.5, seed=1)
        model.fit(x, y)
        assert ((model.predict(x) - y) ** 2).mean() < y.var()

    def test_classifier_base_score_matches_rate(self):
        x = RNG.normal(size=(100, 1))
        y = (RNG.random(100) < 0.2).astype(float)
        model = GradientBoostingClassifier(num_rounds=1, learning_rate=0.0)
        model.fit(x, y)
        np.testing.assert_allclose(model.predict_proba(x), y.mean(), atol=1e-9)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.zeros((1, 1)))

    def test_nan_features_ok(self):
        x = RNG.normal(size=(200, 2))
        x[::3, 0] = np.nan
        y = np.where(np.isnan(x[:, 0]), 5.0, x[:, 0])
        model = GradientBoostingRegressor(num_rounds=40, learning_rate=0.3)
        model.fit(x, y)
        assert ((model.predict(x) - y) ** 2).mean() < 0.2


class TestLinearModels:
    def test_linear_recovers_coefficients(self):
        x = RNG.normal(size=(500, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 3.0
        model = LinearRegression(alpha=1e-6).fit(x, y)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-6)

    def test_linear_handles_nan(self):
        x = RNG.normal(size=(100, 2))
        x[::5, 0] = np.nan
        y = RNG.normal(size=100)
        preds = LinearRegression().fit(x, y).predict(x)
        assert np.isfinite(preds).all()

    def test_logistic_separable(self):
        x = RNG.normal(size=(400, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(float)
        model = LogisticRegression(alpha=0.1).fit(x, y)
        assert (model.predict(x) == y).mean() > 0.95

    def test_logistic_probabilities_bounded(self):
        x = RNG.normal(size=(50, 2)) * 100
        y = (x[:, 0] > 0).astype(float)
        probs = LogisticRegression().fit(x, y).predict_proba(x)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(np.zeros((1, 1)))
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_proba(np.zeros((1, 1)))

    def test_constant_feature_no_crash(self):
        x = np.ones((50, 2))
        y = RNG.normal(size=50)
        LinearRegression().fit(x, y).predict(x)


class TestHeuristics:
    def test_majority(self):
        baseline = MajorityClassBaseline().fit(np.array([1, 0, 0, 0]))
        np.testing.assert_allclose(baseline.predict_proba(3), 0.25)

    def test_global_mean(self):
        baseline = GlobalMeanBaseline().fit(np.array([2.0, 4.0]))
        np.testing.assert_allclose(baseline.predict(2), 3.0)

    def test_popularity(self):
        ranker = PopularityRanker(num_items=4).fit(np.array([1, 1, 2]))
        scores = ranker.score_all(2)
        assert scores.shape == (2, 4)
        assert scores[0].argmax() == 1

    def test_unfitted_raise(self):
        with pytest.raises(RuntimeError):
            MajorityClassBaseline().predict_proba(1)
        with pytest.raises(RuntimeError):
            GlobalMeanBaseline().predict(1)
        with pytest.raises(RuntimeError):
            PopularityRanker(2).score_all(1)


class TestMatrixFactorization:
    def test_learns_block_structure(self):
        # Users 0-9 like items 0-4; users 10-19 like items 5-9.
        users, items = [], []
        rng = np.random.default_rng(1)
        for u in range(20):
            pool = range(5) if u < 10 else range(5, 10)
            for _ in range(12):
                users.append(u)
                items.append(int(rng.choice(list(pool))))
        model = BPRMatrixFactorization(20, 10, dim=8, epochs=30, seed=0)
        model.fit(np.array(users), np.array(items))
        scores = model.score_all(np.array([0, 15]))
        assert scores[0, :5].mean() > scores[0, 5:].mean()
        assert scores[1, 5:].mean() > scores[1, :5].mean()

    def test_shape_mismatch(self):
        model = BPRMatrixFactorization(2, 2)
        with pytest.raises(ValueError):
            model.fit(np.array([0]), np.array([0, 1]))


def feature_db(post_users=(1, 1, 2), vote_posts=(10, 10, 12)):
    """users ← posts ← votes chain for 1-hop and 2-hop features; the
    foreign-key columns may hold ``None``."""
    db = Database("f")
    db.add_table(
        Table.from_dict(
            TableSchema(
                "users",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("age", DType.FLOAT64),
                    ColumnSpec("plan", DType.STRING),
                    ColumnSpec("signup_ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                time_column="signup_ts",
            ),
            {
                "id": [1, 2],
                "age": [30.0, None],
                "plan": ["free", "pro"],
                "signup_ts": [0, 0],
            },
        )
    )
    db.add_table(
        Table.from_dict(
            TableSchema(
                "posts",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("user_id", DType.INT64),
                    ColumnSpec("score", DType.FLOAT64),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[ForeignKey("user_id", "users", "id")],
                time_column="ts",
            ),
            {
                "id": [10, 11, 12],
                "user_id": list(post_users),
                "score": [1.0, 3.0, 7.0],
                "ts": [5 * DAY, 20 * DAY, 25 * DAY],
            },
        )
    )
    db.add_table(
        Table.from_dict(
            TableSchema(
                "votes",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("post_id", DType.INT64),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[ForeignKey("post_id", "posts", "id")],
                time_column="ts",
            ),
            {"id": [100, 101, 102], "post_id": list(vote_posts), "ts": [6 * DAY, 7 * DAY, 26 * DAY]},
        )
    )
    db.validate()
    return db


class TestFeatureBuilder:
    @pytest.mark.parametrize("db", ["null_keys", "forum"])
    def test_row_groups_equal_the_per_row_lookup(self, db, forum_db):
        """Each link carries its rows' entity slots, looked up once at
        construction; the per-row dict loops the builder ran at every
        cutoff (``tests/oracles.py``) are the reference."""
        if db == "null_keys":
            builder = FeatureBuilder(feature_db((1, None, 2), (10, None, 11)), "users")
        else:
            builder = FeatureBuilder(forum_db, "users")
        assert builder._children and builder._grandchildren
        for child in builder._children:
            assert child.groups.tolist() == loop_child_groups(builder, child).tolist()
        for grandchild in builder._grandchildren:
            expected = loop_grandchild_groups(builder, grandchild)
            assert grandchild.groups.tolist() == expected.tolist()
        if db == "null_keys":
            assert builder._children[0].groups.tolist() == [0, -1, 1]
            assert builder._grandchildren[0].groups.tolist() == [0, -1, -1]

    def test_feature_names_and_width(self):
        builder = FeatureBuilder(feature_db(), "users", windows_days=(7, 30))
        x = builder.build(np.array([1, 2]), np.array([30 * DAY, 30 * DAY]))
        assert x.shape == (2, builder.num_features)
        assert len(builder.feature_names) == builder.num_features
        assert "own.age" in builder.feature_names
        assert "posts.count.7d" in builder.feature_names
        assert "posts->votes.count.all" in builder.feature_names

    def test_counts_respect_cutoff(self):
        builder = FeatureBuilder(feature_db(), "users", windows_days=(7, 30))
        x = builder.build(np.array([1, 1]), np.array([10 * DAY, 30 * DAY]))
        col = builder.feature_names.index("posts.count.all")
        assert x[0, col] == 1.0  # only the 5d post at cutoff 10d
        assert x[1, col] == 2.0

    def test_window_vs_all(self):
        builder = FeatureBuilder(feature_db(), "users", windows_days=(7, 30))
        x = builder.build(np.array([1]), np.array([30 * DAY]))
        week = builder.feature_names.index("posts.count.7d")
        full = builder.feature_names.index("posts.count.all")
        assert x[0, week] == 0.0  # no post within last 7 days of day 30... post at 20d? 30-7=23 < 25? user 1 posts at 5d,20d
        assert x[0, full] == 2.0

    def test_two_hop_counts(self):
        builder = FeatureBuilder(feature_db(), "users", windows_days=(7, 30))
        x = builder.build(np.array([1, 2]), np.array([30 * DAY, 30 * DAY]))
        col = builder.feature_names.index("posts->votes.count.all")
        assert x[0, col] == 2.0  # votes on user 1's post 10
        assert x[1, col] == 1.0  # vote on user 2's post 12

    def test_disable_two_hop(self):
        builder = FeatureBuilder(feature_db(), "users", include_two_hop=False)
        assert not any("->" in name for name in builder.feature_names)

    def test_days_since_last(self):
        builder = FeatureBuilder(feature_db(), "users", windows_days=(7,))
        x = builder.build(np.array([1]), np.array([30 * DAY]))
        col = builder.feature_names.index("posts.days_since_last")
        assert x[0, col] == pytest.approx(10.0)

    def test_no_history_is_nan_recency_zero_count(self):
        builder = FeatureBuilder(feature_db(), "users", windows_days=(7,))
        x = builder.build(np.array([2]), np.array([1 * DAY]))
        count_col = builder.feature_names.index("posts.count.all")
        last_col = builder.feature_names.index("posts.days_since_last")
        assert x[0, count_col] == 0.0
        assert np.isnan(x[0, last_col])

    def test_one_hot(self):
        builder = FeatureBuilder(feature_db(), "users")
        x = builder.build(np.array([1, 2]), np.array([DAY, DAY]))
        free_col = builder.feature_names.index("own.plan=free")
        assert x[0, free_col] == 1.0
        assert x[1, free_col] == 0.0

    def test_numeric_aggregates(self):
        builder = FeatureBuilder(feature_db(), "users", windows_days=(30,))
        x = builder.build(np.array([1]), np.array([30 * DAY]))
        avg_col = builder.feature_names.index("posts.score.avg.all")
        assert x[0, avg_col] == pytest.approx(2.0)
        max_col = builder.feature_names.index("posts.score.max.all")
        assert x[0, max_col] == 3.0

    def test_shape_mismatch_raises(self):
        builder = FeatureBuilder(feature_db(), "users")
        with pytest.raises(ValueError):
            builder.build(np.array([1]), np.array([1, 2]))

    def test_entity_without_pk_rejected(self):
        db = Database("x")
        db.add_table(Table.from_dict(TableSchema("t", [ColumnSpec("a", DType.INT64)]), {"a": [1]}))
        with pytest.raises(ValueError):
            FeatureBuilder(db, "t")

    def test_gbdt_on_features_beats_chance(self):
        """Integration: engineered features + GBDT solve a recency task."""
        from repro.datasets import make_ecommerce
        from repro.pql import parse, validate, build_label_table

        db = make_ecommerce(num_customers=150, seed=3)
        binding = validate(
            parse("PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"), db
        )
        span = db.time_span()
        train_cut = span[1] - 90 * DAY
        test_cut = span[1] - 40 * DAY
        train = build_label_table(db, binding, [train_cut])
        test = build_label_table(db, binding, [test_cut])
        builder = FeatureBuilder(db, "customers")
        x_train = builder.build(train.entity_keys, train.cutoffs)
        x_test = builder.build(test.entity_keys, test.cutoffs)
        model = GradientBoostingClassifier(num_rounds=40, learning_rate=0.2, max_depth=3)
        model.fit(x_train, train.labels)
        score = auroc(test.labels, model.predict_proba(x_test))
        assert score > 0.75

"""The dataset generators against the per-draw loops they replaced.

``repro.datasets`` builds every categorical draw's CDF once
(``choice_cdfs``) and computes the derived columns from the raw draws as
arrays; ``tests/oracles.py`` keeps the loops that called
``Generator.choice`` and did scalar numpy arithmetic row by row.  Both
consume one random stream draw for draw, so every column of every table
must be equal — dtype, values bytes and null mask — not close.

Tier-1 draws a bounded sample of the (dataset, scale, seed) grid; CI's
perf-smoke step runs this file under the long budget of
``--hypothesis-profile=generators-long`` (registered in ``conftest.py``).
"""

from bisect import bisect_right

import numpy as np
import pytest

from repro.datasets import get_dataset, make_clinical, make_ecommerce, make_forum
from repro.datasets.base import choice_cdfs
from repro.relational import Database, Table
from tests.conftest import LONG_GENERATOR_PROFILE, database_digests
from tests.oracles import loop_clinical_rows, loop_ecommerce_rows, loop_forum_rows

from hypothesis import given, settings, strategies as st

#: The oracle of each registered dataset, called with the sizes the
#: registry derived from ``scale`` (read back off the built database).
ORACLES = {
    "ecommerce": lambda db, seed: loop_ecommerce_rows(
        num_customers=db["customers"].num_rows, num_products=db["products"].num_rows, seed=seed
    ),
    "forum": lambda db, seed: loop_forum_rows(num_users=db["users"].num_rows, seed=seed),
    "clinical": lambda db, seed: loop_clinical_rows(num_patients=db["patients"].num_rows, seed=seed),
}

#: Examples per tier-1 run.
TIER1_EXAMPLES = 8


def assert_equals_oracle(db: Database, rows: dict) -> None:
    """Every table of ``db`` equals the oracle's rows built under the same schema."""
    oracle = Database(db.name)
    for table in db:
        oracle.add_table(Table.from_dict(table.schema, rows[table.name]))
    assert database_digests(db) == database_digests(oracle)


def check_grid_point(name: str, scale: float, seed: int) -> None:
    db = get_dataset(name).build(scale=scale, seed=seed)
    assert_equals_oracle(db, ORACLES[name](db, seed))


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_registry_default_scale_equals_the_oracle(name):
    check_grid_point(name, 1.0, 0)


@pytest.mark.parametrize(
    "build, oracle, kwargs",
    [
        # More categories than products: empty pools, drawn from and skipped.
        (make_ecommerce, loop_ecommerce_rows, dict(num_customers=40, num_products=4, seed=1)),
        (make_ecommerce, loop_ecommerce_rows, dict(num_customers=1, num_products=1, num_categories=1)),
        (make_ecommerce, loop_ecommerce_rows, dict(num_customers=25, span_days=20, seed=9)),
        # Under a week: no week is simulated, every activity table is empty.
        (make_forum, loop_forum_rows, dict(num_users=5, span_days=6, seed=2)),
        (make_forum, loop_forum_rows, dict(num_users=30, span_days=45, seed=4)),
        (make_clinical, loop_clinical_rows, dict(num_patients=3, span_days=10, seed=5)),
        (make_clinical, loop_clinical_rows, dict(num_patients=40, span_days=900, seed=6)),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_edge_parameters_equal_the_oracle(build, oracle, kwargs):
    assert_equals_oracle(build(**kwargs), oracle(**kwargs))


def test_random_grid_points_equal_the_oracle():
    long_run = settings.get_current_profile_name() == LONG_GENERATOR_PROFILE

    @settings(
        max_examples=settings.default.max_examples if long_run else TIER1_EXAMPLES,
        deadline=None,
    )
    @given(
        name=st.sampled_from(sorted(ORACLES)),
        scale=st.floats(0.02, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def run(name, scale, seed):
        check_grid_point(name, scale, seed)

    run()


def test_cdf_draws_are_the_draws_choice_makes():
    """``bisect_right(cdf, rng.random())`` picks what ``rng.choice(k, p=row)``
    picks, leaving the generator in the same state, for dense and ragged rows."""
    rng = np.random.default_rng(11)
    matrix = rng.dirichlet(np.full(6, 0.3), size=50)
    ragged = [row / row.sum() for row in (rng.random(k) for k in (1, 2, 7, 30))]
    for rows, cdfs in ((matrix, choice_cdfs(matrix)), (ragged, choice_cdfs(ragged))):
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(20):
            for row, cdf in zip(rows, cdfs):
                assert bisect_right(cdf, ours.random()) == theirs.choice(len(row), p=row)
        assert ours.bit_generator.state == theirs.bit_generator.state
    assert choice_cdfs([np.empty(0), np.ones(1)]) == [[], [1.0]]


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[0.5, np.nan, 0.5]]),
        np.array([[0.5, -0.1, 0.6]]),
        np.array([[0.5, 0.5, 0.0], [0.3, 0.3, 0.3]]),
        [np.array([0.2, np.inf])],
    ],
    ids=["nan", "negative", "sum", "ragged-inf"],
)
def test_cdfs_refuse_what_choice_refuses(rows):
    with pytest.raises(ValueError, match="probabilities"):
        choice_cdfs(rows)

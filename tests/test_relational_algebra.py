"""Unit + property tests for relational algebra operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import Column, ColumnSpec, DType, Table, TableSchema, algebra


def table_from(name, **cols):
    """Build a simple table; dtype inferred per column from first value."""
    specs = []
    data = {}
    for col_name, values in cols.items():
        sample = next((v for v in values if v is not None), 0)
        if isinstance(sample, bool):
            dtype = DType.BOOL
        elif isinstance(sample, int):
            dtype = DType.INT64
        elif isinstance(sample, float):
            dtype = DType.FLOAT64
        else:
            dtype = DType.STRING
        specs.append(ColumnSpec(col_name, dtype))
        data[col_name] = values
    return Table.from_dict(TableSchema(name, specs), data)


class TestSelect:
    def test_select_basic(self):
        t = table_from("t", a=[1, 2, 3])
        out = algebra.select(t, lambda tab: tab["a"].greater_than(1))
        assert out["a"].to_list() == [2, 3]

    def test_select_bad_mask_shape(self):
        t = table_from("t", a=[1, 2])
        with pytest.raises(ValueError):
            algebra.select(t, lambda tab: np.array([True]))


class TestJoins:
    def test_inner_join_basic(self):
        left = table_from("l", k=[1, 2, 3], x=[10, 20, 30])
        right = table_from("r", k=[2, 3, 4], y=[200, 300, 400])
        joined = algebra.inner_join(left, right, "k", "k")
        assert joined.num_rows == 2
        assert joined["x"].to_list() == [20, 30]
        assert joined["y"].to_list() == [200, 300]
        assert "k_right" in joined.column_names

    def test_inner_join_duplicates_multiply(self):
        left = table_from("l", k=[1, 1], x=[10, 11])
        right = table_from("r", k=[1, 1], y=[100, 101])
        joined = algebra.inner_join(left, right, "k", "k")
        assert joined.num_rows == 4

    def test_inner_join_null_keys_never_match(self):
        left = table_from("l", k=[None, 1], x=[0, 1])
        right = table_from("r", k=[None, 1], y=[0, 1])
        joined = algebra.inner_join(left, right, "k", "k")
        assert joined.num_rows == 1
        assert joined["x"].to_list() == [1]

    def test_join_string_keys(self):
        left = table_from("l", k=["a", "b"], x=[1, 2])
        right = table_from("r", k=["b"], y=[9])
        joined = algebra.inner_join(left, right, "k", "k")
        assert joined["x"].to_list() == [2]


class TestGroupAggregate:
    def orders(self):
        return table_from(
            "orders",
            user=[1, 1, 2, 2, 2, None],
            amount=[5.0, 7.0, 2.0, None, 4.0, 9.0],
        )

    def test_count(self):
        out = algebra.group_aggregate(self.orders(), "user", {"n": ("count", None)})
        result = {row["user"]: row["n"] for row in out.iter_rows()}
        assert result == {1: 2.0, 2: 3.0}

    def test_sum_skips_null_values(self):
        out = algebra.group_aggregate(self.orders(), "user", {"total": ("sum", "amount")})
        result = {row["user"]: row["total"] for row in out.iter_rows()}
        assert result == {1: 12.0, 2: 6.0}

    def test_avg(self):
        out = algebra.group_aggregate(self.orders(), "user", {"m": ("avg", "amount")})
        result = {row["user"]: row["m"] for row in out.iter_rows()}
        assert result[1] == 6.0
        assert result[2] == 3.0

    def test_min_max(self):
        out = algebra.group_aggregate(
            self.orders(), "user", {"lo": ("min", "amount"), "hi": ("max", "amount")}
        )
        result = {row["user"]: (row["lo"], row["hi"]) for row in out.iter_rows()}
        assert result == {1: (5.0, 7.0), 2: (2.0, 4.0)}

    def test_exists(self):
        out = algebra.group_aggregate(self.orders(), "user", {"e": ("exists", None)})
        assert {row["user"]: row["e"] for row in out.iter_rows()} == {1: 1.0, 2: 1.0}

    def test_count_distinct(self):
        t = table_from("t", g=[1, 1, 1, 2], v=[3.0, 3.0, 4.0, 5.0])
        out = algebra.group_aggregate(t, "g", {"d": ("count_distinct", "v")})
        assert {row["g"]: row["d"] for row in out.iter_rows()} == {1: 2.0, 2: 1.0}

    def test_unknown_aggregate(self):
        with pytest.raises(KeyError):
            algebra.group_aggregate(self.orders(), "user", {"z": ("median", "amount")})

    def test_non_numeric_value_column(self):
        t = table_from("t", g=[1], s=["x"])
        with pytest.raises(TypeError):
            algebra.group_aggregate(t, "g", {"z": ("sum", "s")})

    def test_empty_table(self):
        t = table_from("t", g=[], v=[])
        out = algebra.group_aggregate(t, "g", {"n": ("count", None)})
        assert out.num_rows == 0

    def test_avg_empty_group_is_null(self):
        # group key present but all values null
        t = table_from("t", g=[1, 1], v=[None, None])
        out = algebra.group_aggregate(t, "g", {"m": ("avg", "v")})
        assert out["m"].to_list() == [None]


class TestAggregateGroupedValues:
    def test_negative_group_ids_ignored(self):
        gids = np.array([0, -1, 0, 1])
        vals = np.array([1.0, 100.0, 2.0, 3.0])
        out = algebra.aggregate_grouped_values("sum", gids, 2, values=vals)
        assert out.tolist() == [3.0, 3.0]

    def test_count_requires_no_values(self):
        gids = np.array([0, 0, 1])
        assert algebra.aggregate_grouped_values("count", gids, 2).tolist() == [2.0, 1.0]

    def test_sum_requires_values(self):
        with pytest.raises(ValueError):
            algebra.aggregate_grouped_values("sum", np.array([0]), 1)

    def test_min_max_with_gaps(self):
        gids = np.array([2, 2, 0])
        vals = np.array([5.0, 3.0, 7.0])
        mins = algebra.aggregate_grouped_values("min", gids, 3, values=vals)
        maxs = algebra.aggregate_grouped_values("max", gids, 3, values=vals)
        assert mins[0] == 7.0 and np.isnan(mins[1]) and mins[2] == 3.0
        assert maxs[2] == 5.0


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.floats(-100, 100)),
        min_size=1,
        max_size=60,
    )
)
def test_group_sum_matches_python(pairs):
    """group_aggregate sum agrees with a plain python implementation."""
    groups = [g for g, _ in pairs]
    values = [v for _, v in pairs]
    t = table_from("t", g=groups, v=values)
    out = algebra.group_aggregate(t, "g", {"s": ("sum", "v")})
    got = {row["g"]: row["s"] for row in out.iter_rows()}
    expected = {}
    for g, v in pairs:
        expected[g] = expected.get(g, 0.0) + v
    assert set(got) == set(expected)
    for key, total in expected.items():
        assert got[key] == pytest.approx(total, rel=1e-9, abs=1e-7)


@settings(max_examples=40)
@given(
    st.lists(st.integers(0, 8), min_size=0, max_size=30),
    st.lists(st.integers(0, 8), min_size=0, max_size=30),
)
def test_inner_join_count_matches_product_of_key_counts(left_keys, right_keys):
    left = table_from("l", k=left_keys, x=list(range(len(left_keys))))
    right = table_from("r", k=right_keys, y=list(range(len(right_keys))))
    joined = algebra.inner_join(left, right, "k", "k")
    expected = sum(left_keys.count(k) * right_keys.count(k) for k in set(left_keys))
    assert joined.num_rows == expected

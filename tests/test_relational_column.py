"""Unit tests for repro.relational.column."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.relational import Column, DType


class TestConstruction:
    def test_from_list_int(self):
        col = Column([1, 2, 3], DType.INT64)
        assert len(col) == 3
        assert col.to_list() == [1, 2, 3]
        assert col.null_count == 0

    def test_none_becomes_null(self):
        col = Column([1, None, 3], DType.INT64)
        assert col.null_count == 1
        assert col.to_list() == [1, None, 3]

    def test_nan_becomes_null_float(self):
        col = Column([1.0, float("nan"), 3.0], DType.FLOAT64)
        assert col.null_count == 1
        assert col.get(1) is None

    def test_string_column(self):
        col = Column(["a", None, "c"], DType.STRING)
        assert col.to_list() == ["a", None, "c"]
        assert col.values[1] == ""  # sentinel

    def test_bool_column(self):
        col = Column([True, False, None], DType.BOOL)
        assert col.to_list() == [True, False, None]

    def test_timestamp_column(self):
        col = Column([100, 200], DType.TIMESTAMP)
        assert col.get(0) == 100
        assert isinstance(col.get(0), int)

    @pytest.mark.parametrize("dtype", [DType.INT64, DType.TIMESTAMP, DType.BOOL])
    def test_nan_in_float_array_becomes_null_for_any_target(self, dtype):
        """A float array's NaN is a null whatever the target dtype, as a
        list's is — not the sentinel of a warning-raising cast."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from_array = Column(np.array([1.0, np.nan, 0.0]), dtype)
        from_list = Column([1.0, float("nan"), 0.0], dtype)
        assert from_array.to_list() == from_list.to_list()
        assert from_array.to_list()[1] is None
        np.testing.assert_array_equal(from_array.null_mask(), from_list.null_mask())
        assert from_array.values.tobytes() == from_list.values.tobytes()

    def test_explicit_mask_normalizes_sentinel(self):
        col = Column([7, 8], DType.INT64, mask=np.array([False, True]))
        assert col.get(1) is None
        assert col.values[1] == 0

    def test_mask_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Column([1, 2], DType.INT64, mask=np.array([True]))

    def test_2d_values_raise(self):
        with pytest.raises(ValueError):
            Column(np.zeros((2, 2)), DType.FLOAT64)

    def test_empty(self):
        col = Column.empty(DType.FLOAT64)
        assert len(col) == 0
        assert col.min() is None
        assert col.mean() is None

    def test_full_with_value(self):
        col = Column.full(4, 9, DType.INT64)
        assert col.to_list() == [9, 9, 9, 9]

    def test_full_with_none(self):
        col = Column.full(3, None, DType.STRING)
        assert col.to_list() == [None, None, None]


class TestConcat:
    def test_concat_preserves_nulls(self):
        a = Column([1, None], DType.INT64)
        b = Column([3], DType.INT64)
        merged = Column.concat([a, b])
        assert merged.to_list() == [1, None, 3]

    def test_concat_dtype_mismatch(self):
        with pytest.raises(TypeError):
            Column.concat([Column([1], DType.INT64), Column([1.0], DType.FLOAT64)])

    def test_concat_empty_list(self):
        with pytest.raises(ValueError):
            Column.concat([])


class TestTransforms:
    def test_take(self):
        col = Column([10, 20, None], DType.INT64)
        taken = col.take(np.array([2, 0]))
        assert taken.to_list() == [None, 10]

    def test_filter(self):
        col = Column([1, 2, 3, 4], DType.INT64)
        kept = col.filter(np.array([True, False, True, False]))
        assert kept.to_list() == [1, 3]

class TestComparisons:
    def test_equals_scalar(self):
        col = Column([1, 2, None], DType.INT64)
        assert col.equals(2).tolist() == [False, True, False]

    def test_nulls_never_match(self):
        col = Column([None, None], DType.INT64)
        assert not col.equals(0).any()
        assert not col.less_than(10**9).any()

    def test_column_vs_column(self):
        a = Column([1, 2, 3], DType.INT64)
        b = Column([1, 0, None], DType.INT64)
        assert a.equals(b).tolist() == [True, False, False]

    def test_ordering_ops(self):
        col = Column([1, 5, 3], DType.INT64)
        assert col.less_than(3).tolist() == [True, False, False]
        assert col.less_equal(3).tolist() == [True, False, True]
        assert col.greater_than(3).tolist() == [False, True, False]
        assert col.greater_equal(3).tolist() == [False, True, True]
        assert col.not_equals(3).tolist() == [True, True, False]

    def test_isin(self):
        col = Column([1, 2, None, 4], DType.INT64)
        assert col.isin([2, 4]).tolist() == [False, True, False, True]

    def test_isin_strings(self):
        col = Column(["a", "b"], DType.STRING)
        assert col.isin(["b", "z"]).tolist() == [False, True]


class TestReductions:
    def test_min_max_skip_nulls(self):
        col = Column([5, None, 2], DType.INT64)
        assert col.min() == 2
        assert col.max() == 5

    def test_sum_mean(self):
        col = Column([1.0, 3.0, None], DType.FLOAT64)
        assert col.sum() == 4.0
        assert col.mean() == 2.0

    def test_sum_non_numeric_raises(self):
        with pytest.raises(TypeError):
            Column(["a"], DType.STRING).sum()

    def test_unique_and_value_counts(self):
        col = Column([2, 1, 2, None], DType.INT64)
        assert col.unique().tolist() == [1, 2]
        assert col.value_counts() == {1: 1, 2: 2}

    def test_equality_of_columns(self):
        assert Column([1, None], DType.INT64) == Column([1, None], DType.INT64)
        assert Column([1, 2], DType.INT64) != Column([1, 3], DType.INT64)
        assert Column([1], DType.INT64) != Column([1.0], DType.FLOAT64)


@given(st.lists(st.one_of(st.integers(-1000, 1000), st.none()), max_size=50))
def test_roundtrip_to_list(values):
    col = Column(values, DType.INT64)
    assert col.to_list() == values


@given(
    st.lists(st.integers(-100, 100), min_size=1, max_size=30),
    st.data(),
)
def test_take_matches_python_indexing(values, data):
    col = Column(values, DType.INT64)
    indices = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=20))
    taken = col.take(np.array(indices, dtype=np.int64))
    assert taken.to_list() == [values[i] for i in indices]


@given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.none()), max_size=40))
def test_filter_then_count(values):
    col = Column(values, DType.FLOAT64)
    mask = col.greater_than(0.0)
    filtered = col.filter(mask)
    expected = [v for v in values if v is not None and v > 0.0]
    assert filtered.to_list() == pytest.approx(expected)

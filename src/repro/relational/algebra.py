"""Vectorized relational-algebra operators.

These are the primitives the PQL labeler and the tabular baselines are
compiled to: selection, projection, hash joins, and group-aggregation.
All functions are pure — they return new tables.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.relational.column import Column
from repro.relational.schema import ColumnSpec, TableSchema
from repro.relational.table import Table
from repro.relational.types import DType

__all__ = [
    "select",
    "inner_join",
    "group_aggregate",
    "AGGREGATES",
    "aggregate_grouped_values",
]


def select(table: Table, predicate: Callable[[Table], np.ndarray]) -> Table:
    """Rows of ``table`` for which ``predicate`` yields ``True``.

    ``predicate`` receives the table and must return a boolean mask,
    e.g. ``lambda t: t["amount"].greater_than(10)``.
    """
    mask = np.asarray(predicate(table), dtype=bool)
    if mask.shape != (table.num_rows,):
        raise ValueError(f"predicate mask has shape {mask.shape}, expected ({table.num_rows},)")
    return table.filter(mask)


def _group_indices(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factorize ``values``: (unique keys, per-row group id, sort order).

    The sort order groups equal keys contiguously, so
    ``np.split(order, boundaries)`` yields per-group row indices.
    """
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    if len(values) == 0:
        return sorted_values[:0], np.empty(0, dtype=np.int64), order
    boundary = np.empty(len(values), dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_values[1:] != sorted_values[:-1]
    group_of_sorted = np.cumsum(boundary) - 1
    keys = sorted_values[boundary]
    group_ids = np.empty(len(values), dtype=np.int64)
    group_ids[order] = group_of_sorted
    return keys, group_ids, order


def _join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-index pairs (left_idx, right_idx) for an inner equi-join."""
    index: Dict[Any, List[int]] = {}
    for i, key in enumerate(right_keys.tolist()):
        index.setdefault(key, []).append(i)
    left_out: List[int] = []
    right_out: List[int] = []
    for i, key in enumerate(left_keys.tolist()):
        matches = index.get(key)
        if matches:
            left_out.extend([i] * len(matches))
            right_out.extend(matches)
    return np.asarray(left_out, dtype=np.int64), np.asarray(right_out, dtype=np.int64)


def _merge_schemas(
    left: Table, right: Table, right_suffix: str
) -> Tuple[TableSchema, Dict[str, str]]:
    """Schema of a join result; returns (schema, right-column rename map)."""
    rename: Dict[str, str] = {}
    specs = list(left.schema.columns)
    taken = set(left.schema.column_names)
    for spec in right.schema.columns:
        name = spec.name
        if name in taken:
            name = f"{spec.name}{right_suffix}"
            if name in taken:
                raise ValueError(f"join column collision even after suffixing: {name!r}")
        rename[spec.name] = name
        taken.add(name)
        specs.append(ColumnSpec(name, spec.dtype))
    schema = TableSchema(name=f"{left.name}_join_{right.name}", columns=specs)
    return schema, rename


def inner_join(
    left: Table,
    right: Table,
    left_on: str,
    right_on: str,
    right_suffix: str = "_right",
) -> Table:
    """Inner equi-join on one key column per side.

    Null keys never match.  Right columns whose names collide with left
    columns are suffixed with ``right_suffix``.
    """
    left_col, right_col = left[left_on], right[right_on]
    left_valid = ~left_col.null_mask()
    right_valid = ~right_col.null_mask()
    left_rows = np.flatnonzero(left_valid)
    right_rows = np.flatnonzero(right_valid)
    li, ri = _join_indices(left_col.values[left_rows], right_col.values[right_rows])
    left_idx, right_idx = left_rows[li], right_rows[ri]
    schema, rename = _merge_schemas(left, right, right_suffix)
    columns: Dict[str, Column] = {
        name: left[name].take(left_idx) for name in left.column_names
    }
    for original, renamed in rename.items():
        columns[renamed] = right[original].take(right_idx)
    return Table(schema, columns)


#: Supported aggregate functions (:func:`aggregate_grouped_values`).
AGGREGATES = ("count", "sum", "avg", "min", "max", "exists", "count_distinct")


def aggregate_grouped_values(
    func: str,
    group_ids: np.ndarray,
    num_groups: int,
    values: Optional[np.ndarray] = None,
    valid: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized per-group aggregate.

    ``group_ids`` assigns each row to ``[0, num_groups)``; rows with a
    negative group id are ignored.  ``values`` may be omitted for
    ``count``/``exists``.  Returns a float array of length
    ``num_groups`` with NaN for empty-group avg/min/max.
    """
    if func not in AGGREGATES:
        raise KeyError(f"unknown aggregate {func!r}; supported: {sorted(AGGREGATES)}")
    in_range = group_ids >= 0
    if valid is None:
        valid = np.ones(len(group_ids), dtype=bool)
    valid = valid & in_range
    gids = group_ids[valid]
    counts = np.bincount(gids, minlength=num_groups).astype(np.float64)
    if func == "count":
        return counts
    if func == "exists":
        return (counts > 0).astype(np.float64)
    if values is None:
        raise ValueError(f"aggregate {func!r} requires a value column")
    vals = values[valid].astype(np.float64)
    if func == "sum":
        return np.bincount(gids, weights=vals, minlength=num_groups)
    if func == "avg":
        sums = np.bincount(gids, weights=vals, minlength=num_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = sums / counts
        out[counts == 0] = np.nan
        return out
    if func == "count_distinct":
        out = np.zeros(num_groups, dtype=np.float64)
        if len(gids):
            pairs = np.unique(np.stack([gids, vals]), axis=1)
            distinct = np.bincount(pairs[0].astype(np.int64), minlength=num_groups)
            out = distinct.astype(np.float64)
        return out
    # min / max via sorting by (group, value)
    out = np.full(num_groups, np.nan, dtype=np.float64)
    if len(gids):
        order = np.lexsort((vals, gids))
        sorted_gids = gids[order]
        sorted_vals = vals[order]
        first = np.empty(len(sorted_gids), dtype=bool)
        first[0] = True
        first[1:] = sorted_gids[1:] != sorted_gids[:-1]
        if func == "min":
            out[sorted_gids[first]] = sorted_vals[first]
        else:  # max: last element of each group
            last = np.empty(len(sorted_gids), dtype=bool)
            last[-1] = True
            last[:-1] = sorted_gids[1:] != sorted_gids[:-1]
            out[sorted_gids[last]] = sorted_vals[last]
    return out


def group_aggregate(
    table: Table,
    by: str,
    aggs: Mapping[str, Tuple[str, Optional[str]]],
) -> Table:
    """Group ``table`` by column ``by`` and compute aggregates.

    ``aggs`` maps output-column name to ``(func, value_column)`` where
    ``func`` is a key of :data:`AGGREGATES` and ``value_column`` may be
    ``None`` for ``count``/``exists``.  Null group keys are dropped.
    Returns a table with the key column plus one FLOAT64 column per
    aggregate.
    """
    key_col = table[by]
    valid_key = ~key_col.null_mask()
    keys, group_ids, _ = _group_indices(key_col.values[valid_key])
    row_group = np.full(table.num_rows, -1, dtype=np.int64)
    row_group[valid_key] = group_ids
    num_groups = len(keys)

    specs = [ColumnSpec(by, key_col.dtype)]
    columns: Dict[str, Column] = {by: Column(keys, key_col.dtype)}
    for out_name, (func, value_column) in aggs.items():
        if value_column is None:
            result = aggregate_grouped_values(func, row_group, num_groups)
        else:
            vcol = table[value_column]
            if not vcol.dtype.is_numeric and vcol.dtype != DType.BOOL:
                raise TypeError(
                    f"aggregate {func!r} over non-numeric column {value_column!r} ({vcol.dtype})"
                )
            result = aggregate_grouped_values(
                func,
                row_group,
                num_groups,
                values=vcol.values.astype(np.float64),
                valid=~vcol.null_mask(),
            )
        mask = np.isnan(result)
        specs.append(ColumnSpec(out_name, DType.FLOAT64))
        columns[out_name] = Column(result, DType.FLOAT64, mask=mask if mask.any() else None)
    schema = TableSchema(name=f"{table.name}_by_{by}", columns=specs)
    return Table(schema, columns)

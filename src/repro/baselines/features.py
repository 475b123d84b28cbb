"""Hand-written feature engineering for tabular baselines.

This module is the *counterfactual* the paper argues against: the
schema-flattening work an analyst performs so a GBDT can consume a
relational database.  For one entity table it derives, per (entity,
cutoff) pair:

1. **Own columns** — numerics as-is, booleans as 0/1, timestamps as
   age-in-days at the cutoff, strings one-hot over the most frequent
   values;
2. **One-hop aggregates** — for every child table with a foreign key
   to the entity: event counts over trailing windows (7/30/90 days and
   all history), days since first/last event, and sum/avg/max of each
   numeric column per window;
3. **Two-hop aggregates** — for every grandchild table keyed to a
   child: windowed counts and numeric averages of grandchild rows
   attached to the entity's children (e.g. votes received by a user's
   posts).

All aggregates respect the cutoff (only facts with ``ts <= cutoff``
contribute), so the baseline is leak-free — the comparison with the
GNN is about representational effort, not leakage.

Feature columns are ordered cheap-to-expensive (own → one-hop counts →
one-hop numerics → two-hop); the Figure 5 "effort budget" sweep takes
prefixes of this order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Sequence

import numpy as np

from repro.relational.algebra import aggregate_grouped_values
from repro.relational.database import Database
from repro.relational.table import Table
from repro.relational.types import DType

__all__ = ["FeatureBuilder"]

_DAY = 86400.0
_MAX_ONE_HOT = 10


def _lookup(column, index: Dict[object, int]) -> np.ndarray:
    """``index[value]`` per row of ``column`` in one C-level pass; -1
    where the value is null or not in ``index``."""
    found = np.fromiter(
        map(index.get, column.values.tolist(), repeat(-1)), dtype=np.int64, count=len(column.values)
    )
    found[column.null_mask()] = -1
    return found


@dataclass
class _ChildLink:
    """A child table reachable via one FK hop from the entity."""

    table: Table
    fk_column: str
    numeric_columns: List[str]
    groups: np.ndarray  # entity slot per child row, -1 for none


@dataclass
class _GrandchildLink:
    """A grandchild table: grandchild --fk--> child --fk--> entity."""

    child: _ChildLink
    table: Table
    fk_column: str  # grandchild column referencing the child's pk
    numeric_columns: List[str]
    groups: np.ndarray  # entity slot per grandchild row (through its child), -1 for none


class FeatureBuilder:
    """Builds the flattened feature matrix for one entity table.

    Parameters
    ----------
    db:
        The relational database.
    entity_table:
        Table whose rows are the prediction entities.
    windows_days:
        Trailing window lengths for aggregates (plus all-history).
    include_two_hop:
        Whether to derive grandchild aggregates (the expensive,
        usually-skipped analyst work).
    """

    def __init__(
        self,
        db: Database,
        entity_table: str,
        windows_days: Sequence[int] = (7, 30, 90),
        include_two_hop: bool = True,
    ) -> None:
        self.db = db
        self.entity_table = db[entity_table]
        self.windows_days = list(windows_days)
        self.include_two_hop = include_two_hop
        pk = self.entity_table.schema.primary_key
        if pk is None:
            raise ValueError(f"entity table {entity_table!r} needs a primary key")
        self._pk = pk
        keys = self.entity_table[pk].values.tolist()
        self._key_to_slot = dict(zip(keys, range(len(keys))))
        # Which entity each child and grandchild row belongs to does not
        # depend on the cutoff: the links carry it, looked up once here.
        self._children = self._find_children()
        self._grandchildren = self._find_grandchildren() if include_two_hop else []
        self._one_hot_vocab = self._fit_one_hot()
        self.feature_names: List[str] = self._compute_feature_names()

    # ------------------------------------------------------------------
    # Schema discovery
    # ------------------------------------------------------------------
    def _numeric_feature_columns(self, table: Table) -> List[str]:
        return [
            name
            for name in table.schema.feature_columns
            if table.schema.dtype_of(name) in (DType.INT64, DType.FLOAT64)
        ]

    def _find_children(self) -> List[_ChildLink]:
        children = []
        for table in self.db:
            if table.name == self.entity_table.name or table.schema.time_column is None:
                continue
            for fk in table.schema.foreign_keys:
                if fk.ref_table == self.entity_table.name:
                    children.append(
                        _ChildLink(
                            table=table,
                            fk_column=fk.column,
                            numeric_columns=self._numeric_feature_columns(table),
                            groups=_lookup(table[fk.column], self._key_to_slot),
                        )
                    )
        return children

    def _find_grandchildren(self) -> List[_GrandchildLink]:
        links = []
        for child in self._children:
            child_pk = child.table.schema.primary_key
            if child_pk is None:
                continue
            child_keys = child.table[child_pk].values.tolist()
            child_rows = dict(zip(child_keys, range(len(child_keys))))
            # A grandchild row with no child row reads the appended -1.
            entity_of_row = np.append(child.groups, -1)
            for table in self.db:
                if table.schema.time_column is None or table.name == child.table.name:
                    continue
                for fk in table.schema.foreign_keys:
                    if fk.ref_table == child.table.name:
                        links.append(
                            _GrandchildLink(
                                child=child,
                                table=table,
                                fk_column=fk.column,
                                numeric_columns=self._numeric_feature_columns(table),
                                groups=entity_of_row[_lookup(table[fk.column], child_rows)],
                            )
                        )
        return links

    def _fit_one_hot(self) -> Dict[str, List[str]]:
        vocab: Dict[str, List[str]] = {}
        for name in self.entity_table.schema.feature_columns:
            if self.entity_table.schema.dtype_of(name) == DType.STRING:
                counts = self.entity_table[name].value_counts()
                top = sorted(counts, key=lambda v: (-counts[v], v))[:_MAX_ONE_HOT]
                vocab[name] = top
        return vocab

    # ------------------------------------------------------------------
    # Feature names (fixed order = effort priority)
    # ------------------------------------------------------------------
    def _compute_feature_names(self) -> List[str]:
        names: List[str] = []
        schema = self.entity_table.schema
        for column in schema.feature_columns:
            dtype = schema.dtype_of(column)
            if dtype in (DType.INT64, DType.FLOAT64):
                names.append(f"own.{column}")
            elif dtype == DType.BOOL:
                names.append(f"own.{column}")
            elif dtype == DType.TIMESTAMP:
                names.append(f"own.{column}.age_days")
            elif dtype == DType.STRING:
                names.extend(f"own.{column}={v}" for v in self._one_hot_vocab[column])
        if schema.time_column is not None:
            names.append("own.age_days")
        window_tags = [f"{w}d" for w in self.windows_days] + ["all"]
        for child in self._children:
            base = child.table.name
            for tag in window_tags:
                names.append(f"{base}.count.{tag}")
            names.append(f"{base}.days_since_last")
            names.append(f"{base}.days_since_first")
        for child in self._children:
            base = child.table.name
            for column in child.numeric_columns:
                for tag in window_tags:
                    names.append(f"{base}.{column}.sum.{tag}")
                    names.append(f"{base}.{column}.avg.{tag}")
                    names.append(f"{base}.{column}.max.{tag}")
        for grandchild in self._grandchildren:
            base = f"{grandchild.child.table.name}->{grandchild.table.name}"
            for tag in window_tags:
                names.append(f"{base}.count.{tag}")
            for column in grandchild.numeric_columns:
                names.append(f"{base}.{column}.avg.all")
        return names

    @property
    def num_features(self) -> int:
        """Width of the produced matrix."""
        return len(self.feature_names)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def build(self, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        """Feature matrix, one row per (entity key, cutoff) pair.

        Rows for different cutoffs are computed from the database state
        at each row's own cutoff.  Undefined aggregates are NaN (models
        downstream handle missing values).
        """
        entity_keys = np.asarray(entity_keys)
        cutoffs = np.asarray(cutoffs, dtype=np.int64)
        if entity_keys.shape != cutoffs.shape:
            raise ValueError("entity_keys and cutoffs must have equal length")
        out = np.full((len(entity_keys), self.num_features), np.nan)
        slots = self.slots(entity_keys)
        for cutoff in np.unique(cutoffs):
            rows = np.flatnonzero(cutoffs == cutoff)
            block = self._build_at_cutoff(int(cutoff))
            out[rows] = block[slots[rows]]
        return out

    def slots(self, entity_keys: np.ndarray) -> np.ndarray:
        """Entity-table row of each key, in one C-level pass (``KeyError``
        on an unknown key)."""
        keys = np.asarray(entity_keys).tolist()
        return np.fromiter(map(self._key_to_slot.__getitem__, keys), dtype=np.int64, count=len(keys))

    def _build_at_cutoff(self, cutoff: int) -> np.ndarray:
        """Features for ALL entities at one cutoff, shape (num_entities, F)."""
        num_entities = self.entity_table.num_rows
        columns: List[np.ndarray] = []
        columns.extend(self._own_columns(cutoff))
        # Every child's counts come before any child's numerics (the priority order).
        for child in self._children:
            columns.extend(self._child_counts(child, cutoff, num_entities))
        for child in self._children:
            columns.extend(self._child_numerics(child, cutoff, num_entities))
        for grandchild in self._grandchildren:
            columns.extend(self._grandchild_columns(grandchild, cutoff, num_entities))
        matrix = np.column_stack(columns) if columns else np.zeros((num_entities, 0))
        if matrix.shape[1] != self.num_features:
            raise AssertionError(
                f"feature width mismatch: built {matrix.shape[1]}, expected {self.num_features}"
            )
        return matrix

    def _own_columns(self, cutoff: int) -> List[np.ndarray]:
        columns: List[np.ndarray] = []
        schema = self.entity_table.schema
        for name in schema.feature_columns:
            column = self.entity_table[name]
            dtype = schema.dtype_of(name)
            if dtype in (DType.INT64, DType.FLOAT64):
                values = column.values.astype(np.float64).copy()
                values[column.null_mask()] = np.nan
                columns.append(values)
            elif dtype == DType.BOOL:
                columns.append(np.where(column.null_mask(), np.nan, column.values.astype(np.float64)))
            elif dtype == DType.TIMESTAMP:
                age = (cutoff - column.values.astype(np.float64)) / _DAY
                age[column.null_mask()] = np.nan
                columns.append(age)
            elif dtype == DType.STRING:
                for value in self._one_hot_vocab[name]:
                    columns.append(column.equals(value).astype(np.float64))
        if schema.time_column is not None:
            created = self.entity_table[schema.time_column].values.astype(np.float64)
            columns.append((cutoff - created) / _DAY)
        return columns

    def _window_masks(self, times: np.ndarray, cutoff: int) -> List[np.ndarray]:
        past = times <= cutoff
        masks = []
        for window in self.windows_days:
            masks.append(past & (times > cutoff - window * _DAY))
        masks.append(past)
        return masks

    def _child_counts(self, child: _ChildLink, cutoff: int, num_entities: int) -> List[np.ndarray]:
        times = child.table[child.table.schema.time_column].values.astype(np.float64)
        masks = self._window_masks(times, cutoff)
        columns = [
            aggregate_grouped_values("count", np.where(mask, child.groups, -1), num_entities)
            for mask in masks
        ]
        past_groups = np.where(masks[-1], child.groups, -1)
        last = aggregate_grouped_values("max", past_groups, num_entities, values=times)
        first = aggregate_grouped_values("min", past_groups, num_entities, values=times)
        return columns + [(cutoff - last) / _DAY, (cutoff - first) / _DAY]

    def _child_numerics(self, child: _ChildLink, cutoff: int, num_entities: int) -> List[np.ndarray]:
        times = child.table[child.table.schema.time_column].values.astype(np.float64)
        masks = self._window_masks(times, cutoff)
        columns: List[np.ndarray] = []
        for column_name in child.numeric_columns:
            column = child.table[column_name]
            values = column.values.astype(np.float64)
            valid = ~column.null_mask()
            for mask in masks:
                window_groups = np.where(mask, child.groups, -1)
                for func in ("sum", "avg", "max"):
                    columns.append(
                        aggregate_grouped_values(
                            func, window_groups, num_entities, values=values, valid=valid
                        )
                    )
        return columns

    def _grandchild_columns(
        self, grandchild: _GrandchildLink, cutoff: int, num_entities: int
    ) -> List[np.ndarray]:
        times = grandchild.table[grandchild.table.schema.time_column].values.astype(np.float64)
        masks = self._window_masks(times, cutoff)
        columns: List[np.ndarray] = []
        for mask in masks:
            window_groups = np.where(mask, grandchild.groups, -1)
            columns.append(aggregate_grouped_values("count", window_groups, num_entities))
        past_groups = np.where(masks[-1], grandchild.groups, -1)
        for column_name in grandchild.numeric_columns:
            column = grandchild.table[column_name]
            columns.append(
                aggregate_grouped_values(
                    "avg",
                    past_groups,
                    num_entities,
                    values=column.values.astype(np.float64),
                    valid=~column.null_mask(),
                )
            )
        return columns

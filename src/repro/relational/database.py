"""Database container: named tables plus integrity validation."""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional

import numpy as np

from repro.relational.schema import ForeignKey, TableSchema
from repro.relational.table import Table
from repro.relational.types import Timestamp

__all__ = ["Database", "IntegrityError"]


class IntegrityError(ValueError):
    """Raised when referential or key integrity is violated."""


class Database:
    """A named collection of tables.

    The database is the unit the predictive-query pipeline operates on:
    the PQL labeler runs window aggregates over it, and the graph
    builder compiles it into a heterogeneous temporal graph.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        #: Where the rows came from, for operators (``repro stats``):
        #: ``"memory"`` (built in this process), ``"generated"``, or
        #: ``"snapshot"`` with the file's SHA-256 beside it.
        self.source = "memory"
        self.source_sha256: Optional[str] = None
        self._tables: Dict[str, Table] = {}

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __contains__(self, table_name: str) -> bool:
        return table_name in self._tables

    def __getitem__(self, table_name: str) -> Table:
        try:
            return self._tables[table_name]
        except KeyError:
            raise KeyError(f"database {self.name!r} has no table {table_name!r}") from None

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        parts = ", ".join(f"{t.name}({t.num_rows})" for t in self)
        return f"Database({self.name!r}: {parts})"

    @property
    def table_names(self) -> List[str]:
        """Names of all tables, in insertion order."""
        return list(self._tables)

    @property
    def schemas(self) -> Dict[str, TableSchema]:
        """Mapping from table name to schema."""
        return {name: table.schema for name, table in self._tables.items()}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_table(self, table: Table, replace: bool = False) -> None:
        """Register a table under its schema name."""
        if table.name in self._tables and not replace:
            raise ValueError(f"table {table.name!r} already exists in database {self.name!r}")
        self._tables[table.name] = table

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check primary-key uniqueness and foreign-key referential integrity.

        Raises
        ------
        IntegrityError
            On a duplicate/null primary key, a foreign key pointing to a
            missing table/column, or a dangling (non-null) reference.
        """
        for table in self:
            pk = table.schema.primary_key
            if pk is not None:
                col = table[pk]
                if col.null_count:
                    raise IntegrityError(f"table {table.name!r}: null primary key values in {pk!r}")
                if len(np.unique(col.values)) != len(col):
                    raise IntegrityError(f"table {table.name!r}: duplicate primary key values in {pk!r}")
        for table in self:
            for fk in table.schema.foreign_keys:
                self._validate_foreign_key(table, fk)

    def _validate_foreign_key(self, table: Table, fk: ForeignKey) -> None:
        if fk.ref_table not in self:
            raise IntegrityError(
                f"table {table.name!r}: foreign key {fk.column!r} references missing table {fk.ref_table!r}"
            )
        ref = self[fk.ref_table]
        if not ref.schema.has_column(fk.ref_column):
            raise IntegrityError(
                f"table {table.name!r}: foreign key {fk.column!r} references missing column "
                f"{fk.ref_table}.{fk.ref_column}"
            )
        col = table[fk.column]
        valid = ~col.null_mask()
        if not valid.any():
            return
        referenced = set(ref[fk.ref_column].values.tolist())
        present = np.fromiter(
            (value in referenced for value in col.values[valid]), dtype=bool, count=int(valid.sum())
        )
        if not present.all():
            bad = col.values[valid][~present][:3].tolist()
            raise IntegrityError(
                f"table {table.name!r}: dangling foreign key {fk.column!r} -> "
                f"{fk.ref_table}.{fk.ref_column}, e.g. {bad}"
            )

    # ------------------------------------------------------------------
    # Temporal helpers
    # ------------------------------------------------------------------
    def time_span(self) -> Optional[tuple]:
        """(min, max) timestamp over all temporal tables, or ``None``."""
        lows, highs = [], []
        for table in self:
            time_col = table.schema.time_column
            if time_col is None or table.num_rows == 0:
                continue
            col = table[time_col]
            low, high = col.min(), col.max()
            if low is not None:
                lows.append(low)
                highs.append(high)
        if not lows:
            return None
        return min(lows), max(highs)

    def snapshot(self, cutoff: Timestamp) -> "Database":
        """Database restricted to rows with timestamp <= ``cutoff``.

        Static tables (no time column) are kept whole.  This is the
        temporal-correctness primitive: every label and every model
        input at seed time ``t`` must be computable from
        ``snapshot(t)``.
        """
        snap = Database(name=f"{self.name}@{cutoff}")
        for table in self:
            time_col = table.schema.time_column
            if time_col is None:
                snap.add_table(table)
            else:
                keep = table[time_col].less_equal(cutoff)
                snap.add_table(table.filter(keep))
        return snap


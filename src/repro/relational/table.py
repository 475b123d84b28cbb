"""Tables: a schema plus one :class:`~repro.relational.column.Column` per column."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Sequence

import numpy as np

from repro.relational.column import Column
from repro.relational.schema import ColumnSpec, TableSchema

__all__ = ["Table"]


class Table:
    """An in-memory table.

    Construct either from a schema and matching columns, or via
    :meth:`from_dict` which coerces python sequences.
    """

    def __init__(self, schema: TableSchema, columns: Mapping[str, Column]) -> None:
        self.schema = schema
        missing = [name for name in schema.column_names if name not in columns]
        extra = [name for name in columns if not schema.has_column(name)]
        if missing or extra:
            raise ValueError(
                f"table {schema.name!r}: columns do not match schema (missing={missing}, extra={extra})"
            )
        lengths = {name: len(col) for name, col in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"table {schema.name!r}: ragged column lengths {lengths}")
        for name in schema.column_names:
            expected = schema.dtype_of(name)
            if columns[name].dtype != expected:
                raise TypeError(
                    f"table {schema.name!r} column {name!r}: expected {expected}, got {columns[name].dtype}"
                )
        self._columns: Dict[str, Column] = {name: columns[name] for name in schema.column_names}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, schema: TableSchema, data: Mapping[str, Sequence[Any]]) -> "Table":
        """Build a table by coercing python sequences per the schema."""
        columns = {
            name: Column(data[name], schema.dtype_of(name)) if name in data else Column.empty(schema.dtype_of(name))
            for name in schema.column_names
        }
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: TableSchema) -> "Table":
        """A zero-row table matching ``schema``."""
        return cls(schema, {name: Column.empty(schema.dtype_of(name)) for name in schema.column_names})

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Table name (from the schema)."""
        return self.schema.name

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def column_names(self) -> List[str]:
        """Ordered column names."""
        return self.schema.column_names

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def __getitem__(self, column: str) -> Column:
        try:
            return self._columns[column]
        except KeyError:
            raise KeyError(f"table {self.name!r} has no column {column!r}") from None

    def column(self, name: str) -> Column:
        """Alias for ``table[name]``."""
        return self[name]

    def row(self, index: int) -> Dict[str, Any]:
        """Row ``index`` as a dict (nulls are ``None``)."""
        return {name: col.get(index) for name, col in self._columns.items()}

    def iter_rows(self) -> Iterator[Dict[str, Any]]:
        """Iterate rows as dicts.  Intended for small tables and tests."""
        for i in range(self.num_rows):
            yield self.row(i)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.num_rows}, columns={self.column_names})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.schema.column_names == other.schema.column_names
            and all(self[name] == other[name] for name in self.column_names)
        )

    # ------------------------------------------------------------------
    # Row-wise transforms (all return new tables)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        """Gather rows by integer indices."""
        return Table(self.schema, {name: col.take(indices) for name, col in self._columns.items()})

    def filter(self, keep: np.ndarray) -> "Table":
        """Keep rows where the boolean mask is true."""
        return Table(self.schema, {name: col.filter(keep) for name, col in self._columns.items()})

    def head(self, n: int = 5) -> "Table":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self.num_rows)))

    def sort_by(self, column: str, ascending: bool = True) -> "Table":
        """Stable sort by one column (nulls last)."""
        col = self[column]
        order = np.argsort(col.values, kind="stable")
        if not ascending:
            order = order[::-1]
        if col.mask is not None:
            null_positions = col.mask[order]
            order = np.concatenate([order[~null_positions], order[null_positions]])
        return self.take(order)

    def append(self, other: "Table") -> "Table":
        """Concatenate rows of a table with an identical schema."""
        if self.schema.column_names != other.schema.column_names:
            raise ValueError("cannot append tables with differing columns")
        columns = {
            name: Column.concat([self[name], other[name]]) for name in self.column_names
        }
        return Table(self.schema, columns)

    # ------------------------------------------------------------------
    # Column-wise transforms
    # ------------------------------------------------------------------
    def project(self, names: Sequence[str]) -> "Table":
        """Keep only the named columns (schema keys are pruned to match)."""
        kept = set(names)
        specs = [spec for spec in self.schema.columns if spec.name in kept]
        if len(specs) != len(kept):
            unknown = kept - {spec.name for spec in self.schema.columns}
            raise KeyError(f"table {self.name!r} has no columns {sorted(unknown)}")
        schema = TableSchema(
            name=self.schema.name,
            columns=specs,
            primary_key=self.schema.primary_key if self.schema.primary_key in kept else None,
            foreign_keys=[fk for fk in self.schema.foreign_keys if fk.column in kept],
            time_column=self.schema.time_column if self.schema.time_column in kept else None,
        )
        return Table(schema, {spec.name: self._columns[spec.name] for spec in specs})

    def with_column(self, name: str, column: Column) -> "Table":
        """Add or replace a column (plain attribute, no key metadata)."""
        if len(column) != self.num_rows and self.num_rows > 0:
            raise ValueError(
                f"column length {len(column)} does not match table rows {self.num_rows}"
            )
        specs = [spec for spec in self.schema.columns if spec.name != name]
        specs.append(ColumnSpec(name, column.dtype))
        schema = TableSchema(
            name=self.schema.name,
            columns=specs,
            primary_key=self.schema.primary_key,
            foreign_keys=list(self.schema.foreign_keys),
            time_column=self.schema.time_column,
        )
        columns = {n: c for n, c in self._columns.items() if n != name}
        columns[name] = column
        return Table(schema, columns)

    def renamed(self, new_name: str) -> "Table":
        """Copy of this table under a new name."""
        return Table(self.schema.renamed(new_name), dict(self._columns))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

"""CSV persistence: a database saves as one CSV per table plus schema.json.

Loading is strict by default — any malformed row fails the whole load
with the table, row number, and column named in the error.  Pass
``lenient=True`` to quarantine malformed rows instead: each bad row is
dropped, counted per table, and reported once per table at WARNING
level, so a mostly-good export still loads.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Dict, List, Optional

import numpy as np

from repro.obs import get_logger, get_registry
from repro.relational.column import Column
from repro.relational.database import Database
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.relational.types import DType, exact_int
from repro.resilience.faults import fault_point

__all__ = ["save_database", "load_database", "schema_manifest", "MalformedRowError"]

_SCHEMA_FILE = "schema.json"
_NULL_TOKEN = ""

_log = get_logger("relational.csvio")


class MalformedRowError(ValueError):
    """A CSV row failed to parse against the table schema (strict mode)."""

    def __init__(self, table: str, row_number: int, column: Optional[str], detail: str) -> None:
        where = f"table {table!r}, row {row_number}"
        if column is not None:
            where += f", column {column!r}"
        super().__init__(f"{where}: {detail} (pass lenient=True to quarantine bad rows)")
        self.table = table
        self.row_number = row_number
        self.column = column


def schema_manifest(db: Database) -> dict:
    """The JSON document that describes ``db``: its name and every table
    schema, in table order.  ``schema.json`` and the binary snapshot
    (:mod:`repro.relational.snapshot`) both carry exactly this."""
    return {
        "name": db.name,
        "tables": [table.schema.to_dict() for table in db],
    }


def save_database(db: Database, directory: str) -> None:
    """Write ``db`` to ``directory`` (created if missing).

    Layout: ``schema.json`` with the database name and all table
    schemas, plus ``<table>.csv`` per table.  Nulls serialize as empty
    fields.
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, _SCHEMA_FILE), "w", encoding="utf-8") as handle:
        json.dump(schema_manifest(db), handle, indent=2)
    for table in db:
        _save_table(table, os.path.join(directory, f"{table.name}.csv"))


def _save_table(table: Table, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        writer.writerows(zip(*(_serialize(table[name]) for name in table.column_names)))


def _serialize(column: Column) -> List[str]:
    """A column's CSV cells: floats by ``repr``, bools as ``true``/``false``,
    everything else by ``str``, nulls as the empty field."""
    values = column.values.tolist()
    if column.dtype == DType.BOOL:
        cells = ["true" if value else "false" for value in values]
    else:
        cells = list(map(repr if column.dtype == DType.FLOAT64 else str, values))
    if column.mask is not None:
        for i in np.flatnonzero(column.mask).tolist():
            cells[i] = _NULL_TOKEN
    return cells


def load_database(directory: str, lenient: bool = False) -> Database:
    """Load a database previously written by :func:`save_database`.

    Parameters
    ----------
    lenient:
        When False (default), the first malformed row raises
        :class:`MalformedRowError` naming the table, row, and column.
        When True, malformed rows are quarantined (dropped) with one
        WARNING per affected table; quarantine totals are recorded in
        the ``csv.quarantined_rows`` metric.
    """
    fault_point("csv.load")
    with open(os.path.join(directory, _SCHEMA_FILE), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    db = Database(name=manifest["name"])
    for schema_dict in manifest["tables"]:
        schema = TableSchema.from_dict(schema_dict)
        db.add_table(
            _load_table(schema, os.path.join(directory, f"{schema.name}.csv"), lenient=lenient)
        )
    return db


def _load_table(schema: TableSchema, path: str, lenient: bool = False) -> Table:
    dtypes = [schema.dtype_of(name) for name in schema.column_names]
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != schema.column_names:
            raise ValueError(
                f"CSV header of {path!r} does not match schema: {header} != {schema.column_names}"
            )
        parsed: Dict[str, List] = {name: [] for name in header}
        quarantined = 0
        # Row-wise parse so one bad row can be pinpointed (strict) or
        # dropped without poisoning its columns (lenient).
        for row_number, row in enumerate(reader, start=2):
            try:
                values = _parse_row(schema.name, row_number, header, dtypes, row)
            except MalformedRowError:
                if not lenient:
                    raise
                quarantined += 1
                continue
            for name, value in zip(header, values):
                parsed[name].append(value)
    if quarantined:
        get_registry().counter("csv.quarantined_rows").inc(quarantined)
        _log.warning(
            "quarantined malformed rows",
            extra={"table": schema.name, "quarantined": quarantined,
                   "kept": len(parsed[header[0]]) if header else 0},
        )
    columns = {
        name: Column(parsed[name], dtype) for name, dtype in zip(header, dtypes)
    }
    return Table(schema, columns)


def _parse_row(table: str, row_number: int, header: List[str], dtypes: List[DType], row: List[str]):
    if len(row) != len(header):
        raise MalformedRowError(
            table, row_number, None,
            f"expected {len(header)} fields, got {len(row)}",
        )
    values = []
    for name, dtype, cell in zip(header, dtypes, row):
        if cell == _NULL_TOKEN and dtype != DType.STRING:
            values.append(None)
            continue
        try:
            values.append(_parse(cell, dtype))
        except (ValueError, OverflowError) as err:
            raise MalformedRowError(
                table, row_number, name,
                f"cannot parse {cell!r} as {dtype.value}: {err}",
            ) from err
    return values


def _parse(cell: str, dtype: DType):
    if dtype == DType.STRING:
        return cell
    if dtype == DType.BOOL:
        return cell.strip().lower() in ("1", "true", "t", "yes")
    if dtype == DType.FLOAT64:
        return float(cell)
    return exact_int(cell)

"""In-memory relational database substrate.

This package implements the relational side of the "databases as
graphs" pipeline: a typed column store (:mod:`repro.relational.column`),
schemas with primary/foreign keys (:mod:`repro.relational.schema`),
tables (:mod:`repro.relational.table`), a database container with
referential-integrity validation (:mod:`repro.relational.database`),
vectorized relational-algebra operators
(:mod:`repro.relational.algebra`), and persistence
(:mod:`repro.relational.csvio`, :mod:`repro.relational.snapshot`).

The engine is deliberately small but complete for the predictive-query
workload: selections, projections, hash joins, group-aggregates over
time windows, and sorting — all vectorized on numpy.  A database
persists two ways: CSV + ``schema.json`` for interchange, and one
binary columnar snapshot file (:mod:`repro.relational.snapshot`) that
loads in milliseconds and round-trips every value exactly.
"""

from repro.relational.types import DType, NULL_SENTINELS, Timestamp
from repro.relational.column import Column
from repro.relational.schema import ColumnSpec, ForeignKey, TableSchema
from repro.relational.table import Table
from repro.relational.database import Database
from repro.relational import algebra
from repro.relational.csvio import load_database, save_database
from repro.relational.snapshot import read_snapshot, write_snapshot
from repro.relational.sql import SQLError, execute_sql

__all__ = [
    "DType",
    "NULL_SENTINELS",
    "Timestamp",
    "Column",
    "ColumnSpec",
    "ForeignKey",
    "TableSchema",
    "Table",
    "Database",
    "algebra",
    "load_database",
    "save_database",
    "read_snapshot",
    "write_snapshot",
    "execute_sql",
    "SQLError",
]

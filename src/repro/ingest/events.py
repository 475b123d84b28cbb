"""Row events: the unit of streaming ingest.

A :class:`RowEvent` is one new row for one table, validated against
the table's schema before it is allowed anywhere near a segment file
or the live graph.  Validation mirrors the CSV loader's strictness:
unknown columns, uncoercible values, and null primary keys are
errors; missing feature columns become nulls (the same thing an empty
CSV field would).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.relational.schema import TableSchema
from repro.relational.types import DType, exact_int

__all__ = [
    "RowEvent",
    "IngestError",
    "EventValidationError",
    "UnresolvedReferenceError",
    "validate_event",
]


class IngestError(ValueError):
    """Base class for ingest failures."""


class EventValidationError(IngestError):
    """An event failed schema validation (named table + detail)."""

    def __init__(self, table: str, detail: str) -> None:
        super().__init__(f"table {table!r}: {detail}")
        self.table = table
        self.detail = detail


class UnresolvedReferenceError(IngestError):
    """An event references a foreign-key target that does not exist yet.

    Recoverable: the pipeline quarantines the event and retries it
    after later batches may have delivered the parent row.
    """

    def __init__(self, table: str, column: str, key: Any) -> None:
        super().__init__(
            f"table {table!r}: column {column!r} references unknown key {key!r}"
        )
        self.table = table
        self.column = column
        self.key = key


@dataclass
class RowEvent:
    """One new row destined for ``table``.

    ``values`` maps column name → python value (``None`` for null).
    ``timestamp`` is filled in by :func:`validate_event` from the
    schema's time column (``None`` for static tables).
    """

    table: str
    values: Dict[str, Any] = field(default_factory=dict)
    timestamp: Optional[int] = None

    def to_dict(self) -> dict:
        """JSON-serializable representation (segment file line)."""
        return {"table": self.table, "values": self.values}

    @classmethod
    def from_dict(cls, data: dict) -> "RowEvent":
        """Inverse of :meth:`to_dict` (timestamp re-derived on validation)."""
        return cls(table=data["table"], values=dict(data["values"]))


def _coerce(value: Any, dtype: DType) -> Any:
    if value is None:
        return None
    if dtype == DType.STRING:
        return str(value)
    if dtype == DType.BOOL:
        if isinstance(value, str):
            return value.strip().lower() in ("1", "true", "t", "yes")
        return bool(value)
    if dtype == DType.FLOAT64:
        return float(value)
    return exact_int(value)  # INT64 / TIMESTAMP


def validate_event(event: RowEvent, schema: TableSchema) -> RowEvent:
    """Validate and normalize one event against ``schema``.

    Returns the event with coerced values (every schema column
    present, nulls explicit) and ``timestamp`` populated.  Raises
    :class:`EventValidationError` on unknown columns, uncoercible
    values, a null primary key, or a null/missing time column on a
    temporal table.
    """
    if event.table != schema.name:
        raise EventValidationError(schema.name, f"event routed to wrong table {event.table!r}")
    known = set(schema.column_names)
    unknown = set(event.values) - known
    if unknown:
        raise EventValidationError(schema.name, f"unknown columns {sorted(unknown)}")
    coerced: Dict[str, Any] = {}
    for name in schema.column_names:
        dtype = schema.dtype_of(name)
        raw = event.values.get(name)
        try:
            coerced[name] = _coerce(raw, dtype)
        except (TypeError, ValueError, OverflowError) as err:
            raise EventValidationError(
                schema.name, f"column {name!r}: cannot coerce {raw!r} to {dtype.value}: {err}"
            ) from err
    pk = schema.primary_key
    if pk is not None and coerced[pk] is None:
        raise EventValidationError(schema.name, f"null primary key {pk!r}")
    timestamp: Optional[int] = None
    if schema.time_column is not None:
        timestamp = coerced[schema.time_column]
        if timestamp is None:
            raise EventValidationError(
                schema.name, f"null time column {schema.time_column!r} on a temporal table"
            )
    event.values = coerced
    event.timestamp = timestamp
    return event

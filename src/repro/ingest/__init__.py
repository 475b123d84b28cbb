"""Streaming ingest: append-only events → incremental graph deltas.

The paper's premise is that the database *is* the graph; this package
keeps that true while rows keep arriving.  Events flow through a
pluggable source layer (:mod:`repro.ingest.sources`), are validated
and time-ordered into crash-safe, time-partitioned segments
(:mod:`repro.ingest.segments`), and are applied as incremental CSR
deltas to the live :class:`~repro.graph.hetero.HeteroGraph`
(:mod:`repro.ingest.delta`) — bit-identical to a cold rebuild at the
same watermark.  Every memo reconciles itself against the graph's
change journal and drops only what a delta touched;
:func:`~repro.ingest.refresh.refresh_model` optionally does that now,
inside the caller's barrier.
"""

from repro.ingest.delta import DeltaGraphBuilder, DeltaReport
from repro.ingest.events import (
    EventValidationError,
    IngestError,
    RowEvent,
    UnresolvedReferenceError,
)
from repro.ingest.pipeline import IngestPipeline, IngestReport
from repro.ingest.refresh import refresh_model
from repro.ingest.segments import SegmentLog
from repro.ingest.sources import CSVDropSource, InProcessSource

__all__ = [
    "RowEvent",
    "IngestError",
    "EventValidationError",
    "UnresolvedReferenceError",
    "SegmentLog",
    "InProcessSource",
    "CSVDropSource",
    "DeltaGraphBuilder",
    "DeltaReport",
    "IngestPipeline",
    "IngestReport",
    "refresh_model",
]

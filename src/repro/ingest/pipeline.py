"""The ingest pipeline: sources → validate/order → commit → delta.

:class:`IngestPipeline` owns the full path for one segment log:

1. events (from any source's ``poll()`` or passed directly) are
   validated against the schema;
2. time ordering is enforced per the ``out_of_order`` policy —
   ``"reject"`` quarantines events older than the committed
   watermark, ``"reorder"`` sorts the batch by timestamp first (and
   still rejects events older than what is already sealed);
3. duplicate primary keys are rejected; events referencing a
   foreign-key target that does not exist yet are quarantined and
   retried on every subsequent batch (late resolution);
4. surviving events are committed to the segment log (crash-safe)
   and *then* applied to the live database + graph, so a crash
   between commit and apply is healed by replay on reopen.

The returned :class:`IngestReport` carries the applied
:class:`~repro.ingest.delta.DeltaReport` plus per-disposition counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ingest.delta import DeltaGraphBuilder, DeltaReport
from repro.ingest.events import EventValidationError, RowEvent, validate_event
from repro.ingest.segments import SegmentLog
from repro.obs import get_logger, get_registry

__all__ = ["IngestPipeline", "IngestReport"]

_log = get_logger("ingest.pipeline")

_POLICIES = ("reject", "reorder")


@dataclass
class IngestReport:
    """Outcome of one :meth:`IngestPipeline.process` call."""

    delta: Optional[DeltaReport] = None
    applied: int = 0
    rejected: List[Tuple[RowEvent, str]] = field(default_factory=list)
    quarantined: int = 0
    resolved_late: int = 0
    segment: Optional[str] = None

    def summary(self) -> Dict[str, object]:
        """JSON-friendly digest for logs and the CLI."""
        out = {
            "applied": self.applied,
            "rejected": len(self.rejected),
            "quarantined": self.quarantined,
            "resolved_late": self.resolved_late,
            "segment": self.segment,
        }
        if self.delta is not None:
            out["delta"] = self.delta.summary()
        return out


class IngestPipeline:
    """Validated, ordered, crash-safe ingest into a live graph."""

    def __init__(
        self,
        log: SegmentLog,
        builder: Optional[DeltaGraphBuilder] = None,
        stats_cutoff: Optional[int] = None,
        out_of_order: str = "reject",
    ) -> None:
        if out_of_order not in _POLICIES:
            raise ValueError(f"out_of_order must be one of {_POLICIES}, got {out_of_order!r}")
        self.log = log
        self.out_of_order = out_of_order
        if builder is None:
            builder = DeltaGraphBuilder(log.replay(), stats_cutoff=stats_cutoff)
        self.builder = builder
        self._schemas = {table.name: table.schema for table in builder.db}
        #: Events awaiting a foreign-key parent (late resolution).
        self.pending: List[RowEvent] = []

    # -- convenience ----------------------------------------------------
    @property
    def db(self):
        """The live database (mutated in place as deltas apply)."""
        return self.builder.db

    @property
    def graph(self):
        """The live graph (mutated in place as deltas apply)."""
        return self.builder.graph

    @property
    def watermark(self) -> Optional[int]:
        """Largest applied event timestamp."""
        return self.builder.watermark

    # -- the pipeline ---------------------------------------------------
    def _validate(
        self, events: List[RowEvent], report: IngestReport
    ) -> List[RowEvent]:
        valid: List[RowEvent] = []
        for event in events:
            schema = self._schemas.get(event.table)
            if schema is None:
                report.rejected.append((event, f"unknown table {event.table!r}"))
                continue
            try:
                valid.append(validate_event(event, schema))
            except EventValidationError as err:
                report.rejected.append((event, err.detail))
        return valid

    def _order(self, events: List[RowEvent], report: IngestReport) -> List[RowEvent]:
        watermark = self.builder.watermark
        if self.out_of_order == "reorder":
            events = sorted(
                events,
                key=lambda e: (e.timestamp is not None, e.timestamp or 0),
            )
        kept: List[RowEvent] = []
        for event in events:
            if (
                event.timestamp is not None
                and watermark is not None
                and event.timestamp < watermark
            ):
                report.rejected.append(
                    (event, f"timestamp {event.timestamp} behind watermark {watermark}")
                )
                continue
            kept.append(event)
        return kept

    def process(self, events: List[RowEvent]) -> IngestReport:
        """Run one batch (plus any quarantined stragglers) end-to-end."""
        report = IngestReport()
        retry = self.pending
        self.pending = []
        fresh = self._order(self._validate(events, report), report)
        # Quarantined events already passed validation and ordering in
        # their own batch; they re-enter before the fresh batch so a
        # parent arriving now unblocks them in apply order.
        batch = retry + fresh
        if not batch:
            self._count(report)
            return report
        appliable, duplicates, unresolved = self.builder.screen(batch)
        report.rejected.extend(duplicates)
        admitted = {id(event) for event in appliable}
        report.resolved_late = sum(1 for event in retry if id(event) in admitted)
        self.pending = unresolved
        report.quarantined = len(unresolved)
        if appliable:
            report.segment = self.log.append(appliable)
            # ``apply`` trusts the screen just made: one screen a batch.
            report.delta = self.builder.apply(appliable)
            report.applied = len(appliable)
        self._count(report)
        return report

    def _count(self, report: IngestReport) -> None:
        registry = get_registry()
        if report.rejected:
            registry.counter("ingest.events_rejected").inc(len(report.rejected))
            for event, reason in report.rejected:
                _log.warning(
                    "rejected ingest event", extra={"table": event.table, "reason": reason}
                )
        if report.quarantined:
            registry.counter("ingest.events_quarantined").inc(report.quarantined)
        if report.resolved_late:
            registry.counter("ingest.events_resolved_late").inc(report.resolved_late)

    def compact(self) -> str:
        """Compact the underlying segment log (see :meth:`SegmentLog.compact`)."""
        return self.log.compact()

"""Incremental graph maintenance: validated events → CSR deltas.

:class:`DeltaGraphBuilder` keeps a live
:class:`~repro.graph.hetero.HeteroGraph` equal — bit-for-bit — to
what :func:`~repro.graph.builder.build_graph` would produce from the
grown database.  The identity rests on three append-only facts:

* node indices are row positions, and rows only append;
* the cold CSR sort (stable lexsort by ``(dst, time)``) is reproduced
  by ``_EdgeStore.merged``, which places each delta edge after the
  base edges of its destination with time ``<=`` its own;
* feature statistics are fitted at ``stats_cutoff``, and the fast
  path only accepts rows strictly after it, so frozen statistics
  encode new rows to the same bytes a full re-encode would.

``apply`` mutates the database *in place* (tables are replaced inside
the same :class:`~repro.relational.database.Database` object) so
models, planners, and tiers holding a reference observe the growth
without re-plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.builder import build_graph
from repro.graph.encoders import FeatureGrower
from repro.graph.hetero import TIME_MIN, EdgeType, HeteroGraph
from repro.ingest.events import (
    EventValidationError,
    RowEvent,
    UnresolvedReferenceError,
)
from repro.obs import get_registry
from repro.relational.column import Column
from repro.relational.database import Database
from repro.relational.table import Table

__all__ = ["DeltaGraphBuilder", "DeltaReport"]


@dataclass
class DeltaReport:
    """What one applied delta changed — for logs and the CLI (memos
    read the graph's own journal, which this digests).

    ``touched`` maps node type → node indices whose rows or incident
    edges changed (new nodes and the existing foreign-key parents they
    attached to).  ``touched_fraction`` is the worst-case fraction of
    *pre-delta* nodes touched in any one type — the delta's
    selectivity.  The earliest timestamp it introduced is the
    journal's ``min_time`` (:meth:`HeteroGraph.changes_since`).
    """

    touched: Dict[str, np.ndarray] = field(default_factory=dict)
    watermark: Optional[int] = None
    num_events: int = 0
    new_nodes: Dict[str, int] = field(default_factory=dict)
    new_edges: int = 0
    touched_fraction: float = 0.0

    def summary(self) -> Dict[str, object]:
        """JSON-friendly digest for logs and the CLI."""
        return {
            "events": self.num_events,
            "new_nodes": dict(self.new_nodes),
            "new_edges": self.new_edges,
            "touched": {t: int(len(ids)) for t, ids in self.touched.items()},
            "touched_fraction": round(self.touched_fraction, 6),
            "watermark": self.watermark,
        }


class DeltaGraphBuilder:
    """Applies validated event batches to a live database + graph pair."""

    def __init__(
        self,
        db: Database,
        graph: Optional[HeteroGraph] = None,
        stats_cutoff: Optional[int] = None,
    ) -> None:
        self.db = db
        self.stats_cutoff = stats_cutoff
        self.graph = graph if graph is not None else build_graph(db, stats_cutoff=stats_cutoff)
        self._grower = FeatureGrower(stats_cutoff)
        span = db.time_span()
        self.watermark: Optional[int] = int(span[1]) if span is not None else None
        #: (graph version, appliable events) of the last :meth:`screen`.
        self._screened: Tuple[int, Tuple[RowEvent, ...]] = (-1, ())

    # -- screening ------------------------------------------------------
    def screen(
        self, events: List[RowEvent]
    ) -> Tuple[List[RowEvent], List[Tuple[RowEvent, str]], List[RowEvent]]:
        """Partition a batch into (appliable, duplicates, unresolved).

        Duplicate primary keys (against the live database or earlier
        events in the batch) are permanent rejects.  Events whose
        foreign keys reference a row that neither exists nor arrives
        in this batch are *unresolved* — quarantine candidates the
        pipeline retries once their parents land.  Resolution iterates
        to a fixed point so a child is not admitted on the strength of
        a parent that was itself quarantined.
        """
        key_index = self.graph.key_index
        appliable: List[RowEvent] = []
        duplicates: List[Tuple[RowEvent, str]] = []
        #: table -> primary keys arriving with the batch's admitted events.
        arriving: Dict[str, set] = {}
        for event in events:
            pk = self.db[event.table].schema.primary_key
            if pk is not None:
                key = event.values[pk]
                batch_keys = arriving.setdefault(event.table, set())
                if key in key_index(event.table) or key in batch_keys:
                    duplicates.append((event, f"duplicate primary key {key!r}"))
                    continue
                batch_keys.add(key)
            appliable.append(event)

        def resolved(event: RowEvent) -> bool:
            for fk in self.db[event.table].schema.foreign_keys:
                key = event.values[fk.column]
                if (
                    key is not None
                    and key not in key_index(fk.ref_table)
                    and key not in arriving.get(fk.ref_table, ())
                ):
                    return False
            return True

        unresolved: List[RowEvent] = []
        while True:
            # A round's verdicts all read the same arriving keys; only
            # then do the quarantined events' own keys stop arriving.
            verdicts = [resolved(event) for event in appliable]
            if all(verdicts):
                break
            dropped = [event for event, ok in zip(appliable, verdicts) if not ok]
            appliable = [event for event, ok in zip(appliable, verdicts) if ok]
            for event in dropped:
                pk = self.db[event.table].schema.primary_key
                if pk is not None:
                    arriving[event.table].discard(event.values[pk])
            unresolved.extend(dropped)
        self._screened = (self.graph.version, tuple(appliable))
        return appliable, duplicates, unresolved

    # -- application ----------------------------------------------------
    def apply(self, events: List[RowEvent]) -> DeltaReport:
        """Append ``events`` to the database and graph, incrementally.

        Events must be validated.  They are screened here (strict: a
        duplicate key raises :class:`EventValidationError`, an
        unresolved reference raises :class:`UnresolvedReferenceError`)
        unless they are the appliable events :meth:`screen` last returned
        and the graph has not changed since (so the pipeline screens a
        batch once).  Returns the :class:`DeltaReport` of what changed.
        """
        if self._screened != (self.graph.version, tuple(events)):
            _, duplicates, unresolved = self.screen(events)
            if duplicates:
                event, reason = duplicates[0]
                raise EventValidationError(event.table, reason)
            if unresolved:
                event = unresolved[0]
                schema = self.db[event.table].schema
                for fk in schema.foreign_keys:
                    key = event.values[fk.column]
                    if key is not None and key not in self.graph.key_index(fk.ref_table):
                        raise UnresolvedReferenceError(event.table, fk.column, key)
                raise UnresolvedReferenceError(event.table, "?", None)

        grouped: Dict[str, List[RowEvent]] = {}
        for event in events:
            grouped.setdefault(event.table, []).append(event)

        report = DeltaReport(watermark=self.watermark, num_events=len(events))
        version = self.graph.version
        old_counts = {name: self.graph.num_nodes(name) for name in self.graph.node_types}

        # Pass 1 — grow tables and node types (mirrors build_graph's
        # first loop: nodes before any edge, so same-batch foreign keys
        # resolve regardless of table order).
        grown: Dict[str, Table] = {}
        for table in self.db:
            batch = grouped.get(table.name)
            if not batch:
                continue
            schema = table.schema
            data = {
                name: [event.values.get(name) for event in batch]
                for name in schema.column_names
            }
            delta = Table(
                schema,
                {
                    name: Column(data[name], schema.dtype_of(name))
                    for name in schema.column_names
                },
            )
            new_table = table.append(delta)
            self.db.add_table(new_table, replace=True)
            grown[table.name] = new_table

            start = old_counts[table.name]
            if schema.time_column is not None:
                raw = new_table[schema.time_column]
                new_times = np.where(
                    raw.null_mask(), TIME_MIN, raw.values.astype(np.int64)
                )[start:]
                stamped = new_times[new_times != TIME_MIN]
                if len(stamped):
                    high = int(stamped.max())
                    self.watermark = high if self.watermark is None else max(self.watermark, high)
            else:
                new_times = np.full(len(batch), TIME_MIN, dtype=np.int64)
            pk = schema.primary_key
            self.graph.grow_node_type(
                table.name, new_times,
                keys=new_table[pk].values[start:] if pk is not None else None,
            )
            report.new_nodes[table.name] = len(batch)
            if table.name in self.graph.features:
                self.graph.features[table.name] = self._grower.grow(
                    new_table, self.graph.features[table.name]
                )

        # Pass 2 — append edges (mirrors build_graph's second loop).
        for table_name, new_table in grown.items():
            schema = new_table.schema
            start = old_counts[table_name]
            if schema.time_column is not None:
                raw = new_table[schema.time_column]
                child_times = np.where(
                    raw.null_mask(), TIME_MIN, raw.values.astype(np.int64)
                )
            else:
                child_times = None
            for fk in schema.foreign_keys:
                column = new_table[fk.column]
                valid = ~column.null_mask()
                valid[:start] = False
                child_rows = np.flatnonzero(valid)
                if not len(child_rows):
                    continue
                mapping = self.graph.key_index(fk.ref_table)
                parent_rows = np.fromiter(
                    (mapping[key] for key in column.values[child_rows].tolist()),
                    dtype=np.int64,
                    count=len(child_rows),
                )
                edge_times = (
                    child_times[child_rows]
                    if child_times is not None
                    else np.full(len(child_rows), TIME_MIN, dtype=np.int64)
                )
                forward = EdgeType(table_name, fk.column, fk.ref_table)
                self.graph.append_edges(forward, child_rows, parent_rows, times=edge_times)
                self.graph.append_edges(
                    forward.reverse(), parent_rows, child_rows, times=edge_times
                )
                report.new_edges += 2 * len(child_rows)

        # What changed is the graph's to say: its journal saw every append.
        change = self.graph.changes_since(version)
        report.touched = change.touched
        report.watermark = self.watermark
        fractions = [
            len(ids[ids < old_counts.get(name, 0)]) / old_counts[name]
            for name, ids in report.touched.items()
            if old_counts.get(name, 0) > 0
        ]
        report.touched_fraction = float(max(fractions)) if fractions else 0.0
        registry = get_registry()
        registry.counter("ingest.events_applied").inc(len(events))
        registry.counter("ingest.edges_appended").inc(report.new_edges)
        return report

"""Differential tests: streamed graph == cold rebuild, everywhere.

The ingest subsystem's central claim is bit-identity: a graph grown
incrementally from an event stream is indistinguishable from one built
cold at the same watermark.  These tests check the claim three ways —

* **store equivalence** — snapshot-build at watermark T, incremental
  apply, and the compacted log all produce graphs that agree on node
  counts/times, CSR arrays, feature bytes, node keys, and fingerprint;
* **sampler bit-identity** — the same seed batch drawn on each store
  yields byte-identical subgraphs;
* **per-batch convergence** — equivalence holds at *every* micro-batch
  boundary, not just the final watermark.

The quick shop-scale checks run in tier 1; the ecommerce-scale sweep
is marked slow and runs in the perf-smoke CI job next to the other
differential suites.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_ecommerce
from repro.graph import NeighborSampler, build_graph, graph_fingerprint
from repro.ingest import IngestPipeline, RowEvent, SegmentLog
from repro.ingest.segments import apply_events_to_database
from repro.relational.database import Database
from tests.conftest import assert_graphs_equivalent, assert_subgraphs_identical, shop_db

#: Tables whose tail becomes the event stream (parents stay in base).
STREAM_TABLES = ("orders", "reviews")
FANOUTS = [3, 3]


def carve(db: Database, num_events: int):
    """Snapshot/stream split: last ``num_events`` rows by timestamp."""
    stamped = []
    for name in STREAM_TABLES:
        if name not in db.table_names:
            continue
        times = db[name][db[name].schema.time_column].values.astype(np.int64)
        stamped.extend((int(t), name, i) for i, t in enumerate(times))
    stamped.sort(key=lambda item: item[0])
    tail = stamped[-num_events:]
    tail_rows = {name: set() for name in STREAM_TABLES}
    for _, name, row in tail:
        tail_rows[name].add(row)

    base = Database(name=db.name)
    for table in db:
        if table.name in tail_rows and tail_rows[table.name]:
            keep = np.array(
                [i not in tail_rows[table.name] for i in range(len(table))]
            )
            base.add_table(table.filter(keep))
        else:
            base.add_table(table)
    events = [RowEvent(name, db[name].row(row)) for _, name, row in tail]
    return base, events


def stream_through_pipeline(tmp_path, base, events, stats_cutoff, batch_rows=50):
    log = SegmentLog.create(str(tmp_path / "log"), base)
    pipeline = IngestPipeline(log, stats_cutoff=stats_cutoff)
    for offset in range(0, len(events), batch_rows):
        report = pipeline.process(events[offset : offset + batch_rows])
        assert not report.rejected and report.quarantined == 0
    return pipeline


def seed_batch(graph, num=8):
    """A deterministic all-customers-visible probe batch at the frontier."""
    n = graph.num_nodes("customers")
    ids = np.arange(min(num, n), dtype=np.int64)
    times = np.full(len(ids), 10**10, dtype=np.int64)
    return ids, times


class TestShopScale:
    """Quick tier-1 differential: every store agrees at the watermark."""

    def _stores(self, tmp_path):
        from repro.ingest.events import validate_event

        db = shop_db()
        base, events = carve(db, 2)
        pipeline = stream_through_pipeline(tmp_path, base, events, stats_cutoff=300)

        snapshot = build_graph(
            apply_events_to_database(
                base, [validate_event(e, db[e.table].schema) for e in events]
            ),
            stats_cutoff=300,
        )
        pipeline.compact()
        compacted = build_graph(
            SegmentLog.open(str(tmp_path / "log")).replay(), stats_cutoff=300
        )
        return snapshot, pipeline.graph, compacted

    def test_snapshot_incremental_compacted_agree(self, tmp_path):
        snapshot, incremental, compacted = self._stores(tmp_path)
        assert_graphs_equivalent(snapshot, incremental)
        assert_graphs_equivalent(snapshot, compacted)

    def test_samples_bit_identical_across_stores(self, tmp_path):
        snapshot, incremental, compacted = self._stores(tmp_path)
        ids, times = seed_batch(snapshot, num=2)
        for fanouts, seed in ((FANOUTS, 0), ([1, 1], 7)):  # the second truncates
            draws = [
                NeighborSampler(g, fanouts=fanouts, seed=seed).sample("customers", ids, times)
                for g in (snapshot, incremental, compacted)
            ]
            assert_subgraphs_identical(draws[0], draws[1])
            assert_subgraphs_identical(draws[0], draws[2])

    def test_equivalence_at_every_batch_boundary(self, tmp_path):
        db = shop_db()
        base, events = carve(db, 3)
        from repro.ingest.events import validate_event

        log = SegmentLog.create(str(tmp_path / "log"), base)
        pipeline = IngestPipeline(log, stats_cutoff=300)
        running = base
        for event in events:
            pipeline.process([RowEvent(event.table, dict(event.values))])
            running = apply_events_to_database(
                running,
                [validate_event(RowEvent(event.table, dict(event.values)),
                                db[event.table].schema)],
            )
            assert_graphs_equivalent(
                pipeline.graph, build_graph(running, stats_cutoff=300)
            )


@pytest.mark.slow
class TestEcommerceScale:
    """Full-size differential sweep."""

    NUM_EVENTS = 240
    STATS_CUTOFF = None  # filled from the carve

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        db = make_ecommerce(num_customers=60, num_products=20, seed=3)
        base, events = carve(db, self.NUM_EVENTS)
        stats_cutoff = int(
            min(e.values[db[e.table].schema.time_column] for e in events) - 1
        )
        tmp_path = tmp_path_factory.mktemp("ingest-diff")
        pipeline = stream_through_pipeline(tmp_path, base, events, stats_cutoff)

        from repro.ingest.events import validate_event

        target = apply_events_to_database(
            base,
            [validate_event(RowEvent(e.table, dict(e.values)), db[e.table].schema)
             for e in events],
        )
        snapshot = build_graph(target, stats_cutoff=stats_cutoff)
        pipeline.compact()
        compacted = build_graph(
            SegmentLog.open(str(tmp_path / "log")).replay(),
            stats_cutoff=stats_cutoff,
        )
        return snapshot, pipeline.graph, compacted

    def test_stores_agree(self, stores):
        snapshot, incremental, compacted = stores
        assert_graphs_equivalent(snapshot, incremental)
        assert_graphs_equivalent(snapshot, compacted)
        assert graph_fingerprint(snapshot) == graph_fingerprint(incremental)

    def test_samples_bit_identical_across_stores(self, stores):
        snapshot, incremental, compacted = stores
        ids, times = seed_batch(snapshot, num=12)
        for batch in (np.arange(0, 6), np.arange(6, 12), np.arange(0, 12)):
            draws = [
                NeighborSampler(g, fanouts=FANOUTS, seed=0)
                .sample("customers", ids[batch], times[batch])
                for g in (snapshot, incremental, compacted)
            ]
            assert_subgraphs_identical(draws[0], draws[1])
            assert_subgraphs_identical(draws[0], draws[2])

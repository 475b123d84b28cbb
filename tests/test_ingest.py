"""Streaming ingest: validation, ordering, durability, incremental deltas.

Covers the `repro.ingest` subsystem end to end:

* event validation and coercion (:func:`validate_event`);
* sources — the in-process buffer and the CSV drop-directory watcher
  (header checks, prefix routing, ``.ingested`` renames, malformed-row
  quarantine);
* the segment log's crash-safety contract: every mutation is a
  write-then-atomic-manifest-commit, so a kill landed at the
  ``ingest.segment.commit`` / ``ingest.compact.commit`` seams (both
  in-process :class:`SimulatedCrash` and a real ``SIGKILL`` against
  the CLI) leaves a log that reopens to exactly the last committed
  state with no partial segments;
* pipeline semantics: out-of-order reject vs reorder, duplicate
  primary keys, unseen-FK quarantine with late resolution (exempt
  from the watermark check) and fixpoint screening through FK chains,
  empty-segment compaction;
* the incremental layers underneath: ``_EdgeStore.merged`` vs the
  cold stable lexsort, :class:`FeatureGrower` fast path vs full
  re-encode, and the graph's change journal;
* the one staleness rule: every holder of graph-derived state follows
  a delta nobody told it about (no ``refresh_model``), including one
  older than the graph's change journal.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.graph import NeighborSampler, build_graph
from repro.graph.builder import node_index_for_keys
from repro.graph.cache import graph_fingerprint
from repro.graph.encoders import FeatureGrower, encode_table_features
from repro.graph.hetero import TIME_MIN, EdgeType, HeteroGraph, _EdgeStore
from repro.ingest import (
    CSVDropSource,
    DeltaGraphBuilder,
    EventValidationError,
    IngestPipeline,
    InProcessSource,
    RowEvent,
    SegmentLog,
    UnresolvedReferenceError,
    refresh_model,
)
from repro.ingest.events import validate_event
from repro.ingest.segments import apply_events_to_database
from repro.relational.csvio import MalformedRowError, save_database
from repro.relational.database import Database
from repro.relational.schema import ColumnSpec, ForeignKey, TableSchema
from repro.relational.table import Table
from repro.relational.types import DType
from repro.resilience import SimulatedCrash, injected
from tests.conftest import assert_subgraphs_identical, shop_db

from hypothesis import example, given, settings, strategies as st


def order_event(oid, customer=10, product=1, amount=1.0, ts=600):
    return RowEvent("orders", {
        "id": oid, "customer_id": customer, "product_id": product,
        "amount": amount, "ts": ts,
    })


def customer_event(cid, region="eu", age=40.0):
    return RowEvent("customers", {"id": cid, "region": region, "age": age})


@pytest.fixture
def pipeline(tmp_path):
    log = SegmentLog.create(str(tmp_path / "log"), shop_db())
    return IngestPipeline(log, stats_cutoff=400)


# ----------------------------------------------------------------------
# Event validation
# ----------------------------------------------------------------------
class TestValidateEvent:
    def test_coerces_and_stamps(self):
        schema = shop_db()["orders"].schema
        event = validate_event(order_event("205", ts="700", amount="2.5"), schema)
        assert event.values["id"] == 205
        assert event.values["amount"] == 2.5
        assert event.timestamp == 700

    def test_missing_feature_columns_become_null(self):
        schema = shop_db()["customers"].schema
        event = validate_event(RowEvent("customers", {"id": 30}), schema)
        assert event.values["region"] is None
        assert event.values["age"] is None
        assert event.timestamp is None  # static table

    def test_rejects_unknown_column(self):
        schema = shop_db()["customers"].schema
        with pytest.raises(EventValidationError, match="unknown columns"):
            validate_event(RowEvent("customers", {"id": 30, "nope": 1}), schema)

    def test_rejects_null_primary_key(self):
        schema = shop_db()["customers"].schema
        with pytest.raises(EventValidationError, match="null primary key"):
            validate_event(RowEvent("customers", {"region": "eu"}), schema)

    def test_rejects_null_time_on_temporal_table(self):
        schema = shop_db()["orders"].schema
        with pytest.raises(EventValidationError, match="null time column"):
            validate_event(
                RowEvent("orders", {"id": 205, "customer_id": 10, "product_id": 1}),
                schema,
            )

    def test_rejects_uncoercible_value(self):
        schema = shop_db()["orders"].schema
        with pytest.raises(EventValidationError, match="cannot coerce"):
            validate_event(order_event("not-a-number"), schema)

    @pytest.mark.parametrize("raw, expected", [
        (9007199254740993, 9007199254740993),     # 2**53 + 1: no float detour
        ("9007199254740993", 9007199254740993),
        (np.int64(2 ** 62 + 1), 2 ** 62 + 1),
        (3.0, 3),
        ("3.0", 3),
        (3.7, None),                              # non-integral: rejected
        ("3.7", None),
        (float("inf"), None),
    ])
    def test_integer_values_coerce_exactly(self, raw, expected):
        schema = shop_db()["orders"].schema
        if expected is None:
            with pytest.raises(EventValidationError, match="column 'ts'"):
                validate_event(order_event(205, ts=raw), schema)
        else:
            event = validate_event(order_event(205, ts=raw), schema)
            assert event.timestamp == event.values["ts"] == expected
            assert type(event.timestamp) is int

    def test_rejects_wrong_table(self):
        with pytest.raises(EventValidationError, match="wrong table"):
            validate_event(RowEvent("orders", {}), shop_db()["customers"].schema)

    def test_round_trips_through_json(self):
        event = validate_event(order_event(205, ts=700), shop_db()["orders"].schema)
        back = RowEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert back.values == event.values


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class TestSources:
    def test_in_process_source_drains(self):
        source = InProcessSource()
        source.emit("orders", id=205, customer_id=10, product_id=1, amount=1.0, ts=600)
        source.emit_event(order_event(206, ts=610))
        assert len(source) == 2
        polled = source.poll()
        assert [e.values["id"] for e in polled] == [205, 206]
        assert source.poll() == []

    def test_csv_drop_source_reads_and_renames(self, tmp_path):
        schemas = {t.name: t.schema for t in shop_db()}
        drop = tmp_path / "drop"
        source = CSVDropSource(str(drop), schemas)
        (drop / "orders-001.csv").write_text(
            "id,customer_id,product_id,amount,ts\n205,10,1,2.5,600\n206,20,2,1.0,610\n"
        )
        events = source.poll()
        assert [e.values["id"] for e in events] == [205, 206]
        assert not source.pending_files()
        assert (drop / "orders-001.csv.ingested").exists()
        assert source.poll() == []  # processed files never re-read

    def test_exact_stem_and_prefix_routing(self, tmp_path):
        schemas = {t.name: t.schema for t in shop_db()}
        source = CSVDropSource(str(tmp_path), schemas)
        assert source._table_for("orders.csv") == "orders"
        assert source._table_for("orders-2024.csv") == "orders"
        with pytest.raises(KeyError):
            source._table_for("unknown.csv")

    def test_header_mismatch_fails_loudly(self, tmp_path):
        schemas = {t.name: t.schema for t in shop_db()}
        source = CSVDropSource(str(tmp_path), schemas)
        (tmp_path / "orders.csv").write_text("id,ts\n1,2\n")
        with pytest.raises(MalformedRowError, match="does not match schema"):
            source.poll()

    def test_malformed_rows_quarantined_not_fatal(self, tmp_path):
        schemas = {t.name: t.schema for t in shop_db()}
        source = CSVDropSource(str(tmp_path), schemas)
        (tmp_path / "orders.csv").write_text(
            "id,customer_id,product_id,amount,ts\n"
            "205,10,1,2.5,600\n"
            "206,10,1\n"  # short row: quarantined
            "207,20,2,1.0,610\n"
        )
        events = source.poll()
        assert [e.values["id"] for e in events] == [205, 207]


# ----------------------------------------------------------------------
# Segment log durability
# ----------------------------------------------------------------------
class TestSegmentLog:
    def test_create_then_reopen_round_trips(self, tmp_path):
        db = shop_db()
        log = SegmentLog.create(str(tmp_path / "log"), db)
        events = [validate_event(order_event(205, ts=600), db["orders"].schema)]
        name = log.append(events)
        assert name in log.segments and log.watermark == 600

        reopened = SegmentLog.open(str(tmp_path / "log"))
        assert reopened.segments == log.segments
        assert reopened.watermark == 600
        replayed = reopened.replay()
        assert len(replayed["orders"]) == 6

    def test_create_refuses_existing_log(self, tmp_path):
        SegmentLog.create(str(tmp_path / "log"), shop_db())
        with pytest.raises(FileExistsError):
            SegmentLog.create(str(tmp_path / "log"), shop_db())

    def test_empty_batch_rejected(self, tmp_path):
        log = SegmentLog.create(str(tmp_path / "log"), shop_db())
        with pytest.raises(ValueError, match="empty event batch"):
            log.append([])

    def test_segment_names_partition_by_event_day(self, tmp_path):
        db = shop_db()
        log = SegmentLog.create(str(tmp_path / "log"), db)
        schema = db["orders"].schema
        day = 86400
        a = log.append([validate_event(order_event(205, ts=600), schema)])
        b = log.append([validate_event(order_event(206, ts=3 * day + 5), schema)])
        c = log.append([validate_event(customer_event(30), db["customers"].schema)])
        assert a.startswith("seg-00000000-")
        assert b.startswith("seg-00000003-")
        assert c.startswith("seg-static-")

    def test_uncommitted_segment_removed_on_reopen(self, tmp_path):
        root = tmp_path / "log"
        log = SegmentLog.create(str(root), shop_db())
        orphan = root / "segments" / "seg-00000000-000099.jsonl"
        orphan.write_text('{"table": "orders", "values": {}}\n')
        (root / "base-007.tmp").mkdir()
        reopened = SegmentLog.open(str(root))
        assert not orphan.exists()
        assert not (root / "base-007.tmp").exists()
        assert reopened.segments == []

    def test_crash_at_segment_commit_heals(self, tmp_path):
        root = str(tmp_path / "log")
        db = shop_db()
        log = SegmentLog.create(root, db)
        before = graph_fingerprint(build_graph(log.replay(), stats_cutoff=400))
        events = [validate_event(order_event(205, ts=600), db["orders"].schema)]
        with injected("ingest.segment.commit@1:kill"):
            with pytest.raises(SimulatedCrash):
                log.append(events)
        # The segment file landed but the manifest never committed:
        # recovery deletes the orphan and the log replays to the prior
        # state, bit for bit.
        reopened = SegmentLog.open(root)
        assert reopened.segments == []
        assert not list((tmp_path / "log" / "segments").iterdir())
        after = graph_fingerprint(build_graph(reopened.replay(), stats_cutoff=400))
        assert after == before
        # The append is re-runnable on the reopened log.
        assert reopened.append(events) in reopened.segments

    def test_crash_at_compact_commit_heals(self, tmp_path):
        root = str(tmp_path / "log")
        db = shop_db()
        log = SegmentLog.create(root, db)
        log.append([validate_event(order_event(205, ts=600), db["orders"].schema)])
        before = graph_fingerprint(build_graph(log.replay(), stats_cutoff=400))
        with injected("ingest.compact.commit@1:kill"):
            with pytest.raises(SimulatedCrash):
                log.compact()
        # The new base directory landed but was never committed:
        # recovery removes it, the old base + segments survive.
        reopened = SegmentLog.open(root)
        assert reopened.base_name == "base-000"
        assert not (tmp_path / "log" / "base-001").exists()
        assert len(reopened.segments) == 1
        assert graph_fingerprint(
            build_graph(reopened.replay(), stats_cutoff=400)
        ) == before
        # Compaction is re-runnable and converges to the same state.
        assert reopened.compact() == "base-001"
        assert graph_fingerprint(
            build_graph(reopened.replay(), stats_cutoff=400)
        ) == before

    def test_empty_log_compaction_rolls_base(self, tmp_path):
        log = SegmentLog.create(str(tmp_path / "log"), shop_db())
        before = graph_fingerprint(build_graph(log.replay(), stats_cutoff=400))
        assert log.compact() == "base-001"
        assert log.segments == []
        assert graph_fingerprint(
            build_graph(log.replay(), stats_cutoff=400)
        ) == before


# ----------------------------------------------------------------------
# Real SIGKILL against the CLI (the chaos-job scenario)
# ----------------------------------------------------------------------
class TestSigkillChaos:
    def _spawn(self, args, fault_site, tmp_path):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
            REPRO_FAULTS=f"{fault_site}@1:delay",
            REPRO_FAULTS_DELAY_MS="30000",
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "ingest", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, cwd=str(tmp_path),
        )

    def _kill_when(self, proc, marker_fn, what):
        deadline = time.monotonic() + 60.0
        try:
            while not marker_fn():
                assert proc.poll() is None, (
                    f"ingest exited early: {proc.stderr.read()}"
                )
                assert time.monotonic() < deadline, f"never saw {what}"
                time.sleep(0.01)
            proc.kill()
            proc.wait(30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == -signal.SIGKILL

    def _setup(self, tmp_path):
        save_database(shop_db(), str(tmp_path / "snapshot"))
        drop = tmp_path / "drop"
        drop.mkdir()
        (drop / "orders-001.csv").write_text(
            "id,customer_id,product_id,amount,ts\n205,10,1,2.5,600\n"
        )
        return str(tmp_path / "log"), str(drop)

    def test_sigkill_mid_segment_commit_reopens_clean(self, tmp_path):
        root, drop = self._setup(tmp_path)
        proc = self._spawn(
            ["--log-root", root, "--init-from", str(tmp_path / "snapshot"),
             "--drop-dir", drop, "--stats-cutoff", "400"],
            "ingest.segment.commit", tmp_path,
        )
        seg_dir = Path(root) / "segments"
        # The delay fault holds the window open after the segment file
        # is written but before the manifest commit.
        self._kill_when(
            proc, lambda: seg_dir.exists() and any(seg_dir.iterdir()),
            "a staged segment file",
        )
        reopened = SegmentLog.open(root)
        assert reopened.segments == []          # nothing committed
        assert not any(seg_dir.iterdir())       # no partial segments
        assert len(reopened.replay()["orders"]) == 5
        # The drop file was renamed before the crash (source-level
        # at-most-once); the event stream is re-deliverable from the
        # file the operator re-drops — the log itself is consistent.

    def test_sigkill_mid_compaction_reopens_clean(self, tmp_path):
        root, drop = self._setup(tmp_path)
        # First: a clean ingest committing one segment.
        done = subprocess.run(
            [sys.executable, "-m", "repro", "ingest", "--log-root", root,
             "--init-from", str(tmp_path / "snapshot"),
             "--drop-dir", drop, "--stats-cutoff", "400"],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(
                Path(__file__).resolve().parent.parent / "src")),
        )
        assert done.returncode == 0, done.stderr
        # Then: compaction killed after base-001 lands, before commit.
        proc = self._spawn(
            ["--log-root", root, "--compact"],
            "ingest.compact.commit", tmp_path,
        )
        self._kill_when(
            proc, lambda: (Path(root) / "base-001").exists(), "base-001"
        )
        reopened = SegmentLog.open(root)
        assert reopened.base_name == "base-000"
        assert not (Path(root) / "base-001").exists()
        assert len(reopened.segments) == 1
        assert len(reopened.replay()["orders"]) == 6
        # Re-running compaction converges.
        assert reopened.compact() == "base-001"
        assert len(reopened.replay()["orders"]) == 6


# ----------------------------------------------------------------------
# Pipeline semantics
# ----------------------------------------------------------------------
class TestPipelinePolicies:
    def test_reject_policy_drops_events_behind_watermark(self, pipeline):
        report = pipeline.process([order_event(205, ts=450)])  # watermark is 500
        assert report.applied == 0
        assert len(report.rejected) == 1
        assert "behind watermark" in report.rejected[0][1]

    def test_reorder_policy_sorts_batch_before_the_watermark_check(self, tmp_path):
        log = SegmentLog.create(str(tmp_path / "log"), shop_db())
        pipeline = IngestPipeline(log, stats_cutoff=400, out_of_order="reorder")
        report = pipeline.process([order_event(206, ts=700), order_event(205, ts=600)])
        assert report.applied == 2
        # Applied in time order: row order in the table follows ts.
        assert pipeline.db["orders"]["id"].values[-2:].tolist() == [205, 206]
        # Reorder still rejects what is already sealed behind the watermark.
        report = pipeline.process([order_event(207, ts=650)])
        assert report.applied == 0 and len(report.rejected) == 1

    def test_invalid_policy_rejected(self, tmp_path):
        log = SegmentLog.create(str(tmp_path / "log"), shop_db())
        with pytest.raises(ValueError, match="out_of_order"):
            IngestPipeline(log, out_of_order="ignore")

    def test_duplicate_primary_key_is_permanent_reject(self, pipeline):
        report = pipeline.process([order_event(100, ts=600)])  # id 100 exists
        assert report.applied == 0
        assert "duplicate primary key" in report.rejected[0][1]
        # Intra-batch duplicates: first wins, second rejected.
        report = pipeline.process([order_event(205, ts=610), order_event(205, ts=620)])
        assert report.applied == 1
        assert len(report.rejected) == 1

    def test_unseen_fk_quarantines_then_resolves_late(self, pipeline):
        report = pipeline.process([order_event(205, customer=99, ts=600)])
        assert report.applied == 0 and report.quarantined == 1
        assert len(pipeline.pending) == 1
        # Parent arrives in a later batch; the quarantined child applies
        # with it, exempt from the watermark check (identity rests on
        # row order, not time order).
        pipeline.process([order_event(206, ts=700)])  # watermark moves past 600
        report = pipeline.process([customer_event(99)])
        assert report.applied == 2
        assert report.resolved_late == 1
        assert pipeline.pending == []
        assert 99 in pipeline.db["customers"]["id"].values.tolist()

    def test_same_batch_parent_resolves_without_quarantine(self, pipeline):
        report = pipeline.process([
            order_event(205, customer=99, ts=600),  # child before parent
            customer_event(99),
        ])
        assert report.applied == 2 and report.quarantined == 0

    def test_fixpoint_quarantines_children_of_quarantined_parents(self, tmp_path):
        # A chain: shipments -> orders -> customers.  The order's
        # customer is missing, so the order quarantines — and the
        # shipment referencing that order must too, even though its
        # own parent is nominally "in the batch".
        db = Database("chain")
        db.add_table(Table.from_dict(
            TableSchema("customers", [ColumnSpec("id", DType.INT64)], primary_key="id"),
            {"id": [1]},
        ))
        db.add_table(Table.from_dict(
            TableSchema(
                "orders",
                [ColumnSpec("id", DType.INT64), ColumnSpec("customer_id", DType.INT64),
                 ColumnSpec("ts", DType.TIMESTAMP)],
                primary_key="id",
                foreign_keys=[ForeignKey("customer_id", "customers", "id")],
                time_column="ts",
            ),
            {"id": [10], "customer_id": [1], "ts": [100]},
        ))
        db.add_table(Table.from_dict(
            TableSchema(
                "shipments",
                [ColumnSpec("id", DType.INT64), ColumnSpec("order_id", DType.INT64),
                 ColumnSpec("ts", DType.TIMESTAMP)],
                primary_key="id",
                foreign_keys=[ForeignKey("order_id", "orders", "id")],
                time_column="ts",
            ),
            {"id": [100], "order_id": [10], "ts": [110]},
        ))
        db.validate()
        log = SegmentLog.create(str(tmp_path / "log"), db)
        pipeline = IngestPipeline(log)
        report = pipeline.process([
            RowEvent("orders", {"id": 11, "customer_id": 9, "ts": 200}),
            RowEvent("shipments", {"id": 101, "order_id": 11, "ts": 210}),
        ])
        assert report.applied == 0 and report.quarantined == 2
        # The missing customer unblocks the whole chain at once.
        report = pipeline.process([RowEvent("customers", {"id": 9})])
        assert report.applied == 3 and report.resolved_late == 2

    def test_unknown_table_rejected(self, pipeline):
        report = pipeline.process([RowEvent("nope", {"id": 1})])
        assert report.applied == 0
        assert "unknown table" in report.rejected[0][1]

    def test_commit_precedes_apply(self, pipeline):
        # The segment is durable even though apply also ran: replaying
        # the log alone reconstructs the applied database.
        pipeline.process([order_event(205, ts=600)])
        replayed = pipeline.log.replay()
        assert replayed["orders"]["id"].values.tolist() == \
            pipeline.db["orders"]["id"].values.tolist()

    def test_strict_apply_raises_on_bad_batches(self, pipeline):
        builder = pipeline.builder
        with pytest.raises(EventValidationError, match="duplicate"):
            builder.apply([validate_event(order_event(100, ts=600),
                                          pipeline.db["orders"].schema)])
        with pytest.raises(UnresolvedReferenceError):
            builder.apply([validate_event(order_event(205, customer=99, ts=600),
                                          pipeline.db["orders"].schema)])


    def test_pipeline_screens_each_batch_once(self, pipeline, monkeypatch):
        builder, calls = pipeline.builder, []
        screen = builder.screen
        monkeypatch.setattr(builder, "screen", lambda events: calls.append(1) or screen(events))
        report = pipeline.process([order_event(205, ts=600), order_event(206, ts=610)])
        assert report.applied == 2 and len(calls) == 1
        # Anything else handed to ``apply`` is still screened, strictly.
        with pytest.raises(EventValidationError, match="duplicate"):
            builder.apply([validate_event(order_event(205, ts=620),
                                          pipeline.db["orders"].schema)])

    def test_screening_never_walks_an_untouched_tables_keys(self, pipeline):
        class SpyIndex(dict):
            walks = 0

            def _walked(self, method):
                SpyIndex.walks += 1
                return method()

            def __iter__(self):
                return self._walked(super().__iter__)

            def keys(self):
                return self._walked(super().keys)

            def items(self):
                return self._walked(super().items)

        graph = pipeline.graph
        for name in ("customers", "products"):
            graph._key_index[name] = SpyIndex(graph.key_index(name))
        report = pipeline.process([
            order_event(205, customer=10, product=1, ts=600),
            order_event(206, customer=99, ts=610),   # quarantined: screening loops
            order_event(205, ts=620),                # duplicate
        ])
        assert (report.applied, report.quarantined, len(report.rejected)) == (1, 1, 1)
        # Screen ran twice (pipeline, then apply's strict re-check) and
        # looked keys up; it never copied or iterated a parent's map.
        assert SpyIndex.walks == 0
        assert graph.key_index("customers") is graph._key_index["customers"]


# ----------------------------------------------------------------------
# Delta reports
# ----------------------------------------------------------------------
class TestDeltaReport:
    def test_touched_and_fractions(self, pipeline):
        report = pipeline.process([order_event(205, customer=10, product=1, ts=600)])
        delta = report.delta
        assert delta.new_nodes == {"orders": 1}
        assert delta.new_edges == 4  # two FKs, forward + reverse
        assert delta.touched["customers"].tolist() == [0]   # customer 10
        assert delta.touched["products"].tolist() == [0]    # product 1
        assert delta.watermark == 600
        # Worst case: 1 of 2 customers touched.
        assert delta.touched_fraction == pytest.approx(0.5)

    def test_static_rows_collapse_min_time(self, pipeline):
        version = pipeline.graph.version
        pipeline.process([customer_event(30)])
        assert pipeline.graph.changes_since(version).min_time == TIME_MIN

    def test_graph_grows_in_place(self, pipeline):
        graph = pipeline.graph
        assert graph.num_nodes("orders") == 5
        pipeline.process([order_event(205, ts=600)])
        assert graph.num_nodes("orders") == 6  # same object, grown


# ----------------------------------------------------------------------
# Incremental CSR merge vs cold stable sort
# ----------------------------------------------------------------------
class TestEdgeStoreMerge:
    def _random_store(self, rng, num_src, num_dst, num_edges):
        src = rng.integers(0, num_src, num_edges)
        dst = rng.integers(0, num_dst, num_edges)
        times = rng.integers(0, 1000, num_edges)
        return _EdgeStore(src, dst, times, num_dst), (src, dst, times)

    def test_merge_matches_cold_rebuild(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            num_src, num_dst = 30, int(rng.integers(2, 20))
            store, (src, dst, times) = self._random_store(rng, num_src, num_dst, 50)
            # Delta: edges to a mix of existing and brand-new dst nodes.
            new_dst_total = num_dst + int(rng.integers(0, 4))
            d_src = rng.integers(0, num_src, 12)
            d_dst = rng.integers(0, new_dst_total, 12)
            d_times = rng.integers(0, 2000, 12)
            merged = store.merged(d_src, d_dst, d_times, new_dst_total)
            cold = _EdgeStore(
                np.concatenate([src, d_src]),
                np.concatenate([dst, d_dst]),
                np.concatenate([times, d_times]),
                new_dst_total,
            )
            np.testing.assert_array_equal(merged.indptr, cold.indptr)
            np.testing.assert_array_equal(merged.nbr_src, cold.nbr_src)
            np.testing.assert_array_equal(merged.nbr_time, cold.nbr_time)

    def test_merge_matches_cold_store_property(self):
        _merge_matches_cold_store()

    def test_append_edges_validates(self):
        graph = build_graph(shop_db())
        edge = EdgeType("orders", "customer_id", "customers")
        with pytest.raises(KeyError):
            graph.append_edges(EdgeType("a", "b", "c"), np.array([0]), np.array([0]))
        with pytest.raises(IndexError):
            graph.append_edges(edge, np.array([99]), np.array([0]))
        with pytest.raises(IndexError):
            graph.append_edges(edge, np.array([0]), np.array([99]))

    def test_grow_node_type_pads_incoming_indptr(self):
        graph = build_graph(shop_db())
        store = graph._edges[EdgeType("orders", "customer_id", "customers")]
        before = store.indptr.copy()
        start = graph.grow_node_type("customers", np.array([TIME_MIN]))
        assert start == 2 and graph.num_nodes("customers") == 3
        after = graph._edges[EdgeType("orders", "customer_id", "customers")].indptr
        np.testing.assert_array_equal(after[:-1], before)
        assert after[-1] == before[-1]  # new node has no edges yet


#: Few distinct times, so ``(dst, time)`` ties are common, with the
#: static-edge stamp among them.
_TIMES = st.sampled_from([TIME_MIN, 0, 1, 2, 5])


@st.composite
def _merge_cases(draw):
    """(destinations, destinations grown first, base edges, delta edges);
    an edge is ``(src, dst, time)``."""
    num_dst = draw(st.integers(1, 6))
    grown = draw(st.integers(0, 3))
    edge = lambda dsts: st.tuples(st.integers(0, 4), st.integers(0, dsts - 1), _TIMES)
    base = draw(st.lists(edge(num_dst), max_size=24))
    delta = draw(st.lists(edge(num_dst + grown), min_size=1, max_size=24))
    return num_dst, grown, base, delta


@settings(max_examples=300, deadline=None)
@given(_merge_cases())
# The empty base.
@example((2, 0, [], [(0, 1, 5), (1, 0, TIME_MIN), (2, 1, 5)]))
# All-append: every delta edge goes to a destination grown first.
@example((2, 2, [(0, 0, 1), (1, 1, 5)], [(0, 3, 1), (3, 2, 0), (1, 3, 1)]))
# A delta longer than its destination's segment, tied with it and
# with itself on (dst, time), around static edges.
@example((1, 0, [(0, 0, 2), (1, 0, TIME_MIN)],
          [(1, 0, 2), (2, 0, 1), (3, 0, 2), (4, 0, TIME_MIN), (0, 0, 5)]))
def _merge_matches_cold_store(case):
    """``merged`` equals a cold store over the base edges then the
    delta, after any ``grow_node_type`` padding of the base."""
    num_dst, grown, base, delta = case
    graph = HeteroGraph()
    graph.add_node_type("src", 5)
    graph.add_node_type("dst", num_dst)
    edge_type = EdgeType("src", "rel", "dst")
    src, dst, times = np.array(base, dtype=np.int64).reshape(-1, 3).T
    graph.add_edge_type(edge_type, src, dst, times)
    graph.grow_node_type("dst", np.zeros(grown, dtype=np.int64))
    d_src, d_dst, d_times = np.array(delta, dtype=np.int64).T
    merged = graph._edges[edge_type].merged(d_src, d_dst, d_times, num_dst + grown)
    cold = _EdgeStore(
        np.concatenate([src, d_src]), np.concatenate([dst, d_dst]),
        np.concatenate([times, d_times]), num_dst + grown,
    )
    for name in ("indptr", "nbr_src", "nbr_time"):
        assert getattr(merged, name).dtype == getattr(cold, name).dtype == np.int64
        np.testing.assert_array_equal(getattr(merged, name), getattr(cold, name))


# ----------------------------------------------------------------------
# Incremental feature encoding
# ----------------------------------------------------------------------
class TestFeatureGrower:
    def test_fast_path_matches_full_reencode(self):
        db = shop_db()
        cutoff = 400
        base = encode_table_features(db["orders"], cutoff)
        grower = FeatureGrower(cutoff)
        delta = Table.from_dict(db["orders"].schema, {
            "id": [205, 206], "customer_id": [10, 20], "product_id": [1, 3],
            "amount": [123.0, -7.0], "ts": [600, 700],
        })
        grown_table = db["orders"].append(delta)
        grown = grower.grow(grown_table, base)
        cold = encode_table_features(grown_table, cutoff)
        np.testing.assert_array_equal(grown.numeric, cold.numeric)
        for a, b in zip(grown.categorical, cold.categorical):
            np.testing.assert_array_equal(a.codes, b.codes)

    def test_rows_at_or_before_cutoff_force_full_reencode(self):
        db = shop_db()
        cutoff = 400
        base = encode_table_features(db["orders"], cutoff)
        grower = FeatureGrower(cutoff)
        delta = Table.from_dict(db["orders"].schema, {
            "id": [205], "customer_id": [10], "product_id": [1],
            "amount": [5.0], "ts": [300],  # inside the stats window
        })
        grown_table = db["orders"].append(delta)
        grown = grower.grow(grown_table, base)
        cold = encode_table_features(grown_table, cutoff)
        np.testing.assert_array_equal(grown.numeric, cold.numeric)

    def test_unseen_category_hashes_like_cold_path(self):
        db = shop_db()
        base = encode_table_features(db["customers"], None)
        grower = FeatureGrower(None)
        delta = Table.from_dict(db["customers"].schema, {
            "id": [30, 31], "region": ["apac", None], "age": [25.0, None],
        })
        grown_table = db["customers"].append(delta)
        grown = grower.grow(grown_table, base)
        cold = encode_table_features(grown_table, None)
        np.testing.assert_array_equal(grown.numeric, cold.numeric)
        for a, b in zip(grown.categorical, cold.categorical):
            np.testing.assert_array_equal(a.codes, b.codes)
            assert a.cardinality == b.cardinality

    def test_empty_fit_window_grows_like_cold_path(self):
        # Every row postdates the stats cutoff: the column's vocabulary is
        # empty, and every code still lands inside its cardinality.
        schema = TableSchema(
            "events",
            [ColumnSpec("id", DType.INT64), ColumnSpec("kind", DType.STRING),
             ColumnSpec("ts", DType.TIMESTAMP)],
            primary_key="id", time_column="ts",
        )
        table = Table.from_dict(schema, {"id": [1, 2], "kind": ["a", "b"], "ts": [500, 600]})
        base = encode_table_features(table, 400)
        delta = Table.from_dict(schema, {"id": [3, 4], "kind": ["c", None], "ts": [700, 800]})
        grown_table = table.append(delta)
        grown = FeatureGrower(400).grow(grown_table, base)
        cold = encode_table_features(grown_table, 400)
        for a, b in zip(grown.categorical, cold.categorical):
            np.testing.assert_array_equal(a.codes, b.codes)
            assert a.codes.max() < a.cardinality == b.cardinality


# ----------------------------------------------------------------------
# The change journal, and what a delta cannot reach
# ----------------------------------------------------------------------
class TestChangeJournal:
    def test_draws_a_delta_cannot_reach_are_unchanged(self, pipeline):
        # The heart of keeping the graph out of the batch digest: a
        # batch whose context times precede everything a delta added
        # re-samples bit-identically on the grown graph.
        sampler = NeighborSampler(pipeline.graph, fanouts=[2, 2], seed=0)
        batches = [
            ("customers", np.array([1], dtype=np.int64), np.array([450], dtype=np.int64)),
            ("products", np.array([1, 2], dtype=np.int64), np.array([450, 450], dtype=np.int64)),
        ]
        before = [sampler.sample(*batch) for batch in batches]
        pipeline.process([order_event(205, customer=10, product=1, ts=600)])
        fresh = NeighborSampler(pipeline.graph, fanouts=[2, 2], seed=0)
        for batch, drawn in zip(batches, before):
            assert_subgraphs_identical(drawn, sampler.sample(*batch))
            assert_subgraphs_identical(drawn, fresh.sample(*batch))

    def test_journal_reports_what_the_delta_report_does(self, pipeline):
        graph = pipeline.graph
        version = graph.version
        delta = pipeline.process([
            order_event(205, customer=10, product=1, ts=600),
            order_event(206, customer=20, product=1, ts=610),
        ]).delta
        change = graph.changes_since(version)
        assert change.min_time == 600
        assert change.grown == {"orders"}
        assert sorted(change.touched) == sorted(delta.touched)
        for node_type, ids in delta.touched.items():
            assert change.touched[node_type].tolist() == ids.tolist()
        assert version < graph.last_changed("products") < graph.last_changed("orders")
        assert graph.last_changed("orders") == graph.version
        assert graph.changes_since(graph.version).touched == {}
        # One read covers several deltas, merged.
        pipeline.process([order_event(207, customer=20, product=2, ts=620)])
        merged = graph.changes_since(version)
        assert merged.min_time == 600
        assert merged.touched["products"].tolist() == [0, 1]


# ----------------------------------------------------------------------
# apply_events_to_database
# ----------------------------------------------------------------------
CHURN_QUERY = "PREDICT COUNT(orders) = 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"


@pytest.fixture(scope="module")
def routed_churn(tmp_path_factory):
    """A routed churn model, saved once; plus the database it was
    fitted on."""
    from repro.datasets import make_ecommerce
    from repro.pql import PredictiveQueryPlanner, RouterConfig
    from tests.conftest import make_split, tiny_planner_config

    db = make_ecommerce(num_customers=60, num_products=20, seed=3)
    planner = PredictiveQueryPlanner(db, tiny_planner_config(epochs=2))
    directory = str(tmp_path_factory.mktemp("forgetful") / "model")
    split = make_split(db, horizon_days=30)
    planner.fit(CHURN_QUERY, split, router=RouterConfig()).save(directory)
    return db, directory


class TestForgettingRefreshIsSafe:
    """A delta lands through ``DeltaGraphBuilder.apply`` and nobody calls
    ``refresh_model`` (or any other hook): every holder of graph-derived
    state still answers as if built fresh on the grown graph."""

    T = 10**10  # every streamed row is visible at the probed cutoff

    def _streamed_and_cold(self, routed_churn, num_events=120):
        from repro.pql import PredictiveModel
        from tests.test_ingest_differential import carve

        db, directory = routed_churn
        base, events = carve(db, num_events)
        events = [validate_event(e, db[e.table].schema) for e in events]
        cold = PredictiveModel.load(directory, apply_events_to_database(base, events))
        live = PredictiveModel.load(directory, base)
        builder = DeltaGraphBuilder(live.db, graph=live.graph, stats_cutoff=live.stats_cutoff)
        return live, cold, builder, events

    def test_model_predicts_like_a_cold_rebuild(self, routed_churn):
        live, cold, builder, events = self._streamed_and_cold(routed_churn)
        keys = live.graph.node_keys["customers"]
        stale = {tier: live.predict(keys, self.T, route=tier) for tier in ("green", "yellow", "red")}
        for start in (0, 60):  # the second delta finds holders reconciled at the first
            builder.apply(events[start:start + 60])
            if start == 0:
                live.predict(keys[:5], self.T, route="red")
        for tier in ("green", "yellow", "red"):
            np.testing.assert_array_equal(
                live.predict(keys, self.T, route=tier), cold.predict(keys, self.T, route=tier)
            )
            assert not np.array_equal(stale[tier], cold.predict(keys, self.T, route=tier))
        # What refresh_model reports when it does run late: nothing left to do.
        assert not any(refresh_model(live).values())

    @pytest.mark.parametrize("holder", ["green_rank", "yellow", "sampler"])
    def test_holder_follows_a_delta_nobody_announced(self, pipeline, holder):
        from repro.pql.router import GreenTier, YellowTier

        db, graph = pipeline.db, pipeline.graph
        keys, cutoffs = np.array([10, 20]), np.array([1000, 1000])
        ids = np.array([0, 1], dtype=np.int64)

        def build():
            if holder == "green_rank":
                tier = GreenTier("customers", "link", item_table="products").bind(db, graph)
                return lambda: tier.rank(keys, cutoffs, 3)
            if holder == "yellow":
                tier = YellowTier("customers", "binary", hybrid=False).bind(db, graph)
                return lambda: tier.features(keys, cutoffs)
            sampler = NeighborSampler(graph, fanouts=[8, 8], seed=7)
            return lambda: sampler.sample("customers", ids, cutoffs)

        sampled = holder == "sampler"
        long_lived = build()
        before = long_lived()
        index = graph.key_index("customers")
        with pytest.raises(KeyError):
            node_index_for_keys(graph, "customers", np.array([30]))
        # Rows at ts <= the probed cutoff, one of them for a new customer.
        report = pipeline.process([
            customer_event(30),
            order_event(205, customer=10, product=3, ts=600),
            order_event(206, customer=30, product=3, ts=610),
        ])
        assert report.applied == 3
        after, fresh = long_lived(), build()()
        if sampled:
            assert_subgraphs_identical(after, fresh)
            assert after.total_edges() > before.total_edges()  # the delta was visible
        else:
            np.testing.assert_equal(after, fresh)
            assert str(after) != str(before)
        # The graph's one key map grew in place; the new key resolves.
        assert graph.key_index("customers") is index
        assert node_index_for_keys(graph, "customers", np.array([30, 10])).tolist() == [2, 0]
        with pytest.raises(KeyError):
            node_index_for_keys(graph, "customers", np.array([31]))
        with pytest.raises(KeyError):
            graph.key_index("no_such_type")

    def test_holder_left_behind_the_journal_drops_everything(self):
        from repro.graph.hetero import JOURNAL_LEN

        db = shop_db()
        builder = DeltaGraphBuilder(db, stats_cutoff=400)
        graph = builder.graph
        sampler = NeighborSampler(graph, fanouts=[2, 2], seed=0)
        # Memo entries the time rule would keep if it could see the
        # change: customer 20's degrees at cutoff 450.
        batch = ("customers", np.array([1], dtype=np.int64), np.array([450], dtype=np.int64))
        sampler.sample(*batch)
        version, schema, oid = graph.version, db["orders"].schema, 205
        while graph.version - version <= JOURNAL_LEN:
            builder.apply([validate_event(order_event(oid, customer=10, ts=600 + oid), schema)])
            oid += 1
        assert graph.changes_since(version) is None
        assert graph.changes_since(graph.version - JOURNAL_LEN) is not None
        fresh = NeighborSampler(graph, fanouts=[2, 2], seed=0)
        late = ("customers", np.array([0, 1], dtype=np.int64), np.array([10**6] * 2, dtype=np.int64))
        for probe in (batch, late):
            assert_subgraphs_identical(sampler.sample(*probe), fresh.sample(*probe))
        assert graph_fingerprint(graph) == graph_fingerprint(build_graph(db, stats_cutoff=400))


class _BrokenRanker:
    """A LIST model's GNN ranker whose scoring always raises."""

    def score_against_items(self, *args):
        """Fail the way a broken model path does."""
        raise RuntimeError("ranker unavailable")

    def reconcile(self):
        """Nothing memoized, nothing to drop."""
        return {}


class TestRefreshReachesTheLadder:
    LIST_QUERY = "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 1 DAYS"
    CUTOFF, KEYS = 1000, np.array([10])

    def _model(self, pipeline, **kwargs):
        from repro.pql import PredictiveModel, PredictiveQueryPlanner

        planner = PredictiveQueryPlanner(pipeline.db)
        return PredictiveModel(
            pipeline.db, planner.plan(self.LIST_QUERY), pipeline.graph, planner.config, **kwargs
        )

    def _assert_ranks_from_post_ingest_counts(self, pipeline, model, service):
        """Ingest 20 orders of product 3; green's next ranking counts them."""
        from repro.pql.router import GreenTier

        batch = [order_event(200 + i, product=3, ts=600 + i) for i in range(20)]

        def apply():
            report = pipeline.process(batch)
            refresh_model(model, report.delta)
            return report

        assert service.refresh_graph(apply).applied == 20
        ranked = service.rank(self.KEYS, self.CUTOFF, k=3)
        assert ranked.route["tier"] == "green"
        items, scores = ranked[0]
        fresh = GreenTier.for_binding(model.binding).bind(pipeline.db, pipeline.graph)
        want_items, want_scores = fresh.rank(self.KEYS, np.array([self.CUTOFF]), 3)[0]
        assert (items.tolist(), scores.tolist()) == ([3, 2, 1], [22.0, 2.0, 1.0])
        np.testing.assert_array_equal(items, want_items)
        np.testing.assert_array_equal(scores, want_scores)

    def test_degraded_list_service_ranks_from_post_ingest_counts(self, pipeline):
        from repro.serve import PredictionService

        # No ranker at all (its GNN stage degraded): green's popularity
        # is the whole ladder, and every rank says so.
        model = self._model(pipeline, degraded_reason="InjectedFault: no ranker")
        with PredictionService(model) as service:
            ranked = service.rank(self.KEYS, self.CUTOFF, k=3)
            assert ranked.route["tier"] == "green"
            assert ranked.route["reason"].endswith("no red: InjectedFault: no ranker")
            items, scores = ranked[0]
            assert (items.tolist(), scores.tolist()) == ([2, 3, 1], [2.0, 2.0, 1.0])
            self._assert_ranks_from_post_ingest_counts(pipeline, model, service)

    def test_failing_ranker_fails_over_to_green_post_ingest_counts(self, pipeline):
        from repro.serve import PredictionService

        # The ranker raises: the first rank fails over to the green rung.
        model = self._model(pipeline, link_trainer=_BrokenRanker())
        with PredictionService(model) as service:
            ranked = service.rank(self.KEYS, self.CUTOFF, k=3)
            assert service.degraded
            assert ranked.route["tier"] == "green"
            assert ranked.route["reason"].startswith("degraded: model path failed")
            items, scores = ranked[0]
            assert (items.tolist(), scores.tolist()) == ([2, 3, 1], [2.0, 2.0, 1.0])
            self._assert_ranks_from_post_ingest_counts(pipeline, model, service)
            assert service.degraded


class TestApplyEventsToDatabase:
    def test_appends_in_order_and_shares_untouched_tables(self):
        db = shop_db()
        schema = db["orders"].schema
        events = [validate_event(order_event(205, ts=600), schema),
                  validate_event(order_event(206, ts=610), schema)]
        out = apply_events_to_database(db, events)
        assert out["orders"]["id"].values.tolist()[-2:] == [205, 206]
        assert out["customers"] is db["customers"]  # shared, not copied
        assert len(db["orders"]) == 5  # input untouched

    def test_unknown_table_raises(self):
        with pytest.raises(KeyError, match="unknown tables"):
            apply_events_to_database(shop_db(), [RowEvent("nope", {})])

"""Streaming ingest benchmark: incremental graph maintenance vs rebuild.

The ingest subsystem's promise is that a live graph can follow an
append-only event stream **bit-identically** to cold-rebuilding it at
every watermark, at a small fraction of the cost.  This benchmark
measures and gates exactly that:

* ``apply`` streams the tail of the ecommerce dataset (orders +
  reviews carved off above a cut timestamp) through the full
  pipeline — validation, segment-log commit, incremental CSR delta —
  in micro-batches, reporting end-to-end rows/s plus how often the
  staleness policy actually refreshed;
* ``delta_vs_rebuild`` applies a small probe batch (touched-entity
  fraction <= 1%) and compares its wall time against a cold
  ``build_graph`` over the same final database — the acceptance
  claim requires a >= 5x speedup; the ``refresh_model`` call that
  follows the delta is timed beside it and reported as
  ``speedup_with_refresh``;
* the **bit-identity probe** asserts the streamed graph equals the
  cold rebuild at the same watermark: graph fingerprint, feature
  bytes, node keys, and a sampled subgraph drawn with the same seed.

::

    PYTHONPATH=src python benchmarks/bench_ingest.py --output BENCH_ingest.json
    PYTHONPATH=src python benchmarks/bench_ingest.py --check BENCH_ingest.json

``--check`` re-runs the suite and exits non-zero when throughput or
the delta speedup regressed past tolerance (shared gate logic in
:mod:`_gate`), or when any acceptance claim no longer holds.  The
file doubles as a pytest module.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Tuple

import numpy as np

import _gate
from repro.datasets import get_dataset
from repro.gnn.models import GraphMetadata
from repro.gnn.trainer import NodeTaskTrainer
from repro.graph import NeighborSampler, build_graph
from repro.graph.cache import graph_fingerprint
from repro.ingest import (
    IngestPipeline,
    RefreshPolicy,
    RowEvent,
    SegmentLog,
    refresh_model,
)
from repro.ingest.segments import apply_events_to_database
from repro.pql import PlannerConfig, PredictiveModel, PredictiveQueryPlanner
from repro.relational.database import Database

DATASET = "ecommerce"
SCALE = 2.0
SEED = 0
#: Event tables carved into the stream (parents stay in the base).
STREAM_TABLES = ("orders", "reviews")
STREAM_EVENTS = 600
BATCH_ROWS = 100
FANOUTS = [4, 4]

#: Acceptance: delta apply vs cold rebuild at <= this touched fraction.
MIN_SPEEDUP = 5.0
MAX_TOUCHED_FRACTION = 0.01

PLAN_QUERY = (
    "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
)


def carve_stream(db: Database, num_events: int):
    """Split ``db`` into a base snapshot plus a time-ordered event tail.

    The last ``num_events`` rows (by timestamp, across the stream
    tables) become events; everything else — including all customers
    and products — is the base.  Events are emitted in timestamp order
    so the stream respects the ingest watermark.
    """
    stamped: List[Tuple[int, str, int]] = []
    for name in STREAM_TABLES:
        times = db[name][db[name].schema.time_column].values.astype(np.int64)
        stamped.extend((int(t), name, i) for i, t in enumerate(times))
    stamped.sort(key=lambda item: item[0])
    tail = stamped[-num_events:]
    t_cut = stamped[-num_events - 1][0]

    base = Database(name=db.name)
    tail_rows = {name: set() for name in STREAM_TABLES}
    for _, name, row in tail:
        tail_rows[name].add(row)
    for table in db:
        if table.name in STREAM_TABLES:
            keep = np.array(
                [i not in tail_rows[table.name] for i in range(len(table))]
            )
            base.add_table(table.filter(keep))
        else:
            base.add_table(table)

    events = [
        RowEvent(table=name, values=db[name].row(row)) for _, name, row in tail
    ]
    return t_cut, base, events


def sampled_subgraphs_equal(a, b, seed_ids, seed_times) -> bool:
    """Draw the same batch on two graphs with the same RNG; compare."""
    sub_a = NeighborSampler(a, fanouts=FANOUTS, seed=0).sample(
        "customers", seed_ids, seed_times
    )
    sub_b = NeighborSampler(b, fanouts=FANOUTS, seed=0).sample(
        "customers", seed_ids, seed_times
    )
    for node_type in sub_a.node_types:
        if not np.array_equal(sub_a.node_orig(node_type), sub_b.node_orig(node_type)):
            return False
        if not np.array_equal(
            sub_a.node_ctx_time(node_type), sub_b.node_ctx_time(node_type)
        ):
            return False
    for edge_type in sub_a.edge_types:
        if not all(
            np.array_equal(x, y)
            for x, y in zip(sub_a.edges_for(edge_type), sub_b.edges_for(edge_type))
        ):
            return False
    return True


def features_equal(a, b) -> bool:
    if sorted(a.features) != sorted(b.features):
        return False
    for name in a.features:
        fa, fb = a.features[name], b.features[name]
        if not np.array_equal(fa.numeric, fb.numeric):
            return False
        if len(fa.categorical) != len(fb.categorical):
            return False
        for ca, cb in zip(fa.categorical, fb.categorical):
            if not np.array_equal(ca.codes, cb.codes):
                return False
    return True


def probe_suffix(events: List[RowEvent], base: Database) -> int:
    """Longest event suffix whose touched-parent fraction stays <= 1%.

    Walking back from the stream's end, stop before a distinct-parent
    count would push any parent type past ``MAX_TOUCHED_FRACTION`` of
    its base cardinality.  Returns the suffix length (>= 1: a single
    event touches one parent per foreign key, and the base is sized so
    that is under 1%).
    """
    budgets = {
        name: max(1, int(MAX_TOUCHED_FRACTION * len(base[name])))
        for name in ("customers", "products")
    }
    seen: Dict[str, set] = {name: set() for name in budgets}
    count = 0
    for event in reversed(events):
        trial = {
            "customers": event.values.get("customer_id"),
            "products": event.values.get("product_id"),
        }
        grown = {
            name: seen[name] | ({trial[name]} if trial[name] is not None else set())
            for name in budgets
        }
        if any(len(grown[name]) > budgets[name] for name in budgets):
            break
        seen = grown
        count += 1
    return max(count, 1)


def run_suite(stream_events: int = STREAM_EVENTS, batch_rows: int = BATCH_ROWS) -> Dict:
    db = get_dataset(DATASET).build(scale=SCALE, seed=SEED)
    t_cut, base, events = carve_stream(db, stream_events)
    span = db.time_span()
    stats_cutoff = int(span[0] + 0.5 * (t_cut - span[0]))

    probe_len = probe_suffix(events, base)
    main_stream, probe = events[:-probe_len], events[-probe_len:]

    report: Dict = {
        "workload": {
            "dataset": DATASET,
            "scale": SCALE,
            "stream_events": len(events),
            "batch_rows": batch_rows,
            "probe_events": probe_len,
            "stats_cutoff": stats_cutoff,
            "t_cut": t_cut,
        },
        "modes": {},
    }

    root = tempfile.mkdtemp(prefix="bench_ingest_")
    try:
        log = SegmentLog.create(root, base)
        pipeline = IngestPipeline(log, stats_cutoff=stats_cutoff)
        policy = RefreshPolicy(max_staleness=86400, touched_threshold=0.05)

        # -- apply: end-to-end streaming throughput ---------------------
        refreshes = 0
        max_staleness = 0
        start = time.perf_counter()
        for offset in range(0, len(main_stream), batch_rows):
            batch_report = pipeline.process(main_stream[offset : offset + batch_rows])
            assert not batch_report.rejected, batch_report.rejected[:3]
            policy.observe(batch_report.delta)
            max_staleness = max(max_staleness, policy.staleness())
            if policy.due():
                policy.drain()
                refreshes += 1
        total_s = time.perf_counter() - start
        batches = -(-len(main_stream) // batch_rows)
        report["modes"]["apply"] = {
            "events": len(main_stream),
            "batches": batches,
            "segments": len(log.segments),
            "total_s": round(total_s, 4),
            "rows_per_sec": round(len(main_stream) / total_s, 2),
            "refreshes": refreshes,
            "max_staleness_s": int(max_staleness),
        }

        # An (unfitted) model over the live graph, for refresh_model.
        config = PlannerConfig(fanouts=FANOUTS)
        sampler = config.make_sampler(pipeline.graph)
        network = config.make_node_network(
            GraphMetadata.from_graph(pipeline.graph), np.random.default_rng(0)
        )
        model = PredictiveModel(
            pipeline.db, PredictiveQueryPlanner(pipeline.db, config).plan(PLAN_QUERY),
            pipeline.graph, config,
            node_trainer=NodeTaskTrainer(network, pipeline.graph, sampler, "binary"),
        )

        # -- delta_vs_rebuild: the probe batch ---------------------------
        # Commit the probe to the log first (a durability cost paid by
        # both strategies), then time the incremental graph apply (and,
        # separately, the model refresh) against a cold build_graph
        # over the same database state.
        appliable, dups, unresolved = pipeline.builder.screen(probe)
        assert len(appliable) == len(probe) and not dups and not unresolved
        log.append(appliable)
        start = time.perf_counter()
        probe_delta = pipeline.builder.apply(appliable)
        delta_ms = (time.perf_counter() - start) * 1000.0
        start = time.perf_counter()
        refresh_model(model, probe_delta)
        refresh_ms = (time.perf_counter() - start) * 1000.0

        # apply_events_to_database never mutates its input, so the cold
        # target reuses the in-memory base the log was created from.
        target_db = apply_events_to_database(
            apply_events_to_database(base, main_stream), probe
        )
        rebuild_times = []
        for _ in range(3):
            start = time.perf_counter()
            cold = build_graph(target_db, stats_cutoff=stats_cutoff)
            rebuild_times.append((time.perf_counter() - start) * 1000.0)
        rebuild_ms = float(np.median(rebuild_times))
        report["modes"]["delta_vs_rebuild"] = {
            "delta_ms": round(delta_ms, 3),
            "refresh_ms": round(refresh_ms, 3),
            "rebuild_ms": round(rebuild_ms, 3),
            "speedup": round(rebuild_ms / delta_ms, 2),
            "speedup_with_refresh": round(rebuild_ms / (delta_ms + refresh_ms), 2),
            "touched_fraction": round(probe_delta.touched_fraction, 6),
            "probe_events": len(probe),
        }

        # -- bit-identity probe ------------------------------------------
        live = pipeline.graph
        seed_ids = np.arange(min(32, len(base["customers"])), dtype=np.int64)
        seed_times = np.full(len(seed_ids), pipeline.watermark, dtype=np.int64)
        report["identity"] = {
            "fingerprint_equal": graph_fingerprint(live) == graph_fingerprint(cold),
            "features_equal": features_equal(live, cold),
            "node_keys_equal": all(
                np.array_equal(live.node_keys[n], cold.node_keys[n])
                for n in live.node_keys
            ),
            "sampled_subgraph_equal": sampled_subgraphs_equal(
                live, cold, seed_ids, seed_times
            ),
            "watermark": pipeline.watermark,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)

    dvr = report["modes"]["delta_vs_rebuild"]
    report["acceptance"] = {
        "speedup": dvr["speedup"],
        "required_min_speedup": MIN_SPEEDUP,
        "touched_fraction": dvr["touched_fraction"],
        "required_max_touched_fraction": MAX_TOUCHED_FRACTION,
        "bit_identical": all(
            bool(v) for k, v in report["identity"].items() if k != "watermark"
        ),
        "passed": (
            dvr["speedup"] >= MIN_SPEEDUP
            and dvr["touched_fraction"] <= MAX_TOUCHED_FRACTION
            and all(
                bool(v) for k, v in report["identity"].items() if k != "watermark"
            )
        ),
    }
    return report


_GATES = [
    _gate.MetricGate("rows_per_sec", direction="min", tolerance=0.50, unit="rows/s"),
    _gate.MetricGate("speedup", direction="min", tolerance=0.50, unit="x"),
]


def check_against_baseline(report: Dict, baseline: Dict) -> List[str]:
    """Regression messages (empty when the run is clean)."""
    problems = _gate.mode_regressions(
        report["modes"], baseline.get("modes", {}), _GATES
    )
    if not report["acceptance"]["passed"]:
        acc = report["acceptance"]
        problems.append(
            f"acceptance failed: speedup {acc['speedup']}x "
            f"(min {MIN_SPEEDUP}) at touched fraction {acc['touched_fraction']} "
            f"(max {MAX_TOUCHED_FRACTION}), identical={acc['bit_identical']}"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_ingest.json",
                        help="where to write the report (default: %(default)s)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline report; exit 1 on regression")
    parser.add_argument("--stream-events", type=int, default=STREAM_EVENTS,
                        help="events carved into the stream (default: %(default)s)")
    args = parser.parse_args(argv)

    report = run_suite(stream_events=args.stream_events)
    apply_mode = report["modes"]["apply"]
    dvr = report["modes"]["delta_vs_rebuild"]
    print(f"apply     {apply_mode['rows_per_sec']:.0f} rows/s over "
          f"{apply_mode['events']} events in {apply_mode['batches']} batches "
          f"({apply_mode['refreshes']} refreshes)")
    print(f"delta     {dvr['delta_ms']:.2f}ms vs rebuild {dvr['rebuild_ms']:.2f}ms "
          f"= {dvr['speedup']:.1f}x at {dvr['touched_fraction']:.4f} touched "
          f"({dvr['speedup_with_refresh']:.1f}x counting the {dvr['refresh_ms']:.2f}ms "
          f"refresh_model)")
    print(f"identity  {report['identity']}")

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to {args.output}")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        problems = check_against_baseline(report, baseline)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if problems:
            return 1
    if not report["acceptance"]["passed"]:
        print("ACCEPTANCE: ingest gates failed", file=sys.stderr)
        return 1
    return 0


# -- pytest entry point (run: pytest benchmarks/bench_ingest.py) -------
def test_ingest_acceptance(tmp_path):
    # Smaller stream than the CLI default keeps the test quick; the
    # full gate binds on the default workload in main() (CI perf-smoke).
    report = run_suite(stream_events=300)
    acc = report["acceptance"]
    assert acc["bit_identical"], report["identity"]
    assert acc["touched_fraction"] <= MAX_TOUCHED_FRACTION
    assert acc["speedup"] >= MIN_SPEEDUP, report["modes"]["delta_vs_rebuild"]
    out = tmp_path / "BENCH_ingest.json"
    with open(out, "w") as handle:
        json.dump(report, handle)
    assert not check_against_baseline(report, json.load(open(out)))


if __name__ == "__main__":
    sys.exit(main())

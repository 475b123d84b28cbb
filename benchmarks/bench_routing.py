"""Cost-based query routing benchmark: routed vs all-GNN execution.

The router's promise is that a mixed predictive-query workload —
single-entity lookups next to bulk scoring batches — can be answered
at **equal-or-better accuracy than running every query on the full
GNN plan, at no more than half the median per-query cost**, by
routing each request to the cheapest GREEN/YELLOW/RED tier whose
fit-time validation quality clears the configured floor.  This
benchmark measures exactly that claim and gates on it:

* four modes execute the same mixed workload (batch sizes 1–16
  cycling through distinct entity-key windows) against independently
  loaded copies of one saved routed model: ``all-gnn`` calls the
  unrouted GNN plan directly, ``routed`` lets the router decide, and
  ``yellow`` / ``green`` force those tiers;
* accuracy is AUROC over the union of workload predictions against
  the held-out test labels; cost is wall time per query;
* ``acceptance.passed`` requires routed AUROC >= all-GNN AUROC and
  routed median per-query cost <= 50% of all-GNN's;
* forced-route runs are asserted **bit-identical** to calling the
  underlying tier directly, and a traced query is asserted to report
  its route plus estimated vs realized cost (the EXPLAIN ANALYZE
  surface).

::

    PYTHONPATH=src python benchmarks/bench_routing.py --output BENCH_routing.json
    PYTHONPATH=src python benchmarks/bench_routing.py --check BENCH_routing.json

``--check`` re-runs the suite and exits non-zero when any mode's
accuracy or cost regressed past tolerance against the stored report
(shared gate logic in :mod:`_gate`), or when the acceptance claim
itself no longer holds.  The file doubles as a pytest module.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from typing import Dict, List

import numpy as np

import _gate
from repro.datasets import get_dataset
from repro.eval.metrics import auroc
from repro.eval.splits import make_temporal_split
from repro.obs import trace as obs_trace
from repro.pql import PlannerConfig, PredictiveModel, PredictiveQueryPlanner, RouterConfig, parse
from repro.pql.labeler import build_label_table

DATASET = "ecommerce"
TASK = "churn"
SCALE = 0.6
SEED = 0
BATCH_SIZES = (1, 2, 4, 8, 16)
NUM_QUERIES = 160

#: The acceptance claim: routed median per-query cost vs all-GNN.
MAX_MEDIAN_COST_RATIO = 0.50
#: --check tolerances (accuracy is far more stable than wall time).
AUROC_TOLERANCE = 0.05
COST_TOLERANCE = 0.50
COST_SLACK_MS = 0.5


def train_routed_model(save_dir: str):
    """Fit a small routed model (same footprint as bench_serving's)."""
    spec = get_dataset(DATASET)
    task = spec.task(TASK)
    db = spec.build(scale=SCALE, seed=SEED)
    query = parse(task.query)
    span = db.time_span()
    split = make_temporal_split(
        span[0], span[1], query.horizon_seconds, num_train_cutoffs=2
    )
    config = PlannerConfig(
        hidden_dim=8, num_layers=1, epochs=3, seed=SEED,
        infer_batch_size=64,
    )
    planner = PredictiveQueryPlanner(db, config)
    model = planner.fit(task.query, split, router=RouterConfig())
    model.save(save_dir)
    return db, split


def build_workload(model, num_queries: int) -> List[np.ndarray]:
    """Mixed batches: sizes 1-16 sliding through distinct key windows."""
    entity_type = model.binding.query.entity_table
    keys = model.graph.node_keys[entity_type]
    queries, offset = [], 0
    for i in range(num_queries):
        size = BATCH_SIZES[i % len(BATCH_SIZES)]
        idx = [(offset + j) % len(keys) for j in range(size)]
        queries.append(keys[np.asarray(idx)])
        offset = (offset + size) % len(keys)
    return queries


def run_mode(model, queries: List[np.ndarray], cutoff: int, mode: str) -> Dict:
    """Execute the workload in one mode; per-query wall times + scores."""
    # The unblended GNN plan: the same trainer as a plain (uncalibrated) fit.
    plain = PredictiveModel(model.db, model.binding, model.graph, model.config,
                            node_trainer=model.node_trainer, stats_cutoff=model.stats_cutoff)

    def call(batch: np.ndarray) -> np.ndarray:
        if mode == "all-gnn":
            return plain.predict(batch, cutoff)
        if mode == "routed":
            return model.predict(batch, cutoff)      # router decides
        return model.predict(batch, cutoff, route=mode)

    per_query_ms: List[float] = []
    by_key: Dict[int, float] = {}
    route_counts: Dict[str, int] = {}
    start_all = time.perf_counter()
    for batch in queries:
        start = time.perf_counter()
        scores = call(batch)
        per_query_ms.append((time.perf_counter() - start) * 1000.0)
        for key, score in zip(batch, scores):
            by_key[int(key)] = float(score)
        if mode != "all-gnn":
            tier = model.last_route.tier
            route_counts[tier] = route_counts.get(tier, 0) + 1
    total_s = time.perf_counter() - start_all
    entry = {
        "queries": len(queries),
        "rows": int(sum(len(q) for q in queries)),
        "median_ms": round(float(np.median(per_query_ms)), 4),
        "p99_ms": round(float(np.percentile(per_query_ms, 99)), 4),
        "total_s": round(total_s, 4),
        "scores_by_key": by_key,
    }
    if route_counts:
        entry["route_counts"] = route_counts
    return entry


def check_bit_identity(model_dir: str, db, queries, cutoff: int) -> Dict[str, bool]:
    """Forced-route runs must equal calling the tier directly, bit for bit."""
    routed = PredictiveModel.load(model_dir, db)
    direct = PredictiveModel.load(model_dir, db)
    results = {}
    for tier in ("green", "yellow", "red"):
        ok = True
        for batch in queries[: len(BATCH_SIZES) * 4]:
            via_router = routed.predict(batch, cutoff, route=tier)
            cutoffs = np.full(len(batch), int(cutoff), dtype=np.int64)
            if tier == "green":
                expected = direct.green.predict(batch, cutoffs)
            elif tier == "yellow":
                expected = direct.yellow.predict(batch, cutoffs)
            else:
                expected = direct._red_predict(batch, cutoffs)
            ok = ok and np.array_equal(np.asarray(via_router), np.asarray(expected))
        results[tier] = bool(ok)
    return results


def explain_route(model, queries, cutoff: int) -> Dict:
    """One traced query: the EXPLAIN ANALYZE routing surface."""
    with obs_trace.collect() as trace:
        model.predict(queries[0], cutoff)
    span = trace.find("router.predict")
    counters = dict(span.counters) if span is not None else {}
    tier = next(
        (name.split(".")[-1] for name in counters if name.startswith("router.route.")),
        None,
    )
    return {
        "span_present": span is not None,
        "route": tier,
        "est_cost_us": counters.get("router.est_cost_us"),
        "realized_cost_us": counters.get("router.realized_cost_us"),
        "rows": counters.get("router.rows"),
    }


def run_suite(num_queries: int = NUM_QUERIES) -> Dict:
    model_dir = tempfile.mkdtemp(prefix="bench_routing_")
    try:
        db, split = train_routed_model(model_dir)
        cutoff = int(split.test_cutoff)
        probe = PredictiveModel.load(model_dir, db)
        queries = build_workload(probe, num_queries)
        labels = build_label_table(db, probe.binding, [cutoff])
        truth = {int(k): float(v) for k, v in zip(labels.entity_keys, labels.labels)}

        report: Dict = {
            "workload": {
                "dataset": DATASET, "task": TASK, "scale": SCALE,
                "queries": len(queries), "batch_sizes": list(BATCH_SIZES),
                "test_cutoff": cutoff,
            },
            "quality": {t: round(q, 6) for t, q in probe.quality.items()},
            "per_row_ms": {t: round(v, 6) for t, v in probe.cost.per_row_ms().items()},
            "modes": {},
        }
        for mode in ("all-gnn", "routed", "yellow", "green"):
            # A fresh load per mode: cold memos, cold cost EMA —
            # no mode inherits another's warmth.
            model = PredictiveModel.load(model_dir, db)
            entry = run_mode(model, queries, cutoff, mode)
            scores = entry.pop("scores_by_key")
            covered = sorted(set(scores) & set(truth))
            entry["auroc"] = round(
                float(auroc(
                    np.asarray([truth[k] for k in covered]),
                    np.asarray([scores[k] for k in covered]),
                )), 6,
            )
            report["modes"][mode] = entry

        gnn = report["modes"]["all-gnn"]
        routed = report["modes"]["routed"]
        ratio = routed["median_ms"] / gnn["median_ms"] if gnn["median_ms"] else 0.0
        report["modes"]["routed"]["median_cost_ratio"] = round(ratio, 4)
        report["bit_identical"] = check_bit_identity(model_dir, db, queries, cutoff)
        report["explain"] = explain_route(
            PredictiveModel.load(model_dir, db), queries, cutoff
        )
        report["acceptance"] = {
            "routed_auroc": routed["auroc"],
            "all_gnn_auroc": gnn["auroc"],
            "median_cost_ratio": round(ratio, 4),
            "required_max_ratio": MAX_MEDIAN_COST_RATIO,
            "bit_identical": all(report["bit_identical"].values()),
            "explain_ok": (
                report["explain"]["span_present"]
                and report["explain"]["route"] is not None
                and report["explain"]["est_cost_us"] is not None
                and report["explain"]["realized_cost_us"] is not None
            ),
            "passed": (
                routed["auroc"] >= gnn["auroc"]
                and ratio <= MAX_MEDIAN_COST_RATIO
                and all(report["bit_identical"].values())
                and report["explain"]["span_present"]
            ),
        }
        return report
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)


_GATES = [
    _gate.MetricGate("auroc", direction="min", tolerance=AUROC_TOLERANCE),
    _gate.MetricGate("median_ms", direction="max",
                     tolerance=COST_TOLERANCE, slack=COST_SLACK_MS, unit="ms"),
]


def check_against_baseline(report: Dict, baseline: Dict) -> List[str]:
    """Regression messages (empty when the run is clean)."""
    problems = _gate.mode_regressions(
        report["modes"], baseline.get("modes", {}), _GATES
    )
    if not report["acceptance"]["passed"]:
        problems.append(
            "acceptance failed: routed AUROC "
            f"{report['acceptance']['routed_auroc']} vs all-GNN "
            f"{report['acceptance']['all_gnn_auroc']} at cost ratio "
            f"{report['acceptance']['median_cost_ratio']} "
            f"(max {MAX_MEDIAN_COST_RATIO})"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_routing.json",
                        help="where to write the report (default: %(default)s)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline report; exit 1 on regression")
    parser.add_argument("--num-queries", type=int, default=NUM_QUERIES,
                        help="workload size (default: %(default)s)")
    args = parser.parse_args(argv)

    report = run_suite(num_queries=args.num_queries)
    for mode, entry in report["modes"].items():
        routes = (
            "  routes " + ",".join(f"{t}:{n}" for t, n in entry["route_counts"].items())
            if "route_counts" in entry else ""
        )
        print(f"{mode:<9} auroc {entry['auroc']:.4f}  median "
              f"{entry['median_ms']:>7.3f}ms  p99 {entry['p99_ms']:>7.3f}ms{routes}")
    acc = report["acceptance"]
    print(f"median cost ratio: {acc['median_cost_ratio']:.3f} "
          f"(required <= {acc['required_max_ratio']:.2f})")
    print(f"bit identity: {report['bit_identical']}")
    print(f"explain: route={report['explain']['route']} "
          f"est={report['explain']['est_cost_us']}us "
          f"realized={report['explain']['realized_cost_us']}us")

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
    if not acc["passed"]:
        print("ACCEPTANCE: routing gates failed", file=sys.stderr)
        return 1
    return 0


# -- pytest entry point (run: pytest benchmarks/bench_routing.py) ------
def test_routing_acceptance(tmp_path):
    # Smaller workload than the CLI default keeps the test quick; the
    # full gate binds on the default workload in main() (CI perf-smoke).
    report = run_suite(num_queries=60)
    acc = report["acceptance"]
    assert acc["bit_identical"], report["bit_identical"]
    assert acc["explain_ok"], report["explain"]
    assert acc["routed_auroc"] >= acc["all_gnn_auroc"] - 1e-9
    assert acc["median_cost_ratio"] <= MAX_MEDIAN_COST_RATIO
    out = tmp_path / "BENCH_routing.json"
    with open(out, "w") as handle:
        json.dump(report, handle)
    assert not check_against_baseline(report, json.load(open(out)))


if __name__ == "__main__":
    sys.exit(main())

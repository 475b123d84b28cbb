"""Online-serving latency/throughput benchmark and regression gate.

Measures the micro-batching scheduler end to end: a burst of
single-entity predict requests is pushed through a
:class:`~repro.serve.service.PredictionService` and each mode reports
throughput (rows/s) plus per-request latency percentiles (p50/p99),
for a first (cold) pass and again for a warm one:

* ``single``        — ``max_batch_size=1``: every request pays its own
  model call (the no-batching baseline)
* ``batched-10ms``  — up to 64 rows coalesced inside a 10 ms window:
  the same traffic amortized into ~1/64th as many model calls
* ``swap-under-load`` — the zero-downtime lifecycle drill: sustained
  closed-loop traffic from concurrent clients while the service
  hot-swaps registry versions mid-run and then compares a challenger
  whose every replayed call is fault-injected to fail.  The run must
  answer **every** request — zero failures, zero drops, both versions
  observed in responses, every replayed batch reported failed, no
  swap but the mid-run one — and its warm p99 sits in the same
  ``--check`` regression gate as the steady-state modes, so a swap
  that stalls the hot path fails CI.

A further probe measures **telemetry overhead**: the CPU cost of the
serving telemetry touchpoints, counted in full, must stay within 5% of
the CPU a request costs to serve with telemetry on.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py                # write BENCH_serving.json
    PYTHONPATH=src python benchmarks/bench_serving.py --check BENCH_serving.json

``--check`` re-runs the suite and exits non-zero if any mode's warm
throughput dropped more than 30% below the baseline file or its warm
p99 latency regressed more than 30% (plus 1 ms of absolute slack)
above it.  The telemetry-overhead gate applies on every run, with or
without ``--check``.  The file doubles as a pytest module (run
``pytest benchmarks/bench_serving.py``) asserting the acceptance
floor: batched serving at ≥2× single-request throughput.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Dict, List

import numpy as np

import _gate
from repro.datasets import get_dataset
from repro.eval.splits import make_temporal_split
from repro.obs import Histogram
from repro.pql import PlannerConfig, PredictiveQueryPlanner, parse
from repro.resilience import injected
from repro.serve import ModelRegistry, PredictionService, ServeConfig

REGRESSION_TOLERANCE = 0.30      # fail --check below 70% of baseline throughput
P99_TOLERANCE = 0.30             # fail --check above 130% of baseline warm p99...
P99_SLACK_MS = 1.0               # ...plus this absolute slack for tiny latencies
ACCEPTANCE_SPEEDUP = 2.0         # batched-10ms must beat single by this (warm)
TELEMETRY_OVERHEAD_LIMIT = 0.05  # full telemetry may cost at most this fraction

MODES = {
    "single": ServeConfig(max_batch_size=1, max_wait_ms=0.0, max_queue_depth=4096),
    "batched-10ms": ServeConfig(max_batch_size=64, max_wait_ms=10.0, max_queue_depth=4096),
}


def train_model(scale: float = 0.3, seed: int = 0):
    """One tiny churn model shared by every mode (training is not timed)."""
    spec = get_dataset("ecommerce")
    task = spec.task("churn")
    db = spec.build(scale=scale, seed=seed)
    span = db.time_span()
    split = make_temporal_split(
        span[0], span[1], parse(task.query).horizon_seconds, num_train_cutoffs=2
    )
    config = PlannerConfig(
        hidden_dim=8, num_layers=1, epochs=3, seed=seed,
        infer_batch_size=64,
    )
    model = PredictiveQueryPlanner(db, config).fit(task.query, split)
    return model, split, db


def build_requests(model, split, num_requests: int = 192):
    """Single-entity request keys cycled over every customer."""
    entity_type = model.binding.query.entity_table
    keys = model.graph.node_keys[entity_type]
    reps = int(np.ceil(num_requests / len(keys)))
    return np.tile(keys, reps)[:num_requests], int(split.test_cutoff)


def run_pass(service: PredictionService, keys: np.ndarray, cutoff: int) -> Dict:
    """Submit every key as its own request; wait; report latency stats."""
    start = time.perf_counter()
    cpu_start = time.process_time()
    futures = [service.predict_async([key], cutoff) for key in keys.tolist()]
    for future in futures:
        future.result(timeout=120.0)
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - start
    latency = Histogram("bench.serve.latency_ms", percentiles=(50.0, 99.0))
    for future in futures:
        latency.observe(future.latency_seconds() * 1000.0)
    summary = latency.summary()
    return {
        "requests": len(futures),
        "wall_seconds": round(wall, 4),
        "rows_per_sec": round(len(futures) / wall, 1),
        "cpu_us_per_request": round(cpu / len(futures) * 1e6, 2),
        "latency_p50_ms": round(summary["p50"], 3),
        "latency_p99_ms": round(summary["p99"], 3),
    }


def run_wave_pass(
    service: PredictionService, keys: np.ndarray, cutoff: int, wave: int = 64
) -> Dict:
    """Closed-loop pass: submit one batch worth, wait, repeat.

    Open-loop floods (``run_pass``) let the scheduler coalesce
    whatever happens to be queued, so batch sizes — and with them the
    model's per-row amortization — differ run to run and arm to arm.
    Synchronized waves pin every batch at ``wave`` rows, which makes
    per-request CPU comparable across telemetry arms.
    """
    cpu_start = time.process_time()
    start = time.perf_counter()
    total = 0
    for begin in range(0, len(keys), wave):
        futures = [
            service.predict_async([key], cutoff)
            for key in keys[begin:begin + wave].tolist()
        ]
        for future in futures:
            future.result(timeout=120.0)
        total += len(futures)
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - start
    return {
        "requests": total,
        "wall_seconds": round(wall, 4),
        "rows_per_sec": round(total / wall, 1),
        "cpu_us_per_request": round(cpu / total * 1e6, 2),
    }


def run_mode(model, mode: str, keys: np.ndarray, cutoff: int) -> Dict:
    """Cold pass (a fresh service's first requests) then warm pass."""
    service = PredictionService(model, config=MODES[mode], name=f"bench-{mode}")
    try:
        cold = run_pass(service, keys, cutoff)
        warm = run_pass(service, keys, cutoff)
    finally:
        service.close()
    return {"cold": cold, "warm": warm}


LIFECYCLE_CLIENTS = 4  # concurrent closed-loop clients in swap-under-load


def run_swap_under_load(model, db, keys: np.ndarray, cutoff: int,
                        clients: int = LIFECYCLE_CLIENTS) -> Dict:
    """Sustained traffic with a mid-run hot swap and a failing compare.

    Publishes the model twice into a throwaway registry, serves ``v1``,
    and pushes ``clients`` closed-loop request streams through it.  A
    third of the way in, the service hot-swaps to ``v2``; two thirds in,
    it compares ``v1`` with the challenger seam fault-injected to
    raise, while live traffic keeps flowing.  Every request must be
    answered, the compare must report every replayed batch failed, and
    nothing but the mid-run swap may change the live model: a single
    failed or dropped request, or a missed failure or an extra swap,
    fails the run.  The measured warm p50/p99 feed the same regression
    gate as the steady-state modes.
    """
    root = tempfile.mkdtemp(prefix="bench_registry_")
    service = None
    try:
        registry = ModelRegistry(root)
        registry.publish(model, "bench")  # v1
        registry.publish(model, "bench")  # v2
        service = PredictionService.from_registry(
            registry, "bench", db, version=1, config=MODES["batched-10ms"]
        )
        service.warmup()
        for future in [service.predict_async([key], cutoff)
                       for key in keys[:64].tolist()]:  # warm the fresh service
            future.result(timeout=120.0)

        total = clients * len(keys)
        answered: deque = deque()   # (latency_ms, model label) per request
        failures: deque = deque()

        def client() -> None:
            for key in keys.tolist():
                try:
                    future = service.predict_async([key], cutoff)
                    future.result(timeout=120.0)
                except Exception as err:
                    failures.append(f"{type(err).__name__}: {err}")
                else:
                    answered.append(
                        (future.latency_seconds() * 1000.0, future.context.label)
                    )

        def wait_for(count: int) -> None:
            while len(answered) + len(failures) < count:
                time.sleep(0.002)

        threads = [
            threading.Thread(target=client, name=f"bench-client-{i}")
            for i in range(clients)
        ]
        cpu_start = time.process_time()
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        wait_for(total // 3)
        transition = service.swap(version=2, reason="bench swap-under-load")
        wait_for(2 * total // 3)
        # Every replayed challenger call raises; the replay runs as one
        # barrier between the clients' batches.
        with injected("service.compare%1.0:raise"):
            compared = service.compare(version=1)
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start

        latency = Histogram("bench.serve.swap_latency_ms", percentiles=(50.0, 99.0))
        labels = set()
        for latency_ms, label in answered:
            latency.observe(latency_ms)
            labels.add(label)
        summary = latency.summary()
        dropped = sum(1 for f in failures if f.startswith("QueueFullError"))
        failed = len(failures) - dropped
        caught = compared["errors"] == compared["batches"] > 0
        swaps = sum(1 for event in service.events() if event["kind"] == "swapped")
        zero_downtime = not failures and len(answered) == total
        return {
            "clients": clients,
            "warm": {
                "requests": len(answered),
                "wall_seconds": round(wall, 4),
                "rows_per_sec": round(len(answered) / wall, 1),
                "cpu_us_per_request": round(cpu / max(len(answered), 1) * 1e6, 2),
                "latency_p50_ms": round(summary["p50"], 3),
                "latency_p99_ms": round(summary["p99"], 3),
            },
            "swap": {"from": transition["from"], "to": transition["to"]},
            "versions_served": sorted(labels),
            "compare": {key: compared[key] for key in
                        ("challenger", "batches", "rows", "errors", "incumbent_errors")},
            "swaps": swaps,
            "failed_requests": failed,
            "dropped_requests": dropped,
            "zero_downtime": zero_downtime,
            "passed": (
                zero_downtime and caught and swaps == 1
                and labels == {"bench@v1", "bench@v2"}
            ),
        }
    finally:
        if service is not None:
            service.close()
        shutil.rmtree(root, ignore_errors=True)


TELEMETRY_PROBE_SAMPLE_RATE = 0.1  # representative head-sampling rate
TELEMETRY_PROBE_REQUESTS = 1024    # per pass; short passes are timer noise
TELEMETRY_PROBE_ROUNDS = 3         # arms interleave across rounds


def _telemetry_touchpoint_cost(
    model, config: ServeConfig, batches: int = 400, wave: int = 64
) -> float:
    """CPU µs/request of the serving telemetry touchpoints, alone.

    Replays exactly the telemetry the micro-batcher and service perform
    per coalesced batch — request-ID assignment and head sampling,
    windowed histogram feeding, the batch's request-ID context, the
    span-collection window, trace retention, and the service's
    per-batch outcome window and SLO check — without the model call or
    the worker thread.  Single-threaded CPU time over tens of thousands
    of requests is deterministic to a fraction of a microsecond, which
    an end-to-end A/B on a busy machine is not.  Mirrors
    :meth:`MicroBatcher._execute`; keep in sync.
    """
    from repro.obs import reset_registry
    from repro.obs import trace as obs_trace
    from repro.serve import batcher as batcher_module

    reset_registry()
    service = PredictionService(model, config=config, name="bench-touchpoints")
    batcher = service._batcher
    latencies = [float(i % 7) + 1.0 for i in range(wave)]
    try:
        cpu_start = time.process_time()
        for _ in range(batches):
            admitted = [batcher._admit() for _ in range(wave)]
            batcher.histograms["serve.queue_wait_ms"].observe_many(latencies)
            batcher_module._batch_context.request_ids = tuple(
                request_id for request_id, _ in admitted)
            try:
                spans = None
                if any(sampled for _, sampled in admitted):
                    with obs_trace.collect(scope="thread") as batch_trace:
                        with obs_trace.span("serve.batch"):
                            pass
                    spans = batch_trace.to_dict()["spans"]
                batcher.histograms["serve.batch_rows"].observe(wave)
                batcher.histograms["serve.execute_ms"].observe(1.0)
                batch_info = {
                    "rows": wave, "requests": wave,
                    "request_ids": list(batcher_module.current_request_ids()),
                    "execute_ms": 1.0,
                }
                if spans:
                    batch_info["spans"] = spans
                for (request_id, sampled), latency in zip(admitted, latencies):
                    if sampled:
                        batcher._traces.append({
                            "request_id": request_id, "op": "predict", "rows": 1,
                            "outcome": "ok", "queue_wait_ms": latency,
                            "latency_ms": latency, "batch": batch_info,
                        })
                batcher.histograms["serve.latency_ms"].observe_many(latencies)
                service._on_batch(wave, 0)
            finally:
                batcher_module._batch_context.request_ids = ()
        cpu = time.process_time() - cpu_start
    finally:
        service.close()
        reset_registry()
    return cpu / (batches * wave) * 1e6


def run_telemetry_probe(model, keys: np.ndarray, cutoff: int) -> Dict:
    """The telemetry touchpoints' CPU as a share of serving CPU.

    The gated ``shipped`` arm runs telemetry as an operator would ship
    it: SLO check armed and head sampling at 10% — head sampling exists
    precisely so tracing cost lands on a fraction of requests.  A
    ``full_tracing`` arm (``trace_sample_rate=1.0``) is recorded for
    information but not gated.

    The **gate** is deterministic: the touchpoints' unit CPU cost
    (:func:`_telemetry_touchpoint_cost`, counted in full — telemetry
    has no off switch to subtract) as a fraction of the end-to-end
    serving CPU per request of the same arm.  The end-to-end passes
    are closed-loop waves (:func:`run_wave_pass`) with arms
    interleaved in rotating order, CPU-time minima and rate medians
    reported, and cyclic GC frozen so whole-heap scans aren't billed
    to whichever arm tripped the allocation threshold.
    """
    arms = {
        "shipped": dict(trace_sample_rate=TELEMETRY_PROBE_SAMPLE_RATE, slo_p99_ms=500.0),
        "full_tracing": dict(trace_sample_rate=1.0, slo_p99_ms=500.0),
    }
    configs = {label: replace(MODES["batched-10ms"], **overrides)
               for label, overrides in arms.items()}
    reps = int(np.ceil(TELEMETRY_PROBE_REQUESTS / len(keys)))
    probe_keys = np.tile(keys, reps)[:TELEMETRY_PROBE_REQUESTS]
    rates: Dict[str, List[float]] = {label: [] for label in arms}
    cpus: Dict[str, List[float]] = {label: [] for label in arms}
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        labels = list(arms)
        for round_index in range(TELEMETRY_PROBE_ROUNDS):
            order = labels[round_index % len(labels):] + labels[:round_index % len(labels)]
            for label in order:
                service = PredictionService(model, config=configs[label],
                                            name=f"bench-tel-{label}")
                try:
                    run_wave_pass(service, probe_keys, cutoff)  # warm-up, discarded
                    measured = run_wave_pass(service, probe_keys, cutoff)
                    rates[label].append(measured["rows_per_sec"])
                    cpus[label].append(measured["cpu_us_per_request"])
                finally:
                    service.close()
        unit = {
            label: min(_telemetry_touchpoint_cost(model, config) for _ in range(3))
            for label, config in configs.items()
        }
    finally:
        gc.enable()
        gc.unfreeze()
        gc.collect()
    rate = {label: float(np.median(samples)) for label, samples in rates.items()}
    cpu = {label: float(min(samples)) for label, samples in cpus.items()}
    overhead = unit["shipped"] / cpu["shipped"]
    full_overhead = unit["full_tracing"] / cpu["full_tracing"]
    return {
        "mode": "batched-10ms",
        "trace_sample_rate": TELEMETRY_PROBE_SAMPLE_RATE,
        "requests_per_pass": TELEMETRY_PROBE_REQUESTS,
        "rounds": TELEMETRY_PROBE_ROUNDS,
        "touchpoint_us_shipped": round(unit["shipped"], 3),
        "touchpoint_us_full_tracing": round(unit["full_tracing"], 3),
        "cpu_us_per_request_shipped": round(cpu["shipped"], 2),
        "cpu_us_per_request_full_tracing": round(cpu["full_tracing"], 2),
        "rows_per_sec_shipped": round(rate["shipped"], 1),
        "rows_per_sec_full_tracing": round(rate["full_tracing"], 1),
        "overhead_pct": round(overhead * 100.0, 2),
        "full_tracing_overhead_pct": round(full_overhead * 100.0, 2),
        "limit_pct": round(TELEMETRY_OVERHEAD_LIMIT * 100.0, 2),
        "passed": overhead <= TELEMETRY_OVERHEAD_LIMIT,
    }


def run_suite(num_requests: int = 192, scale: float = 0.3) -> Dict:
    model, split, db = train_model(scale=scale)
    keys, cutoff = build_requests(model, split, num_requests=num_requests)
    report: Dict = {
        "workload": {
            "dataset": "ecommerce",
            "scale": scale,
            "task": "churn",
            "num_requests": int(num_requests),
            "distinct_entities": int(len(np.unique(keys))),
        },
        "modes": {},
    }
    for mode in MODES:
        report["modes"][mode] = run_mode(model, mode, keys, cutoff)
    report["modes"]["swap-under-load"] = run_swap_under_load(model, db, keys, cutoff)
    report["telemetry"] = run_telemetry_probe(model, keys, cutoff)
    single = report["modes"]["single"]["warm"]["rows_per_sec"]
    batched = report["modes"]["batched-10ms"]["warm"]["rows_per_sec"]
    report["acceptance"] = {
        "batched_speedup_warm": round(batched / single, 2),
        "required_speedup": ACCEPTANCE_SPEEDUP,
        "passed": batched / single >= ACCEPTANCE_SPEEDUP,
    }
    return report


_GATES = [
    _gate.MetricGate("warm.rows_per_sec", direction="min",
                     tolerance=REGRESSION_TOLERANCE, unit="rows/s"),
    _gate.MetricGate("warm.latency_p99_ms", direction="max",
                     tolerance=P99_TOLERANCE, slack=P99_SLACK_MS, unit="ms"),
]


def check_against_baseline(report: Dict, baseline: Dict) -> List[str]:
    """Regression messages (empty when the run is clean)."""
    return _gate.mode_regressions(report["modes"], baseline.get("modes", {}), _GATES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_serving.json",
                        help="where to write the report (default: %(default)s)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline report; exit 1 on regression")
    parser.add_argument("--num-requests", type=int, default=192,
                        help="requests per pass (default: %(default)s)")
    args = parser.parse_args(argv)

    report = run_suite(num_requests=args.num_requests)
    for mode, entry in report["modes"].items():
        for state in ("cold", "warm"):
            if state not in entry:
                continue
            stats = entry[state]
            print(f"{mode:<15} {state:<5} {stats['rows_per_sec']:>8.0f} rows/s"
                  f"  p50 {stats['latency_p50_ms']:>7.2f}ms"
                  f"  p99 {stats['latency_p99_ms']:>7.2f}ms")
    lifecycle = report["modes"]["swap-under-load"]
    print(f"swap-under-load: {lifecycle['warm']['requests']} requests, "
          f"{lifecycle['failed_requests']} failed, "
          f"{lifecycle['dropped_requests']} dropped, "
          f"served {'+'.join(lifecycle['versions_served'])}, "
          f"compare {lifecycle['compare']['errors']}/{lifecycle['compare']['batches']} "
          f"batches failed, {lifecycle['swaps']} swap")
    print(f"batched speedup (warm): {report['acceptance']['batched_speedup_warm']:.2f}x "
          f"(required {ACCEPTANCE_SPEEDUP:.1f}x)")
    probe = report["telemetry"]
    print(f"telemetry overhead: {probe['overhead_pct']:.2f}% of serving CPU "
          f"(touchpoints {probe['touchpoint_us_shipped']:.2f} us/req on "
          f"{probe['cpu_us_per_request_shipped']:.1f} us/req serving, "
          f"limit {probe['limit_pct']:.0f}%)")

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
        print("ACCEPTANCE: batched serving below required speedup", file=sys.stderr)
        return 1
    if not report["modes"]["swap-under-load"]["passed"]:
        print(
            "ACCEPTANCE: swap-under-load was not zero-downtime "
            f"(failed={lifecycle['failed_requests']} "
            f"dropped={lifecycle['dropped_requests']} "
            f"versions={lifecycle['versions_served']} "
            f"compare_errors={lifecycle['compare']['errors']}/"
            f"{lifecycle['compare']['batches']} swaps={lifecycle['swaps']})",
            file=sys.stderr,
        )
        return 1
    if not report["telemetry"]["passed"]:
        print(
            f"ACCEPTANCE: telemetry overhead {report['telemetry']['overhead_pct']:.2f}% "
            f"exceeds {report['telemetry']['limit_pct']:.0f}% limit",
            file=sys.stderr,
        )
        return 1
    return 0


# -- pytest entry point (run: pytest benchmarks/bench_serving.py) ------
def test_serving_throughput_acceptance(tmp_path):
    report = run_suite(num_requests=128)
    assert report["acceptance"]["batched_speedup_warm"] >= ACCEPTANCE_SPEEDUP
    lifecycle = report["modes"]["swap-under-load"]
    assert lifecycle["passed"], lifecycle
    assert lifecycle["failed_requests"] == 0 and lifecycle["dropped_requests"] == 0
    out = tmp_path / "BENCH_serving.json"
    with open(out, "w") as handle:
        json.dump(report, handle)
    assert json.load(open(out))["acceptance"]["passed"]


if __name__ == "__main__":
    sys.exit(main())

"""The traced run: spans around each layer's public functions.

``--trace 1`` is a separate run; end-to-end metrics are never taken
with it on.  It fits one ``--route auto``-equivalent model in process
(CLI-equivalent :class:`PlannerConfig`), then

* times calls into each layer's public functions (dataset build, PQL
  plan and labels, graph build, sampler, GNN predict, router tiers,
  trees, batcher, protocol, registry, ingest stages), and
* replays a seeded sample of serving and ingest operations in process
  with the recorder wrapped around the model's public methods, so each
  request's wall splits into batcher wait, sampling, forward and
  routing.

The :class:`SpanRecorder` lives here, not in the product: spans carry
name, start, end, parent and a request id, stay in memory and are
written to ``trace-<workload>.json`` when the run ends.  A layer's
self time is its span minus the part its child spans cover.  Nothing
under ``src/`` changes.  README.md says which end-to-end metric each
per-layer metric should move.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

from loadgen import closed_loop, open_loop, percentile, poisson_schedule
from product import ServeProcess
from workloads import (
    BULK_ROWS,
    LADDER,
    PACED_BATCH_ROWS,
    PACED_BATCHES_PER_S,
    PACED_PREDICT_RATE,
    REFERENCE_RATE,
    Inputs,
    Tally,
    carve_stream,
)

__all__ = ["SpanRecorder", "trace_workload"]

clock = time.monotonic


class SpanRecorder:
    """In-memory spans with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            request: Optional[str] = None) -> int:
        """Record a finished span; returns its id."""
        with self._lock:
            self.spans.append({"id": len(self.spans), "name": name, "start": start,
                               "end": end, "parent": parent, "request": request})
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        """Time a block; spans opened inside it on this thread are its children."""
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            record = {"id": len(self.spans), "name": name, "start": clock(), "end": None,
                      "parent": stack[-1] if stack else None, "request": request}
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = clock()

    @contextmanager
    def wrapped(self, target, attribute: str, name: str):
        """Replace ``target.attribute`` with a span-recording wrapper for a block.

        With the recorder disabled nothing is replaced, so an untraced
        replay runs the product exactly as shipped.
        """
        if not self.enabled:
            yield
            return
        original = getattr(target, attribute)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(target, attribute, wrapper)
        try:
            yield
        finally:
            # The original was a class attribute looked up on the
            # instance; dropping the instance attribute restores it.
            if attribute in vars(target):
                delattr(target, attribute)
            else:
                setattr(target, attribute, original)

    def seconds(self, name: str) -> List[float]:
        """Durations of every finished span called ``name``."""
        return [seconds_of(s) for s in self.spans if s["name"] == name and s["end"] is not None]

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name: duration minus what children cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span["end"] is not None:
                own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
                totals[span["name"]] = totals.get(span["name"], 0.0) + max(own, 0.0)
        return totals

    def dump(self, path: str, **header) -> None:
        """Write every span and the self-time table to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "self_seconds": self.self_seconds(), "spans": self.spans}, handle)
            handle.write("\n")


def seconds_of(record: Dict[str, object]) -> float:
    """Duration of a finished span record."""
    return record["end"] - record["start"]


def median_ms(fn: Callable[[int], object], repeats: int) -> float:
    """Median wall of ``fn(i)`` over ``repeats`` calls, milliseconds."""
    samples = []
    for i in range(repeats):
        start = clock()
        fn(i)
        samples.append((clock() - start) * 1000.0)
    return float(np.median(samples))


# ----------------------------------------------------------------------
# Fit and the layers under it
# ----------------------------------------------------------------------
def probe_fit(rec: SpanRecorder, scale: float, metrics: Dict[str, float]):
    """Dataset, plan, labels, graph, then the routed fit; returns the pieces."""
    from repro.datasets import get_dataset
    from repro.graph import build_graph
    from repro.pql import (
        PlannerConfig,
        PredictiveQueryPlanner,
        RouterConfig,
        build_label_table,
        parse,
        validate,
    )

    spec = get_dataset("ecommerce")
    with rec.span("datasets.build") as span:
        spec.build(scale=scale, seed=0)
    metrics["datasets.build_s"] = seconds_of(span)
    inputs = Inputs(scale)
    # The CLI's flags at their defaults map to exactly this config.
    config = PlannerConfig(hidden_dim=32, num_layers=2, epochs=15, seed=0)
    planner = PredictiveQueryPlanner(inputs.db, config)
    # Cold parse + validate; planner.plan() memoizes per query text.
    metrics["pql.parse_plan_ms"] = median_ms(
        lambda i: validate(parse(inputs.query), inputs.db), 20)
    binding = planner.plan(inputs.query)
    with rec.span("pql.labeler.build") as span:
        labels = build_label_table(inputs.db, binding, inputs.split.train_cutoffs)
    metrics["pql.labeler.build_s"] = seconds_of(span)
    metrics["pql.labeler.rows_per_s"] = len(labels) / metrics["pql.labeler.build_s"]
    with rec.span("graph.builder.build") as span:
        graph = build_graph(inputs.db, stats_cutoff=min(inputs.split.train_cutoffs))
    metrics["graph.builder.build_s"] = seconds_of(span)
    metrics["graph.builder.edges"] = float(graph.total_edges())
    with rec.span("pql.planner.fit_routed"):
        model = planner.fit_routed(inputs.query, inputs.split, router=RouterConfig(route="auto"))
    history = model.red.node_trainer.history
    metrics["gnn.trainer.epoch_s"] = float(np.median(history.epoch_seconds))
    metrics["gnn.trainer.examples_per_s"] = float(np.median(history.examples_per_sec))
    metrics["gnn.trainer.epochs_run"] = float(len(history.epoch_seconds))
    return inputs, config, labels, model


def probe_sampler(rec: SpanRecorder, inputs: Inputs, config, labels, model,
                  metrics: Dict[str, float]) -> None:
    """The default sampler the way training and serving call it."""
    from repro.graph.builder import node_index_for_keys

    graph = model.graph
    entity = labels.entity_table
    sampler = config.make_sampler(graph, np.random.default_rng(1))
    ids = node_index_for_keys(graph, entity, labels.entity_keys)
    times = np.asarray(labels.cutoffs, dtype=np.int64)
    nodes = 0
    with rec.span("graph.sampler.epoch") as span:
        for start in range(0, len(ids), config.batch_size):
            stop = start + config.batch_size
            nodes += sampler.sample(entity, ids[start:stop], times[start:stop]).total_nodes()
    epoch_sample_s = seconds_of(span)
    metrics["graph.sampler.seeds_per_s"] = len(ids) / epoch_sample_s
    metrics["graph.sampler.nodes_per_seed"] = nodes / len(ids)
    metrics["gnn.trainer.sample_share"] = epoch_sample_s / metrics["gnn.trainer.epoch_s"]
    metrics["graph.sampler.point_ms"] = median_ms(
        lambda i: sampler.sample(entity, ids[i:i + 1], times[i:i + 1]), min(200, len(ids)))
    snapshot = model.sampler_cache_snapshot()
    lookups = (snapshot["hits"] + snapshot["misses"]) if snapshot else 0
    metrics["graph.cache.hit_rate"] = snapshot["hits"] / lookups if lookups else 0.0


def probe_predict(rec: SpanRecorder, inputs: Inputs, model, metrics: Dict[str, float]) -> None:
    """Direct ``model.predict`` at three batch sizes, sampling share inside."""
    red = model.red
    sampler = red.node_trainer.sampler
    rng = np.random.default_rng(2)
    for rows, repeats in ((1, 100), (64, 20), (BULK_ROWS, 10)):
        batches = [rng.choice(inputs.keys, size=min(rows, len(inputs.keys)), replace=False)
                   for _ in range(repeats)]
        before = len(rec.spans)
        with rec.wrapped(sampler, "sample", "graph.sampler.sample"):
            with rec.span(f"gnn.predict.b{rows}") as span:
                for keys in batches:
                    red.predict(keys, inputs.cutoff)
        total = seconds_of(span)
        metrics[f"gnn.predict_ms.b{rows}"] = total / repeats * 1000.0
        sampled = sum(seconds_of(s) for s in rec.spans[before:]
                      if s["name"] == "graph.sampler.sample")
        if rows != 64:
            metrics[f"gnn.predict.sample_share.b{rows}"] = sampled / total


def probe_router(rec: SpanRecorder, inputs: Inputs, model, metrics: Dict[str, float]) -> None:
    """Routing decision cost, forced tiers at three sizes, trees alone."""
    metrics["pql.router.decide_us"] = median_ms(lambda i: model.decide(1), 200) * 1000.0
    rng = np.random.default_rng(3)
    tiers = model.available_tiers()
    for tier in ("green", "yellow", "red"):
        for rows in (1, 16, BULK_ROWS):
            name = f"pql.router.tier_ms_per_row.{tier}.b{rows}"
            if tier not in tiers:
                metrics[name] = 0.0
                continue
            size = min(rows, len(inputs.keys))
            batches = [rng.choice(inputs.keys, size=size, replace=False) for _ in range(12)]
            with rec.span(f"pql.router.{tier}.b{rows}"):
                per_call = median_ms(
                    lambda i: model.predict(batches[i], inputs.cutoff, route=tier), len(batches))
            metrics[name] = per_call / size
        ratio = 0.0
        if tier in tiers:
            model.predict(inputs.keys[:16], inputs.cutoff, route=tier)
            last = model.last_route
            ratio = last.est_cost_ms / last.realized_cost_ms if last.realized_cost_ms else 0.0
        metrics[f"pql.router.est_over_realized.{tier}"] = ratio
    if model.yellow is not None:
        cutoffs = np.full(BULK_ROWS, inputs.cutoff, dtype=np.int64)
        keys = inputs.keys[:BULK_ROWS]
        features = model.yellow.features(keys, cutoffs[:len(keys)])
        score = model.yellow.estimator.predict_proba
        for rows in (1, len(keys)):
            label = "b1" if rows == 1 else f"b{BULK_ROWS}"
            metrics[f"baselines.trees.predict_us_per_row.{label}"] = (
                median_ms(lambda i: score(features[:rows]), 50) * 1000.0 / rows)
    else:
        metrics["baselines.trees.predict_us_per_row.b1"] = 0.0
        metrics[f"baselines.trees.predict_us_per_row.b{BULK_ROWS}"] = 0.0


# ----------------------------------------------------------------------
# Serving replays
# ----------------------------------------------------------------------
def serve_replay(rec: SpanRecorder, model, requests, cutoff: int, due: np.ndarray,
                 label: str) -> Dict[str, float]:
    """Open-loop replay against a default in-process service.

    With the recorder enabled, ``model.predict`` (and the sampler under
    it) record spans on the batcher's worker thread; afterwards each
    request gets a root span (submit to resolve) whose children are
    the batcher wait and the batch's model call, matched by position —
    the batcher coalesces consecutive requests in submission order.
    """
    from repro.serve import PredictionService
    from repro.serve.batcher import QueueFullError

    red = getattr(model, "red", model)
    sampler = red.node_trainer.sampler
    first_span = len(rec.spans)
    futures: List[object] = [None] * len(requests)
    with PredictionService(model) as service:
        service.predict(requests[0], cutoff)

        def send(i: int) -> None:
            try:
                futures[i] = service.predict_async(requests[i], cutoff)
            except QueueFullError:
                futures[i] = None

        with rec.wrapped(sampler, "sample", "graph.sampler.sample"), \
                rec.wrapped(model, "predict", "model.predict"):
            start, sent_at = open_loop(send, due)
            for future in futures:
                if future is not None:
                    future.result(timeout=30.0)
        stats = service.stats()["metrics"]
    done = [f for f in futures if f is not None]
    latency = [(f.resolved_at - (start + due[i])) * 1000.0
               for i, f in enumerate(futures) if f is not None]
    batches = [s for s in rec.spans[first_span:] if s["name"] == "model.predict"]
    result = {
        "p50_ms": percentile(latency, 50),
        "rejects": float(len(futures) - len(done)),
        "late_p99_ms": percentile((sent_at - (start + due)) * 1000.0, 99),
        "batches": float(len(batches)),
        "rows_per_batch": sum(len(r) for r in requests) / max(len(batches), 1),
        "stats": stats,
    }
    if rec.enabled and batches:
        # A request resolves right after its batch returns, so its batch
        # is the last one that ended before the request resolved.
        ends = np.array([batch["end"] for batch in batches])
        covered = total = 0.0
        for future in done:
            batch = batches[max(int(np.searchsorted(ends, future.resolved_at, side="right")) - 1, 0)]
            root = rec.add(f"{label}.request", future.submitted_at, future.resolved_at,
                           request=future.request_id)
            rec.add("serve.batcher.wait", future.submitted_at, batch["start"], root,
                    future.request_id)
            rec.add("serve.batch", batch["start"], batch["end"], root, future.request_id)
            total += future.resolved_at - future.submitted_at
            covered += batch["end"] - future.submitted_at
        result["coverage"] = covered / total if total else 0.0
    return result


def probe_serving(rec: SpanRecorder, inputs: Inputs, model, seed: int, seconds: float,
                  metrics: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Batcher metrics from the GNN point replay; route shares from the mixed one."""
    rng = np.random.default_rng(seed)
    replays = {}
    red = model.red
    for rate in LADDER:
        span_s = max(seconds * (0.15 if rate == REFERENCE_RATE else 0.05), 0.5)
        count = int(rate * span_s)
        requests = inputs.point_requests(rng, count)
        due = poisson_schedule(rng, rate, count)
        if rate == REFERENCE_RATE:
            rec.enabled = False
            untraced = serve_replay(rec, red, requests, inputs.cutoff, due, "gnn_point")
            rec.enabled = True
        replay = serve_replay(rec, red, requests, inputs.cutoff, due, "gnn_point")
        metrics[f"serve.queue_rejects.r{rate}"] = replay["rejects"]
        if rate == REFERENCE_RATE:
            replays["gnn_point"] = replay
            replay["untraced_p50_ms"] = untraced["p50_ms"]
            # Service p50 minus the direct model call of the same batches.
            direct = rec.seconds("model.predict")[-int(replay["batches"]):]
            metrics["serve.batcher.wait_ms"] = replay["p50_ms"] - percentile(direct, 50) * 1000.0
            metrics["serve.batcher.rows_per_batch"] = replay["rows_per_batch"]
            metrics["serve.batcher.batches"] = replay["batches"]
    count = max(int(150 * seconds * 0.15), 50)
    requests = inputs.mixed_requests(rng, count)
    due = poisson_schedule(rng, 150, count)
    replay = serve_replay(rec, model, requests, inputs.cutoff, due, "routed_mixed")
    replays["routed_mixed"] = replay
    routed = {t: replay["stats"].get(f"serve.route.{t}", {}).get("value", 0.0)
              for t in ("green", "yellow", "red")}
    total = sum(routed.values()) or 1.0
    for tier, value in routed.items():
        metrics[f"pql.router.route_share.{tier}"] = value / total
    return replays


def probe_protocol(rec: SpanRecorder, inputs: Inputs, model, work: str, seed: int,
                   seconds: float, in_process_p50_ms: float, metrics: Dict[str, float],
                   tally: Tally) -> None:
    """Save, publish, reload, then the CLI pipe: ping and 400 req/s."""
    from repro.pql import TrainedPredictiveModel
    from repro.serve import ModelRegistry

    model_dir = os.path.join(work, "traced_model")
    model.red.save(model_dir)
    with rec.span("serve.registry.publish") as span:
        ModelRegistry(os.path.join(work, "registry")).publish_dir(model_dir, "churn")
    metrics["serve.registry.publish_s"] = seconds_of(span)
    with rec.span("serve.model_load") as span:
        TrainedPredictiveModel.load(model_dir, inputs.db)
    metrics["serve.model_load_s"] = seconds_of(span)
    rng = np.random.default_rng(seed + 1)
    count = int(REFERENCE_RATE * max(seconds * 0.15, 0.5))
    requests = inputs.point_requests(rng, count)
    due = poisson_schedule(rng, REFERENCE_RATE, count)
    lines = inputs.lines(requests)
    ping = b'{"op": "ping"}\n'
    with ServeProcess(model_dir, inputs.scale) as server:
        conn = server.conn
        closed_loop(conn, lines[:32], 1)
        with rec.span("serve.protocol.ping"):
            pings = closed_loop(conn, [ping] * 200, 1)
        metrics["serve.protocol.ping_rtt_ms"] = percentile(pings.latencies_ms(), 50)
        conn.expect(count)
        with rec.span("serve.protocol.replay"):
            start, _ = open_loop(lambda i: conn.send(lines[i]), due)
            received = conn.collect(timeout=30.0)
        tally.check(len(received) == count and server.close() == 0,
                    "traced CLI replay lost responses or the server did not exit cleanly")
    latency = [(arrival - (start + due[i])) * 1000.0 for i, (_, arrival) in enumerate(received)]
    metrics["serve.protocol.overhead_ms"] = percentile(latency, 50) - in_process_p50_ms


# ----------------------------------------------------------------------
# Ingest
# ----------------------------------------------------------------------
def probe_ingest(rec: SpanRecorder, inputs: Inputs, model, work: str, seed: int,
                 seconds: float, metrics: Dict[str, float], tally: Tally) -> Dict[str, float]:
    """Ingest stages alone, then a paced replay through the barrier under reads."""
    from repro.ingest import DeltaGraphBuilder, IngestPipeline, SegmentLog
    from repro.ingest.events import validate_event
    from repro.ingest.refresh import refresh_model
    from repro.pql import TrainedPredictiveModel
    from repro.serve import PredictionService

    red = model.red
    base, events = carve_stream(inputs.db, after=red.stats_cutoff)
    model_dir = os.path.join(work, "traced_model")
    live = TrainedPredictiveModel.load(model_dir, base)
    log_root = os.path.join(work, "traced_log")
    log = SegmentLog.create(log_root, base)
    pipeline = IngestPipeline(
        log, builder=DeltaGraphBuilder(live.db, graph=live.graph, stats_cutoff=live.stats_cutoff))
    schemas = {table.name: table.schema for table in base}
    sample = events[:500]
    start = clock()
    for event in sample:
        validate_event(event, schemas[event.table])
    metrics["ingest.events.validate_us"] = (clock() - start) / len(sample) * 1e6

    refreshed = {"cache_retained": 0, "cache_invalidated": 0}
    rejected = quarantined = 0
    touched: List[float] = []

    def process(batch):
        nonlocal rejected, quarantined
        with rec.span("ingest.barrier.busy"):
            report = pipeline.process(batch)
            if report.delta is not None:
                touched.append(report.delta.touched_fraction)
                with rec.span("ingest.refresh.model"):
                    out = refresh_model(live, report.delta)
                for key in refreshed:
                    refreshed[key] += out[key]
        rejected += len(report.rejected)
        quarantined = report.quarantined
        return report

    rng = np.random.default_rng(seed + 2)
    paced_s = max(seconds * 0.2, 1.0)
    used = 0
    with rec.wrapped(pipeline.log, "append", "ingest.segments.append"), \
            rec.wrapped(pipeline.builder, "apply", "ingest.delta.apply"):
        # Stages alone: batches of 16, then of 100, no service in the way.
        for rows, repeats in ((PACED_BATCH_ROWS, 20), (100, 10)):
            before = len(rec.spans)
            for _ in range(repeats):
                process(events[used:used + rows])
                used += rows
            spans = rec.spans[before:]
            applies = [seconds_of(s) for s in spans if s["name"] == "ingest.delta.apply"]
            metrics[f"ingest.delta.apply_ms.b{rows}"] = float(np.median(applies)) * 1000.0
            if rows == PACED_BATCH_ROWS:
                appends = [seconds_of(s) for s in spans if s["name"] == "ingest.segments.append"]
                metrics["ingest.segments.append_ms"] = float(np.median(appends)) * 1000.0
        segment_dir = os.path.join(log_root, "segments")
        size = sum(os.path.getsize(os.path.join(segment_dir, f)) for f in os.listdir(segment_dir))
        metrics["ingest.segments.bytes_per_event"] = size / used

        # Paced replay: barrier wait is refresh_graph's total minus apply_fn.
        batch_due = poisson_schedule(rng, PACED_BATCHES_PER_S, int(PACED_BATCHES_PER_S * paced_s))
        count = int(PACED_PREDICT_RATE * paced_s)
        requests = inputs.point_requests(rng, count)
        due = poisson_schedule(rng, PACED_PREDICT_RATE, count)
        freshness, waits, busy = [], [], []
        with PredictionService(live) as service:
            service.predict(requests[0], inputs.cutoff)
            phase_start = clock() + 0.05

            def ingest_thread() -> None:
                nonlocal used

                def send(i: int) -> None:
                    nonlocal used
                    batch = events[used:used + PACED_BATCH_ROWS]
                    used += PACED_BATCH_ROWS
                    inner = []

                    def apply():
                        # Runs on the batcher's worker once every batch
                        # admitted before the barrier has executed.
                        rec.add("ingest.barrier.wait", begun, clock(), root["id"])
                        entered = clock()
                        report = process(batch)
                        inner.append(clock() - entered)
                        return report

                    begun = clock()
                    with rec.span("ingest.refresh_graph") as root:
                        service.refresh_graph(apply)
                    total = clock() - begun
                    busy.append(inner[0] * 1000.0)
                    waits.append((total - inner[0]) * 1000.0)
                    freshness.append((clock() - (phase_start + batch_due[i])) * 1000.0)

                open_loop(send, batch_due, start=phase_start)

            writer = threading.Thread(target=ingest_thread, name="loadgen-ingest")
            writer.start()
            futures = []
            start, sent_at = open_loop(
                lambda i: futures.append(service.predict_async(requests[i], inputs.cutoff)),
                due, start=phase_start)
            writer.join(timeout=60.0)
            for future in futures:
                future.result(timeout=30.0)
        tally.check(not writer.is_alive() and len(freshness) == len(batch_due),
                    "traced paced ingest did not finish")
    metrics["ingest.delta.touched_fraction"] = float(np.median(touched))
    metrics["ingest.refresh.model_ms"] = float(np.median(rec.seconds("ingest.refresh.model"))) * 1000.0
    metrics["ingest.refresh.cache_retained"] = float(refreshed["cache_retained"])
    metrics["ingest.refresh.cache_invalidated"] = float(refreshed["cache_invalidated"])
    metrics["ingest.rejected"] = float(rejected)
    metrics["ingest.quarantined"] = float(quarantined)
    metrics["ingest.barrier.busy_ms"] = percentile(busy, 50)
    metrics["ingest.barrier.wait_ms"] = percentile(waits, 50)
    metrics["ingest.freshness_p50_ms"] = percentile(freshness, 50)
    metrics["ingest.freshness_p95_ms"] = percentile(freshness, 95)
    roots = rec.seconds("ingest.refresh_graph")
    inside = rec.seconds("ingest.barrier.wait") + rec.seconds("ingest.barrier.busy")[-len(roots):]
    return {
        "late_p99_ms": percentile((sent_at - (start + due)) * 1000.0, 99),
        # Share of the refresh_graph wall that is inside a layer span.
        "coverage": sum(inside) / sum(roots),
    }


def trace_workload(workload: str, seconds: float, seed: int, work: str, tally: Tally,
                   smoke: bool, trace_path: str) -> Dict[str, float]:
    """The traced run; returns every per-layer metric of ``BENCHMARK.json``.

    Layer probes are the same on every workload (a layer's cost is a
    property of the layer); ``workload`` picks which replay the
    ``trace.*`` and ``loadgen.*`` figures describe.
    """
    rec = SpanRecorder()
    metrics: Dict[str, float] = {}
    scale = 0.5 if smoke else 1.0
    with rec.span("trace.run"):
        inputs, config, labels, model = probe_fit(rec, scale, metrics)
        probe_sampler(rec, inputs, config, labels, model, metrics)
        probe_predict(rec, inputs, model, metrics)
        probe_router(rec, inputs, model, metrics)
        replays = probe_serving(rec, inputs, model, seed, seconds, metrics)
        point = replays["gnn_point"]
        probe_protocol(rec, inputs, model, work, seed, seconds, point["p50_ms"], metrics, tally)
        replays["ingest"] = probe_ingest(rec, inputs, model, work, seed, seconds, metrics, tally)
    chosen = {"serve_routed_mixed": "routed_mixed", "ingest_under_load": "ingest"}.get(
        workload, "gnn_point")
    metrics["loadgen.late_p99_ms"] = replays[chosen]["late_p99_ms"]
    metrics["trace.coverage"] = replays[chosen]["coverage"]
    metrics["trace.overhead_share"] = point["p50_ms"] / point["untraced_p50_ms"] - 1.0
    rec.dump(trace_path, workload=workload, seed=seed, seconds=seconds)
    return metrics

"""Tests for live serving telemetry.

Covers the windowed histograms (time + capacity eviction with an
injectable clock), the batcher's deterministic request-ID assignment,
head sampling and trace ring, the service's SLO check (edge-triggered,
amortized, read off the windowed ``serve.latency_ms``) and its one
bounded event log, the thread-safety contracts of the metrics registry
and trace collector, request-ID propagation through micro-batch
coalescing, and the exposition surface (Prometheus text, stats
documents, CLI rendering).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import cli
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    WindowedHistogram,
    get_registry,
    reset_registry,
)
from repro.obs.report import render_prometheus, render_stats_text, stats_document
from repro.pql.ast import TaskType
from repro.serve import PredictionService, ServeConfig
from repro.serve import service as service_module
from repro.serve.batcher import TRACE_CAPACITY, MicroBatcher, current_request_ids


@pytest.fixture(autouse=True)
def _clean_registry():
    """Telemetry writes into the process-global registry; isolate tests."""
    reset_registry()
    yield
    reset_registry()


class FakeClock:
    """Deterministic monotonic clock for window-eviction tests."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class StubModel:
    """The model surface :class:`PredictionService` touches, no training.

    ``delay_s`` makes every predict that slow; ``fail`` makes it raise.
    """

    task_type = TaskType.BINARY
    degraded_reason = None
    last_route = None
    quality: dict = {}
    raw_gnn_quality = None
    blend_alpha = None
    router = SimpleNamespace(quality_floor=0.0)
    cost = SimpleNamespace(per_row_ms=lambda: {})

    def __init__(self) -> None:
        self.delay_s = 0.0
        self.fail = False

    def available_tiers(self):
        return ["green", "red"]

    def data_summary(self):
        return {"data_source": "stub", "rows": 3}

    def predict(self, keys, cutoffs, **policy):
        if self.fail:
            raise RuntimeError("stub model failure")
        time.sleep(self.delay_s)
        return np.zeros(len(keys))


def stub_service(**overrides) -> PredictionService:
    """A service over :class:`StubModel` that fails instead of degrading."""
    return PredictionService(StubModel(), ServeConfig(fallback=False, **overrides))


def predict(service: PredictionService) -> bool:
    """One blocking single-row predict; whether it succeeded."""
    try:
        service.predict([1], 0)
        return True
    except RuntimeError:
        return False


def answer_all(batcher: MicroBatcher, count: int) -> list:
    """Submit ``count`` one-row requests one at a time; their futures."""
    futures = []
    for key in range(count):
        future = batcher.submit("predict", np.array([key]), np.array([0]))
        future.result(timeout=10.0)
        futures.append(future)
    return futures


def zeros_batcher(**kwargs) -> MicroBatcher:
    return MicroBatcher(
        lambda op, k, keys, cutoffs, context=None: np.zeros(len(keys)), **kwargs
    )


# ----------------------------------------------------------------------
# WindowedHistogram
# ----------------------------------------------------------------------
class TestWindowedHistogram:
    def test_time_eviction_drops_old_samples(self):
        clock = FakeClock()
        hist = WindowedHistogram("w", window_seconds=10.0, clock=clock)
        hist.observe(1.0)
        hist.observe(2.0)
        clock.advance(11.0)
        hist.observe(3.0)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["min"] == 3.0
        assert summary["total_count"] == 3  # lifetime survives eviction
        assert summary["total_sum"] == 6.0
        assert summary["window_seconds"] == 10.0

    def test_capacity_cap_splits_batch_chunks(self):
        clock = FakeClock()
        hist = WindowedHistogram("w", window_seconds=60.0, max_samples=4, clock=clock)
        hist.observe_many([1.0, 2.0, 3.0])
        hist.observe_many([4.0, 5.0, 6.0])
        # Capacity 4 must split the first three-sample chunk, keeping
        # its newest value and the whole second chunk.
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["min"] == 3.0
        assert summary["max"] == 6.0
        assert summary["total_count"] == 6

    def test_observe_many_empty_is_noop(self):
        hist = WindowedHistogram("w")
        hist.observe_many([])
        assert hist.summary()["count"] == 0
        assert hist.total_count == 0

    def test_streaming_percentiles_track_the_window(self):
        clock = FakeClock()
        hist = WindowedHistogram("w", window_seconds=5.0, clock=clock)
        hist.observe_many([100.0] * 10)
        clock.advance(6.0)  # slow era leaves the window entirely
        hist.observe_many([1.0] * 10)
        summary = hist.summary()
        assert summary["p99"] == 1.0
        assert summary["count"] == 10

    def test_to_dict_inlines_summary(self):
        hist = WindowedHistogram("w")
        hist.observe(5.0)
        record = hist.to_dict()
        assert record["type"] == "windowed_histogram"
        assert record["count"] == 1
        assert "p99" in record and "window_seconds" in record

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedHistogram("w", window_seconds=0.0)
        with pytest.raises(ValueError):
            WindowedHistogram("w", max_samples=0)

    def test_registry_lookup_is_transparent(self):
        registry = MetricsRegistry()
        windowed = registry.windowed_histogram("serve.latency_ms")
        # Plain histogram lookups land on the same windowed instrument.
        assert registry.histogram("serve.latency_ms") is windowed
        registry.histogram("plain")
        with pytest.raises(TypeError):
            registry.windowed_histogram("plain")

    def test_serve_histograms_are_always_windowed(self):
        batcher = zeros_batcher(window_seconds=5.0)
        try:
            answer_all(batcher, 2)
        finally:
            batcher.close()
        exported = get_registry().to_dict()
        for name in ("serve.latency_ms", "serve.queue_wait_ms",
                     "serve.execute_ms", "serve.batch_rows"):
            assert exported[name]["type"] == "windowed_histogram"
            assert exported[name]["window_seconds"] == 5.0
        assert exported["serve.latency_ms"]["total_count"] == 2


# ----------------------------------------------------------------------
# Histogram percentiles (p99 default + configurability)
# ----------------------------------------------------------------------
class TestHistogramPercentiles:
    def test_p99_reported_by_default(self):
        hist = Histogram("h")
        hist.observe_many(list(range(1, 101)))
        summary = hist.summary()
        assert set(summary) >= {"p50", "p95", "p99"}
        assert summary["p99"] == pytest.approx(np.percentile(range(1, 101), 99))

    def test_custom_percentiles_and_fractional_keys(self):
        hist = Histogram("h", percentiles=(50.0, 99.9))
        hist.observe_many(list(range(1000)))
        summary = hist.summary()
        assert "p99.9" in summary and "p95" not in summary
        per_call = hist.summary(percentiles=(10.0,))
        assert "p10" in per_call and "p99.9" not in per_call

    def test_observe_many_matches_observe(self):
        one, many = Histogram("a"), Histogram("b")
        for v in (3.0, 1.0, 2.0):
            one.observe(v)
        many.observe_many([3.0, 1.0, 2.0])
        assert one.summary() == many.summary()


# ----------------------------------------------------------------------
# Thread-safety: registry and trace collector under concurrent mutation
# ----------------------------------------------------------------------
class TestConcurrentMutation:
    def test_registry_loses_no_updates_under_contention(self):
        registry = MetricsRegistry()
        threads_n, iterations = 8, 400

        def hammer(worker: int) -> None:
            for i in range(iterations):
                registry.counter("hits").inc()
                registry.counter(f"per.{worker % 4}").inc(2.0)
                registry.histogram("lat").observe(float(i))
                registry.gauge("depth").set(float(i))
                if i % 50 == 0:
                    registry.to_dict()  # concurrent export must not corrupt

        workers = [
            threading.Thread(target=hammer, args=(n,)) for n in range(threads_n)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert registry.counter("hits").value == threads_n * iterations
        assert sum(
            registry.counter(f"per.{k}").value for k in range(4)
        ) == threads_n * iterations * 2.0
        assert registry.histogram("lat").count == threads_n * iterations

    def test_windowed_histogram_concurrent_observes(self):
        hist = WindowedHistogram("w", window_seconds=3600.0, max_samples=100_000)
        threads_n, iterations = 6, 300

        def observe() -> None:
            for i in range(iterations):
                if i % 2:
                    hist.observe(float(i))
                else:
                    hist.observe_many([float(i), float(i)])

        workers = [threading.Thread(target=observe) for _ in range(threads_n)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        expected = threads_n * (iterations // 2 + iterations // 2 * 2)
        assert hist.total_count == expected
        assert hist.summary()["count"] == expected

    def test_thread_scoped_trace_windows_stay_private(self):
        results: dict = {}

        def traced(name: str) -> None:
            with obs_trace.collect(scope="thread") as trace:
                with obs_trace.span(f"outer.{name}"):
                    with obs_trace.span(f"inner.{name}"):
                        pass
            results[name] = trace.to_dict()["spans"]

        workers = [
            threading.Thread(target=traced, args=(f"t{n}",)) for n in range(4)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        for name, spans in results.items():
            # Each thread sees exactly its own two-span tree, intact.
            assert [s["name"] for s in spans] == [f"outer.{name}"]
            assert [c["name"] for c in spans[0]["children"]] == [f"inner.{name}"]


# ----------------------------------------------------------------------
# The batcher's request IDs, head sampling and trace ring
# ----------------------------------------------------------------------
class TestRequestTracer:
    """The batcher's request IDs, head sampling and trace ring (the class
    name is kept so the test IDs stay stable)."""

    def sampled_ids(self, rate: float, count: int):
        batcher = zeros_batcher(trace_sample_rate=rate)
        try:
            answer_all(batcher, count)
        finally:
            batcher.close()
        assert batcher.admitted == count
        return [t["request_id"] for t in batcher.traces()], batcher

    def test_sequential_ids(self):
        batcher = zeros_batcher()
        try:
            futures = answer_all(batcher, 3)
        finally:
            batcher.close()
        assert [f.request_id for f in futures] == ["req-000001", "req-000002", "req-000003"]

    def test_sampling_is_deterministic_error_diffusion(self):
        ids, batcher = self.sampled_ids(0.5, 6)
        assert ids == ["req-000002", "req-000004", "req-000006"]
        assert batcher.sampled == 3

    def test_rate_one_samples_everything_rate_zero_nothing(self):
        ids, _ = self.sampled_ids(1.0, 4)
        assert ids == [f"req-{n:06d}" for n in range(1, 5)]
        ids, batcher = self.sampled_ids(0.0, 4)
        assert ids == [] and batcher.sampled == 0

    def test_quarter_rate_admits_every_fourth(self):
        ids, _ = self.sampled_ids(0.25, 8)
        assert ids == ["req-000004", "req-000008"]

    def test_trace_ring_buffer_drops_oldest(self):
        ids, _ = self.sampled_ids(1.0, TRACE_CAPACITY + 5)
        assert ids == [f"req-{n:06d}" for n in range(6, TRACE_CAPACITY + 6)]

    def test_concurrent_admissions_get_unique_ids_and_exact_sampling(self):
        batcher = zeros_batcher(trace_sample_rate=0.5, max_queue_depth=4096)
        threads_n, per_thread = 8, 200
        futures: list = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def submit() -> None:
                for key in range(per_thread):
                    futures.append(
                        batcher.submit("predict", np.array([key]), np.array([0])))

            workers = [threading.Thread(target=submit) for _ in range(threads_n)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(30.0)
            assert not any(t.is_alive() for t in workers)
            for future in futures:
                future.result(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
            batcher.close()
        total = threads_n * per_thread
        assert len({f.request_id for f in futures}) == total == batcher.admitted
        assert batcher.sampled == total // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            zeros_batcher(trace_sample_rate=1.5)
        with pytest.raises(ValueError):
            zeros_batcher(window_seconds=0.0)


# ----------------------------------------------------------------------
# The service's SLO check and event log
# ----------------------------------------------------------------------
class TestSLOMonitor:
    """The service's SLO check, outcome window and event log (the class
    name is kept so the test IDs stay stable)."""

    def test_p99_breach_and_recovery_are_edge_triggered(self):
        with stub_service(slo_p99_ms=20.0, telemetry_window_s=0.5) as service:
            service.model.delay_s = 0.04
            for _ in range(3):
                assert predict(service)
            assert service.health()["slo_breaching"]
            time.sleep(0.6)  # slow requests age out of the window
            service.model.delay_s = 0.0
            assert predict(service)
            assert not service.health()["slo_breaching"]
            events = service.events()
        assert [e["kind"] for e in events] == ["slo_breach", "slo_recovered"]
        breach = events[0]
        assert "p99" in breach["reason"]
        # The breach fires on the first slow request and names its batch.
        assert breach["request_ids"] == ["req-000001"]
        assert events[1]["request_ids"] == ["req-000004"]

    def test_budget_checks_are_amortized_but_failures_check_immediately(
        self, monkeypatch
    ):
        monkeypatch.setattr(service_module, "SLO_CHECK_EVERY", 10)
        monkeypatch.setattr(service_module, "SLO_CHECK_INTERVAL_S", 1e9)
        with stub_service(slo_p99_ms=10.0) as service:
            assert predict(service)  # the first batch always evaluates
            service.model.delay_s = 0.02
            for _ in range(9):
                assert predict(service)
            # Nine requests since the last check: the sort hasn't re-run yet.
            assert not service.health()["slo_breaching"]
            assert predict(service)  # the tenth trips SLO_CHECK_EVERY
            assert service.health()["slo_breaching"]
        # A failed request forces an immediate evaluation regardless.
        with stub_service(slo_p99_ms=10.0) as service:
            assert predict(service)
            service.model.delay_s = 0.02
            for _ in range(3):
                assert predict(service)
            assert not service.health()["slo_breaching"]
            service.model.fail = True
            assert not predict(service)
            assert service.health()["slo_breaching"]

    def test_window_counters_age_out_in_chunks(self):
        with stub_service(telemetry_window_s=1.0) as service:
            assert predict(service)
            service.model.fail = True
            assert not predict(service)
            time.sleep(0.5)
            service.model.fail = False
            assert predict(service)
            window = service.health()["window"]
            assert window["requests"] == 3 and window["errors"] == 1
            assert window["error_rate"] == pytest.approx(1 / 3)
            time.sleep(0.7)  # the first two batches expire, the third survives
            window = service.health()["window"]
        assert window["requests"] == 1 and window["errors"] == 0

    def test_record_event_defaults_to_the_executing_batch_ids(self):
        with stub_service() as service:
            model = service.model

            def degrade(keys, cutoffs, **policy):
                # Recorded on the executor, inside the batch's model call.
                service._record_event("degraded", "from inside the batch")
                return np.zeros(len(keys))

            assert predict(service)
            model.predict = degrade
            assert predict(service)
            service.restore()  # not degraded: records nothing
            outside = service._record_event("note", "from the operator thread")
            explicit = service._record_event("note", "named", request_ids=["req-000009"])
            events = service.events()
        assert events[0]["request_ids"] == ["req-000002"]
        assert outside["request_ids"] == []
        assert explicit["request_ids"] == ["req-000009"]
        assert [e["seq"] for e in events] == [1, 2, 3]

    def test_event_log_is_bounded(self):
        capacity = service_module.EVENT_LOG_CAPACITY
        with stub_service() as service:
            for n in range(capacity + 6):
                service.swap_model(service.model, warm=False, reason=f"swap {n}")
            events = service.events()
        assert len(events) == capacity
        assert events[0]["reason"] == "swap 6"
        assert events[-1]["seq"] == capacity + 6

    def test_shared_latency_histogram_is_not_double_observed(self):
        with stub_service(slo_p99_ms=500.0) as service:
            assert predict(service) and predict(service)
            window = service.health()["window"]
        shared = get_registry().histogram("serve.latency_ms")
        assert isinstance(shared, WindowedHistogram)
        assert shared.summary()["count"] == 2  # the batcher's observations only
        assert window["latency_ms"]["count"] == 2
        assert window["requests"] == 2

    def test_snapshot_is_json_ready(self):
        with stub_service(slo_p99_ms=0.0) as service:
            assert predict(service)
            snapshot = json.loads(json.dumps(service.stats()["telemetry"]))
        slo = snapshot["slo"]
        assert slo["breaching"] is True
        assert slo["p99_target_ms"] == 0.0
        assert slo["window"]["requests"] == 1
        assert "enabled" not in snapshot
        assert snapshot["requests_admitted"] == 1


def test_graph_refreshes_keep_the_event_log_and_lifecycle_bounded():
    with stub_service() as service:
        swapped = service.swap_model(service.model, warm=False, reason="new weights")
        for _ in range(1000):
            service.refresh_graph(lambda: None, reason="ingest batch")
        events = service.events()
        lifecycle = service.lifecycle()
    assert len(events) <= service_module.EVENT_LOG_CAPACITY
    assert [e["kind"] for e in events] == ["swapped"]
    assert lifecycle["transitions"] == [swapped]
    assert swapped["from"] == "model" and swapped["reason"] == "new weights"
    assert lifecycle["last_refresh"]["reason"] == "ingest batch"
    assert get_registry().counter("serve.graph_refreshes").value == 1000


# ----------------------------------------------------------------------
# Request-ID propagation through micro-batch coalescing
# ----------------------------------------------------------------------
class TestRequestIdPropagation:
    def test_coalesced_requests_keep_distinct_ids_and_shared_batch(self):
        gate, blocking = threading.Event(), threading.Event()
        runner_ids: list = []

        def runner(op, k, keys, cutoffs, context=None):
            runner_ids.append(current_request_ids())
            if keys[0] == -1:
                blocking.set()
                gate.wait(10.0)
            return np.asarray(keys, dtype=float) * 2.0

        batcher = MicroBatcher(
            runner, max_batch_size=8, max_wait_ms=50.0, trace_sample_rate=1.0
        )
        try:
            # A sacrificial request pins the worker inside the runner so
            # the next two requests provably coalesce into one batch.
            sacrifice = batcher.submit("predict", np.array([-1]), np.array([0]))
            assert blocking.wait(10.0)
            first = batcher.submit("predict", np.array([10]), np.array([0]))
            second = batcher.submit("predict", np.array([20, 21]), np.array([0, 0]))
            gate.set()
            sacrifice.result(timeout=10.0)
            assert list(first.result(timeout=10.0)) == [20.0]
            assert list(second.result(timeout=10.0)) == [40.0, 42.0]
        finally:
            gate.set()
            batcher.close()
        assert first.request_id == "req-000002"
        assert second.request_id == "req-000003"
        # The coalesced batch executed once, carrying both IDs.
        assert runner_ids[1] == (first.request_id, second.request_id)
        assert current_request_ids() == ()  # context is per executing thread
        by_id = {t["request_id"]: t for t in batcher.traces()}
        assert set(by_id) == {"req-000001", "req-000002", "req-000003"}
        trace = by_id[first.request_id]
        assert trace["outcome"] == "ok"
        assert trace["batch"]["requests"] == 2
        assert trace["batch"]["request_ids"] == [
            first.request_id, second.request_id,
        ]
        # The retained trace nests the batch's span tree.
        assert trace["batch"]["spans"][0]["name"] == "serve.batch"
        # Both coalesced requests reference the *same* batch record.
        assert by_id[second.request_id]["batch"]["request_ids"] == (
            trace["batch"]["request_ids"]
        )

    def test_batch_context_helpers(self):
        seen: list = []

        def runner(op, k, keys, cutoffs, context=None):
            seen.append(current_request_ids())
            return np.zeros(len(keys))

        batcher = MicroBatcher(runner, on_batch=lambda *_: seen.append(current_request_ids()))
        try:
            answer_all(batcher, 2)
        finally:
            batcher.close()
        # Set for the runner and the per-batch hook, cleared in between.
        assert seen == [("req-000001",)] * 2 + [("req-000002",)] * 2
        assert current_request_ids() == ()

    def test_unsampled_requests_retain_no_trace(self):
        outcomes: list = []
        batcher = zeros_batcher(
            trace_sample_rate=0.0, on_batch=lambda *counts: outcomes.append(counts)
        )
        try:
            future = batcher.submit("predict", np.array([1]), np.array([0]))
            future.result(timeout=10.0)
        finally:
            batcher.close()
        assert future.request_id == "req-000001"
        assert batcher.traces() == []
        # Resolved requests still feed the outcome window.
        assert outcomes == [(1, 0)]


# ----------------------------------------------------------------------
# Exposition: Prometheus text, stats documents, CLI rendering
# ----------------------------------------------------------------------
class TestExposition:
    def test_prometheus_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(3)
        registry.gauge("serve.queue_depth").set(2)
        registry.gauge("unset.gauge")  # value None: skipped
        hist = registry.windowed_histogram("serve.latency_ms")
        hist.observe_many([1.0, 2.0, 3.0, 4.0])
        text = render_prometheus(registry)
        assert "# TYPE serve_requests counter" in text
        assert "serve_requests_total 3" in text
        assert "serve_queue_depth 2" in text
        assert "unset_gauge" not in text
        assert 'serve_latency_ms{quantile="0.5"}' in text
        assert 'serve_latency_ms{quantile="0.99"}' in text
        assert "serve_latency_ms_count 4" in text
        assert "serve_latency_ms_sum 10" in text
        assert "serve_latency_ms_window_seconds 60" in text

    def test_prometheus_count_never_decreases_across_eviction(self):
        clock = FakeClock()
        hist = WindowedHistogram("serve.latency_ms", window_seconds=10.0, clock=clock)

        def scrape():
            text = render_prometheus({hist.name: hist.to_dict()})
            return {line.split()[0]: float(line.split()[1])
                    for line in text.splitlines() if not line.startswith("#")}

        hist.observe_many([5.0] * 100)
        before = scrape()
        clock.advance(20.0)  # every earlier sample leaves the window
        hist.observe(1.0)
        after = scrape()
        assert before["serve_latency_ms_count"] == 100
        assert after["serve_latency_ms_count"] == 101
        assert after["serve_latency_ms_sum"] == before["serve_latency_ms_sum"] + 1.0
        # The quantiles stay windowed: they describe the last 10 s only.
        assert after['serve_latency_ms{quantile="0.99"}'] == 1.0

    def test_prometheus_accepts_exported_dict(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        assert render_prometheus(registry.to_dict()) == render_prometheus(registry)

    def test_prometheus_name_sanitization(self):
        registry = MetricsRegistry()
        registry.counter("1weird-name.x").inc()
        text = render_prometheus(registry)
        assert "_1weird_name_x_total 1" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_stats_document_and_text_rendering(self):
        with stub_service(slo_p99_ms=0.0, trace_sample_rate=1.0) as service:
            assert predict(service) and predict(service)
            document = json.loads(json.dumps(stats_document(service)))
        assert set(document) == {"generated_at", "service", "health", "metrics"}
        assert document["metrics"]["serve.requests"]["value"] == 2
        text = render_stats_text(document)
        assert "service model: ok" in text
        assert "data: data_source=stub rows=3" in text
        assert "serve.requests" in text
        assert "#1 slo_breach: window p99 " in text
        assert "[requests: req-000001]" in text
        assert "sampled traces (2 retained):" in text
        assert "req-000002 predict outcome=ok latency=" in text

    def test_stats_cli_renders_snapshot(self, tmp_path, capsys):
        with stub_service() as service:
            assert predict(service)
            snapshot = tmp_path / "stats.json"
            snapshot.write_text(json.dumps(stats_document(service)))
        assert cli.main(["stats", str(snapshot)]) == 0
        assert "service model: ok" in capsys.readouterr().out
        assert cli.main(["stats", str(snapshot), "--format", "prometheus"]) == 0
        assert 'serve_latency_ms{quantile="0.99"}' in capsys.readouterr().out
        assert cli.main(["stats", str(snapshot), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["health"]["status"] == "ok"

    def test_stats_cli_renders_an_earlier_snapshot_format(self, tmp_path, capsys):
        # A snapshot as servers with a telemetry on/off switch wrote it:
        # ``telemetry.enabled``, windowed histograms without a lifetime
        # sum, and swap events naming versions as from_/to_version.
        latency = {"type": "windowed_histogram", "count": 2, "min": 1.0,
                   "mean": 1.5, "p50": 1.5, "p95": 1.95, "p99": 1.99,
                   "max": 2.0, "window_seconds": 60.0, "total_count": 7}
        window = {"requests": 2, "errors": 0, "error_rate": 0.0, "latency_ms": latency}
        document = {
            "generated_at": 1700000000.0,
            "service": {
                "name": "churn@v2", "task_type": "binary", "degraded": False,
                "data": {"data_source": "snapshot", "rows": 120},
                "telemetry": {
                    "enabled": True, "window_seconds": 60.0,
                    "trace_sample_rate": 1.0, "requests_admitted": 7,
                    "requests_sampled": 7,
                    "slo": {"window_seconds": 60.0, "p99_target_ms": None,
                            "error_rate_target": None, "breaching": False,
                            "window": window,
                            "events": [{"seq": 1, "time": 1700000000.0,
                                        "kind": "swapped",
                                        "reason": "live model churn@v1 -> churn@v2: nightly",
                                        "request_ids": ["req-000005"],
                                        "window": window,
                                        "from_version": "churn@v1",
                                        "to_version": "churn@v2"}]},
                    "traces": [{"request_id": "req-000007", "op": "predict",
                                "rows": 1, "outcome": "ok",
                                "queue_wait_ms": 0.1, "latency_ms": 1.25}],
                },
                "lifecycle": {"live": "churn@v2", "transitions": []},
            },
            "health": {"status": "ok", "name": "churn@v2", "slo_breaching": False,
                       "window": window},
            "metrics": {"serve.requests": {"type": "counter", "value": 7.0},
                        "serve.latency_ms": latency},
        }
        snapshot = tmp_path / "earlier.json"
        snapshot.write_text(json.dumps(document))
        assert cli.main(["stats", str(snapshot)]) == 0
        text = capsys.readouterr().out
        assert "service churn@v2: ok" in text
        assert "data: data_source=snapshot rows=120" in text
        assert "#1 swapped: live model churn@v1 -> churn@v2: nightly" in text
        assert "req-000007 predict outcome=ok latency=1.250ms" in text
        assert cli.main(["stats", str(snapshot), "--format", "prometheus"]) == 0
        prometheus = capsys.readouterr().out
        assert "serve_requests_total 7" in prometheus
        assert "serve_latency_ms_count 7" in prometheus  # the lifetime count
        assert "serve_latency_ms_sum 3" in prometheus    # no lifetime sum: the window's
        assert cli.main(["stats", str(snapshot), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == document

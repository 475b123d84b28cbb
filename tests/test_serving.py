"""Online serving: registry, micro-batcher, service, protocol, CLI.

The deterministic parts (batcher semantics, deadlines, admission
control) are tested at the :class:`MicroBatcher` level with a
controllable runner; the integration parts ride a tiny trained model
shared module-wide. The kill/resume test drives ``python -m repro
serve`` as a real subprocess, exactly as an operator would.
"""

from __future__ import annotations

import io
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import get_registry
from repro.pql import PredictiveQueryPlanner
from repro.pql.router import GreenTier
from repro.serve import (
    DeadlineExceededError,
    MicroBatcher,
    ModelRegistry,
    PredictionService,
    QueueFullError,
    RegistryVersionError,
    ServeConfig,
    ServiceClosedError,
    serve_loop,
)
from tests.conftest import tiny_planner_config

CHURN_QUERY = "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
LIST_QUERY = "PREDICT LIST(orders.product_id) FOR EACH customers.id ASSUMING HORIZON 30 DAYS"


@pytest.fixture(scope="module")
def churn_model(small_ecommerce_db, small_ecommerce_split):
    planner = PredictiveQueryPlanner(
        small_ecommerce_db, tiny_planner_config()
    )
    return planner.fit(CHURN_QUERY, small_ecommerce_split)


@pytest.fixture(scope="module")
def list_model(small_ecommerce_db, small_ecommerce_split):
    planner = PredictiveQueryPlanner(
        small_ecommerce_db, tiny_planner_config()
    )
    return planner.fit(LIST_QUERY, small_ecommerce_split)


def entity_keys(model, count):
    return model.graph.node_keys[model.binding.query.entity_table][:count]


# ----------------------------------------------------------------------
# MicroBatcher semantics (controllable runner, no model)
# ----------------------------------------------------------------------
def echo_runner(op, k, keys, cutoffs, context=None):
    return np.asarray(keys, dtype=np.float64) * 2.0


def test_batcher_resolves_in_submission_order():
    batcher = MicroBatcher(echo_runner, max_batch_size=8, max_wait_ms=20.0)
    try:
        futures = [
            batcher.submit("predict", np.array([i]), np.array([0])) for i in range(6)
        ]
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(future.result(timeout=5.0), [i * 2.0])
    finally:
        batcher.close()


def test_batcher_coalesces_a_burst_into_few_calls():
    calls = []

    def counting_runner(op, k, keys, cutoffs, context=None):
        calls.append(len(keys))
        return np.zeros(len(keys))

    batcher = MicroBatcher(counting_runner, max_batch_size=64, max_wait_ms=25.0)
    try:
        futures = [
            batcher.submit("predict", np.array([i]), np.array([0])) for i in range(16)
        ]
        for future in futures:
            future.result(timeout=5.0)
    finally:
        batcher.close()
    assert sum(calls) == 16
    assert len(calls) < 16, f"no coalescing happened: {calls}"


def test_queue_full_fast_rejects():
    release = threading.Event()
    started = threading.Event()

    def blocking_runner(op, k, keys, cutoffs, context=None):
        started.set()
        release.wait(10.0)
        return np.zeros(len(keys))

    batcher = MicroBatcher(blocking_runner, max_batch_size=1, max_wait_ms=0.0,
                           max_queue_depth=2)
    try:
        first = batcher.submit("predict", np.array([0]), np.array([0]))
        assert started.wait(5.0), "worker never picked up the first request"
        queued = [batcher.submit("predict", np.array([i]), np.array([0]))
                  for i in (1, 2)]
        with pytest.raises(QueueFullError):
            batcher.submit("predict", np.array([3]), np.array([0]))
        release.set()
        for future in [first] + queued:
            future.result(timeout=5.0)
    finally:
        release.set()
        batcher.close()
    rejected = get_registry().to_dict().get("serve.rejected", {})
    assert rejected.get("value", 0) >= 1


def test_deadline_expired_while_queued_skips_execution():
    release = threading.Event()
    started = threading.Event()
    executed_rows = []

    def blocking_runner(op, k, keys, cutoffs, context=None):
        if not started.is_set():
            started.set()
            release.wait(10.0)
        executed_rows.extend(np.asarray(keys).tolist())
        return np.zeros(len(keys))

    batcher = MicroBatcher(blocking_runner, max_batch_size=1, max_wait_ms=0.0)
    try:
        first = batcher.submit("predict", np.array([0]), np.array([0]))
        assert started.wait(5.0)
        doomed = batcher.submit("predict", np.array([1]), np.array([0]),
                                deadline_ms=10.0)
        time.sleep(0.05)  # let the deadline lapse while still queued
        release.set()
        first.result(timeout=5.0)
        with pytest.raises(DeadlineExceededError, match="queued"):
            doomed.result(timeout=5.0)
    finally:
        release.set()
        batcher.close()
    assert 1 not in executed_rows, "expired request was executed anyway"


def test_deadline_expiry_mid_batch_delivers_error_not_late_result():
    def slow_runner(op, k, keys, cutoffs, context=None):
        time.sleep(0.08)
        return np.zeros(len(keys))

    batcher = MicroBatcher(slow_runner, max_batch_size=4, max_wait_ms=0.0)
    try:
        future = batcher.submit("predict", np.array([0]), np.array([0]),
                                deadline_ms=20.0)
        with pytest.raises(DeadlineExceededError, match="during execution"):
            future.result(timeout=5.0)
    finally:
        batcher.close()


def test_close_without_drain_rejects_queued_requests():
    release = threading.Event()
    started = threading.Event()

    def blocking_runner(op, k, keys, cutoffs, context=None):
        started.set()
        release.wait(10.0)
        return np.zeros(len(keys))

    batcher = MicroBatcher(blocking_runner, max_batch_size=1, max_wait_ms=0.0)
    first = batcher.submit("predict", np.array([0]), np.array([0]))
    assert started.wait(5.0)
    queued = batcher.submit("predict", np.array([1]), np.array([0]))
    release.set()
    batcher.close(drain=False)
    first.result(timeout=5.0)
    with pytest.raises(ServiceClosedError):
        queued.result(timeout=5.0)
    with pytest.raises(ServiceClosedError):
        batcher.submit("predict", np.array([2]), np.array([0]))


def test_work_conserving_coalescing_is_deterministic():
    release = threading.Event()
    started = threading.Event()
    calls = []

    def blocking_runner(op, k, keys, cutoffs, context=None):
        calls.append(np.asarray(keys).tolist())
        if not started.is_set():
            started.set()
            release.wait(10.0)
        return np.zeros(len(keys))

    batcher = MicroBatcher(blocking_runner, max_batch_size=64)  # default: no window
    try:
        futures = [batcher.submit("predict", np.array([0]), np.array([0]))]
        assert started.wait(5.0), "an idle executor must dispatch a lone request at once"
        # Whatever queues up while the batch runs is the next batch ...
        futures += [batcher.submit("predict", np.array([i]), np.array([0]))
                    for i in range(1, 6)]
        # ... up to the first incompatible request (another op).
        futures.append(batcher.submit("rank", np.array([6]), np.array([0]), k=3))
        release.set()
        for future in futures:
            future.result(timeout=5.0)
    finally:
        release.set()
        batcher.close()
    assert calls == [[0], [1, 2, 3, 4, 5], [6]]


def test_barrier_never_waits_out_the_coalescing_window():
    batcher = MicroBatcher(echo_runner, max_batch_size=8, max_wait_ms=500.0)
    try:
        start = time.monotonic()
        assert batcher.run_barrier(lambda: "applied", timeout=5.0) == "applied"
        elapsed = time.monotonic() - start
    finally:
        batcher.close()
    assert elapsed < 0.25, f"barrier slept {elapsed:.3f}s for company it can never accept"


def test_drive_executes_on_the_calling_thread_and_hands_back_to_the_worker():
    threads = []

    def runner(op, k, keys, cutoffs, context=None):
        threads.append(threading.current_thread().name)
        return np.zeros(len(keys))

    batcher = MicroBatcher(runner, max_batch_size=8)
    try:
        batcher.submit("predict", np.array([0]), np.array([0])).result(timeout=5.0)
        with batcher.drive() as run_pending:
            futures = [batcher.submit("predict", np.array([i]), np.array([0]))
                       for i in range(3)]
            time.sleep(0.12)  # two idle-poll periods: a live worker would have run them
            assert not any(f.done() for f in futures)
            assert batcher.run_barrier(lambda: "inline", timeout=1.0) == "inline"
            assert all(f.done() for f in futures)  # the barrier drained them first
            with pytest.raises(RuntimeError):
                with batcher.drive():
                    pass
            run_pending()
        batcher.submit("predict", np.array([9]), np.array([0])).result(timeout=5.0)
    finally:
        batcher.close()
    me = threading.current_thread().name
    assert threads == ["serve-batcher", me, "serve-batcher"]


def test_batcher_validates_configuration():
    with pytest.raises(ValueError):
        MicroBatcher(echo_runner, max_batch_size=0)
    with pytest.raises(ValueError):
        MicroBatcher(echo_runner, max_queue_depth=0)
    batcher = MicroBatcher(echo_runner)
    try:
        with pytest.raises(ValueError):
            batcher.submit("delete", np.array([1]), np.array([0]))
        with pytest.raises(ValueError):
            batcher.submit("predict", np.array([]), np.array([]))
        with pytest.raises(ValueError):
            batcher.submit("predict", np.array([1, 2]), np.array([0]))
    finally:
        batcher.close()


# ----------------------------------------------------------------------
# PredictionService over a real model
# ----------------------------------------------------------------------
def test_served_predictions_match_direct_model(churn_model, small_ecommerce_split):
    keys = entity_keys(churn_model, 12)
    cutoff = small_ecommerce_split.test_cutoff
    direct = churn_model.predict(keys, cutoff)
    with PredictionService(churn_model) as service:
        served = service.predict(keys, cutoff)
    np.testing.assert_array_equal(served, direct)


def test_single_key_requests_coalesce_and_match(churn_model, small_ecommerce_split):
    keys = entity_keys(churn_model, 10)
    cutoff = small_ecommerce_split.test_cutoff
    direct = churn_model.predict(keys, cutoff)
    with PredictionService(
        churn_model, ServeConfig(max_batch_size=64, max_wait_ms=25.0)
    ) as service:
        futures = [service.predict_async([key], cutoff) for key in keys.tolist()]
        served = np.concatenate([f.result(timeout=30.0) for f in futures])
        batches = service.stats()["metrics"]["serve.batches"]["value"]
    np.testing.assert_array_equal(served, direct)
    assert batches < len(keys), "burst of single-key requests never coalesced"


def test_op_model_mismatch_is_rejected_at_submission(churn_model, list_model):
    with PredictionService(churn_model) as service:
        with pytest.raises(ValueError, match="LIST"):
            service.rank([1], 0)
    with PredictionService(list_model) as service:
        with pytest.raises(ValueError, match="scalar"):
            service.predict([1], 0)


def test_error_degrades_to_heuristic_and_restores(
    churn_model, small_ecommerce_split, monkeypatch
):
    keys = entity_keys(churn_model, 4)
    cutoff = small_ecommerce_split.test_cutoff
    # The model path is the ladder's top tier, the GNN: break it.
    monkeypatch.setattr(
        churn_model, "_red_predict",
        lambda *a, **kw: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    with PredictionService(churn_model) as service:
        served = service.predict(keys, cutoff)
        assert service.degraded
        stats = service.stats()
        assert stats["degraded_reason"].startswith("model path failed")
        assert stats["metrics"]["serve.fallbacks"]["value"] == 1
        unfitted = GreenTier.for_binding(churn_model.binding).bind(
            churn_model.db, churn_model.graph
        )
        expected = unfitted.predict(keys, np.full(len(keys), cutoff))
        np.testing.assert_array_equal(served, expected)
        counts = unfitted.activity(keys, np.full(len(keys), cutoff))
        np.testing.assert_array_equal(expected, counts / (counts + 1.0))
        assert served.route["tier"] == "green" and served.route["forced"]
        assert served.route["reason"].startswith("degraded: model path failed")
        service.restore()
        assert not service.degraded


def test_no_fallback_propagates_model_errors(
    churn_model, small_ecommerce_split, monkeypatch
):
    monkeypatch.setattr(
        churn_model, "_red_predict",
        lambda *a, **kw: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    with PredictionService(churn_model, ServeConfig(fallback=False)) as service:
        with pytest.raises(RuntimeError, match="boom"):
            service.predict(entity_keys(churn_model, 2),
                            small_ecommerce_split.test_cutoff)
        assert not service.degraded


def test_latency_budget_breach_trips_the_ladder(
    churn_model, small_ecommerce_split, monkeypatch
):
    real_predict = churn_model.predict

    def slow_predict(*args, **kwargs):
        time.sleep(0.03)
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(churn_model, "predict", slow_predict)
    keys = entity_keys(churn_model, 2)
    cutoff = small_ecommerce_split.test_cutoff
    config = ServeConfig(max_wait_ms=0.0, latency_budget_ms=1.0, budget_breaches=2)
    with PredictionService(churn_model, config) as service:
        service.predict(keys, cutoff)
        assert not service.degraded  # one breach is not a pattern
        service.predict(keys, cutoff)
        assert service.degraded
        assert service.stats()["metrics"]["serve.budget_breaches"]["value"] == 2


def test_metrics_reset_between_instances(churn_model, small_ecommerce_split):
    keys = entity_keys(churn_model, 8)
    cutoff = small_ecommerce_split.test_cutoff
    with PredictionService(churn_model) as service:
        service.predict(keys, cutoff)
        assert service.stats()["metrics"]["serve.requests"]["value"] == 1
    with PredictionService(churn_model) as fresh:
        stats = fresh.stats()
        assert "serve.requests" not in stats["metrics"]
        assert "sampler_cache" not in stats


def test_concurrent_rank_requests_on_warm_item_cache(
    list_model, small_ecommerce_split
):
    keys = entity_keys(list_model, 6)
    cutoff = small_ecommerce_split.test_cutoff
    direct = list_model.rank_items(keys, np.full(len(keys), cutoff), k=5)
    with PredictionService(
        list_model, ServeConfig(max_batch_size=16, max_wait_ms=10.0, default_k=5)
    ) as service:
        service.warmup(4, cutoff=cutoff)
        assert list_model.link_trainer._item_embed_cache, "warmup did not prime the item cache"
        results = [None] * len(keys)
        errors = []

        def worker(i, key):
            try:
                results[i] = service.rank([key], cutoff, k=5)[0]
            except BaseException as err:  # noqa: BLE001 - surfaced below
                errors.append(err)

        threads = [
            threading.Thread(target=worker, args=(i, key))
            for i, key in enumerate(keys.tolist())
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    assert not errors, errors
    for i, (items, scores) in enumerate(direct):
        np.testing.assert_array_equal(results[i][0], items)
        np.testing.assert_array_equal(results[i][1], scores)


# ----------------------------------------------------------------------
# Model registry
# ----------------------------------------------------------------------
def test_registry_publish_load_roundtrip(
    churn_model, small_ecommerce_db, small_ecommerce_split, tmp_path
):
    registry = ModelRegistry(tmp_path / "models")
    assert registry.publish(churn_model, "churn") == 1
    assert registry.publish(churn_model, "churn") == 2
    assert registry.versions("churn") == [1, 2]
    assert registry.latest("churn") == 2
    assert registry.names() == ["churn"]
    loaded = registry.load("churn", small_ecommerce_db, version=1)
    keys = entity_keys(churn_model, 6)
    cutoff = small_ecommerce_split.test_cutoff
    np.testing.assert_array_equal(
        loaded.predict(keys, cutoff), churn_model.predict(keys, cutoff)
    )
    meta = registry.describe("churn", 1)
    assert meta["task_type"] == churn_model.task_type.value
    assert meta["manifest_sha256"]


def test_registry_missing_version_raises(churn_model, small_ecommerce_db, tmp_path):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(churn_model, "churn")
    with pytest.raises(RegistryVersionError):
        registry.load("churn", small_ecommerce_db, version=99)
    with pytest.raises(RegistryVersionError):
        registry.load("nosuch", small_ecommerce_db)


def test_registry_detects_tampered_artifact(
    churn_model, small_ecommerce_db, tmp_path
):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(churn_model, "churn")
    manifest = tmp_path / "models" / "churn" / "v1" / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["query"] = "PREDICT COUNT(orders) > 9000 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
    manifest.write_text(json.dumps(payload))
    with pytest.raises(RegistryVersionError, match="checksum"):
        registry.load("churn", small_ecommerce_db)


# ----------------------------------------------------------------------
# JSON-lines protocol
# ----------------------------------------------------------------------
def test_serve_loop_answers_in_order_and_survives_bad_lines(
    churn_model, small_ecommerce_split
):
    cutoff = int(small_ecommerce_split.test_cutoff)
    keys = entity_keys(churn_model, 3).tolist()
    lines = [
        json.dumps({"op": "ping", "id": "a"}),
        "this is not json",
        json.dumps({"op": "predict", "id": "b", "entity_keys": keys, "cutoff": cutoff}),
        json.dumps({"op": "predict", "id": "c", "entity_keys": []}),
        json.dumps({"op": "stats", "id": "d"}),
    ]
    stdout = io.StringIO()
    with PredictionService(churn_model) as service:
        answered = serve_loop(service, io.StringIO("\n".join(lines) + "\n"), stdout)
        direct = churn_model.predict(np.asarray(keys), cutoff)
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert answered == 5
    assert [r.get("id") for r in responses] == ["a", None, "b", None, "d"]
    assert responses[0]["pong"] is True
    assert responses[1]["error"] == "bad_request"
    np.testing.assert_allclose(responses[2]["predictions"], direct)
    assert responses[3]["error"] == "bad_request"
    assert responses[4]["stats"]["metrics"]["serve.requests"]["value"] == 1


def test_request_for_an_absent_tier_is_refused_without_degrading(
    churn_model, small_ecommerce_split
):
    """One client's forced route to a tier the model lacks is that
    client's bad request; the next plain request still gets the GNN."""
    assert churn_model.available_tiers() == ["green", "red"]
    cutoff = int(small_ecommerce_split.test_cutoff)
    keys = entity_keys(churn_model, 3).tolist()
    lines = [
        json.dumps({"op": "predict", "id": "bad", "entity_keys": keys[:1],
                    "cutoff": cutoff, "route": "yellow"}),
        json.dumps({"op": "predict", "id": "plain", "entity_keys": keys, "cutoff": cutoff}),
        json.dumps({"op": "health", "id": "h"}),
    ]
    stdout = io.StringIO()
    with PredictionService(churn_model) as service:
        assert serve_loop(service, io.StringIO("\n".join(lines) + "\n"), stdout) == 3
        assert not service.degraded
        with pytest.raises(ValueError, match="unavailable"):
            service.predict(keys, cutoff, route="yellow")
    by_id = {r["id"]: r for r in map(json.loads, stdout.getvalue().splitlines())}
    assert by_id["bad"]["error"] == "bad_request"
    assert "'yellow' unavailable" in by_id["bad"]["message"]
    plain = by_id["plain"]
    assert plain["status"] == "ok" and plain["route"] == "red" and plain["degraded"] is False
    assert by_id["h"]["health"]["status"] == "ok"


def test_serve_loop_stats_and_health_expose_windowed_telemetry(
    churn_model, small_ecommerce_split
):
    cutoff = int(small_ecommerce_split.test_cutoff)
    keys = entity_keys(churn_model, 2).tolist()
    lines = [
        json.dumps({"op": "predict", "id": "p1", "entity_keys": keys[:1],
                    "cutoff": cutoff}),
        json.dumps({"op": "predict", "id": "p2", "entity_keys": keys[1:],
                    "cutoff": cutoff}),
        json.dumps({"op": "health", "id": "h"}),
        json.dumps({"op": "stats", "id": "s"}),
        json.dumps({"op": "stats", "id": "prom", "format": "prometheus"}),
    ]
    config = ServeConfig(max_batch_size=4, max_wait_ms=5.0, trace_sample_rate=1.0)
    stdout = io.StringIO()
    with PredictionService(churn_model, config) as service:
        answered = serve_loop(service, io.StringIO("\n".join(lines) + "\n"), stdout)
    assert answered == 5
    by_id = {r["id"]: r for r in map(json.loads, stdout.getvalue().splitlines())}
    # Every admitted request carries a distinct ingress-assigned ID.
    request_ids = [by_id["p1"]["request_id"], by_id["p2"]["request_id"]]
    assert len(set(request_ids)) == 2
    assert all(rid.startswith("req-") for rid in request_ids)
    health = by_id["h"]["health"]
    assert health["status"] == "ok" and health["queue_depth"] == 0
    assert health["slo_breaching"] is False
    # The stats snapshot reports streaming windowed percentiles.
    latency = by_id["s"]["stats"]["metrics"]["serve.latency_ms"]
    assert latency["type"] == "windowed_histogram"
    assert latency["count"] >= 2
    assert all(key in latency for key in ("p50", "p95", "p99"))
    assert latency["window_seconds"] == config.telemetry_window_s
    # Full tracing retained a span tree for each request.
    traces = by_id["s"]["stats"]["telemetry"]["traces"]
    assert {t["request_id"] for t in traces} == set(request_ids)
    assert all(t["outcome"] == "ok" for t in traces)
    prometheus = by_id["prom"]["prometheus"]
    assert 'serve_latency_ms{quantile="0.99"}' in prometheus
    assert "serve_requests_total 2" in prometheus


def run_loop_over_pipes(service, feed):
    """``serve_loop`` on real pipes; ``feed(write_fd)`` supplies the input."""
    in_r, in_w = os.pipe()
    out_r, out_w = os.pipe()
    collected = []
    with os.fdopen(out_r, "r") as out_reader:
        drain = threading.Thread(target=lambda: collected.append(out_reader.read()))
        drain.start()
        feeder = threading.Thread(target=feed, args=(in_w,))
        feeder.start()
        try:
            with os.fdopen(in_r, "r") as stdin, os.fdopen(out_w, "w") as stdout:
                answered = serve_loop(service, stdin, stdout)
        finally:
            feeder.join(10.0)
            drain.join(10.0)
    assert not feeder.is_alive() and not drain.is_alive()
    return answered, [json.loads(line) for line in collected[0].splitlines()]


def test_serve_loop_is_one_thread_and_batches_what_piled_up_in_the_pipe(
    churn_model, small_ecommerce_split, monkeypatch
):
    cutoff = int(small_ecommerce_split.test_cutoff)
    keys = entity_keys(churn_model, 12).tolist()
    requests = [{"op": "predict", "id": i, "entity_keys": [key], "cutoff": cutoff}
                for i, key in enumerate(keys)]
    requests.insert(8, {"op": "stats", "id": "mid"})
    burst = "".join(json.dumps(r) + "\n" for r in requests).encode()
    model_threads = []
    real_predict = churn_model.predict

    def spy(*args, **kwargs):
        model_threads.append(threading.get_ident())
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(churn_model, "predict", spy)
    with PredictionService(churn_model) as service:
        in_r, in_w = os.pipe()
        os.write(in_w, burst)  # the whole burst is in the pipe before the loop reads
        os.close(in_w)
        stdout = io.StringIO()
        with os.fdopen(in_r, "r") as stdin:
            answered = serve_loop(service, stdin, stdout)
        final = service.stats()["metrics"]
        service.predict(keys[:1], cutoff)  # the worker is back for in-process callers
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert answered == len(requests)
    assert [r["id"] for r in responses] == [r["id"] for r in requests]
    assert all(r["status"] == "ok" for r in responses)
    # The interleaved stats line saw every earlier request already answered.
    mid = responses[8]["stats"]["metrics"]
    assert mid["serve.requests"]["value"] == 8
    assert mid["serve.latency_ms"]["count"] == 8
    # What piled up in the pipe became the batches: one before stats, one after.
    assert final["serve.requests"]["value"] == 12
    assert final["serve.batches"]["value"] == 2
    # Only the caller's thread ran the model while the loop drove.
    assert set(model_threads[:-1]) == {threading.get_ident()}
    assert model_threads[-1] != threading.get_ident()


def test_serve_loop_over_pipes_dispatches_at_once_unless_capped(
    churn_model, small_ecommerce_split
):
    cutoff = int(small_ecommerce_split.test_cutoff)
    keys = entity_keys(churn_model, 2).tolist()
    lines = [(json.dumps({"op": "predict", "id": i, "entity_keys": [key],
                          "cutoff": cutoff}) + "\n").encode()
             for i, key in enumerate(keys)]

    def feed(fd):
        os.write(fd, lines[0])
        time.sleep(0.1)
        os.write(fd, lines[1])
        os.close(fd)

    batches = {}
    for cap_ms in (0.0, 2000.0):
        config = ServeConfig(max_batch_size=2, max_wait_ms=cap_ms)
        with PredictionService(churn_model, config) as service:
            answered, responses = run_loop_over_pipes(service, feed)
            batches[cap_ms] = service.stats()["metrics"]["serve.batches"]["value"]
        assert answered == 2
        assert [r["id"] for r in responses] == [0, 1]
        assert all(r["status"] == "ok" for r in responses)
    # No cap: the lone first request is dispatched without waiting for the
    # second.  With the optional cap the turn holds for company until full.
    assert batches == {0.0: 2, 2000.0: 1}


def test_serve_loop_takes_lines_that_arrive_while_it_admits(
    churn_model, small_ecommerce_split, monkeypatch
):
    """A client on another CPU is still writing its burst when the loop
    wakes at the first line; the rest must join that turn's batch."""
    from repro.serve import protocol

    cutoff = int(small_ecommerce_split.test_cutoff)
    keys = entity_keys(churn_model, 3).tolist()
    lines = [(json.dumps({"op": "predict", "id": i, "entity_keys": [key],
                          "cutoff": cutoff}) + "\n").encode()
             for i, key in enumerate(keys)]
    pending = list(lines[1:])
    real_admit = protocol._admit
    write_fd = []

    def admit_while_client_writes(service, line, run_pending):
        if pending:  # the next line lands in the pipe during this admission
            os.write(write_fd[0], pending.pop(0))
            if not pending:
                os.close(write_fd[0])
        return real_admit(service, line, run_pending)

    def feed(fd):
        write_fd.append(fd)
        os.write(fd, lines[0])

    monkeypatch.setattr(protocol, "_admit", admit_while_client_writes)
    with PredictionService(churn_model, ServeConfig(max_wait_ms=0.0)) as service:
        answered, responses = run_loop_over_pipes(service, feed)
        batches = service.stats()["metrics"]["serve.batches"]["value"]
    assert answered == 3
    assert [r["id"] for r in responses] == [0, 1, 2]
    assert all(r["status"] == "ok" for r in responses)
    assert batches == 1


def test_degradation_records_slo_provenance_with_request_ids(
    churn_model, small_ecommerce_split, monkeypatch
):
    keys = entity_keys(churn_model, 2)
    cutoff = small_ecommerce_split.test_cutoff
    monkeypatch.setattr(
        churn_model, "_red_predict",
        lambda *a, **kw: (_ for _ in ()).throw(RuntimeError("injected fault")),
    )
    with PredictionService(churn_model) as service:
        service.predict(keys, cutoff)
        assert service.degraded
        events = service.events()
        degraded = [e for e in events if e["kind"] == "degraded"]
        assert len(degraded) == 1
        # The provenance event names the fault and the triggering request.
        assert "injected fault" in degraded[0]["reason"]
        assert degraded[0]["request_ids"] == ["req-000001"]
        service.restore()
        kinds = [e["kind"] for e in service.events()]
        assert kinds[-1] == "restored"


# ----------------------------------------------------------------------
# The CLI process: kill -9 and restart reaches the same answers
# ----------------------------------------------------------------------
def start_serve_process(model_dir, **extra_env):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               **extra_env)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--model", str(model_dir)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env,
    )
    for line in proc.stderr:
        if line.startswith("ready:"):
            return proc
    raise AssertionError(
        f"service never became ready: {proc.stderr.read()}"
    )


def ask(proc, request):
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    assert line, "service produced no response"
    return json.loads(line)


def test_sigterm_mid_batch_answers_every_admitted_request(churn_model, tmp_path):
    model_dir = tmp_path / "model"
    churn_model.save(str(model_dir))
    # The first model call sleeps 2 s: SIGTERM lands while that batch runs.
    proc = start_serve_process(model_dir, REPRO_FAULTS="service.execute@1:delay",
                               REPRO_FAULTS_DELAY_MS="2000")
    try:
        proc.stdin.write("".join(
            json.dumps({"op": "predict", "id": i, "entity_keys": [i + 1],
                        "cutoff": 4102444800}) + "\n" for i in range(3)))
        proc.stdin.flush()
        time.sleep(0.7)
        readable, _, _ = select.select([proc.stdout], [], [], 0)
        assert not readable, "the batch finished before the signal; nothing was tested"
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(30)
    responses = [json.loads(line) for line in stdout.splitlines()]
    assert [r["id"] for r in responses] == [0, 1, 2]
    assert all(r["status"] == "ok" and not r["degraded"] for r in responses)
    assert proc.returncode == 0
    assert "drained and shut down gracefully" in stderr


def test_kill_and_restart_service_process(churn_model, tmp_path):
    model_dir = tmp_path / "model"
    churn_model.save(str(model_dir))
    request = {"op": "predict", "id": 1, "entity_keys": [1, 2, 3],
               "cutoff": 4102444800}

    proc = start_serve_process(model_dir)
    try:
        before = ask(proc, request)
        assert before["status"] == "ok"
    finally:
        proc.kill()  # SIGKILL mid-flight: no graceful shutdown
        proc.wait(30)
    assert proc.returncode == -signal.SIGKILL

    # A fresh process over the same artifact gives the same answers —
    # serving state is all derivable, nothing precious dies with it.
    proc = start_serve_process(model_dir)
    try:
        after = ask(proc, request)
        stats = ask(proc, {"op": "stats", "id": 2})
        proc.stdin.close()
        proc.wait(30)
    finally:
        proc.kill()
    assert after["predictions"] == before["predictions"]
    # The restarted instance's telemetry starts from zero.
    assert stats["stats"]["metrics"]["serve.requests"]["value"] == 1

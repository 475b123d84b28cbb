"""Zero-downtime model lifecycle: crash-safe publishes, hot swap, compare.

Three layers of guarantees under test:

* **Registry transactionality** — a publish killed at *any* injected
  fault point (in-process :class:`SimulatedCrash`, or a real ``kill
  -9`` landed inside a ``delay``-widened window by the subprocess
  test) leaves the registry fsck-clean and still serving the prior
  version; a corrupted artifact is caught by checksum and quarantined.
* **Hot swap** — concurrent predict traffic across a
  :meth:`PredictionService.swap` sees zero errors, zero drops, and
  every response's ``model_version`` names a model that was live at
  its admission.
* **Compare** — a challenger is judged by replaying the recently
  served batches inside one barrier: deterministic (the incumbent's
  replay is the bytes it served), ordered after a graph refresh that
  holds the barrier, and never a swap — failures are reported, the
  live model keeps serving.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.pql import PredictiveQueryPlanner
from repro.resilience import SimulatedCrash, injected
from repro.serve import (
    ModelRegistry,
    PredictionService,
    RegistryVersionError,
    ServeConfig,
    serve_loop,
)
from tests.conftest import tiny_planner_config

CHURN_QUERY = "PREDICT COUNT(orders) > 0 FOR EACH customers.id ASSUMING HORIZON 30 DAYS"
CUTOFF = 4102444800  # far future: every entity's full history is visible


@pytest.fixture(scope="module")
def churn_model(small_ecommerce_db, small_ecommerce_split):
    planner = PredictiveQueryPlanner(
        small_ecommerce_db, tiny_planner_config()
    )
    return planner.fit(CHURN_QUERY, small_ecommerce_split)


@pytest.fixture(scope="module")
def saved_model_dir(churn_model, tmp_path_factory):
    directory = tmp_path_factory.mktemp("artifact") / "model"
    churn_model.save(str(directory))
    return directory


def make_registry_with_v1(tmp_path, churn_model) -> ModelRegistry:
    registry = ModelRegistry(str(tmp_path / "registry"))
    assert registry.publish(churn_model, "churn") == 1
    return registry


def entity_keys(model, count):
    return model.graph.node_keys[model.binding.query.entity_table][:count]


# ----------------------------------------------------------------------
# Transactional publish: crash at every seam, registry stays consistent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("site", [
    "planner.save",                 # mid-stage: artifact half-written
    "registry.publish.staged",      # staged, not yet renamed
    "registry.publish.renamed",     # renamed, index not yet committed
    "registry.index.commit",        # about to replace the index
])
def test_publish_crash_at_every_fault_point_leaves_registry_clean(
    churn_model, small_ecommerce_db, tmp_path, site,
):
    registry = make_registry_with_v1(tmp_path, churn_model)
    with injected(f"{site}@1:kill"):
        with pytest.raises(SimulatedCrash):
            registry.publish(churn_model, "churn")

    # Reopen as a crashed process' successor would: the recovery pass
    # quarantines whatever debris the crash left...
    reopened = ModelRegistry(registry.root, recover=False)
    report = reopened.fsck()
    assert report["clean"] or all(
        issue["kind"] in ("staging_debris", "unindexed_version")
        for issue in report["issues"]
    )
    # ...and a second fsck finds nothing left to repair.
    assert reopened.fsck()["clean"]
    # The index never advanced past the committed version.
    assert reopened.latest("churn") == 1
    assert reopened.versions("churn") == [1]
    model = reopened.load("churn", small_ecommerce_db)
    keys = entity_keys(model, 4)
    assert len(model.predict(keys, np.full(len(keys), CUTOFF))) == len(keys)

    # The transaction is re-runnable: the next publish takes v2 cleanly.
    assert reopened.publish(churn_model, "churn") == 2
    assert reopened.fsck()["clean"]


def test_corrupted_artifact_is_quarantined_and_latest_repaired(
    churn_model, small_ecommerce_db, tmp_path,
):
    registry = make_registry_with_v1(tmp_path, churn_model)
    # Corrupt v2's manifest *after* its checksum is recorded: the
    # publish commits, but the artifact on disk no longer matches.
    with injected("registry.publish.staged@1:corrupt"):
        assert registry.publish(churn_model, "churn") == 2
    with pytest.raises(RegistryVersionError, match="checksum|corrupt"):
        registry.load("churn", small_ecommerce_db, version=2)

    report = registry.fsck()
    assert not report["clean"]
    kinds = {issue["kind"] for issue in report["issues"]}
    assert "corrupt_version" in kinds
    assert "latest_repaired" in kinds
    # v2 is gone from the index, latest points back at v1, and the
    # quarantined directory is preserved for inspection.
    assert registry.versions("churn") == [1]
    assert registry.latest("churn") == 1
    quarantined = [i["quarantined_to"] for i in report["issues"]
                   if i["kind"] == "corrupt_version"]
    assert quarantined and os.path.isdir(quarantined[0])
    assert registry.fsck()["clean"]


def test_publish_dir_copies_without_a_database(saved_model_dir, tmp_path):
    registry = ModelRegistry(str(tmp_path / "registry"))
    assert registry.publish_dir(str(saved_model_dir), "churn") == 1
    assert registry.verify("churn") == 1
    entry = registry.describe("churn")
    assert entry["task_type"] == "binary"
    assert "COUNT(orders)" in entry["query"]


# ----------------------------------------------------------------------
# SIGKILL mid-publish: a real kill -9 inside a delay-widened window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("site,marker", [
    # Killed while staged but unrenamed: only .staging-v2 debris.
    ("registry.publish.staged", ".staging-v2"),
    # Killed after rename, before index commit: unindexed v2 debris.
    ("registry.publish.renamed", "v2"),
])
def test_sigkill_mid_publish_subprocess(
    saved_model_dir, churn_model, small_ecommerce_db, tmp_path, site, marker,
):
    registry = make_registry_with_v1(tmp_path, churn_model)
    name_dir = Path(registry.root) / "churn"
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
        REPRO_FAULTS=f"{site}@1:delay",
        REPRO_FAULTS_DELAY_MS="30000",
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "registry", "publish",
         "--registry", registry.root, "--model-name", "churn",
         "--model", str(saved_model_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        # Wait until the publisher is provably inside the delay window
        # (the marker directory exists), then land a real SIGKILL.
        deadline = time.monotonic() + 60.0
        while not (name_dir / marker).exists():
            assert proc.poll() is None, (
                f"publisher exited early: {proc.stderr.read()}"
            )
            assert time.monotonic() < deadline, f"never saw {marker}"
            time.sleep(0.01)
        proc.kill()
        proc.wait(30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == -signal.SIGKILL

    # The survivor reopens clean and serves the prior version.
    reopened = ModelRegistry(registry.root)
    assert reopened.fsck()["clean"]
    assert reopened.latest("churn") == 1
    service = PredictionService.from_registry(reopened, "churn", small_ecommerce_db)
    try:
        keys = entity_keys(service.model, 3)
        assert len(service.predict(keys, CUTOFF)) == 3
        assert service.name == "churn@v1"
    finally:
        service.close()


# ----------------------------------------------------------------------
# Hot swap: zero downtime under concurrent load
# ----------------------------------------------------------------------
def lifecycle_service(registry, db, version=1, **overrides) -> PredictionService:
    config = ServeConfig(max_wait_ms=1.0, **overrides)
    return PredictionService.from_registry(
        registry, "churn", db, version=version, config=config
    )


def test_swap_under_concurrent_load_zero_errors(
    churn_model, small_ecommerce_db, tmp_path,
):
    registry = make_registry_with_v1(tmp_path, churn_model)
    assert registry.publish(churn_model, "churn") == 2
    service = lifecycle_service(registry, small_ecommerce_db)
    keys = entity_keys(service.model, 2)
    stop = threading.Event()
    futures, errors = [], []

    def client():
        # Closed-loop client: one request in flight at a time, so load
        # is sustained without deliberately overflowing admission.
        while not stop.is_set():
            try:
                future = service.predict_async(keys, CUTOFF)
                future.result(timeout=30)
                futures.append(future)
            except Exception as err:  # no request may fail across the swap
                errors.append(err)

    threads = [threading.Thread(target=client) for _ in range(4)]
    try:
        for thread in threads:
            thread.start()
        time.sleep(0.15)
        transition = service.swap(version=2)
        time.sleep(0.15)
    finally:
        stop.set()
        for thread in threads:
            thread.join(30)
        service.close()

    assert not errors
    assert transition["from"] == "churn@v1" and transition["to"] == "churn@v2"
    assert service.name == "churn@v2"
    seen_versions = set()
    for future in futures:
        values = future.result(timeout=30)   # raises if any request failed
        assert len(values) == len(keys)
        seen_versions.add(future.context.label)
    # Traffic straddled the swap: both versions actually served, and
    # nothing was ever admitted under a model that wasn't live.
    assert seen_versions == {"churn@v1", "churn@v2"}
    kinds = [e["kind"] for e in service.events()]
    assert "swapped" in kinds


def test_swap_over_the_wire_is_ordered_and_stamps_model_version(
    churn_model, small_ecommerce_db, tmp_path,
):
    registry = make_registry_with_v1(tmp_path, churn_model)
    assert registry.publish(churn_model, "churn") == 2
    service = lifecycle_service(registry, small_ecommerce_db)
    keys = entity_keys(service.model, 2).tolist()
    lines = []
    for i in range(10):
        lines.append({"op": "predict", "id": f"pre-{i}",
                      "entity_keys": keys, "cutoff": CUTOFF})
    lines.append({"op": "swap", "id": "the-swap", "version": 2})
    for i in range(10):
        lines.append({"op": "predict", "id": f"post-{i}",
                      "entity_keys": keys, "cutoff": CUTOFF})
    lines.append({"op": "lifecycle", "id": "lc"})
    stdin = io.StringIO("".join(json.dumps(l) + "\n" for l in lines))
    stdout = io.StringIO()
    try:
        answered = serve_loop(service, stdin, stdout)
    finally:
        service.close()
    responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
    assert answered == len(lines)
    # In-order: response IDs mirror request order exactly.
    assert [r["id"] for r in responses] == [l["id"] for l in lines]
    assert all(r["status"] == "ok" for r in responses)
    # Every response names the model it was admitted under: v1 strictly
    # before the swap verb, v2 strictly after.
    for response in responses:
        rid = str(response["id"])
        if rid.startswith("pre-"):
            assert response["model_version"] == "churn@v1"
        elif rid.startswith("post-"):
            assert response["model_version"] == "churn@v2"
    swap_response = next(r for r in responses if r["id"] == "the-swap")
    assert swap_response["live"] == "churn@v2"
    lifecycle = next(r for r in responses if r["id"] == "lc")["lifecycle"]
    assert lifecycle["live"] == "churn@v2"
    assert any(t["kind"] == "swapped" for t in lifecycle["transitions"])


def test_swap_resets_degradation_with_provenance(
    churn_model, small_ecommerce_db, tmp_path,
):
    registry = make_registry_with_v1(tmp_path, churn_model)
    assert registry.publish(churn_model, "churn") == 2
    service = lifecycle_service(registry, small_ecommerce_db)
    keys = entity_keys(service.model, 2)
    try:
        # Break the live model's path (its GNN tier): the ladder engages and sticks.
        service._slot.model._red_predict = lambda *a, **kw: (_ for _ in ()).throw(
            RuntimeError("induced model failure")
        )
        assert len(service.predict(keys, CUTOFF)) == len(keys)  # heuristic answers
        assert service.degraded
        # A successful swap is what restores full service.
        service.swap(version=2)
        assert not service.degraded
        assert len(service.predict(keys, CUTOFF)) == len(keys)
        events = service.events()
        restored = [e for e in events if e["kind"] == "restored"]
        assert restored and restored[-1]["restored_by"] == "swap"
    finally:
        service.close()


# ----------------------------------------------------------------------
# Compare: a deterministic replay of recently served batches
# ----------------------------------------------------------------------
TIMING_FIELDS = ("ms_per_row", "elapsed_ms")


def serve_batches(service, keys, count):
    """``count`` one-request batches of varying size; their answers."""
    return [service.predict(keys[: 1 + i % len(keys)], CUTOFF) for i in range(count)]


def test_compare_identical_version_reports_zero_divergence(
    churn_model, small_ecommerce_db, tmp_path,
):
    registry = make_registry_with_v1(tmp_path, churn_model)
    assert registry.publish(churn_model, "churn") == 2
    service = lifecycle_service(registry, small_ecommerce_db)
    keys = entity_keys(service.model, 4)
    try:
        serve_batches(service, keys, 6)
        report = service.compare(version=2)
        assert report["challenger"] == "churn@v2" and report["incumbent"] == "churn@v1"
        assert report["batches"] == 6 and report["rows"] == 1 + 2 + 3 + 4 + 1 + 2
        assert report["mean_divergence"] == report["max_divergence"] == 0.0
        assert report["errors"] == 0 and report["error_messages"] == []
        assert report["routes"]["challenger"] == report["routes"]["incumbent"] == {"red": 13}
        # Nothing was swapped; the report is an event and lifecycle state.
        assert service.name == "churn@v1"
        events = service.events()
        assert [e["kind"] for e in events] == ["compared"]
        assert events[0]["compare"] == report
        assert service.lifecycle()["last_compare"] == report
        assert service.lifecycle()["transitions"] == []
    finally:
        service.close()


def test_compare_reports_challenger_errors_and_leaves_live_untouched(
    churn_model, small_ecommerce_db, tmp_path,
):
    registry = make_registry_with_v1(tmp_path, churn_model)
    assert registry.publish(churn_model, "churn") == 2
    service = lifecycle_service(registry, small_ecommerce_db)
    keys = entity_keys(service.model, 4)
    stop = threading.Event()
    errors = []

    def client():
        while not stop.is_set():
            try:
                service.predict(keys[:2], CUTOFF)
            except Exception as err:  # no live request may fail
                errors.append(err)

    thread = threading.Thread(target=client)
    try:
        serve_batches(service, keys, 4)
        thread.start()
        with injected("service.compare%1.0:raise"):
            report = service.compare(version=2)
        stop.set()
        thread.join(30)
        assert not thread.is_alive()
        assert report["batches"] >= 4
        assert report["errors"] == report["batches"]
        assert report["error_messages"][0].startswith("InjectedFault")
        assert report["mean_divergence"] is None and report["incumbent_errors"] == 0
        # The incumbent never blinked, and nothing was promoted.
        assert not errors
        assert service.name == "churn@v1" and not service.degraded
        assert len(service.predict(keys, CUTOFF)) == len(keys)
        kinds = [e["kind"] for e in service.events()]
        assert kinds == ["compared"]
    finally:
        stop.set()
        service.close()


def test_compare_wire_verb_answers_the_report(
    churn_model, small_ecommerce_db, tmp_path,
):
    registry = make_registry_with_v1(tmp_path, churn_model)
    assert registry.publish(churn_model, "churn") == 2
    service = lifecycle_service(registry, small_ecommerce_db)
    keys = entity_keys(service.model, 2).tolist()
    lines = [
        {"op": "predict", "id": 1, "entity_keys": keys, "cutoff": CUTOFF},
        {"op": "predict", "id": 2, "entity_keys": keys[:1], "cutoff": CUTOFF},
        {"op": "compare", "id": 3, "version": 2},
        {"op": "lifecycle", "id": 4},
        {"op": "compare", "id": 5, "version": 99},
    ]
    stdin = io.StringIO("".join(json.dumps(l) + "\n" for l in lines))
    stdout = io.StringIO()
    try:
        serve_loop(service, stdin, stdout)
    finally:
        service.close()
    responses = {r["id"]: r for r in map(json.loads, stdout.getvalue().splitlines())}
    report = responses[3]["compare"]
    assert report["challenger"] == "churn@v2" and report["errors"] == 0
    # The verb drained both earlier predicts first: they are the replay.
    assert report["rows"] == 3 and report["mean_divergence"] == 0.0
    assert responses[4]["lifecycle"]["last_compare"] == report
    assert responses[4]["lifecycle"]["live"] == "churn@v1"
    # Unknown version: a clean protocol error, not a dead loop.
    assert responses[5]["status"] == "error"
    assert responses[5]["error"] == "bad_request"


def test_compare_waits_for_a_refresh_holding_the_barrier(
    churn_model, small_ecommerce_db, tmp_path,
):
    registry = make_registry_with_v1(tmp_path, churn_model)
    assert registry.publish(churn_model, "churn") == 2
    service = lifecycle_service(registry, small_ecommerce_db)
    keys = entity_keys(service.model, 2)
    order = []
    entered, release = threading.Event(), threading.Event()
    replay_on = service._replay_on

    def spy(challenger):
        order.append("replay")
        return replay_on(challenger)

    def hold():
        entered.set()
        assert release.wait(30)
        order.append("refresh done")

    service._replay_on = spy
    try:
        serve_batches(service, keys, 2)
        refresh = threading.Thread(target=service.refresh_graph, args=(hold,))
        refresh.start()
        assert entered.wait(30)
        reports = []
        compare = threading.Thread(target=lambda: reports.append(service.compare(version=2)))
        compare.start()
        deadline = time.monotonic() + 30
        while service._batcher.queue_depth == 0:  # compare's barrier is queued
            assert time.monotonic() < deadline
            time.sleep(0.005)
        assert order == [] and compare.is_alive()
        release.set()
        refresh.join(30)
        compare.join(30)
        assert not refresh.is_alive() and not compare.is_alive()
        assert order == ["refresh done", "replay"]
        assert reports[0]["batches"] == 2 and reports[0]["errors"] == 0
    finally:
        release.set()
        service.close()


def test_compare_replay_is_the_served_bytes_and_repeats(
    churn_model, small_ecommerce_db, tmp_path,
):
    registry = make_registry_with_v1(tmp_path, churn_model)
    service = lifecycle_service(registry, small_ecommerce_db)
    keys = entity_keys(service.model, 5)
    try:
        served = serve_batches(service, keys, 8)
        first = service.compare(version=1)
        second = service.compare(version=1)
    finally:
        service.close()
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in served))
    assert first["sha256"]["incumbent"] == digest.hexdigest()
    assert first["sha256"]["challenger"] == digest.hexdigest()
    assert first["mean_divergence"] == first["max_divergence"] == 0.0
    assert first["errors"] == 0 and first["batches"] == 8
    drop = lambda report: {k: v for k, v in report.items() if k not in TIMING_FIELDS}
    assert drop(first) == drop(second)


def test_compare_catches_a_challenger_that_fails_on_load_sized_batches(
    churn_model, small_ecommerce_db, tmp_path,
):
    """Concurrent load coalesces requests into bigger batches; the ring
    keeps those batches whole, so a challenger that fails only on them
    fails in the replay too (a shadow thread offered nothing more)."""
    registry = make_registry_with_v1(tmp_path, churn_model)
    service = PredictionService.from_registry(
        registry, "churn", small_ecommerce_db, version=1,
        config=ServeConfig(max_batch_size=8, max_wait_ms=10_000.0))
    keys = entity_keys(service.model, 2)
    challenger = registry.load("churn", small_ecommerce_db, version=1)
    predict = challenger.predict

    def fails_on_big_batches(batch_keys, cutoffs, **policy):
        if policy and len(batch_keys) > 4:   # warmup passes no policy
            raise RuntimeError(f"{len(batch_keys)}-row batch")
        return predict(batch_keys, cutoffs, **policy)

    challenger.predict = fails_on_big_batches
    try:
        # Four 2-row requests fill one 8-row batch, which ships at once.
        futures = [service.predict_async(keys, CUTOFF) for _ in range(4)]
        assert all(len(f.result(30)) == 2 for f in futures)
        report = service.compare(model=challenger, name="churn@flaky")
    finally:
        service.close()
    assert report["batches"] == 1 and report["rows"] == 8
    assert report["errors"] == 1
    assert report["error_messages"] == ["RuntimeError: 8-row batch"]


# ----------------------------------------------------------------------
# Graceful shutdown: SIGTERM drains and exits 0
# ----------------------------------------------------------------------
def test_sigterm_drains_and_exits_zero(saved_model_dir, tmp_path):
    stats_path = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--model", str(saved_model_dir), "--stats-json", str(stats_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env,
    )
    try:
        for line in proc.stderr:
            if line.startswith("ready:"):
                break
        proc.stdin.write(json.dumps(
            {"op": "predict", "id": 1, "entity_keys": [1, 2], "cutoff": CUTOFF}
        ) + "\n")
        proc.stdin.flush()
        response = json.loads(proc.stdout.readline())
        assert response["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        proc.wait(60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(30)
    assert proc.returncode == 0
    # The shutdown flushed the telemetry snapshot before exiting.
    document = json.loads(stats_path.read_text())
    assert document["service"]["metrics"]["serve.requests"]["value"] == 1

"""The model artifact carries its data.

A saved model — plain or routed — holds a checksummed columnar
snapshot of the database it answers from, so ``repro serve`` and the
registry start from the artifact alone:

* answers are identical whether the database came from the snapshot
  or from regenerating the dataset (every eligible entity, every
  forced route, two scales);
* the serve and registry start paths, ``swap(version=...)`` included,
  never call the dataset generator;
* a database passed to ``load`` still wins over the snapshot;
* an artifact saved before snapshots existed still loads with a passed
  database and keeps its predictions, and ``repro serve`` names the
  flags it needs;
* a missing or corrupt artifact is a one-line exit 2, and the
  registry checksums routed artifacts and their snapshots.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import get_dataset
from repro.datasets.base import DatasetSpec
from repro.graph import build_graph
from repro.graph.cache import graph_fingerprint
from repro.obs.telemetry import render_stats_text, stats_document
from repro.pql import (
    NoSnapshotError,
    PredictiveQueryPlanner,
    RoutedPredictiveModel,
    TrainedPredictiveModel,
    build_label_table,
    load_model,
)
from repro.resilience import CorruptModelError
from repro.serve import ModelRegistry, PredictionService, RegistryVersionError
from tests.conftest import make_split, tiny_planner_config

LEGACY_FIXTURE = Path(__file__).parent / "fixtures" / "legacy_model"
ROUTES = {"plain": [None], "routed": ["auto", "green", "yellow", "red"]}


@pytest.fixture(scope="module", params=[0.2, 0.4])
def fitted(request, tmp_path_factory):
    """A plain and a routed churn model saved at one dataset scale."""
    scale = request.param
    spec = get_dataset("ecommerce")
    db = spec.build(scale=scale, seed=0)
    query = spec.task("churn").query
    split = make_split(db, horizon_days=30, num_train_cutoffs=3)
    planner = PredictiveQueryPlanner(db, tiny_planner_config(epochs=1))
    root = tmp_path_factory.mktemp(f"artifacts-{scale}")
    dirs = {"plain": str(root / "plain"), "routed": str(root / "routed")}
    plain = planner.fit(query, split)
    plain.save(dirs["plain"])
    planner.fit_routed(query, split).save(dirs["routed"])
    keys = build_label_table(db, plain.binding, [split.test_cutoff]).entity_keys
    return SimpleNamespace(scale=scale, db=db, cutoff=int(split.test_cutoff),
                           keys=keys.tolist(), dirs=dirs)


def strip_snapshot(directory: str, target: str) -> str:
    """A copy of ``directory`` as the previous release would have saved
    it: no ``data.npz``, no ``data_*`` manifest keys."""
    shutil.copytree(directory, target)
    red = os.path.join(target, "red") if os.path.isdir(os.path.join(target, "red")) else target
    os.unlink(os.path.join(red, "data.npz"))
    manifest_path = os.path.join(red, "manifest.json")
    with open(manifest_path) as handle:
        manifest = {k: v for k, v in json.load(handle).items() if not k.startswith("data_")}
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    if red != target:
        routing_path = os.path.join(target, "routing.json")
        with open(routing_path) as handle:
            routing = json.load(handle)
        del routing["red_manifest_sha256"]
        with open(routing_path, "w") as handle:
            json.dump(routing, handle)
    return target


def flip_byte(path: str) -> None:
    with open(path, "r+b") as handle:
        handle.seek(os.path.getsize(path) // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))


def run_serve(monkeypatch, capsys, argv, requests=()):
    """``repro serve`` in process: (exit code, responses, stderr)."""
    lines = "".join(json.dumps(request) + "\n" for request in requests)
    monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
    code = main(["serve", *argv])
    captured = capsys.readouterr()
    return code, [json.loads(line) for line in captured.out.splitlines()], captured.err


def predict_requests(fitted, kind):
    return [
        {"op": "predict", "id": i, "entity_keys": fitted.keys, "cutoff": fitted.cutoff,
         **({"route": route} if route else {})}
        for i, route in enumerate(ROUTES[kind])
    ]


def prediction_hash(responses) -> str:
    assert responses and all(r["status"] == "ok" and not r["degraded"] for r in responses)
    scores = np.asarray([r["predictions"] for r in responses], dtype=np.float64)
    return hashlib.sha256(scores.tobytes()).hexdigest()


def explode(*args, **kwargs):
    raise AssertionError("the dataset generator was called")


# ----------------------------------------------------------------------
# Snapshot vs regeneration: the served answers are the same
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["plain", "routed"])
def test_serve_answers_identical_from_snapshot_and_regeneration(
        fitted, kind, tmp_path, monkeypatch, capsys):
    directory, requests = fitted.dirs[kind], predict_requests(fitted, kind)
    code, served, err = run_serve(monkeypatch, capsys, ["--model", directory], requests)
    assert code == 0
    ready = next(line for line in err.splitlines() if line.startswith("ready:"))
    assert "data_source=snapshot" in ready and f"rows={sum(t.num_rows for t in fitted.db)}" in ready
    if kind == "routed":
        assert [r["route"] for r in served[1:]] == ["green", "yellow", "red"]

    # The dataset flags are accepted and ignored: a wrong --scale
    # cannot serve the wrong database any more.
    code, ignored, err = run_serve(
        monkeypatch, capsys,
        ["--model", directory, "--dataset", "ecommerce", "--scale", "0.3"], requests)
    assert code == 0 and "data_source=snapshot" in err
    assert prediction_hash(ignored) == prediction_hash(served)

    # The same artifact as the previous release saved it regenerates.
    legacy = strip_snapshot(directory, str(tmp_path / "legacy"))
    code, regenerated, err = run_serve(
        monkeypatch, capsys,
        ["--model", legacy, "--dataset", "ecommerce", "--scale", str(fitted.scale)], requests)
    assert code == 0 and "data_source=generated" in err
    assert prediction_hash(regenerated) == prediction_hash(served)

    code, _, err = run_serve(monkeypatch, capsys, ["--model", legacy])
    assert code == 2
    assert all(flag in err for flag in ("--dataset", "--scale", "--seed"))
    assert len(err.strip().splitlines()) == 1


def test_start_paths_never_call_the_generator(fitted, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(DatasetSpec, "build", explode)
    root = str(tmp_path / "registry")
    assert main(["registry", "publish", "--registry", root, "--model-name", "churn",
                 "--model", fitted.dirs["routed"]]) == 0
    assert main(["registry", "publish", "--registry", root, "--model-name", "churn",
                 "--model", fitted.dirs["plain"]]) == 0
    capsys.readouterr()
    predict = {"op": "predict", "entity_keys": fitted.keys[:5], "cutoff": fitted.cutoff}
    code, direct, _ = run_serve(
        monkeypatch, capsys, ["--model", fitted.dirs["plain"], "--dataset", "ecommerce"],
        [dict(predict, id=0)])
    assert code == 0
    code, responses, err = run_serve(
        monkeypatch, capsys,
        ["--registry", root, "--model-name", "churn", "--model-version", "1"],
        [dict(predict, id=1), {"op": "swap", "id": 2, "version": 2}, dict(predict, id=3),
         {"op": "canary", "id": 4, "action": "start", "version": 1}])
    assert code == 0 and "data_source=snapshot" in err
    assert [r["status"] for r in responses] == ["ok"] * 4
    assert responses[0]["model_version"] == "churn@v1" and "route" in responses[0]
    assert responses[2]["model_version"] == "churn@v2"
    assert responses[2]["predictions"] == direct[0]["predictions"]


def test_registry_service_binds_swaps_to_the_loaded_database(fitted, tmp_path, monkeypatch):
    monkeypatch.setattr(DatasetSpec, "build", explode)
    registry = ModelRegistry(str(tmp_path / "registry"))
    registry.publish_dir(fitted.dirs["plain"], "churn")
    registry.publish(load_model(fitted.dirs["routed"]), "churn")
    with PredictionService.from_registry(registry, "churn", version=1) as service:
        db = service.model.db
        assert service._db is db
        service.swap(version=2)
        assert isinstance(service.model, RoutedPredictiveModel)
        assert service.model.db is db
        document = stats_document(service)
    data = document["service"]["data"]
    assert data["data_source"] == "snapshot"
    assert data["rows"] == sum(t.num_rows for t in fitted.db)
    assert data["stats_cutoff"] == service.model.red.stats_cutoff
    assert f"data: data_source=snapshot rows={data['rows']}" in render_stats_text(document)


@pytest.mark.parametrize("kind", ["plain", "routed"])
def test_load_binds_to_a_passed_database(fitted, kind):
    other = get_dataset("ecommerce").build(scale=0.3, seed=1)
    bound = load_model(fitted.dirs[kind], other)
    assert bound.db is other and bound.data_summary()["data_source"] == "memory"
    own = load_model(fitted.dirs[kind])
    assert own.db is not other and own.data_summary()["data_source"] == "snapshot"
    stats_cutoff = own.data_summary()["stats_cutoff"]
    assert graph_fingerprint(own.graph) == graph_fingerprint(
        build_graph(fitted.db, stats_cutoff=stats_cutoff))
    np.testing.assert_array_equal(
        own.predict(np.asarray(fitted.keys), fitted.cutoff),
        load_model(fitted.dirs[kind], fitted.db).predict(np.asarray(fitted.keys), fitted.cutoff),
    )


# ----------------------------------------------------------------------
# Artifacts saved before snapshots existed
# ----------------------------------------------------------------------
def test_legacy_artifact_loads_with_a_passed_database_and_keeps_its_predictions():
    """``tests/fixtures/legacy_model`` was written by the release before
    artifacts carried data (ecommerce scale 0.2 seed 0, hidden 8, one
    layer, two epochs); the pinned hash is what that release predicted."""
    db = get_dataset("ecommerce").build(scale=0.2, seed=0)
    model = TrainedPredictiveModel.load(str(LEGACY_FIXTURE), db)
    assert model.db is db
    keys = build_label_table(db, model.binding, [28985214]).entity_keys
    scores = model.predict(keys, 28985214)
    assert len(scores) == 60
    assert hashlib.sha256(np.ascontiguousarray(scores).tobytes()).hexdigest() == (
        "2818f92cc1b6aac87bbba9ba5733cf0f1dd0f2fccd9e9c3d9c69a8502dde69dd")
    assert TrainedPredictiveModel.verify_data(str(LEGACY_FIXTURE)) is None
    with pytest.raises(NoSnapshotError):
        TrainedPredictiveModel.load(str(LEGACY_FIXTURE))


# ----------------------------------------------------------------------
# Missing and corrupt artifacts
# ----------------------------------------------------------------------
def test_flipped_snapshot_byte_is_a_corrupt_model(fitted, tmp_path):
    for kind in ("plain", "routed"):
        directory = str(tmp_path / kind)
        shutil.copytree(fitted.dirs[kind], directory)
        flip_byte(os.path.join(directory, "red" if kind == "routed" else "", "data.npz"))
        with pytest.raises(CorruptModelError, match="data.npz"):
            load_model(directory)
        # A passed database never touches the snapshot.
        assert load_model(directory, fitted.db).db is fitted.db


def test_serve_rejects_missing_and_corrupt_artifacts_before_any_work(
        fitted, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(DatasetSpec, "build", explode)
    corrupt = str(tmp_path / "corrupt")
    shutil.copytree(fitted.dirs["plain"], corrupt)
    flip_byte(os.path.join(corrupt, "data.npz"))
    for directory, reason in ((str(tmp_path / "nowhere"), "No such file"),
                              (corrupt, "failed its manifest checksum")):
        code, responses, err = run_serve(
            monkeypatch, capsys, ["--model", directory, "--dataset", "ecommerce"])
        assert code == 2 and not responses
        assert err.startswith("repro serve:") and reason in err
        assert len(err.strip().splitlines()) == 1


def test_registry_checksums_routed_artifacts_and_snapshots(fitted, tmp_path):
    registry = ModelRegistry(str(tmp_path / "registry"))
    assert registry.publish_dir(fitted.dirs["routed"], "churn") == 1
    assert registry.publish_dir(fitted.dirs["plain"], "churn") == 2
    assert registry.describe("churn", 1)["task_type"] == "binary"
    assert registry.fsck()["clean"]
    assert isinstance(registry.load("churn", version=1), RoutedPredictiveModel)

    # A flipped snapshot byte passes the cheap index check and is
    # caught by fsck's re-hash against data_sha256.
    flip_byte(os.path.join(registry.root, "churn", "v1", "red", "data.npz"))
    assert registry.verify("churn", 1) == 1
    report = registry.fsck()
    assert [issue["kind"] for issue in report["issues"]] == ["corrupt_version"]
    assert "data.npz" in report["issues"][0]["detail"]
    assert report["models"]["churn"] == {"latest": 2, "versions": [2]}

    # routing.json heads a routed artifact's chain: editing it fails
    # the index checksum.
    assert registry.publish_dir(fitted.dirs["routed"], "churn") == 3
    with open(os.path.join(registry.root, "churn", "v3", "routing.json"), "a") as handle:
        handle.write("\n")
    with pytest.raises(RegistryVersionError, match="failed verification"):
        registry.load("churn", version=3)

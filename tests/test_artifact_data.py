"""One model, one artifact layout, and the artifact carries its data.

Every fitted model — plain, routed or degraded — saves one flat
directory (``manifest.json``, ``weights.npz`` when red is fitted,
``tiers.pkl`` when a cheaper tier is, ``data.npz``) holding a
checksummed columnar snapshot of the database it answers from, so
``repro serve`` and the registry start from the artifact alone:

* every model kind, on every route it serves, answers the same bytes
  in memory, after ``load`` (own snapshot or a passed database), out
  of the registry, and through ``repro serve`` — and every served
  response names the tier that answered;
* answers are identical whether the database came from the snapshot
  or from regenerating the dataset (every eligible entity, every
  forced route, two scales);
* the serve and registry start paths, ``swap(version=...)`` included,
  never call the dataset generator;
* a database passed to ``load`` still wins over the snapshot;
* the layouts earlier releases wrote (a plain directory saved before
  snapshots existed, a routed ``routing.json`` + ``red/`` directory, a
  degraded ``fallback.pkl`` directory) load through one reader, keep
  their pinned predictions on every route, and publish fsck-clean;
* a missing or corrupt artifact is a one-line exit 2, and the
  registry checksums artifacts and their snapshots.
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
    PredictiveModel,
    PredictiveQueryPlanner,
    RouterConfig,
    build_label_table,
    is_routed_dir,
)
from repro.resilience import CorruptModelError, ResilienceConfig, injected
from repro.serve import ModelRegistry, PredictionService, RegistryVersionError
from tests.conftest import make_split, tiny_planner_config

FIXTURES = Path(__file__).parent / "fixtures"
LEGACY_FIXTURE = FIXTURES / "legacy_model"
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
    planner.fit(query, split, router=RouterConfig()).save(dirs["routed"])
    keys = build_label_table(db, plain.binding, [split.test_cutoff]).entity_keys
    return SimpleNamespace(scale=scale, db=db, cutoff=int(split.test_cutoff),
                           keys=keys.tolist(), dirs=dirs)


def strip_snapshot(directory: str, target: str) -> str:
    """A copy of ``directory`` as the release before snapshots would
    have saved it: no ``data.npz``, no ``data_*`` manifest keys."""
    shutil.copytree(directory, target)
    os.unlink(os.path.join(target, "data.npz"))
    manifest_path = os.path.join(target, "manifest.json")
    with open(manifest_path) as handle:
        manifest = {k: v for k, v in json.load(handle).items() if not k.startswith("data_")}
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
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


def digest(scores) -> str:
    return hashlib.sha256(np.ascontiguousarray(scores).tobytes()).hexdigest()


def explode(*args, **kwargs):
    raise AssertionError("the dataset generator was called")


# ----------------------------------------------------------------------
# Every model kind round-trips to the bytes it answers in memory
# ----------------------------------------------------------------------
#: Every route each kind serves, and the tier ``auto`` lands on (None:
#: the calibrated router's fresh decision, read off the fitted model).
KINDS = {
    "plain": {"auto": "red", "green": "green", "red": "red"},
    "routed": {"auto": None, "green": "green", "yellow": "yellow", "red": "red"},
    "degraded": {"auto": "yellow", "green": "green", "yellow": "yellow"},
}


@pytest.fixture(scope="module")
def kinds(tmp_path_factory):
    """One model of each kind, saved before any call touched its costs."""
    spec = get_dataset("ecommerce")
    db = spec.build(scale=0.2, seed=0)
    query = spec.task("churn").query
    split = make_split(db, horizon_days=30, num_train_cutoffs=3)
    planner = PredictiveQueryPlanner(db, tiny_planner_config(epochs=1))
    models = {"plain": planner.fit(query, split),
              "routed": planner.fit(query, split, router=RouterConfig())}
    fallback = PredictiveQueryPlanner(db, tiny_planner_config(epochs=1),
                                      resilience=ResilienceConfig(fallback=True))
    with injected("trainer.step%1.0:raise"):
        models["degraded"] = fallback.fit(query, split)
    root = tmp_path_factory.mktemp("kinds")
    dirs = {}
    for kind, model in models.items():
        dirs[kind] = str(root / kind)
        model.save(dirs[kind])
    keys = build_label_table(db, models["plain"].binding, [split.test_cutoff]).entity_keys
    autos = {kind: model.decide(len(keys)).tier for kind, model in models.items()}
    return SimpleNamespace(db=db, models=models, dirs=dirs, autos=autos,
                           keys=keys, cutoff=int(split.test_cutoff))


@pytest.mark.parametrize("kind, route", [(k, r) for k, routes in KINDS.items() for r in routes])
def test_every_kind_round_trips_to_its_in_memory_bytes(
        kinds, kind, route, tmp_path, monkeypatch, capsys):
    model, directory = kinds.models[kind], kinds.dirs[kind]
    tier = KINDS[kind][route] or kinds.autos[kind]
    assert kinds.autos[kind] == (KINDS[kind]["auto"] or kinds.autos[kind])
    expected = model.predict(kinds.keys, kinds.cutoff, route=tier)
    assert model.last_route.tier == tier
    want = digest(np.asarray(expected, dtype=np.float64))

    def check(loaded, db):
        assert loaded.db is db or db is None
        assert loaded.available_tiers() == model.available_tiers()
        scores = loaded.predict(kinds.keys, kinds.cutoff, route=route)
        assert loaded.last_route.tier == tier
        assert digest(np.asarray(scores, dtype=np.float64)) == want

    check(PredictiveModel.load(directory), None)
    check(PredictiveModel.load(directory, kinds.db), kinds.db)
    registry = ModelRegistry(str(tmp_path / "registry"))
    registry.publish_dir(directory, "churn")
    check(registry.load("churn"), None)
    code, served, err = run_serve(
        monkeypatch, capsys, ["--registry", registry.root, "--model-name", "churn"],
        [{"op": "predict", "id": 0, "entity_keys": kinds.keys.tolist(),
          "cutoff": kinds.cutoff, "route": route}])
    assert code == 0 and "data_source=snapshot" in err
    assert served[0]["route"] == tier and not served[0]["degraded"]
    assert prediction_hash(served) == want

    # One flat layout; the manifest checksums exactly what the kind holds.
    manifest = PredictiveModel.read_manifest(directory)
    held = {"plain": {"weights.npz"}, "routed": {"weights.npz", "tiers.pkl"},
            "degraded": {"tiers.pkl"}}[kind]
    assert sorted(os.listdir(directory)) == sorted({"manifest.json", "data.npz"} | held)
    for role, name in (("weights", "weights.npz"), ("tiers", "tiers.pkl")):
        assert (f"{role}_sha256" in manifest) == (name in held)
    assert is_routed_dir(directory) == (kind == "routed")
    assert manifest.get("degraded_reason") == model.degraded_reason
    assert (model.degraded_reason is not None) == (kind == "degraded")
    if kind == "routed":
        loaded = PredictiveModel.load(directory, kinds.db)
        assert loaded.quality == model.quality and loaded.router == model.router
        assert manifest["blend_alpha"] == model.blend_alpha == loaded.blend_alpha
        assert manifest["raw_gnn_quality"] == model.raw_gnn_quality is not None


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
    else:
        assert [r["route"] for r in served] == ["red"]

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
    assert responses[2]["model_version"] == "churn@v2" and responses[2]["route"] == "red"
    assert responses[2]["predictions"] == direct[0]["predictions"]


def test_registry_service_binds_swaps_to_the_loaded_database(fitted, tmp_path, monkeypatch):
    monkeypatch.setattr(DatasetSpec, "build", explode)
    registry = ModelRegistry(str(tmp_path / "registry"))
    registry.publish_dir(fitted.dirs["plain"], "churn")
    registry.publish(PredictiveModel.load(fitted.dirs["routed"]), "churn")
    with PredictionService.from_registry(registry, "churn", version=1) as service:
        db = service.model.db
        assert service._db is db
        service.swap(version=2)
        assert service.model.available_tiers() == ["green", "yellow", "red"]
        assert service.model.db is db
        document = stats_document(service)
    data = document["service"]["data"]
    assert data["data_source"] == "snapshot"
    assert data["rows"] == sum(t.num_rows for t in fitted.db)
    assert data["stats_cutoff"] == service.model.stats_cutoff
    assert f"data: data_source=snapshot rows={data['rows']}" in render_stats_text(document)
    router = document["service"]["router"]
    assert router["quality"] == service.model.quality
    assert router["blend_alpha"] == service.model.blend_alpha
    assert router["raw_gnn_quality"] == service.model.raw_gnn_quality is not None


@pytest.mark.parametrize("kind", ["plain", "routed"])
def test_load_binds_to_a_passed_database(fitted, kind):
    other = get_dataset("ecommerce").build(scale=0.3, seed=1)
    bound = PredictiveModel.load(fitted.dirs[kind], other)
    assert bound.db is other and bound.data_summary()["data_source"] == "memory"
    own = PredictiveModel.load(fitted.dirs[kind])
    assert own.db is not other and own.data_summary()["data_source"] == "snapshot"
    stats_cutoff = own.data_summary()["stats_cutoff"]
    assert graph_fingerprint(own.graph) == graph_fingerprint(
        build_graph(fitted.db, stats_cutoff=stats_cutoff))
    np.testing.assert_array_equal(
        own.predict(np.asarray(fitted.keys), fitted.cutoff),
        PredictiveModel.load(fitted.dirs[kind], fitted.db).predict(
            np.asarray(fitted.keys), fitted.cutoff),
    )


# ----------------------------------------------------------------------
# Layouts earlier releases wrote
# ----------------------------------------------------------------------
def test_legacy_artifact_loads_with_a_passed_database_and_keeps_its_predictions():
    """``tests/fixtures/legacy_model`` was written by the release before
    artifacts carried data (ecommerce scale 0.2 seed 0, hidden 8, one
    layer, two epochs); the pinned hash is what that release predicted."""
    db = get_dataset("ecommerce").build(scale=0.2, seed=0)
    model = PredictiveModel.load(str(LEGACY_FIXTURE), db)
    assert model.db is db
    keys = build_label_table(db, model.binding, [28985214]).entity_keys
    scores = model.predict(keys, 28985214)
    assert len(scores) == 60
    assert hashlib.sha256(np.ascontiguousarray(scores).tobytes()).hexdigest() == (
        "2818f92cc1b6aac87bbba9ba5733cf0f1dd0f2fccd9e9c3d9c69a8502dde69dd")
    assert PredictiveModel.verify_data(str(LEGACY_FIXTURE)) is None
    with pytest.raises(NoSnapshotError):
        PredictiveModel.load(str(LEGACY_FIXTURE))


#: What the release that wrote each fixture predicted at cutoff 28985214
#: for the 60 eligible customers of ecommerce scale 0.2 seed 0, per
#: route: (tier that answers, SHA-256 of the prediction bytes).
#: ``legacy_routed_model`` (``repro fit --route auto``) and
#: ``legacy_degraded_model`` (``--fallback`` under
#: ``REPRO_FAULTS="trainer.step%1.0:raise"``) were both fitted with
#: ``--scale 0.2 --epochs 1 --layers 1 --hidden 8``.  Their ``auto``
#: rows are the tier this release picks: the calibrated router's
#: choice, or an uncalibrated ladder's top tier.
GREEN_FITTED = "e395c933d87ed90be1595eef2e7a3292a829bf98f303112badc53237f16f8364"
YELLOW_FITTED = "adb0bbce203178d34e34332dfa4f629cccd63164876bb771a90ac3271266b83b"
LEGACY_PINS = {
    "legacy_model": {
        "auto": ("red", "2818f92cc1b6aac87bbba9ba5733cf0f1dd0f2fccd9e9c3d9c69a8502dde69dd"),
        "green": ("green", "cff7332b2dbe9f04c00aab84d5fbc02bbce815d67b0469970661b4ba340bf90d"),
        "red": ("red", "2818f92cc1b6aac87bbba9ba5733cf0f1dd0f2fccd9e9c3d9c69a8502dde69dd"),
    },
    "legacy_routed_model": {
        "auto": ("yellow", YELLOW_FITTED),
        "green": ("green", GREEN_FITTED),
        "yellow": ("yellow", YELLOW_FITTED),
        "red": ("red", "e9156f05a2a7758f2e8ca8fa231ee663acf6bcab7c83d7fa234e96f9e783f4fb"),
    },
    "legacy_degraded_model": {
        "auto": ("yellow", YELLOW_FITTED),
        "green": ("green", GREEN_FITTED),
        "yellow": ("yellow", YELLOW_FITTED),
    },
}


@pytest.fixture(scope="module")
def legacy_db():
    return get_dataset("ecommerce").build(scale=0.2, seed=0)


@pytest.mark.parametrize("name", sorted(LEGACY_PINS))
def test_legacy_layouts_keep_their_pinned_predictions(
        name, legacy_db, monkeypatch, capsys):
    directory = str(FIXTURES / name)
    pins = LEGACY_PINS[name]
    sources = [legacy_db] if name == "legacy_model" else [None, legacy_db]
    for db in sources:
        model = PredictiveModel.load(directory, db)
        assert model.available_tiers() == [t for t in ("green", "yellow", "red") if t in pins]
        keys = build_label_table(model.db, model.binding, [28985214]).entity_keys
        for route, (tier, pinned) in pins.items():
            assert digest(model.predict(keys, 28985214, route=route)) == pinned, (db, route)
            assert model.last_route.tier == tier
    if name == "legacy_degraded_model":
        assert "InjectedFault" in model.degraded_reason
        assert model.decide(1).reason.endswith(f"no red: {model.degraded_reason}")
    if name != "legacy_model":
        requests = [{"op": "predict", "id": route, "entity_keys": keys.tolist(),
                     "cutoff": 28985214, "route": route} for route in pins]
        code, served, err = run_serve(monkeypatch, capsys, ["--model", directory], requests)
        assert code == 0 and "data_source=snapshot" in err
        for response in served:
            tier, pinned = pins[response["id"]]
            assert response["route"] == tier
            assert digest(np.asarray(response["predictions"], dtype=np.float64)) == pinned


def test_legacy_layouts_publish_reload_and_fsck_clean(legacy_db, tmp_path):
    registry = ModelRegistry(str(tmp_path / "registry"))
    for name in sorted(LEGACY_PINS):
        assert registry.publish_dir(str(FIXTURES / name), name) == 1
        model = registry.load(name, legacy_db)
        keys = build_label_table(legacy_db, model.binding, [28985214]).entity_keys
        tier, pinned = LEGACY_PINS[name]["auto"]
        assert digest(model.predict(keys, 28985214)) == pinned
        assert model.last_route.tier == tier
    assert registry.describe("legacy_degraded_model")["degraded_reason"].startswith(
        "StageFailedError")
    assert registry.fsck() == {
        "clean": True, "issues": [],
        "models": {name: {"latest": 1, "versions": [1]} for name in LEGACY_PINS},
    }
    # routing.json heads a legacy routed artifact's chain, and it
    # checksums red/manifest.json: editing either fails loudly.
    routed = os.path.join(registry.root, "legacy_routed_model", "v1")
    with open(os.path.join(routed, "red", "manifest.json"), "a") as handle:
        handle.write("\n")
    assert registry.verify("legacy_routed_model") == 1
    with pytest.raises(CorruptModelError, match="manifest.json"):
        registry.load("legacy_routed_model", legacy_db)
    with open(os.path.join(routed, "routing.json"), "a") as handle:
        handle.write("\n")
    with pytest.raises(RegistryVersionError, match="failed verification"):
        registry.load("legacy_routed_model", legacy_db)


# ----------------------------------------------------------------------
# Missing and corrupt artifacts
# ----------------------------------------------------------------------
def test_flipped_snapshot_byte_is_a_corrupt_model(fitted, tmp_path):
    for kind in ("plain", "routed"):
        directory = str(tmp_path / kind)
        shutil.copytree(fitted.dirs[kind], directory)
        flip_byte(os.path.join(directory, "data.npz"))
        with pytest.raises(CorruptModelError, match="data.npz"):
            PredictiveModel.load(directory)
        # A passed database never touches the snapshot.
        assert PredictiveModel.load(directory, fitted.db).db is fitted.db


def test_a_model_that_did_not_degrade_must_carry_its_weights(kinds, tmp_path):
    """A manifest without ``weights_sha256`` and without a degradation
    reason still names ``weights.npz``: unchecksummed weights load, and
    missing ones are a corrupt model, never a ladder that silently
    answers from its unfitted green tier."""
    directory = str(tmp_path / "plain")
    shutil.copytree(kinds.dirs["plain"], directory)
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    del manifest["weights_sha256"]
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    loaded = PredictiveModel.load(directory, kinds.db)
    assert loaded.available_tiers() == ["green", "red"]
    np.testing.assert_array_equal(
        loaded.predict(kinds.keys, kinds.cutoff),
        kinds.models["plain"].predict(kinds.keys, kinds.cutoff))
    os.unlink(os.path.join(directory, "weights.npz"))
    with pytest.raises(CorruptModelError, match="weights.npz"):
        PredictiveModel.load(directory, kinds.db)


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
    assert registry.load("churn", version=1).quality

    # A flipped snapshot byte passes the cheap index check and is
    # caught by fsck's re-hash against data_sha256.
    flip_byte(os.path.join(registry.root, "churn", "v1", "data.npz"))
    assert registry.verify("churn", 1) == 1
    report = registry.fsck()
    assert [issue["kind"] for issue in report["issues"]] == ["corrupt_version"]
    assert "data.npz" in report["issues"][0]["detail"]
    assert report["models"]["churn"] == {"latest": 2, "versions": [2]}

    # manifest.json heads the artifact's chain: editing it fails the
    # index checksum.
    assert registry.publish_dir(fitted.dirs["routed"], "churn") == 3
    with open(os.path.join(registry.root, "churn", "v3", "manifest.json"), "a") as handle:
        handle.write("\n")
    with pytest.raises(RegistryVersionError, match="failed verification"):
        registry.load("churn", version=3)

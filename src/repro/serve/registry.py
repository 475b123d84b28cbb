"""A versioned, transactional, crash-safe on-disk model registry.

Serving must always know *exactly which* artifact answers requests —
"the directory I trained into last Tuesday" does not survive
re-training, rollbacks, or concurrent publishers.  The registry gives
every published model an immutable version directory plus an index
with enough provenance to verify and roll back:

::

    <root>/
      <name>/
        index.json        # {"latest": 2, "versions": {"1": {...}, "2": {...}}}
        v1/               # a PredictiveModel.save() directory
          manifest.json   # checksums the payloads below
          weights.npz     # the GNN, when red is fitted
          tiers.pkl       # green/yellow, when a cheaper tier is fitted
          data.npz        # the database it answers from
        .staging-v3/      # an in-flight publish (never read)
        .quarantine/      # versions fsck moved aside (never served)

Publishes are **transactional**: the artifact is staged into a hidden
``.staging-v<N>`` directory, renamed to ``v<N>``, the directory entry
is fsynced, and only then is the index committed (temp file + fsync +
``os.replace`` + directory fsync).  A ``kill -9`` at *any* point
leaves either the previous index (pointing only at complete, verified
versions) or the new one — never a half-published version a reader
can trust by accident.  Whatever debris a crash leaves behind
(staging directories, renamed-but-unindexed ``v<N>`` dirs) is
quarantined by the **recovery pass** that runs when the registry is
opened; :meth:`ModelRegistry.fsck` additionally re-verifies every
indexed version's checksum and repairs the ``latest`` pointer.

Each index entry records the query text, task type, publication time,
and the SHA-256 of the artifact's root file — ``manifest.json``, or
``routing.json`` for a routed model an earlier release saved (the one
legacy reader, :meth:`~repro.pql.planner.PredictiveModel.read_manifest`,
serves the registry too).  ``load`` re-hashes the root file before
deserializing anything: a version directory that was swapped, edited,
or half-restored from backup fails with :class:`RegistryVersionError`
instead of silently serving the wrong model.  Every payload, the data
snapshot included, hangs off that chain by its own SHA-256.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Any, Dict, List, Optional

from repro.obs import get_logger
from repro.pql.planner import CorruptModelError, PredictiveModel
from repro.relational.database import Database
from repro.resilience.checkpoint import atomic_write_json, sha256_file
from repro.resilience.faults import fault_file, fault_point

__all__ = ["ModelRegistry", "RegistryError", "RegistryVersionError"]

_log = get_logger("serve.registry")

INDEX_FILE = "index.json"
STAGING_PREFIX = ".staging-"
QUARANTINE_DIR = ".quarantine"


class RegistryError(RuntimeError):
    """The registry is missing, malformed, or refused an operation."""


class RegistryVersionError(RegistryError):
    """The requested model version is absent or fails verification."""


def _version_dir(name_dir: str, version: int) -> str:
    return os.path.join(name_dir, f"v{int(version)}")


def _fsync_dir(path: str) -> None:
    """fsync a directory so a just-committed rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ModelRegistry:
    """Versioned model artifacts under one root directory.

    Opening the registry runs a cheap structural **recovery pass** over
    every model: leftover staging directories are deleted (an in-flight
    publish that never committed) and ``v<N>`` directories the index
    does not reference are moved into ``.quarantine/`` (a publish
    killed between rename and index commit).  Pass ``recover=False``
    to skip it — e.g. when a second process merely reads.
    """

    def __init__(self, root: str, recover: bool = True) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        if recover:
            self.recover()

    # ------------------------------------------------------------------
    # Index bookkeeping
    # ------------------------------------------------------------------
    def _name_dir(self, name: str) -> str:
        if not name or os.sep in name or name.startswith("."):
            raise RegistryError(f"invalid model name {name!r}")
        return os.path.join(self.root, name)

    def _index_path(self, name: str) -> str:
        return os.path.join(self._name_dir(name), INDEX_FILE)

    def _read_index(self, name: str) -> Dict[str, Any]:
        path = self._index_path(name)
        if not os.path.exists(path):
            return {"latest": None, "versions": {}}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            raise RegistryError(f"registry index for {name!r} is unreadable: {err}") from err

    def _commit_index(self, name: str, index: Dict[str, Any]) -> None:
        """Atomically replace the index and fsync the directory entry."""
        fault_point("registry.index.commit")
        atomic_write_json(self._index_path(name), index)
        fault_file("registry.index.committed", self._index_path(name))
        _fsync_dir(self._name_dir(name))

    def names(self) -> List[str]:
        """Registered model names, sorted."""
        found = []
        for entry in sorted(os.listdir(self.root)):
            if os.path.exists(os.path.join(self.root, entry, INDEX_FILE)):
                found.append(entry)
        return found

    def versions(self, name: str) -> List[int]:
        """Published versions of ``name``, ascending (empty if none)."""
        return sorted(int(v) for v in self._read_index(name)["versions"])

    def latest(self, name: str) -> int:
        """The most recently published version of ``name``."""
        index = self._read_index(name)
        if index["latest"] is None:
            raise RegistryVersionError(f"no published versions of {name!r} under {self.root!r}")
        return int(index["latest"])

    def describe(self, name: str, version: Optional[int] = None) -> Dict[str, Any]:
        """The index entry for one version (default: latest)."""
        index = self._read_index(name)
        resolved = int(version) if version is not None else index["latest"]
        entry = index["versions"].get(str(resolved)) if resolved is not None else None
        if entry is None:
            raise RegistryVersionError(
                f"model {name!r} has no version {resolved!r} "
                f"(published: {self.versions(name) or 'none'})"
            )
        return dict(entry, version=resolved)

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(self, model, name: str) -> int:
        """Save ``model`` as the next version of ``name``; returns it.

        The publish is a transaction in three crash-ordered steps —
        stage (write the artifact into a hidden ``.staging-v<N>``
        directory), expose (rename it to ``v<N>`` and fsync the parent
        directory), commit (atomic index replace).  A crash before the
        commit leaves debris the recovery pass quarantines; it can
        never leave the index pointing at an incomplete artifact.
        """
        return self._publish(name, lambda staging: model.save(staging), {
            "query": str(model.binding.query),
            "task_type": model.task_type.value,
            "degraded_reason": model.degraded_reason,
        })

    def publish_dir(self, directory: str, name: str) -> int:
        """Publish an already-saved model directory as the next version.

        ``directory`` must be a saved model (any layout
        :meth:`~repro.pql.planner.PredictiveModel.read_manifest` reads);
        the files are copied into the staged version without
        loading the model, so a publisher process needs no database.
        This is what ``repro registry publish`` uses.
        """
        try:
            manifest = PredictiveModel.read_manifest(directory)
        except (OSError, json.JSONDecodeError, CorruptModelError) as err:
            raise RegistryError(
                f"{directory!r} is not a saved model directory: {err}"
            ) from err
        return self._publish(
            name,
            lambda staging: shutil.copytree(directory, staging, dirs_exist_ok=True),
            {
                "query": manifest.get("query", ""),
                "task_type": manifest.get("task_type", ""),
                "degraded_reason": manifest.get("degraded_reason"),
            },
        )

    def _publish(self, name: str, write_artifact, metadata: Dict[str, Any]) -> int:
        name_dir = self._name_dir(name)
        os.makedirs(name_dir, exist_ok=True)
        index = self._read_index(name)
        known = [int(v) for v in index["versions"]]
        version = (max(known) + 1) if known else 1
        target = _version_dir(name_dir, version)
        staging = os.path.join(name_dir, f"{STAGING_PREFIX}v{version}")
        for leftover in (staging, target):
            # Debris from a crashed publish of this same number: the
            # index never pointed at it, so reclaiming is safe.
            if os.path.exists(leftover):
                shutil.rmtree(leftover)

        # Step 1 — stage.  A crash in here leaves only .staging-vN.
        write_artifact(staging)
        manifest_path = PredictiveModel.root_file(staging)
        if not os.path.exists(manifest_path):
            raise RegistryError(
                f"artifact for {name!r} v{version} has no {os.path.basename(manifest_path)!r}"
            )
        manifest_sha = sha256_file(manifest_path)
        fault_file("registry.publish.staged", manifest_path)

        # Step 2 — expose.  Rename is atomic; fsync makes it durable.
        os.rename(staging, target)
        _fsync_dir(name_dir)
        fault_point("registry.publish.renamed")

        # Step 3 — commit.  Until this replace lands, readers still see
        # the previous index and the new vN is just unindexed debris.
        index["versions"][str(version)] = {
            **metadata,
            "manifest_sha256": manifest_sha,
            "published_unix": int(time.time()),
        }
        index["latest"] = version
        self._commit_index(name, index)
        _log.info(
            "model published",
            extra={"model": name, "version": version,
                   "task_type": metadata.get("task_type", "")},
        )
        return version

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def verify(self, name: str, version: Optional[int] = None) -> int:
        """Check one version's artifact against the index; returns it.

        Raises :class:`RegistryVersionError` when the version was
        never published, its directory is gone, or its manifest no
        longer matches the checksum recorded at publish time.
        """
        entry = self.describe(name, version)
        resolved = int(entry["version"])
        directory = _version_dir(self._name_dir(name), resolved)
        manifest_path = PredictiveModel.root_file(directory)
        if not os.path.exists(manifest_path):
            raise RegistryVersionError(
                f"{name!r} v{resolved} is in the index but its artifact is missing "
                f"({manifest_path!r}) — the registry directory is corrupt"
            )
        actual = sha256_file(manifest_path)
        if actual != entry["manifest_sha256"]:
            raise RegistryVersionError(
                f"{name!r} v{resolved} failed verification: manifest checksum "
                f"{actual[:12]}… does not match the index's "
                f"{entry['manifest_sha256'][:12]}… — the artifact was replaced or "
                f"corrupted after publish"
            )
        return resolved

    def load(self, name: str, db: Optional[Database] = None, version: Optional[int] = None):
        """Reload one version (default: latest) against
        ``db`` — or, with ``db=None``, against the data snapshot the
        version carries.

        The root file is re-hashed against the index before anything is
        deserialized (see :meth:`verify`).
        """
        fault_point("registry.load")
        resolved = self.verify(name, version)
        directory = _version_dir(self._name_dir(name), resolved)
        model = PredictiveModel.load(directory, db)
        _log.info("model loaded", extra={"model": name, "version": resolved})
        return model

    # ------------------------------------------------------------------
    # Recovery / fsck
    # ------------------------------------------------------------------
    def _model_dirs(self) -> List[str]:
        found = []
        for entry in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, entry)
            if os.path.isdir(path) and not entry.startswith("."):
                found.append(entry)
        return found

    def _quarantine(self, name: str, directory: str, issues: List[Dict[str, Any]],
                    kind: str, detail: str) -> None:
        quarantine_root = os.path.join(self._name_dir(name), QUARANTINE_DIR)
        os.makedirs(quarantine_root, exist_ok=True)
        stamp = f"{os.path.basename(directory)}-{int(time.time() * 1000):x}"
        destination = os.path.join(quarantine_root, stamp)
        os.rename(directory, destination)
        issues.append({"model": name, "kind": kind, "detail": detail,
                       "quarantined_to": destination})
        _log.warning(
            "registry quarantined a version directory",
            extra={"model": name, "kind": kind, "detail": detail},
        )

    def recover(self) -> List[Dict[str, Any]]:
        """Structural recovery: quarantine debris a crashed publish left.

        * ``.staging-v<N>`` directories — an in-flight publish that
          never renamed; deleted outright (nothing ever referenced
          them).
        * ``v<N>`` directories absent from the index — a publish
          killed between rename and index commit; moved into
          ``.quarantine/`` so an operator can inspect or salvage.

        Cheap by design (no hashing) so it can run on every open;
        returns the list of issues handled.
        """
        issues: List[Dict[str, Any]] = []
        for name in self._model_dirs():
            name_dir = self._name_dir(name)
            index = self._read_index(name)
            indexed = {f"v{int(v)}" for v in index["versions"]}
            for entry in sorted(os.listdir(name_dir)):
                path = os.path.join(name_dir, entry)
                if entry.startswith(STAGING_PREFIX):
                    shutil.rmtree(path)
                    issues.append({"model": name, "kind": "staging_debris",
                                   "detail": f"removed in-flight publish {entry}",
                                   "quarantined_to": None})
                elif (
                    entry.startswith("v") and entry[1:].isdigit()
                    and os.path.isdir(path) and entry not in indexed
                ):
                    self._quarantine(
                        name, path, issues, "unindexed_version",
                        f"{entry} exists on disk but the index never committed it",
                    )
        return issues

    def fsck(self, name: Optional[str] = None,
             verify_checksums: bool = True) -> Dict[str, Any]:
        """Full consistency check (and repair) of the registry.

        Runs the structural :meth:`recover` pass, then — with
        ``verify_checksums`` — re-hashes every indexed version's root
        file and its data snapshot (against the manifest's
        ``data_sha256``): versions whose artifact is missing or fails a
        checksum are dropped from the index and their directories
        quarantined.  If ``latest`` points at a dropped (or absent)
        version it is repaired to the highest surviving one.

        Returns ``{"clean": bool, "issues": [...], "models": {...}}``
        where ``issues`` lists everything that was wrong (and is now
        quarantined or repaired) and ``models`` maps each model to its
        surviving versions and latest pointer.
        """
        issues = list(self.recover())
        models: Dict[str, Any] = {}
        targets = [name] if name is not None else self._model_dirs()
        for model_name in targets:
            index = self._read_index(model_name)
            dirty = False
            if verify_checksums:
                for version in sorted(int(v) for v in list(index["versions"])):
                    directory = _version_dir(self._name_dir(model_name), version)
                    try:
                        self.verify(model_name, version)
                        PredictiveModel.verify_data(directory)
                    except (RegistryVersionError, CorruptModelError) as err:
                        del index["versions"][str(version)]
                        dirty = True
                        if os.path.isdir(directory):
                            self._quarantine(
                                model_name, directory, issues,
                                "corrupt_version", str(err),
                            )
                        else:
                            issues.append({
                                "model": model_name, "kind": "missing_artifact",
                                "detail": str(err), "quarantined_to": None,
                            })
            surviving = sorted(int(v) for v in index["versions"])
            latest = index["latest"]
            if latest is not None and int(latest) not in surviving:
                index["latest"] = surviving[-1] if surviving else None
                dirty = True
                issues.append({
                    "model": model_name, "kind": "latest_repaired",
                    "detail": f"latest pointed at missing v{latest}; "
                              f"now {index['latest']}",
                    "quarantined_to": None,
                })
            if dirty:
                self._commit_index(model_name, index)
            models[model_name] = {"latest": index["latest"], "versions": surviving}
        return {"clean": not issues, "issues": issues, "models": models}

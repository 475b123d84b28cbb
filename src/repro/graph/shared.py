"""Shared-memory CSR graph store for zero-copy parallel sampling.

:class:`SharedGraphStore` packs every numeric column of a
:class:`~repro.graph.hetero.HeteroGraph` — per edge type the
``indptr``/``nbr_src``/``nbr_time`` CSR arrays, per node type the
timestamps, numeric feature matrix, categorical code columns, and
(numeric) primary keys — into **one**
:class:`multiprocessing.shared_memory.SharedMemory` segment, plus a
small picklable *manifest* of offsets and metadata.  Forked sampler
workers inherit the mapping and materialize a read-only
:class:`HeteroGraph` view whose arrays alias the segment directly: no
copy of the graph is ever made per worker, and sampling results travel
back as compact index arrays rather than pickled object graphs.

Segment lifecycle
-----------------

* ``create(graph)`` allocates and fills the segment in the parent; the
  creating process *owns* it.
* Forked workers reuse the inherited mapping; under a spawn start
  method (or explicit pickling) the store re-attaches by name.
* ``close()`` drops the view arrays and unmaps; ``unlink()`` removes
  the segment from ``/dev/shm``.  Both are idempotent.
* Cleanup is defense-in-depth: the owner unlinks explicitly (the
  parallel loader does this in ``close()``), an ``atexit`` hook covers
  forgotten stores on normal interpreter exit, and the
  :mod:`multiprocessing.resource_tracker` registration made at create
  time removes the segment even after a parent ``kill -9``.

Segments are named ``repro_shm_<pid>_<token>`` so test harnesses (and
operators) can audit ``/dev/shm`` for leaks with
:func:`list_shared_segments`.
"""

from __future__ import annotations

import atexit
import os
import secrets
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.encoders import CategoricalEncoding, NodeFeatures
from repro.graph.hetero import EdgeType, HeteroGraph, _EdgeStore

__all__ = ["SharedGraphStore", "list_shared_segments", "SEGMENT_PREFIX"]

#: Prefix of every segment this module creates; leak probes filter on it.
SEGMENT_PREFIX = "repro_shm_"

#: Byte alignment of each packed array within the segment.
_ALIGN = 64

_SHM_DIR = Path("/dev/shm")


def list_shared_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Names of live shared-memory segments created by this module.

    Reads ``/dev/shm`` directly (empty list on platforms without it),
    so chaos tests can assert that no segment survives a crash.
    """
    if not _SHM_DIR.is_dir():
        return []
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(prefix))


class _Packer:
    """Assigns aligned offsets and records array metadata."""

    def __init__(self) -> None:
        self.cursor = 0
        self.entries: List[Tuple[int, np.ndarray]] = []

    def ref(self, array: np.ndarray) -> Dict[str, object]:
        array = np.ascontiguousarray(array)
        if array.dtype.kind not in "iufb":
            raise TypeError(f"cannot pack non-numeric dtype {array.dtype}")
        if array.nbytes == 0:
            # Zero-size arrays carry no bytes; give them offset 0 so
            # the view never reaches past the buffer end.
            offset = 0
        else:
            offset = -(-self.cursor // _ALIGN) * _ALIGN
            self.cursor = offset + array.nbytes
        self.entries.append((offset, array))
        return {"offset": offset, "shape": tuple(array.shape), "dtype": array.dtype.str}


def _build_manifest(graph: HeteroGraph, packer: _Packer) -> Dict[str, object]:
    manifest: Dict[str, object] = {
        "num_nodes": {nt: graph.num_nodes(nt) for nt in graph.node_types},
        "node_times": {nt: packer.ref(graph.node_times(nt)) for nt in graph.node_types},
        "edge_csr": {},
        "features": {},
        "node_keys": {},
    }
    for edge_type in graph.edge_types:
        store = graph._edges[edge_type]
        manifest["edge_csr"][(edge_type.src, edge_type.rel, edge_type.dst)] = (
            packer.ref(store.indptr),
            packer.ref(store.nbr_src),
            packer.ref(store.nbr_time),
        )
    for node_type, feats in graph.features.items():
        manifest["features"][node_type] = {
            "numeric": packer.ref(feats.numeric),
            "numeric_names": list(feats.numeric_names),
            "categorical": [
                {
                    "name": cat.name,
                    "codes": packer.ref(cat.codes),
                    "cardinality": cat.cardinality,
                    "vocabulary": dict(cat.vocabulary),
                }
                for cat in feats.categorical
            ],
        }
    for node_type, keys in graph.node_keys.items():
        keys = np.asarray(keys)
        if keys.dtype.kind in "iufb":
            manifest["node_keys"][node_type] = ("packed", packer.ref(keys))
        else:
            # Strings/objects don't pack into a flat buffer; they are
            # tiny relative to the CSR arrays, so ship them by value.
            manifest["node_keys"][node_type] = (
                "inline",
                keys.tolist(),
                keys.dtype.str,
            )
    return manifest


class SharedGraphStore:
    """A HeteroGraph serialized into one shared-memory segment.

    See the module docstring for layout and lifecycle.  Instances are
    cheap to pass to forked workers (the mapping is inherited) and
    pickle down to the manifest, re-attaching by segment name on
    deserialization.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: Dict[str, object],
        owner: bool,
    ) -> None:
        self._shm = shm
        self._manifest = manifest
        self._owner = owner
        self._owner_pid = os.getpid()
        self._graph: Optional[HeteroGraph] = None
        self._closed = False
        self._unlinked = False
        atexit.register(self._atexit_cleanup)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, graph: HeteroGraph, name: Optional[str] = None) -> "SharedGraphStore":
        """Pack ``graph`` into a fresh segment owned by this process."""
        packer = _Packer()
        manifest = _build_manifest(graph, packer)
        size = max(packer.cursor, 1)
        if name is None:
            name = f"{SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        try:
            for offset, array in packer.entries:
                if array.nbytes == 0:
                    continue
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=shm.buf, offset=offset
                )
                view[...] = array
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        manifest["name"] = shm.name
        manifest["size"] = size
        return cls(shm, manifest, owner=True)

    @classmethod
    def attach(cls, manifest: Dict[str, object]) -> "SharedGraphStore":
        """Attach to an existing segment described by ``manifest``."""
        shm = shared_memory.SharedMemory(name=manifest["name"])
        return cls(shm, manifest, owner=False)

    def __reduce__(self):
        # Under a spawn start method the manifest travels and the
        # receiving process re-attaches by name; forked workers never
        # take this path (they inherit the object).
        return (SharedGraphStore.attach, (self._manifest,))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Segment name (the file name under ``/dev/shm``)."""
        return self._manifest["name"]

    @property
    def size(self) -> int:
        """Segment size in bytes."""
        return self._manifest["size"]

    @property
    def is_owner(self) -> bool:
        """Whether this store created (and must unlink) the segment."""
        return self._owner

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def _view(self, ref: Dict[str, object]) -> np.ndarray:
        array = np.ndarray(
            ref["shape"],
            dtype=np.dtype(ref["dtype"]),
            buffer=self._shm.buf,
            offset=ref["offset"],
        )
        array.flags.writeable = False
        return array

    def graph(self) -> HeteroGraph:
        """The zero-copy :class:`HeteroGraph` view over the segment.

        Arrays alias shared memory and are marked read-only; the view
        is cached, so repeated calls are free.  Call sites must drop references to
        the view and its arrays before :meth:`close` can unmap.
        """
        if self._closed:
            raise ValueError("shared graph store is closed")
        if self._graph is not None:
            return self._graph
        m = self._manifest
        node_times = {nt: self._view(ref) for nt, ref in m["node_times"].items()}
        edge_stores = {
            EdgeType(*key): _EdgeStore.from_csr(
                self._view(indptr), self._view(nbr_src), self._view(nbr_time)
            )
            for key, (indptr, nbr_src, nbr_time) in m["edge_csr"].items()
        }
        features = {
            nt: NodeFeatures(
                numeric=self._view(spec["numeric"]),
                numeric_names=list(spec["numeric_names"]),
                categorical=[
                    CategoricalEncoding(
                        name=cat["name"],
                        codes=self._view(cat["codes"]),
                        cardinality=cat["cardinality"],
                        vocabulary=cat["vocabulary"],
                    )
                    for cat in spec["categorical"]
                ],
            )
            for nt, spec in m["features"].items()
        }
        node_keys = {}
        for nt, packed in m["node_keys"].items():
            if packed[0] == "packed":
                node_keys[nt] = self._view(packed[1])
            else:
                _, values, dtype_str = packed
                node_keys[nt] = np.asarray(values, dtype=np.dtype(dtype_str))
        graph = HeteroGraph.from_parts(
            num_nodes=m["num_nodes"],
            node_times=node_times,
            edge_stores=edge_stores,
            features=features,
            node_keys=node_keys,
        )
        self._graph = graph
        return graph

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the view and unmap the segment (idempotent).

        If numpy views into the buffer are still referenced elsewhere,
        the unmap is skipped (unlinking still works; the OS frees the
        memory once the last mapping dies).
        """
        if self._closed:
            return
        self._graph = None
        try:
            self._shm.close()
        except BufferError:
            # Outstanding exported views keep the mapping alive; the
            # segment is still unlinkable and dies with the process.
            return
        self._closed = True

    def unlink(self) -> None:
        """Remove the segment from the filesystem (idempotent)."""
        if self._unlinked:
            return
        self._unlinked = True
        atexit.unregister(self._atexit_cleanup)
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def cleanup(self) -> None:
        """Close, and unlink when this store owns the segment."""
        self.close()
        if self._owner:
            self.unlink()

    def _atexit_cleanup(self) -> None:
        # Guard on the pid: forked children inherit this registration
        # (and the owner flag) but must never unlink the parent's
        # segment.
        if os.getpid() == self._owner_pid:
            self.cleanup()

"""The heterogeneous temporal graph data structure.

A :class:`HeteroGraph` holds, per node type, a node count, per-node
timestamps, and encoded features; and per edge type, the edge list plus
a CSR index keyed by *destination* node whose neighbor lists are sorted
by edge timestamp.  The time-sorted CSR is what makes time-respecting
neighbor sampling a binary search instead of a filter.

A built graph changes only by appending (``grow_node_type``,
``append_edges``), and it is the single source of *what changed*: each
append bumps ``HeteroGraph.version`` and lands in a short journal that
``changes_since`` reads back.  Whatever memoizes graph-derived state
checks itself against that before it answers, by one rule — *a value
computed at cutoff* ``c`` *stays valid until a row with time* ``<= c``
*arrives that it could see* (:class:`CutoffMemo`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["EdgeType", "GraphChange", "HeteroGraph", "CutoffMemo", "TIME_MIN"]

#: Timestamp assigned to static (non-temporal) nodes and edges; it
#: compares below every real timestamp so static entities are visible
#: at any seed time.
TIME_MIN = np.iinfo(np.int64).min
#: Mutations the change journal keeps (one ingest batch writes about
#: ten: a growth per table plus two appends per foreign key).
JOURNAL_LEN = 256


class GraphChange(NamedTuple):
    """What a graph gained between two versions: per node type the
    sorted ids that are new or gained an incoming edge, the earliest
    timestamp introduced (``TIME_MIN`` for a static row or edge, which
    every cutoff sees), and the node types that gained nodes."""

    touched: Dict[str, np.ndarray]
    min_time: int
    grown: FrozenSet[str]


@dataclass(frozen=True)
class EdgeType:
    """An edge type ``src --rel--> dst``.

    ``rel`` is unique per (src, dst) pair in practice because it is
    derived from the foreign-key column name.
    """

    src: str
    rel: str
    dst: str

    def reverse(self) -> "EdgeType":
        """The reversed edge type (rel gains/loses a ``rev_`` prefix)."""
        if self.rel.startswith("rev_"):
            return EdgeType(self.dst, self.rel[4:], self.src)
        return EdgeType(self.dst, f"rev_{self.rel}", self.src)

    def __str__(self) -> str:
        return f"{self.src}--{self.rel}-->{self.dst}"


class _EdgeStore:
    """A dst-keyed CSR with time-sorted neighbor lists.

    The CSR is the only copy of the edges: ``nbr_src``/``nbr_time``
    hold them sorted by ``(dst, time)`` (ties in input order) and
    ``indptr`` delimits each destination's segment.
    """

    __slots__ = ("indptr", "nbr_src", "nbr_time", "_search")

    def __init__(
        self,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        times: np.ndarray,
        num_dst: int,
    ) -> None:
        src_ids = np.asarray(src_ids, dtype=np.int64)
        dst_ids = np.asarray(dst_ids, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        if not (len(src_ids) == len(dst_ids) == len(times)):
            raise ValueError("src/dst/time arrays must have equal length")
        order = np.lexsort((times, dst_ids))
        self.nbr_src = src_ids[order]
        self.nbr_time = times[order]
        counts = np.bincount(dst_ids, minlength=num_dst)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._search = None  # count_before's keys, built on first use

    @property
    def num_edges(self) -> int:
        return len(self.nbr_src)

    def count_before(self, dst: np.ndarray, time: np.ndarray) -> np.ndarray:
        """Per ``(dst[i], time[i])``: incoming edges of ``dst[i]`` with
        edge time <= ``time[i]``, every row in one vectorised bisection.

        Edge ``e``'s search key is ``dst_e * U + rank_e``, with
        ``rank_e < U`` its time's index among the store's ``U`` distinct
        times.  The keys ascend in CSR order, so the keys below
        ``dst * U + (distinct times <= time)`` are the earlier segments
        plus the visible prefix of ``dst``'s.  They are built on first
        use: a merge makes a new store, and padding ``indptr`` for new
        destinations leaves every key where it was.
        """
        if self._search is None:
            distinct, ranks = np.unique(self.nbr_time, return_inverse=True)
            owner = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))
            self._search = distinct, owner * len(distinct) + ranks
        distinct, keys = self._search
        dst = np.asarray(dst, dtype=np.int64)
        bound = dst * len(distinct) + distinct.searchsorted(time, side="right")
        return keys.searchsorted(bound) - self.indptr[dst]

    def merged(
        self,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        times: np.ndarray,
        num_dst: int,
    ) -> "_EdgeStore":
        """This store plus a delta batch, byte-equal to a cold store over
        the base edges then the delta (``num_dst``: the grown count).

        The cold ``lexsort`` is stable, so base edges precede delta
        edges on equal ``(dst, time)``: a binary search with side
        ``"right"`` over each destination's segment, run for the whole
        delta at once.  When every delta edge lands past all base edges
        (always, for a reverse foreign key: its destination is the new
        child row), the sorted delta is appended.
        """
        d_src = np.asarray(src_ids, dtype=np.int64)
        d_dst = np.asarray(dst_ids, dtype=np.int64)
        d_times = np.asarray(times, dtype=np.int64)
        order = np.lexsort((d_times, d_dst))
        s_src, s_dst, s_times = d_src[order], d_dst[order], d_times[order]
        total = len(self.nbr_src)
        base_ptr = np.pad(self.indptr, (0, num_dst + 1 - len(self.indptr)), mode="edge")
        store = _EdgeStore.__new__(_EdgeStore)
        store._search = None
        store.indptr = base_ptr + np.cumsum(np.bincount(s_dst + 1, minlength=num_dst + 1))
        if not len(s_dst) or base_ptr[s_dst[0]] == total:
            store.nbr_src = np.concatenate([self.nbr_src, s_src])
            store.nbr_time = np.concatenate([self.nbr_time, s_times])
            return store
        # Each delta edge goes after the base edges of its segment with
        # time <= its own; bisect only where the segment's last base
        # edge is later (a streamed edge is usually the latest).
        lo, positions = base_ptr[s_dst], base_ptr[s_dst + 1]
        hi = positions - 1
        inner = np.flatnonzero((lo <= hi) & (self.nbr_time[hi] > s_times))
        lo, hi, t = lo[inner], hi[inner], s_times[inner]
        while True:
            active = lo < hi
            if not active.any():
                break
            mid = (lo + hi) >> 1
            right = self.nbr_time[mid] <= t
            lo = np.where(active & right, mid + 1, lo)
            hi = np.where(active & ~right, mid, hi)
        positions[inner] = lo
        slots = positions + np.arange(len(s_dst))
        kept = np.ones(total + len(s_dst), dtype=bool)
        kept[slots] = False
        store.nbr_src = np.empty(len(kept), dtype=np.int64)
        store.nbr_time = np.empty(len(kept), dtype=np.int64)
        store.nbr_src[slots], store.nbr_time[slots] = s_src, s_times
        store.nbr_src[kept], store.nbr_time[kept] = self.nbr_src, self.nbr_time
        return store


class HeteroGraph:
    """A heterogeneous graph with per-node and per-edge timestamps."""

    def __init__(self) -> None:
        self._num_nodes: Dict[str, int] = {}
        self._node_times: Dict[str, np.ndarray] = {}
        self._edges: Dict[EdgeType, _EdgeStore] = {}
        #: per node type, the encoded features (set by the builder).
        self.features: Dict[str, "NodeFeatures"] = {}
        #: per node type, original primary-key value per node index.
        self.node_keys: Dict[str, np.ndarray] = {}
        self._key_index: Dict[str, Dict[object, int]] = {}
        self._start_journal()

    def _start_journal(self) -> None:
        #: Count of appends since construction; anything memoized from
        #: the graph is current iff it was reconciled at this version.
        self.version = 0
        # The last JOURNAL_LEN appends, oldest first, one node type each.
        self._journal: Deque[Tuple[str, np.ndarray, int, bool]] = deque(maxlen=JOURNAL_LEN)
        self._changed_at: Dict[str, int] = {}

    def _record(self, node_type: str, ids: np.ndarray, times: np.ndarray, grew: bool) -> None:
        self.version += 1
        self._journal.append((node_type, ids, int(times.min()), grew))
        self._changed_at[node_type] = self.version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node_type(
        self,
        name: str,
        num_nodes: int,
        times: Optional[np.ndarray] = None,
    ) -> None:
        """Register ``num_nodes`` nodes of type ``name``.

        ``times`` gives per-node creation timestamps; omitted means the
        nodes are static (always visible).
        """
        if name in self._num_nodes:
            raise ValueError(f"node type {name!r} already exists")
        if times is None:
            times = np.full(num_nodes, TIME_MIN, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        if times.shape != (num_nodes,):
            raise ValueError(f"times shape {times.shape} != ({num_nodes},)")
        self._num_nodes[name] = num_nodes
        self._node_times[name] = times

    def add_edge_type(
        self,
        edge_type: EdgeType,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        times: Optional[np.ndarray] = None,
    ) -> None:
        """Add all edges of ``edge_type`` at once.

        ``times`` stamps each edge; omitted means static edges.
        """
        for endpoint, role in ((edge_type.src, "src"), (edge_type.dst, "dst")):
            if endpoint not in self._num_nodes:
                raise KeyError(f"edge type {edge_type}: unknown {role} node type {endpoint!r}")
        if edge_type in self._edges:
            raise ValueError(f"edge type {edge_type} already exists")
        src_ids = np.asarray(src_ids, dtype=np.int64)
        dst_ids = np.asarray(dst_ids, dtype=np.int64)
        if times is None:
            times = np.full(len(src_ids), TIME_MIN, dtype=np.int64)
        self._check_ids(edge_type, src_ids, dst_ids)
        self._edges[edge_type] = _EdgeStore(
            src_ids, dst_ids, times, self._num_nodes[edge_type.dst]
        )

    def _check_ids(self, edge_type: EdgeType, src_ids: np.ndarray, dst_ids: np.ndarray) -> None:
        if len(src_ids) and (
            src_ids.min() < 0
            or src_ids.max() >= self._num_nodes[edge_type.src]
            or dst_ids.min() < 0
            or dst_ids.max() >= self._num_nodes[edge_type.dst]
        ):
            raise IndexError(f"edge type {edge_type}: node ids out of range")

    # ------------------------------------------------------------------
    # Incremental growth (the ingest delta path)
    # ------------------------------------------------------------------
    def grow_node_type(self, name: str, times: np.ndarray, keys=None) -> int:
        """Append nodes to an existing type; returns the first new index.

        ``times`` holds one creation timestamp per new node
        (``TIME_MIN`` entries for static rows) and ``keys`` their
        primary keys, extending the type's key index in place.  CSR
        indices of edge types *into* the grown type are padded with
        empty neighbor lists — byte-identical to a cold rebuild, since
        trailing zero counts cumsum to repeated ``indptr`` tails.
        Features are the caller's to extend (see ``repro.ingest.delta``).
        """
        if name not in self._num_nodes:
            raise KeyError(f"unknown node type {name!r}")
        times = np.asarray(times, dtype=np.int64)
        start = self._num_nodes[name]
        if len(times) == 0:
            return start
        self._node_times[name] = np.concatenate([self._node_times[name], times])
        self._num_nodes[name] = start + len(times)
        for edge_type, store in self._edges.items():
            if edge_type.dst == name:
                pad = np.full(len(times), store.indptr[-1], dtype=np.int64)
                store.indptr = np.concatenate([store.indptr, pad])
        if keys is not None:
            keys = np.asarray(keys)
            mapping = self._key_index.get(name)
            if mapping is not None:
                mapping.update(zip(keys.tolist(), range(start, start + len(keys))))
            self.node_keys[name] = np.concatenate([self.node_keys[name], keys])
        self._record(name, np.arange(start, start + len(times), dtype=np.int64), times, True)
        return start

    def append_edges(
        self,
        edge_type: EdgeType,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        times: Optional[np.ndarray] = None,
    ) -> None:
        """Append a batch of edges to an existing edge type.

        The store is replaced with a stably merged one
        (:meth:`_EdgeStore.merged`) that is bit-identical to a cold
        rebuild over the combined edge list.
        """
        if edge_type not in self._edges:
            raise KeyError(f"unknown edge type {edge_type}")
        src_ids = np.asarray(src_ids, dtype=np.int64)
        dst_ids = np.asarray(dst_ids, dtype=np.int64)
        if times is None:
            times = np.full(len(src_ids), TIME_MIN, dtype=np.int64)
        times = np.asarray(times, dtype=np.int64)
        if len(src_ids) == 0:
            return
        self._check_ids(edge_type, src_ids, dst_ids)
        self._edges[edge_type] = self._edges[edge_type].merged(
            src_ids, dst_ids, times, self._num_nodes[edge_type.dst]
        )
        # Only a destination's neighbor list changed; the reverse edge
        # type, appended by its own call, covers the other endpoint.
        self._record(edge_type.dst, np.unique(dst_ids), times, False)

    def changes_since(self, version: int) -> Optional[GraphChange]:
        """Everything appended after ``version``, merged into one change.

        ``None`` when ``version`` is older than the journal reaches:
        the caller cannot know what it missed and drops everything.
        """
        behind = self.version - version
        if behind > len(self._journal):
            return None
        touched: Dict[str, List[np.ndarray]] = {}
        min_time, grown = np.iinfo(np.int64).max, set()  # empty change: later than any cutoff
        for index in range(len(self._journal) - behind, len(self._journal)):
            node_type, ids, earliest, grew = self._journal[index]
            touched.setdefault(node_type, []).append(ids)
            min_time = min(min_time, earliest)
            if grew:
                grown.add(node_type)
        merged = {
            node_type: parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))
            for node_type, parts in touched.items()
        }
        return GraphChange(merged, min_time, frozenset(grown))

    def last_changed(self, node_type: str) -> int:
        """The version at which ``node_type`` last gained a node or an
        incoming edge (0: not since construction)."""
        return self._changed_at.get(node_type, 0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_types(self) -> List[str]:
        """All node type names."""
        return list(self._num_nodes)

    @property
    def edge_types(self) -> List[EdgeType]:
        """All edge types."""
        return list(self._edges)

    def num_nodes(self, node_type: str) -> int:
        """Node count of one type."""
        return self._num_nodes[node_type]

    def key_index(self, node_type: str) -> Dict[object, int]:
        """Primary-key value → node index for ``node_type`` (read-only).

        The one such map: built on first use and extended in place by
        :meth:`grow_node_type`.  Raises ``KeyError`` when the type has
        no primary-key index.
        """
        mapping = self._key_index.get(node_type)
        if mapping is None:
            keys = self.node_keys.get(node_type)
            if keys is None:
                raise KeyError(f"node type {node_type!r} has no primary-key index")
            mapping = self._key_index[node_type] = {
                key: i for i, key in enumerate(keys.tolist())
            }
        return mapping

    def total_nodes(self) -> int:
        """Node count over all types."""
        return sum(self._num_nodes.values())

    def num_edges(self, edge_type: EdgeType) -> int:
        """Edge count of one type."""
        return self._edges[edge_type].num_edges

    def total_edges(self) -> int:
        """Edge count over all types."""
        return sum(store.num_edges for store in self._edges.values())

    def node_times(self, node_type: str) -> np.ndarray:
        """Per-node timestamps of one type."""
        return self._node_times[node_type]

    def edge_types_into(self, node_type: str) -> List[EdgeType]:
        """Edge types whose destination is ``node_type``."""
        return [et for et in self._edges if et.dst == node_type]

    def count_before(self, edge_type: EdgeType, dst: np.ndarray, time: np.ndarray) -> np.ndarray:
        """Time-valid in-degrees under one edge type, one per ``(dst, time)`` pair."""
        return self._edges[edge_type].count_before(dst, time)

    def __repr__(self) -> str:
        nodes = ", ".join(f"{t}:{n}" for t, n in self._num_nodes.items())
        return f"HeteroGraph(nodes=[{nodes}], edge_types={len(self._edges)}, edges={self.total_edges()})"

    def summary(self) -> Dict[str, object]:
        """Statistics dict (used by the Table 1 benchmark)."""
        return {
            "node_types": len(self._num_nodes),
            "edge_types": len(self._edges),
            "nodes": self.total_nodes(),
            "edges": self.total_edges(),
            "nodes_by_type": dict(self._num_nodes),
            "edges_by_type": {str(et): store.num_edges for et, store in self._edges.items()},
        }


class CutoffMemo:
    """A small LRU of per-cutoff values derived from one graph.

    The one place the staleness rule for such values lives: an entry
    computed at cutoff ``c`` survives a change whose earliest
    introduced time is ``m`` iff ``m != TIME_MIN and c < m`` — nothing
    the change brought is visible at ``c``.  Growth of ``sized_by``
    (the node type the values have one row per node of, if any) drops
    every entry, as does falling behind the graph's journal.  The memo
    reconciles itself on every :meth:`get`.
    """

    #: Cutoffs kept; serving and training see a handful.
    CAPACITY = 8

    def __init__(self, graph: HeteroGraph, sized_by: Optional[str] = None) -> None:
        self._graph = graph
        self._sized_by = sized_by
        self._seen = graph.version
        self._entries: Dict[int, object] = {}

    def reconcile(self) -> int:
        """Drop what the graph's changes since the last look could have
        altered; returns how many entries went."""
        if self._seen == self._graph.version:
            return 0
        change = self._graph.changes_since(self._seen)
        self._seen = self._graph.version
        if change is None or change.min_time == TIME_MIN or self._sized_by in change.grown:
            stale = list(self._entries)
        else:
            stale = [cutoff for cutoff in self._entries if cutoff >= change.min_time]
        for cutoff in stale:
            del self._entries[cutoff]
        return len(stale)

    def get(self, cutoff: int, compute: Callable[[], object]):
        """The value at ``cutoff``, computing (and keeping) it on a miss."""
        self.reconcile()
        value = self._entries.pop(cutoff, None)
        if value is None:
            value = compute()
        self._entries[cutoff] = value  # most recently used last
        if len(self._entries) > self.CAPACITY:
            del self._entries[next(iter(self._entries))]
        return value

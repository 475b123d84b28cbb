"""Nestable tracing spans for the predictive-query compiler and server.

A *span* measures one named stage of work — wall time, counters, and
parent/child structure::

    with span("planner.label"):
        ...
        add_counter("label.train_rows", len(train_labels))

Spans nest: a span opened while another is active becomes its child,
so a full ``fit`` produces a stage tree (parse → label → build →
train) that :mod:`repro.obs.report` renders as an EXPLAIN
ANALYZE-style report.

Collection is **off by default** and the disabled path is a true
no-op: :func:`span` returns a shared null context manager and
:func:`add_counter` returns immediately — no records, no allocations
on the hot path.  Enable collection around a region with
:func:`collect`::

    with collect() as trace:
        planner.fit(query, split)
    print(trace.to_dict())

The collector is **thread-safe**: every thread keeps its own open-span
stack, so spans opened concurrently (the serving micro-batcher worker
and programmatic callers) nest correctly within
their own thread and land as separate roots of the same trace.  Trace
assembly (root registration, finalization) is lock-protected.

Two collection scopes exist:

* ``collect()`` / ``collect(scope="process")`` — the process-global
  window used by ``--profile``; at most one may be open at a time and
  it sees spans from *every* thread.
* ``collect(scope="thread")`` — a window private to the calling
  thread.  It takes precedence over an open process window for that
  thread only, which is how the serving path captures one batch's span
  tree without perturbing anyone else's trace.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "Trace",
    "TraceCollector",
    "add_counter",
    "collect",
    "current_span",
    "enabled",
    "span",
    "start_collection",
    "stop_collection",
]


class Span:
    """One recorded stage: name, wall time, counters, children."""

    __slots__ = ("name", "started_at", "seconds", "counters", "children", "parent", "error", "_clock")

    def __init__(self, name: str, parent: Optional["Span"] = None) -> None:
        self.name = name
        self.parent = parent
        #: Wall-clock timestamp when the span opened (epoch seconds).
        self.started_at = time.time()
        #: Duration; 0.0 until the span closes.
        self.seconds = 0.0
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self.error: Optional[str] = None
        self._clock = time.perf_counter()

    def close(self, error: Optional[str] = None) -> None:
        """Stamp the duration (monotonic clock) and optional error."""
        self.seconds = time.perf_counter() - self._clock
        self.error = error

    def add_counter(self, name: str, value: float = 1.0) -> None:
        """Accumulate a named counter on this span."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for a descendant (or self) by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of this span and its subtree."""
        record: Dict[str, Any] = {
            "name": self.name,
            "seconds": self.seconds,
            "counters": dict(self.counters),
        }
        if self.error is not None:
            record["error"] = self.error
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record

    def __repr__(self) -> str:
        return f"Span({self.name!r}, seconds={self.seconds:.4f}, counters={self.counters})"


class Trace:
    """The finished result of one collection window."""

    def __init__(self, roots: List[Span]) -> None:
        self.roots = roots

    def find(self, name: str) -> Optional[Span]:
        """First span with the given name, depth-first over all roots."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def iter_spans(self):
        """Yield every span depth-first."""
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of the whole trace."""
        return {"spans": [root.to_dict() for root in self.roots]}


class TraceCollector:
    """Owns the per-thread open-span stacks for one collection window.

    Each thread pushes/pops only its own stack, so span open/close is
    lock-free on the hot path; the shared ``roots`` list and the stack
    directory are guarded by a lock.  A span's ``children`` list is
    only ever mutated by the thread that opened the parent, because
    parents are resolved from the opener's own stack.
    """

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[Span]] = {}

    def _stack(self) -> List[Span]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(ident, [])
        return stack

    @property
    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, or None."""
        stack = self._stacks.get(threading.get_ident())
        return stack[-1] if stack else None

    def open_span(self, name: str) -> Span:
        """Push a new child span onto the caller's stack and return it."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(name, parent=parent)
        if parent is None:
            with self._lock:
                self.roots.append(record)
        else:
            parent.children.append(record)
        stack.append(record)
        return record

    def close_span(self, record: Span, error: Optional[str] = None) -> None:
        """Close ``record`` and pop it (and any orphans) off the stack."""
        record.close(error=error)
        stack = self._stack()
        # Pop through any spans left open by non-local exits so the
        # stack never wedges on an exception thrown mid-stage.
        while stack:
            top = stack.pop()
            if top is record:
                break
            if top.seconds == 0.0:
                top.close()

    def add_counter(self, name: str, value: float) -> None:
        """Add ``value`` to the caller's innermost open span."""
        current = self.current
        if current is not None:
            current.add_counter(name, value)

    def finish(self) -> Trace:
        """Close any still-open spans (all threads) and seal the window."""
        with self._lock:
            stacks = list(self._stacks.values())
        for stack in stacks:
            while stack:
                leftover = stack.pop()
                if leftover.seconds == 0.0:
                    leftover.close()
        return Trace(self.roots)


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add_counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` on the innermost open span."""
        pass


_NULL_SPAN = _NullSpan()

#: The process-global collector; ``None`` means process collection is off.
_collector: Optional[TraceCollector] = None
_collector_lock = threading.Lock()

#: Per-thread collector slot; takes precedence over the global one.
_tls = threading.local()


def _active_collector() -> Optional[TraceCollector]:
    local = getattr(_tls, "collector", None)
    return local if local is not None else _collector


class _ActiveSpan:
    """Context manager that closes its span on exit (exception-safe)."""

    __slots__ = ("_record", "_collector")

    def __init__(self, collector: TraceCollector, record: Span) -> None:
        self._collector = collector
        self._record = record

    def __enter__(self) -> Span:
        return self._record

    def __exit__(self, exc_type, exc, tb) -> bool:
        error = None if exc_type is None else f"{exc_type.__name__}: {exc}"
        self._collector.close_span(self._record, error=error)
        return False


def enabled() -> bool:
    """True while a collection window applies to the calling thread."""
    return _active_collector() is not None


def span(name: str):
    """Open a nested span; a shared no-op when collection is off."""
    collector = _active_collector()
    if collector is None:
        return _NULL_SPAN
    return _ActiveSpan(collector, collector.open_span(name))


def add_counter(name: str, value: float = 1.0) -> None:
    """Accumulate a counter on the innermost open span (no-op when off)."""
    collector = _active_collector()
    if collector is not None:
        collector.add_counter(name, float(value))


def current_span() -> Optional[Span]:
    """The calling thread's innermost open span, or None."""
    collector = _active_collector()
    return collector.current if collector is not None else None


def start_collection(scope: str = "process") -> TraceCollector:
    """Turn collection on; pairs with :func:`stop_collection`.

    ``scope="process"`` opens the global window (one per process);
    ``scope="thread"`` opens a window private to the calling thread.
    """
    global _collector
    if scope == "process":
        with _collector_lock:
            if _collector is not None:
                raise RuntimeError("trace collection is already active")
            _collector = TraceCollector()
            return _collector
    if scope == "thread":
        if getattr(_tls, "collector", None) is not None:
            raise RuntimeError("thread-scoped trace collection is already active")
        _tls.collector = TraceCollector()
        return _tls.collector
    raise ValueError(f"scope must be 'process' or 'thread', got {scope!r}")


def stop_collection(scope: str = "process") -> Trace:
    """Turn collection off and return the finished :class:`Trace`."""
    global _collector
    if scope == "process":
        with _collector_lock:
            if _collector is None:
                raise RuntimeError("trace collection is not active")
            trace = _collector.finish()
            _collector = None
            return trace
    if scope == "thread":
        local = getattr(_tls, "collector", None)
        if local is None:
            raise RuntimeError("thread-scoped trace collection is not active")
        trace = local.finish()
        _tls.collector = None
        return trace
    raise ValueError(f"scope must be 'process' or 'thread', got {scope!r}")


class collect:
    """``with collect() as trace:`` — spans recorded inside land on ``trace``.

    The bound value is a :class:`Trace` whose ``roots`` list fills as
    top-level spans close; it is finalized (open spans closed) when
    the block exits, even on exception.  ``collect(scope="thread")``
    opens a thread-private window instead of the process-global one.
    """

    def __init__(self, scope: str = "process") -> None:
        if scope not in ("process", "thread"):
            raise ValueError(f"scope must be 'process' or 'thread', got {scope!r}")
        self._scope = scope
        self._trace: Optional[Trace] = None

    def __enter__(self) -> Trace:
        collector = start_collection(scope=self._scope)
        self._trace = Trace(collector.roots)
        return self._trace

    def __exit__(self, exc_type, exc, tb) -> bool:
        finished = stop_collection(scope=self._scope)
        # ``finished`` shares the same roots list handed out on enter.
        assert self._trace is not None and finished.roots is self._trace.roots
        return False

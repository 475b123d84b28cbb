"""The micro-batching scheduler behind :class:`PredictionService`.

One GNN forward over 64 seeds costs far less than 64 forwards over
one seed — sampling, encoding, and the matmuls all amortize.  The
batcher exploits that without changing request semantics:

* callers :meth:`~MicroBatcher.submit` requests and receive a
  :class:`ResponseFuture` immediately (**admission control**: a full
  queue fast-rejects with :class:`QueueFullError` instead of building
  unbounded backlog);
* one executor — a worker thread or, inside :meth:`MicroBatcher.drive`,
  the calling thread alone (``repro serve``) — drains the queue,
  coalescing consecutive *compatible* requests (same operation, same
  ``k``, same admission **context**) up to ``max_batch_size`` rows.
  Batching is **work-conserving**: an idle executor dispatches a lone
  request at once and whatever queued up while a batch ran is the next
  batch (``max_wait_ms`` > 0 optionally holds a non-full one that long);
* the coalesced batch is executed as **one** runner call and each
  request's slice of the result resolves its future — strictly in
  submission order, so a pipelined client can match responses to
  requests positionally;
* requests carry an optional **deadline**: one that expires while
  still queued is rejected without executing (the fast path that
  keeps an overloaded service from doing dead work), and one that
  expires while its batch is executing resolves to
  :class:`DeadlineExceededError` rather than delivering a late answer
  the caller has already abandoned;
* each request may carry an opaque **context** object captured at
  admission (the service passes its live model slot).  Contexts are
  compared *by identity* when coalescing — two requests admitted under
  different contexts never share a batch — and the runner receives the
  batch's context as its final argument.  This is what makes hot
  swapping a model safe: a swap replaces the slot between batches, and
  every in-flight request still executes against the exact model it
  was admitted under.

Every admitted request is assigned a **request ID** (``req-000001``,
…) by the :class:`~repro.obs.telemetry.ServingTelemetry` facade; the
ID survives coalescing (each request keeps its own ID inside the
shared batch), rides on the :class:`ResponseFuture`, names the request
in SLO provenance events, and — for head-sampled requests — keys a
retained per-request span tree that nests the batch's model spans.

Instrumentation (``serve.*`` counters/histograms in the global
:mod:`repro.obs` registry): ``serve.requests``, ``serve.rows``,
``serve.rejected``, ``serve.expired``, ``serve.batches``,
``serve.errors``, plus ``serve.batch_rows``, ``serve.queue_wait_ms``,
``serve.execute_ms``, and ``serve.latency_ms`` histograms (sliding
windows with streaming p50/p95/p99 when telemetry is enabled).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import get_logger, get_registry
from repro.obs import trace as obs_trace
from repro.obs.telemetry import (
    ServingTelemetry,
    TelemetryConfig,
    set_current_request_ids,
)

__all__ = [
    "DeadlineExceededError",
    "MicroBatcher",
    "QueueFullError",
    "ResponseFuture",
    "ServiceClosedError",
]

_log = get_logger("serve.batcher")


class QueueFullError(RuntimeError):
    """The request queue is at capacity; the request was not admitted."""


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before a result could be delivered."""


class ServiceClosedError(RuntimeError):
    """The service is shut down and no longer accepts or answers requests."""


class ResponseFuture:
    """A one-shot, thread-safe slot for a request's eventual response."""

    __slots__ = (
        "_event", "_value", "_error", "submitted_at", "resolved_at",
        "request_id", "context",
    )

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None
        #: Monotonic seconds at submission (set by the batcher).
        self.submitted_at: float = 0.0
        #: Monotonic seconds at resolution (set by the batcher).
        self.resolved_at: float = 0.0
        #: The request ID assigned at admission (set by the batcher).
        self.request_id: str = ""
        #: The opaque admission context (e.g. the service's model slot).
        self.context: Any = None

    def done(self) -> bool:
        """Whether a value or error has been delivered."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the response; re-raises the request's failure."""
        if not self._event.wait(timeout):
            raise TimeoutError("response not ready within timeout")
        if self._error is not None:
            raise self._error
        return self._value

    def latency_seconds(self) -> float:
        """Submit→resolve wall time (0.0 until resolved)."""
        if not self._event.is_set():
            return 0.0
        return self.resolved_at - self.submitted_at

    def _finish(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self._value = value
        self._error = error
        self.resolved_at = time.monotonic()
        self._event.set()


@dataclass
class _Request:
    """One admitted request, waiting in (or leaving) the queue."""

    op: str                      # "predict" | "rank"
    entity_keys: np.ndarray
    cutoffs: np.ndarray          # one prediction time per entity
    k: int                       # rank only; 0 for predict
    deadline: Optional[float]    # absolute monotonic seconds, or None
    request_id: str = ""         # assigned at admission
    sampled: bool = False        # head-sampled for full trace retention
    queue_wait_ms: float = 0.0   # stamped when the batch forms
    context: Any = None          # opaque; captured at admission
    route: Optional[str] = None  # forced execution tier, or None
    barrier: Optional[Callable[[], Any]] = None  # exclusive callable, no coalesce
    future: ResponseFuture = field(default_factory=ResponseFuture)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline

    def compatible(self, other: "_Request") -> bool:
        """Whether this request can share a model call with ``other``.

        Contexts are compared by identity: requests admitted under
        different model slots must never coalesce, or a hot swap would
        answer an in-flight request with the wrong model.  Routes must
        match too — a batch is one model call, executed on one tier.
        Barrier requests never share a batch with anything.
        """
        if self.barrier is not None or other.barrier is not None:
            return False
        return (
            self.op == other.op
            and self.k == other.k
            and self.context is other.context
            and self.route == other.route
        )


class MicroBatcher:
    """Bounded queue + one executor coalescing requests into batches.

    ``runner(op, k, entity_keys, cutoffs, context)`` receives the
    concatenated batch plus the batch's shared admission context and
    must return something sliceable by row ranges: an array of
    per-entity values for ``predict``, a list of per-entity
    ``(item_keys, scores)`` pairs for ``rank``.

    ``telemetry`` supplies request IDs, head-sampling decisions, and
    the SLO feed; when omitted a disabled facade is created so every
    request still gets an ID.
    """

    def __init__(
        self, runner: Callable[[str, int, np.ndarray, np.ndarray, Any], Any], *,
        max_batch_size: int = 64, max_wait_ms: float = 0.0, max_queue_depth: int = 256,
        telemetry: Optional[ServingTelemetry] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self._runner = runner
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.max_queue_depth = int(max_queue_depth)
        self.telemetry = telemetry if telemetry is not None else ServingTelemetry(
            TelemetryConfig(enabled=False)
        )
        self._queue: Deque[_Request] = deque()
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._closed = False
        # Who executes: the worker thread or, inside drive(), only the
        # thread whose ident is in _driver (the worker is stopped).
        self._driver: Optional[int] = None
        self._start_worker()

    def _start_worker(self) -> None:
        self._thread = threading.Thread(
            target=self._run, args=(True,), name="serve-batcher", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(
        self, op: str, entity_keys: np.ndarray, cutoffs: np.ndarray, *, k: int = 0,
        deadline_ms: Optional[float] = None, context: Any = None, route: Optional[str] = None,
    ) -> ResponseFuture:
        """Admit one request; returns its future or fast-rejects.

        ``route`` forces the execution tier for this request; requests
        with different routes never coalesce, and the runner receives it
        as a ``route=`` keyword.
        """
        if op not in ("predict", "rank"):
            raise ValueError(f"op must be 'predict' or 'rank', got {op!r}")
        entity_keys = np.asarray(entity_keys)
        cutoffs = np.asarray(cutoffs, dtype=np.int64)
        if entity_keys.ndim != 1 or cutoffs.shape != entity_keys.shape:
            raise ValueError(
                f"entity_keys and cutoffs must be 1-D and equal-length, got "
                f"{entity_keys.shape} vs {cutoffs.shape}"
            )
        if len(entity_keys) == 0:
            raise ValueError("request must name at least one entity")
        now = time.monotonic()
        deadline = now + deadline_ms / 1000.0 if deadline_ms is not None else None
        request_id, sampled = self.telemetry.admit()
        request = _Request(op=op, entity_keys=entity_keys, cutoffs=cutoffs,
                           k=int(k), deadline=deadline,
                           request_id=request_id, sampled=sampled, context=context,
                           route=route)
        self._enqueue(request, now)
        registry = get_registry()
        registry.counter("serve.requests").inc()
        registry.counter("serve.rows").inc(len(entity_keys))
        return request.future

    def _enqueue(self, request: _Request, now: float) -> None:
        """Queue ``request`` (barriers bypass the depth bound)."""
        future = request.future
        future.submitted_at, future.request_id, future.context = (
            now, request.request_id, request.context)
        registry = get_registry()
        with self._nonempty:
            if self._closed:
                raise ServiceClosedError("service is closed; request not admitted")
            if request.barrier is None and len(self._queue) >= self.max_queue_depth:
                # Fast-reject path: shedding load here costs one exception;
                # admitting it would cost a model call the caller may never
                # wait for.
                registry.counter("serve.rejected").inc()
                raise QueueFullError(
                    f"request queue is full ({self.max_queue_depth} pending); retry later"
                )
            self._queue.append(request)
            registry.gauge("serve.queue_depth").set(len(self._queue))
            self._nonempty.notify()

    def run_barrier(self, fn: Callable[[], Any], timeout: Optional[float] = 30.0) -> Any:
        """Run ``fn`` on the executor, exclusive of any batch.

        The barrier enters the queue like a request but never
        coalesces or waits out ``max_wait_ms``: every batch admitted
        before it fully executes first, every request admitted after
        it executes against whatever state ``fn`` left behind.  This
        is the seam the ingest layer uses to swap a refreshed graph in
        without answering any request half-old/half-new.  Blocks until
        ``fn`` has run and returns its result (re-raising its exception).
        """
        request = _Request(
            op="predict", entity_keys=np.empty(0, dtype=np.int64),
            cutoffs=np.empty(0, dtype=np.int64), k=0, deadline=None,
            request_id="barrier", barrier=fn,
        )
        self._enqueue(request, time.monotonic())
        get_registry().counter("serve.barriers").inc()
        if self._driver == threading.get_ident():
            self._run()  # the driver is the executor: nobody else will
        return request.future.result(timeout)

    @contextmanager
    def drive(self) -> Iterator[Callable[[], None]]:
        """Make the calling thread the only executor until exit.

        Yields ``run_pending``, which executes everything queued on the
        caller's thread — same collect/execute code as the worker — and
        returns once the queue is empty.  The worker is stopped first
        (its running batch completes) and restarted on exit, so
        ``repro serve`` answers without a cross-thread wake-up.
        """
        with self._nonempty:
            if self._driver is not None:
                raise RuntimeError("the batcher already has a driver")
            self._driver = threading.get_ident()
            self._nonempty.notify_all()
        self._thread.join()
        try:
            yield self._run
        finally:
            self._run()
            self._driver = None  # before the worker starts: it yields to a driver
            self._start_worker()

    def close(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop executing.  ``drain=True`` answers queued requests first;
        ``drain=False`` rejects them with :class:`ServiceClosedError`."""
        with self._nonempty:
            if self._closed:
                return
            self._closed = True
            if not drain:
                while self._queue:
                    self._queue.popleft().future._finish(
                        error=ServiceClosedError("service closed before execution")
                    )
            self._nonempty.notify_all()
        self._thread.join(timeout)

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting (excludes the executing batch)."""
        with self._lock:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Executor side
    # ------------------------------------------------------------------
    def _collect_batch(self, wait: bool) -> Optional[List[_Request]]:
        """The next coalesced batch, or None when there is none to run.

        The worker (``wait=True``) blocks for a first request and may
        hold a non-full batch up to ``max_wait_ms``; a driver
        (``wait=False``) only ever takes what is already queued.
        """
        with self._nonempty:
            while wait and not self._queue and not self._closed and self._driver is None:
                self._nonempty.wait(0.05)
            if not self._queue or (wait and self._driver is not None):
                return None
            first = self._queue.popleft()
            batch = [first]
            rows = len(first.entity_keys)
            # The coalescing window opens when the oldest request arrived,
            # not when we got around to it: requests that already waited
            # out the window while a previous batch executed ship now.
            window_end = first.future.submitted_at + self.max_wait_ms / 1000.0
            while rows < self.max_batch_size and first.barrier is None:
                if not self._queue:
                    remaining = window_end - time.monotonic()
                    if not wait or remaining <= 0 or self._closed:
                        break
                    self._nonempty.wait(remaining)
                    if not self._queue:
                        if self._closed:
                            break
                        continue
                head = self._queue[0]
                if not head.compatible(first):
                    break  # strict FIFO: never execute around an incompatible head
                if rows + len(head.entity_keys) > self.max_batch_size and rows > 0:
                    break
                batch.append(self._queue.popleft())
                rows += len(head.entity_keys)
            get_registry().gauge("serve.queue_depth").set(len(self._queue))
        return batch

    def _run(self, wait: bool = False) -> None:
        """Execute batches until :meth:`_collect_batch` has none left."""
        while (batch := self._collect_batch(wait)) is not None:
            try:
                self._execute(batch)
            except BaseException as err:  # never leave a future unresolved
                _log.exception("batch execution failed outside the runner")
                for request in batch:
                    if not request.future.done():
                        request.future._finish(
                            error=ServiceClosedError("internal batcher failure")
                        )
                if not isinstance(err, Exception):
                    raise

    def _record_trace(self, request: _Request, outcome: str,
                      latency_ms: Optional[float] = None,
                      batch: Optional[Dict[str, Any]] = None) -> None:
        """Retain the per-request span tree for a head-sampled request."""
        if not request.sampled:
            return
        trace: Dict[str, Any] = {
            "request_id": request.request_id,
            "op": request.op,
            "rows": int(len(request.entity_keys)),
            "outcome": outcome,
            "queue_wait_ms": round(request.queue_wait_ms, 3),
        }
        if latency_ms is not None:
            trace["latency_ms"] = round(latency_ms, 3)
        if batch is not None:
            trace["batch"] = batch
        self.telemetry.record_trace(trace)

    def _execute(self, batch: List[_Request]) -> None:
        registry = get_registry()
        if len(batch) == 1 and batch[0].barrier is not None:
            # Exclusive barrier: no prior batch is in flight (this is
            # the one executor) and nothing coalesced with it.
            request = batch[0]
            try:
                request.future._finish(value=request.barrier())
            except Exception as err:
                request.future._finish(error=err)
            return
        # (request_id, latency_ms, ok) for every request this batch
        # resolves, fed to the SLO window in one call at the end.
        resolved: List[Tuple[str, float, bool]] = []
        now = time.monotonic()
        live: List[_Request] = []
        queue_waits: List[float] = []
        for request in batch:
            wait_ms = (now - request.future.submitted_at) * 1000.0
            request.queue_wait_ms = wait_ms
            if request.expired(now):
                # Still-queued expiry: reject without paying for the model.
                registry.counter("serve.expired").inc()
                request.future._finish(error=DeadlineExceededError(
                    "deadline expired while queued"
                ))
                resolved.append((request.request_id, wait_ms, False))
                self._record_trace(request, outcome="expired_queued")
            else:
                queue_waits.append(wait_ms)
                live.append(request)
        if queue_waits:
            registry.histogram("serve.queue_wait_ms").observe_many(queue_waits)
        if not live:
            self.telemetry.on_resolved_batch(resolved)
            return
        keys = np.concatenate([r.entity_keys for r in live])
        cutoffs = np.concatenate([r.cutoffs for r in live])
        registry.counter("serve.batches").inc()
        registry.histogram("serve.batch_rows").observe(len(keys))
        request_ids = [r.request_id for r in live]
        first = live[0]
        # When a head-sampled request rides in this batch, capture the
        # model spans in a thread-private collection window so the
        # request's retained trace carries the full stage tree.
        sampled = any(r.sampled for r in live)
        window = obs_trace.collect(scope="thread") if sampled else nullcontext()
        # A forced route rides as a keyword only when present, so runners
        # that predate routing keep their five-argument signature.
        kwargs = {} if first.route is None else {"route": first.route}
        results = error = None
        start = time.monotonic()
        set_current_request_ids(request_ids)
        try:
            with window as batch_trace, obs_trace.span("serve.batch") as batch_span:
                batch_span.add_counter("serve.batch_rows", len(keys))
                results = self._runner(
                    first.op, first.k, keys, cutoffs, first.context, **kwargs)
        except Exception as err:
            error = err
        finally:
            set_current_request_ids(())
        elapsed_ms = (time.monotonic() - start) * 1000.0
        batch_info: Dict[str, Any] = {
            "rows": int(len(keys)),
            "requests": len(live),
            "request_ids": list(request_ids),
            "execute_ms": round(elapsed_ms, 3),
        }
        if sampled and batch_trace.roots:
            batch_info["spans"] = batch_trace.to_dict()["spans"]
        if error is not None:
            registry.counter("serve.errors").inc()
        else:
            registry.histogram("serve.execute_ms").observe(elapsed_ms)
        done = time.monotonic()
        offset = 0
        latencies: List[float] = []
        for request in live:
            stop = offset + len(request.entity_keys)
            if error is not None:
                failure, outcome = error, f"error:{type(error).__name__}"
            elif request.expired(done):
                # Mid-batch expiry: the answer exists but arrived too late
                # to honor the caller's contract — deliver the error, not
                # a result the caller has stopped waiting for.
                registry.counter("serve.expired").inc()
                failure, outcome = DeadlineExceededError(
                    f"deadline expired during execution ({elapsed_ms:.1f}ms batch)"
                ), "expired_mid_batch"
            else:
                failure, outcome = None, "ok"
            request.future._finish(
                results[offset:stop] if failure is None else None, failure)
            latency_ms = request.future.latency_seconds() * 1000.0
            if failure is None:
                latencies.append(latency_ms)
            resolved.append((request.request_id, latency_ms, failure is None))
            self._record_trace(request, outcome, latency_ms=latency_ms, batch=batch_info)
            offset = stop
        if latencies:
            registry.histogram("serve.latency_ms").observe_many(latencies)
        self.telemetry.on_resolved_batch(resolved)

""":class:`PredictionService` — the programmatic serving API.

One service instance answers single-entity and bulk requests through
the micro-batching scheduler, against whichever model version is
currently **live**:

::

    registry = ModelRegistry("models/")
    service = PredictionService.from_registry(registry, "churn")
    service.warmup()
    p = service.predict([1017], cutoff)            # blocking, one entity
    f = service.predict_async(keys, cutoff)        # future, bulk
    ...
    service.swap(version=3)                        # hot swap, zero downtime
    report = service.compare(version=4)            # replay recent batches on v4
    ...
    f.result()
    service.close()

Behind ``predict``/``rank`` sits the full serving contract:

* **micro-batching** — requests that arrive while a batch runs
  coalesce into the next batched no-grad model call (up to
  ``max_batch_size`` rows; ``max_wait_ms`` is an optional cap, off by
  default);
* **admission control** — a bounded queue fast-rejects excess load
  with :class:`~repro.serve.batcher.QueueFullError`;
* **deadlines** — per-request ``deadline_ms`` (or the configured
  default); expiry while queued skips execution, expiry mid-batch
  resolves to :class:`~repro.serve.batcher.DeadlineExceededError`;
* **graceful degradation** — when the model path raises, or breaks
  ``latency_budget_ms`` for ``budget_breaches`` consecutive batches,
  the service trusts one rung less of the model's
  ``GREEN < YELLOW < RED`` ladder and forces every batch onto the
  highest rung still trusted (a plain fit's ladder is the unfitted
  green tier under the GNN); the same failure on that rung lowers it
  again, and green's own errors propagate.  A degraded answer is an
  ordinary forced route, so it carries the route record (``forced``,
  ``reason`` starting ``degraded:``), and
  each descent is recorded (``serve.fallbacks`` counter, ``degraded``
  in :meth:`stats`) so monitoring can tell fast-but-crude from
  healthy.  A request forcing a tier the live model lacks is refused
  at admission (``bad_request`` on the wire), so only a raise inside
  a tier descends the ladder;
* **hot swap** — :meth:`swap` (and :meth:`swap_model`) replaces the
  live model **between micro-batches with zero downtime**: every
  request captures the live :class:`_ModelSlot` at admission and its
  batch executes against exactly that slot, so in-flight futures
  complete against the model they were admitted under while new
  admissions see the replacement.  The challenger is warmed (first-call
  costs and the item-embedding memo) *before* the switch, off the hot
  path; a
  successful swap resets the degradation ladder and latency budgets
  (provenance ``restored_by: swap``) and records a ``swapped`` event;
* **compare** — :meth:`compare` judges a challenger by replaying the
  last :data:`REPLAY_BATCHES` live batches on the live model and on
  the challenger inside one barrier; promotion is :meth:`swap`,
  rollback is not swapping;
* **warm start** — requests for LIST queries share the memoized
  item-tower embeddings, and :meth:`warmup` primes them (and pays the
  model's first-call costs) before traffic arrives;
* **cost-based routing** — every request is executed on the
  GREEN/YELLOW/RED tier the live model's router picks (or the tier
  forced per request / by ``ServeConfig.route``; a plain fit answers
  from red), under ``ServeConfig.quality_floor`` when set — for every
  model the service runs, swapped-in and compared challengers included;
  the decision rides back on the result (``.route`` on the returned
  array/rankings) and is counted per tier as ``serve.route.<tier>``.

A fresh instance starts with clean telemetry: construction drops the
``serve.*`` and ``router.*`` instruments, so numbers
reported for this service are this service's alone.  A hot swap keeps
them — the serving timeline is continuous across versions, and the
``swapped`` event marks the boundary.

The service keeps **one bounded event log** (:meth:`events`, the last
:data:`EVENT_LOG_CAPACITY`): every ``degraded``/``restored`` ladder
move, ``swapped`` and ``compared`` lifecycle step, and
``slo_breach``/``slo_recovered`` edge of the ``slo_p99_ms`` budget
records its reason, the window at that moment, and the request IDs of
the batch that triggered it.  ``lifecycle()["transitions"]`` is the
log's ``swapped`` records.  A graph refresh is too frequent for the log:
it counts ``serve.graph_refreshes`` and sets
``lifecycle()["last_refresh"]``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import get_logger, get_registry
from repro.pql.ast import TaskType
from repro.pql.router import TIERS, check_route
from repro.resilience.faults import fault_point
from repro.serve.batcher import MicroBatcher, ResponseFuture, current_request_ids

__all__ = ["PredictionService", "ServeConfig"]

_log = get_logger("serve.service")

#: Events the service log keeps; older ones fall off.
EVENT_LOG_CAPACITY = 64
#: The event kinds ``lifecycle()["transitions"]`` reports.
LIFECYCLE_KINDS = ("swapped",)
#: Live batches the replay ring keeps for :meth:`PredictionService.compare`.
REPLAY_BATCHES = 64
#: The SLO check sorts the latency window, so it is amortized: it runs
#: after a batch with a failure, after every batch while breaching
#: (prompt recovery), and otherwise once this many requests or this
#: many seconds have passed since the last check.
SLO_CHECK_EVERY = 2048
SLO_CHECK_INTERVAL_S = 0.25
#: Batches of outcome counts the error-rate window holds at most.
_OUTCOME_BATCHES = 8192


@dataclass
class ServeConfig:
    """Serving knobs; the defaults favor latency over maximum batching."""

    #: Most entity rows coalesced into one model call.
    max_batch_size: int = 64
    #: Optional cap (ms) on holding a non-full batch for company; 0 =
    #: work-conserving: dispatch as soon as the executor is free.
    max_wait_ms: float = 0.0
    #: Pending-request ceiling; submissions beyond it fast-reject.
    max_queue_depth: int = 256
    #: Deadline applied when a request does not carry its own (ms);
    #: None = requests without deadlines never expire.
    default_deadline_ms: Optional[float] = None
    #: Per-batch model-path latency budget (ms); None disables
    #: budget-based degradation.
    latency_budget_ms: Optional[float] = None
    #: Consecutive budget breaches that trigger degradation.
    budget_breaches: int = 3
    #: Whether the service may degrade at all (errors + budget).
    fallback: bool = True
    #: Default k for rank requests.
    default_k: int = 10
    #: Default execution tier: ``auto`` lets the model's router
    #: choose; ``green``/``yellow``/``red`` force a tier.  Requests may
    #: override per call.
    route: str = "auto"
    #: Override the quality floor of every model served (fraction of
    #: the best tier's validation quality); None keeps each model's
    #: fit-time setting.
    quality_floor: Optional[float] = None
    #: Sliding window for ``serve.*`` histograms and the SLO budget (s).
    telemetry_window_s: float = 60.0
    #: Fraction of requests whose full span tree is retained ([0, 1]).
    trace_sample_rate: float = 0.0
    #: Window p99 target (ms); breaches record SLO events.  None = off.
    slo_p99_ms: Optional[float] = None


class RoutedPrediction(np.ndarray):
    """A prediction vector carrying its batch's route decision.

    Slicing preserves ``route`` (``__array_finalize__`` copies it), so
    the per-request views the batcher hands back from one coalesced
    model call still know which tier answered them.
    """

    route: Optional[Dict[str, Any]] = None

    def __array_finalize__(self, obj) -> None:
        if obj is not None:
            self.route = getattr(obj, "route", None)


class RoutedRankings(list):
    """Per-entity rankings carrying their batch's route decision."""

    def __init__(self, rankings, route: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(rankings)
        self.route = route

    def __getitem__(self, index):
        value = super().__getitem__(index)
        if isinstance(index, slice):
            return RoutedRankings(value, self.route)
        return value


def _attach_route(result, route: Optional[Dict[str, Any]]):
    """Tag a model result with its route decision (JSON-ready dict)."""
    if route is None:
        return result
    if isinstance(result, np.ndarray):
        tagged = result.view(RoutedPrediction)
        tagged.route = route
        return tagged
    if isinstance(result, list):
        return RoutedRankings(result, route)
    return result


class _ModelSlot:
    """One live (or once-live) model plus everything bound to it.

    The slot — not the service — is what a request captures at
    admission and what the batcher hands back to the runner, so a hot
    swap can replace ``service._slot`` without touching any batch
    already in flight.  Slots are compared by identity when coalescing.
    """

    __slots__ = ("model", "label", "version", "rungs")

    def __init__(self, model, label: str, version: Optional[int]) -> None:
        self.model = model
        #: Display name, e.g. ``churn@v2`` — echoed as ``model_version``.
        self.label = label
        #: Registry version number when known, else None.
        self.version = version
        #: Its tiers, cheapest first; the last is the model path.
        self.rungs = model.available_tiers()

    def admit(self, route: Optional[str]) -> Optional[str]:
        """``route`` if this model can answer it, else ``ValueError``."""
        if route is not None and check_route(route) != "auto" and route not in self.rungs:
            raise ValueError(f"route {route!r} unavailable; tiers: {self.rungs}")
        return route


class PredictionService:
    """Serve a hot-swappable trained model behind a micro-batch queue."""

    def __init__(self, model, config: Optional[ServeConfig] = None, name: str = "model") -> None:
        self.config = config or ServeConfig()
        check_route(self.config.route)
        self._slot = _ModelSlot(model, label=name, version=None)
        #: The highest rung still trusted, forced on every batch while
        #: degraded; None = healthy (the model path, routed as configured).
        self._rung: Optional[str] = None
        self._degraded_reason: Optional[str] = None
        self._breaches = 0
        self._state_lock = threading.Lock()
        # The last live-slot batches, as (op, k, keys, cutoffs, route):
        # the arrays the batcher built, kept by reference.
        self._replay: Deque[Tuple[str, int, np.ndarray, np.ndarray, Optional[str]]] = (
            deque(maxlen=REPLAY_BATCHES))
        self._last_compare: Optional[Dict[str, Any]] = None
        self._events: Deque[Dict[str, Any]] = deque(maxlen=EVENT_LOG_CAPACITY)
        self._event_seq = 0
        self._last_refresh: Optional[Dict[str, Any]] = None
        # The outcome window: (time, requests, errors) per batch.
        self._outcomes: Deque[Tuple[float, int, int]] = deque(maxlen=_OUTCOME_BATCHES)
        self._since_check = 0
        self._last_check = float("-inf")
        self._slo_breaching = False
        # The registry handle/db/name backing swap(version=...); set by
        # from_registry, absent for directly-constructed services.
        self._registry = None
        self._db = None
        self._registry_name: Optional[str] = None
        self.reset_metrics()
        # The batcher registers the windowed serve.* histograms, so it
        # must come after reset_metrics() dropped the predecessor's.
        self._batcher = MicroBatcher(
            self._execute,
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            max_queue_depth=self.config.max_queue_depth,
            window_seconds=self.config.telemetry_window_s,
            trace_sample_rate=self.config.trace_sample_rate,
            on_batch=self._on_batch,
        )
        _log.info(
            "service started",
            extra={"service": name, "task_type": model.task_type.value,
                   "max_batch_size": self.config.max_batch_size,
                   "max_wait_ms": self.config.max_wait_ms},
        )

    @classmethod
    def from_registry(
        cls,
        registry,
        name: str,
        db=None,
        version: Optional[int] = None,
        config: Optional[ServeConfig] = None,
    ) -> "PredictionService":
        """Load a registry version (default: latest) and serve it, over
        ``db`` or — when none is passed — over the data snapshot that
        version carries.

        A registry-backed service can later :meth:`swap` to (or
        :meth:`compare` against) any other published version by
        number alone; those bind to the database this first load
        settled on, so they never read another snapshot.
        """
        model = registry.load(name, db, version=version)
        resolved = version if version is not None else registry.latest(name)
        service = cls(model, config=config, name=f"{name}@v{resolved}")
        service._slot.version = int(resolved)
        service._registry = registry
        service._db = model.db
        service._registry_name = name
        return service

    # ------------------------------------------------------------------
    # Live-slot accessors (backwards-compatible surface)
    # ------------------------------------------------------------------
    @property
    def model(self):
        """The live model (the one new admissions will execute against)."""
        return self._slot.model

    @property
    def name(self) -> str:
        """The live model's label, e.g. ``churn@v2``."""
        return self._slot.label

    @property
    def version(self) -> Optional[int]:
        """The live model's registry version (None if unversioned)."""
        return self._slot.version

    # ------------------------------------------------------------------
    # Telemetry lifecycle
    # ------------------------------------------------------------------
    def reset_metrics(self) -> None:
        """Drop ``serve.*`` and ``router.*`` instruments.

        Called on construction so a new service instance never reports
        a predecessor's traffic in its own stats/EXPLAIN output.
        """
        registry = get_registry()
        registry.drop_prefix("serve.")
        registry.drop_prefix("router.")

    def _record_event(self, kind: str, reason: str,
                      request_ids: Optional[List[str]] = None,
                      **extra: Any) -> Dict[str, Any]:
        """Append one event to the log and return it.

        ``request_ids`` default to the batch executing on this thread
        (none outside a batch); ``extra`` fields carry the kind's own
        provenance (versions, a compare report).
        """
        event = {
            "seq": 0,
            "time": time.time(),
            "kind": kind,
            "reason": reason,
            "request_ids": list(current_request_ids() if request_ids is None
                                else request_ids),
            "window": self.window(),
            **extra,
        }
        with self._state_lock:
            self._event_seq += 1
            event["seq"] = self._event_seq
            self._events.append(event)
        return event

    def events(self) -> List[Dict[str, Any]]:
        """The event log, oldest first."""
        with self._state_lock:
            return list(self._events)

    def _on_batch(self, requests: int, errors: int) -> None:
        """The batcher's per-batch hook: feed the outcome window, then
        run the SLO check when it is due (see :data:`SLO_CHECK_EVERY`)."""
        now = time.monotonic()
        with self._state_lock:
            self._outcomes.append((now, requests, errors))
            self._since_check += requests
            due = self.config.slo_p99_ms is not None and (
                errors > 0
                or self._slo_breaching
                or self._since_check >= SLO_CHECK_EVERY
                or now - self._last_check >= SLO_CHECK_INTERVAL_S
            )
            if due:
                self._since_check = 0
                self._last_check = now
        if due:
            self._check_slo()

    def _check_slo(self) -> None:
        """Edge-triggered check of the window p99 against ``slo_p99_ms``."""
        target = self.config.slo_p99_ms
        p99 = self._batcher.histograms["serve.latency_ms"].summary().get("p99")
        breaching = p99 is not None and p99 > target
        with self._state_lock:
            changed = breaching != self._slo_breaching
            self._slo_breaching = breaching
        if changed and breaching:
            self._record_event(
                "slo_breach", f"window p99 {p99:.1f}ms > target {target:.1f}ms")
        elif changed:
            self._record_event("slo_recovered", "window back inside budget")

    def window(self) -> Dict[str, Any]:
        """The window's requests, errors, error rate and latency summary."""
        latency = self._batcher.histograms["serve.latency_ms"].summary()
        horizon = time.monotonic() - self.config.telemetry_window_s
        with self._state_lock:
            recent = [(r, e) for stamp, r, e in self._outcomes if stamp >= horizon]
        requests = sum(r for r, _ in recent)
        errors = sum(e for _, e in recent)
        return {
            "requests": requests,
            "errors": errors,
            "error_rate": errors / requests if requests else 0.0,
            "latency_ms": latency,
        }

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------
    def _cutoff_vector(self, cutoff, count: int) -> np.ndarray:
        cutoffs = np.asarray(cutoff, dtype=np.int64)
        if cutoffs.ndim == 0:
            return np.full(count, int(cutoffs), dtype=np.int64)
        return cutoffs

    def predict_async(
        self, entity_keys, cutoff, deadline_ms: Optional[float] = None,
        route: Optional[str] = None,
    ) -> ResponseFuture:
        """Submit a predict request; returns its future immediately.

        ``route`` forces the execution tier (default:
        ``ServeConfig.route``); requests forced to different tiers never
        share a batch.
        """
        slot = self._slot  # captured once: the model this request is admitted under
        if slot.model.task_type == TaskType.LINK:
            raise ValueError("predict() is for scalar queries; this model serves rank()")
        keys = np.asarray(entity_keys)
        return self._batcher.submit(
            "predict", keys, self._cutoff_vector(cutoff, len(keys)),
            deadline_ms=deadline_ms if deadline_ms is not None
            else self.config.default_deadline_ms,
            context=slot,
            route=slot.admit(route),
        )

    def predict(self, entity_keys, cutoff, deadline_ms: Optional[float] = None,
                route: Optional[str] = None) -> np.ndarray:
        """Blocking predict: P(positive) (binary) or value (regression)."""
        return self.predict_async(entity_keys, cutoff, deadline_ms, route=route).result()

    def rank_async(
        self, entity_keys, cutoff, k: Optional[int] = None,
        deadline_ms: Optional[float] = None, route: Optional[str] = None,
    ) -> ResponseFuture:
        """Submit a rank request (LIST queries); returns its future."""
        slot = self._slot
        if slot.model.task_type != TaskType.LINK:
            raise ValueError("rank() is for LIST queries; this model serves predict()")
        keys = np.asarray(entity_keys)
        return self._batcher.submit(
            "rank", keys, self._cutoff_vector(cutoff, len(keys)),
            k=k if k is not None else self.config.default_k,
            deadline_ms=deadline_ms if deadline_ms is not None
            else self.config.default_deadline_ms,
            context=slot,
            route=slot.admit(route),
        )

    def rank(
        self, entity_keys, cutoff, k: Optional[int] = None,
        deadline_ms: Optional[float] = None, route: Optional[str] = None,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Blocking rank: top-k ``(item_keys, scores)`` per entity."""
        return self.rank_async(entity_keys, cutoff, k, deadline_ms, route=route).result()

    def _warm_slot(self, slot: _ModelSlot, num_entities: int,
                   cutoff: Optional[int]) -> int:
        """Pay one slot's first-call costs (and prime its item-embedding
        memo) by direct model calls (no batcher)."""
        entity_type = slot.model.binding.query.entity_table
        keys = slot.model.graph.node_keys[entity_type][:num_entities]
        if len(keys) == 0:
            return 0
        if cutoff is None:
            times = slot.model.graph.node_times(entity_type)
            cutoff = int(times.max()) if len(times) else 0
        cutoffs = np.full(len(keys), int(cutoff), dtype=np.int64)
        if slot.model.task_type == TaskType.LINK:
            slot.model.rank_items(keys, cutoffs, k=self.config.default_k)
        else:
            slot.model.predict(keys, cutoffs)
        return len(keys)

    def warmup(self, num_entities: int = 16, cutoff: Optional[int] = None) -> int:
        """Pay the live model's first-call costs and, for LIST queries,
        prime its item-embedding memo.

        Uses the first ``num_entities`` entity keys and the latest
        graph timestamp unless told otherwise; returns the number of
        entities warmed.
        """
        return self._warm_slot(self._slot, num_entities, cutoff)

    # ------------------------------------------------------------------
    # Execution + degradation ladder
    # ------------------------------------------------------------------
    def _model_call(self, slot: _ModelSlot, op: str, k: int,
                    keys: np.ndarray, cutoffs: np.ndarray,
                    route: Optional[str] = None):
        # Per-request (or degraded-rung) route wins; otherwise the
        # service default.  The floor override applies to every slot.
        policy = dict(route=route if route is not None else self.config.route,
                      quality_floor=self.config.quality_floor)
        if op == "rank":
            result = slot.model.rank_items(keys, cutoffs, k=k, **policy)
        else:
            result = slot.model.predict(keys, cutoffs, **policy)
        decision = slot.model.last_route
        return _attach_route(result, decision.to_dict() if decision is not None else None)

    def _lower(self, slot: _ModelSlot, current: Optional[str], reason: str) -> Optional[str]:
        """Trust one rung less than ``current`` (None = the model path);
        returns the rung now forced, or None at the bottom of the ladder."""
        ceiling = TIERS.index(current if current is not None else slot.rungs[-1])
        below = [tier for tier in slot.rungs if TIERS.index(tier) < ceiling]
        if not below:
            return None
        rung = below[-1]
        with self._state_lock:
            self._rung = rung
            self._degraded_reason = reason
            self._breaches = 0
        get_registry().counter("serve.fallbacks").inc()
        # Provenance: the event names the requests of the batch that was
        # executing when the ladder engaged (the batcher's thread-local).
        self._record_event("degraded", reason)
        _log.warning(f"serving degraded to the {rung} rung", extra={"reason": reason})
        return rung

    def _settle(self, slot: _ModelSlot, rung: Optional[str], result, rows: int,
                elapsed_ms: float) -> None:
        """Post-batch accounting: route counters and the latency budget
        of the rung that answered (None = the model path)."""
        decision = getattr(result, "route", None)
        if decision is not None:
            get_registry().counter(f"serve.route.{decision['tier']}").inc()
            get_registry().counter(
                f"serve.route_rows.{decision['tier']}"
            ).inc(rows)
        budget = self.config.latency_budget_ms
        if budget is not None and self.config.fallback:
            if elapsed_ms > budget:
                with self._state_lock:
                    self._breaches += 1
                    breaches = self._breaches
                get_registry().counter("serve.budget_breaches").inc()
                if breaches >= self.config.budget_breaches:
                    self._lower(
                        slot, rung,
                        f"latency budget broken {breaches}x in a row "
                        f"(last batch {elapsed_ms:.1f}ms > {budget:.1f}ms)",
                    )
            else:
                with self._state_lock:
                    self._breaches = 0

    def _run_degraded(self, slot: _ModelSlot, op: str, k: int, keys: np.ndarray,
                      cutoffs: np.ndarray, rung: str):
        """One batch forced onto ``rung``, descending while rungs fail."""
        get_registry().counter("serve.degraded_batches").inc()
        while True:
            start = time.monotonic()
            try:
                result = self._model_call(slot, op, k, keys, cutoffs, route=rung)
            except Exception as err:
                failed = rung
                rung = self._lower(
                    slot, failed, f"{failed} rung failed: {type(err).__name__}: {err}"
                )
                if rung is None:
                    raise
                continue
            result.route["reason"] = f"degraded: {self._degraded_reason}"
            self._settle(slot, rung, result, len(keys), (time.monotonic() - start) * 1000.0)
            return result

    def _execute(self, op: str, k: int, keys: np.ndarray, cutoffs: np.ndarray,
                 slot: Optional[_ModelSlot], route: Optional[str] = None):
        """The batcher's runner: model path with the ladder underneath.

        ``slot`` is the batch's shared admission context — the model
        these requests were promised.  A batch admitted before a swap
        still runs here against its original slot even though
        ``self._slot`` has moved on.  ``route`` is the batch's forced
        tier (None = the service default); while the service is
        degraded the trusted rung overrides it.
        """
        if slot is None:
            slot = self._slot
        if slot is self._slot:
            self._replay.append((op, k, keys, cutoffs, route))
        rung = self._rung
        if rung is not None:
            return self._run_degraded(slot, op, k, keys, cutoffs, rung)
        fault_point("service.execute")
        start = time.monotonic()
        try:
            result = self._model_call(slot, op, k, keys, cutoffs, route=route)
        except Exception as err:
            if self.config.fallback:
                rung = self._lower(
                    slot, None, f"model path failed: {type(err).__name__}: {err}"
                )
            if rung is None:
                raise
            return self._run_degraded(slot, op, k, keys, cutoffs, rung)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        self._settle(slot, None, result, len(keys), elapsed_ms)
        return result

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def _resolve_challenger(
        self, model, name: Optional[str], version: Optional[int]
    ) -> _ModelSlot:
        """Build a slot from a model object or a registry version."""
        if model is not None:
            label = name or f"{self._registry_name or 'model'}@direct"
            return _ModelSlot(model, label=label, version=None)
        if self._registry is None or self._registry_name is None:
            raise ValueError(
                "swap/compare by version requires a registry-backed service "
                "(use PredictionService.from_registry, or pass a model object)"
            )
        resolved = (
            int(version) if version is not None else self._registry.latest(self._registry_name)
        )
        loaded = self._registry.load(self._registry_name, self._db, version=resolved)
        slot = _ModelSlot(
            loaded, label=f"{self._registry_name}@v{resolved}", version=resolved
        )
        return slot

    def swap_model(self, model, name: Optional[str] = None,
                   warm: bool = True, reason: str = "operator swap") -> Dict[str, Any]:
        """Hot-swap to an already-loaded model object (see :meth:`swap`)."""
        slot = self._resolve_challenger(model, name, None)
        return self._swap_to(slot, warm=warm, reason=reason)

    def swap(self, version: Optional[int] = None, warm: bool = True,
             reason: str = "operator swap") -> Dict[str, Any]:
        """Hot-swap the live model to a registry version, zero downtime.

        The challenger is loaded and **warmed off the hot path**
        (first-call costs paid and the item-embedding memo primed by
        direct model calls), then the live slot is replaced atomically between
        micro-batches: requests admitted before the swap complete
        against the old model, requests admitted after it run the new
        one, and nothing is rejected or dropped in between.  A
        successful swap clears sticky degradation and latency-budget
        state (the new model deserves a clean ladder) and records a
        ``swapped`` provenance event.  Returns the transition record.
        """
        slot = self._resolve_challenger(None, None, version)
        return self._swap_to(slot, warm=warm, reason=reason)

    def _swap_to(self, slot: _ModelSlot, warm: bool, reason: str) -> Dict[str, Any]:
        fault_point("service.swap")
        if warm:
            self._warm_slot(slot, num_entities=16, cutoff=None)
        fault_point("service.swap.warmed")
        with self._state_lock:
            previous = self._slot
            self._slot = slot          # the atomic switch: new admissions see `slot`
            was_degraded = self._rung is not None
            self._rung = None
            self._degraded_reason = None
            self._breaches = 0
        transition = self._record_event(
            "swapped", reason, **{"from": previous.label, "to": slot.label,
                                  "restored_by": "swap" if was_degraded else None},
        )
        if was_degraded:
            # The ladder was engaged against the old model; the swap is
            # what restored full service, and provenance says so.
            self._record_event(
                "restored", "degradation cleared by model swap", restored_by="swap"
            )
        _log.info(
            "model hot-swapped",
            extra={"from": previous.label, "to": slot.label, "reason": reason},
        )
        return transition

    def drive(self):
        """Serve from the calling thread alone: ``with service.drive()
        as run_pending`` (see :meth:`MicroBatcher.drive`; ``serve_loop``
        uses it, so ``repro serve`` runs no batcher thread)."""
        return self._batcher.drive()

    def refresh_graph(self, apply_fn, reason: str = "ingest graph refresh"):
        """Apply an ingest refresh on the micro-batch seam, zero downtime.

        ``apply_fn()`` runs on the batcher's executor as an
        exclusive barrier: every batch admitted before the refresh
        executes against the pre-delta graph, every request admitted
        after it sees the refreshed one, and no single batch ever
        straddles the mutation.  This is how the ingest pipeline's
        in-place graph growth (``IngestPipeline.process``) reaches a
        live service safely; the model's memos reconcile themselves
        with the grown graph on the next request, or inside this
        barrier if ``apply_fn`` also calls ``refresh_model``.  Counts
        ``serve.graph_refreshes``, sets ``lifecycle()["last_refresh"]``
        (no event: under ingest every batch refreshes) and returns
        ``apply_fn``'s result.
        """
        result = self._batcher.run_barrier(apply_fn)
        get_registry().counter("serve.graph_refreshes").inc()
        self._last_refresh = {"time": time.time(), "reason": reason}
        _log.info("graph refreshed between micro-batches", extra={"reason": reason})
        return result

    # ------------------------------------------------------------------
    # Compare
    # ------------------------------------------------------------------
    def compare(self, version: Optional[int] = None, model=None,
                name: Optional[str] = None) -> Dict[str, Any]:
        """Judge a challenger by replaying recent live batches on it.

        The challenger (a registry ``version``, default the latest, or
        a ``model`` object) is loaded and warmed, then one barrier
        (:meth:`MicroBatcher.run_barrier`) scores each of the last
        :data:`REPLAY_BATCHES` batches the live slot served on the live
        model and on the challenger, under the route each batch
        requested.  No live batch and no graph refresh overlaps the
        replay, and the sampler seeds a batch from its contents, so the
        same batches on the same models and graph give the same report;
        live requests queue behind the replay for its ``elapsed_ms``.
        Nothing is swapped: promotion is :meth:`swap`, rollback is not
        swapping.  The report is logged as a ``compared`` event, kept
        as ``lifecycle()["last_compare"]`` and returned.
        """
        challenger = self._resolve_challenger(model, name, version)
        self._warm_slot(challenger, num_entities=16, cutoff=None)
        report = self._batcher.run_barrier(lambda: self._replay_on(challenger),
                                           timeout=None)
        self._last_compare = report
        mean = report["mean_divergence"]
        self._record_event(
            "compared",
            f"replayed {report['batches']} batches ({report['rows']} rows) on "
            f"{challenger.label}: mean divergence "
            f"{'n/a' if mean is None else f'{mean:.4f}'}, {report['errors']} errors",
            challenger=challenger.label, compare=report,
        )
        _log.info("challenger compared", extra={"challenger": challenger.label,
                                                "batches": report["batches"]})
        return report

    def _replay_on(self, challenger: _ModelSlot) -> Dict[str, Any]:
        """Score the replay ring on the live slot and ``challenger``;
        runs inside :meth:`compare`'s barrier."""
        start = time.monotonic()
        sides = {"incumbent": self._slot, "challenger": challenger}
        batches = list(self._replay)
        digests = {side: hashlib.sha256() for side in sides}
        ms = {side: 0.0 for side in sides}
        answered = {side: 0 for side in sides}
        routes: Dict[str, Dict[str, int]] = {side: {} for side in sides}
        failures: Dict[str, List[str]] = {side: [] for side in sides}
        divergences: List[float] = []
        for op, k, keys, cutoffs, route in batches:
            results = {}
            for side, slot in sides.items():
                began = time.monotonic()
                try:
                    if side == "challenger":
                        fault_point("service.compare")
                    result = self._model_call(slot, op, k, keys, cutoffs, route=route)
                except Exception as err:
                    failures[side].append(f"{type(err).__name__}: {err}")
                    continue
                ms[side] += (time.monotonic() - began) * 1000.0
                answered[side] += len(keys)
                decision = getattr(result, "route", None)
                tier = decision["tier"] if decision is not None else "unrouted"
                routes[side][tier] = routes[side].get(tier, 0) + len(keys)
                digests[side].update(_result_bytes(op, result))
                results[side] = result
            if len(results) == 2:
                divergences.extend(
                    _divergence(op, results["incumbent"], results["challenger"]))
        return {
            "incumbent": sides["incumbent"].label,
            "challenger": challenger.label,
            "batches": len(batches),
            "rows": sum(len(batch[2]) for batch in batches),
            "mean_divergence": round(float(np.mean(divergences)), 6) if divergences else None,
            "max_divergence": round(float(np.max(divergences)), 6) if divergences else None,
            "errors": len(failures["challenger"]),
            "error_messages": list(dict.fromkeys(failures["challenger"])),
            "incumbent_errors": len(failures["incumbent"]),
            "sha256": {side: digest.hexdigest() for side, digest in digests.items()},
            "routes": routes,
            "ms_per_row": {side: round(ms[side] / answered[side], 4) if answered[side]
                           else None for side in sides},
            "graph_version": self._slot.model.graph.version,
            "elapsed_ms": round((time.monotonic() - start) * 1000.0, 3),
        }

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether batches are being forced onto a rung under the model path."""
        return self._rung is not None

    def restore(self) -> None:
        """Manually climb back to the model path (operator action)."""
        with self._state_lock:
            was_degraded = self._rung is not None
            self._rung = None
            self._degraded_reason = None
            self._breaches = 0
        if was_degraded:
            self._record_event(
                "restored", "operator restore: climbed back to the model path",
                restored_by="operator",
            )

    def lifecycle(self) -> Dict[str, Any]:
        """JSON-ready lifecycle state: live version, transitions (the
        event log's swaps), last graph refresh, last compare report."""
        return {
            "live": self._slot.label,
            "version": self._slot.version,
            "registry_model": self._registry_name,
            "transitions": [e for e in self.events() if e["kind"] in LIFECYCLE_KINDS],
            "last_refresh": self._last_refresh,
            "last_compare": self._last_compare,
        }

    def stats(self) -> Dict[str, Any]:
        """Serve metrics + degradation + telemetry, JSON-ready."""
        registry = get_registry()
        exported = registry.to_dict()
        metrics = {
            name: record for name, record in exported.items()
            if name.startswith("serve.")
        }
        stats = {
            "name": self.name,
            "task_type": self.model.task_type.value,
            "degraded": self.degraded,
            "degraded_reason": self._degraded_reason,
            "model_degraded_reason": self.model.degraded_reason,
            "data": self.model.data_summary(),
            "queue_depth": self._batcher.queue_depth,
            "metrics": metrics,
            "telemetry": {
                "window_seconds": self.config.telemetry_window_s,
                "trace_sample_rate": self.config.trace_sample_rate,
                "requests_admitted": self._batcher.admitted,
                "requests_sampled": self._batcher.sampled,
                "slo": {
                    "window_seconds": self.config.telemetry_window_s,
                    "p99_target_ms": self.config.slo_p99_ms,
                    "error_rate_target": None,
                    "breaching": self._slo_breaching,
                    "window": self.window(),
                    "events": self.events(),
                },
                "traces": self._batcher.traces(),
            },
            "lifecycle": self.lifecycle(),
        }
        model = self._slot.model
        floor = self.config.quality_floor
        last = model.last_route
        stats["router"] = {
            "route": self.config.route,
            "quality_floor": model.router.quality_floor if floor is None else floor,
            "quality": dict(model.quality),
            "raw_gnn_quality": model.raw_gnn_quality,
            "blend_alpha": model.blend_alpha,
            "per_row_ms": model.cost.per_row_ms(),
            "last_route": last.to_dict() if last is not None else None,
        }
        return stats

    def health(self) -> Dict[str, Any]:
        """Cheap liveness/degradation probe for load balancers and CLIs."""
        return {
            "status": "degraded" if self.degraded else "ok",
            "name": self.name,
            "degraded": self.degraded,
            "degraded_reason": self._degraded_reason,
            "queue_depth": self._batcher.queue_depth,
            "slo_breaching": self._slo_breaching,
            "window": self.window(),
        }

    def close(self, drain: bool = True) -> None:
        """Shut the request queue down (idempotent)."""
        self._batcher.close(drain=drain)

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _result_bytes(op: str, result) -> bytes:
    """A batch result's bytes, as :meth:`PredictionService.compare` hashes them."""
    if op == "predict":
        return np.ascontiguousarray(result).tobytes()
    return b"".join(np.ascontiguousarray(items).tobytes()
                    + np.ascontiguousarray(scores).tobytes() for items, scores in result)


def _divergence(op: str, incumbent, challenger) -> List[float]:
    """Per-row divergence of two batch results: ``|c - i| / (|i| + 1)``
    for predictions (absolute for probabilities, relative for large
    regression values), ``1 - overlap@k`` of the item sets for rankings."""
    if op == "predict":
        inc = np.asarray(incumbent, dtype=np.float64).reshape(-1)
        cha = np.asarray(challenger, dtype=np.float64).reshape(-1)
        n = min(len(inc), len(cha))
        return (np.abs(cha[:n] - inc[:n]) / (np.abs(inc[:n]) + 1.0)).tolist()
    out: List[float] = []
    for inc_row, cha_row in zip(incumbent, challenger):
        inc_items = set(np.asarray(inc_row[0]).tolist())
        cha_items = set(np.asarray(cha_row[0]).tolist())
        out.append(1.0 - len(inc_items & cha_items) / max(len(inc_items), 1))
    return out

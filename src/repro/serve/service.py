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
    service.start_canary(version=4)                # judge v4 on live traffic
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
  healthy;
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
* **canary** — :meth:`start_canary` shadows a fraction of live
  traffic to a challenger and auto-promotes on sustained parity or
  rolls back on regression (see :mod:`repro.serve.canary`);
* **warm start** — requests for LIST queries share the memoized
  item-tower embeddings, and :meth:`warmup` primes them (and pays the
  model's first-call costs) before traffic arrives;
* **cost-based routing** — every request is executed on the
  GREEN/YELLOW/RED tier the live model's router picks (or the tier
  forced per request / by ``ServeConfig.route``; a plain fit answers
  from red), under ``ServeConfig.quality_floor`` when set — for every
  model the service runs, swapped-in and canary challengers included;
  the decision rides back on the result (``.route`` on the returned
  array/rankings) and is counted per tier as ``serve.route.<tier>``.

A fresh instance starts with clean telemetry: construction drops the
``serve.*`` and ``router.*`` instruments, so numbers
reported for this service are this service's alone.  A hot swap keeps
them — the serving timeline is continuous across versions, and the
``swapped`` event marks the boundary.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import get_logger, get_registry
from repro.obs.telemetry import ServingTelemetry, TelemetryConfig, current_request_ids
from repro.pql.ast import TaskType
from repro.pql.router import TIERS, check_route
from repro.resilience.faults import fault_point
from repro.serve.batcher import MicroBatcher, ResponseFuture
from repro.serve.canary import CanaryConfig, CanaryController

__all__ = ["PredictionService", "ServeConfig"]

_log = get_logger("serve.service")


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
    #: Live telemetry master switch: windowed ``serve.*`` histograms,
    #: request tracing, and SLO monitoring (request IDs are always on).
    telemetry_enabled: bool = True
    #: Sliding window for ``serve.*`` histograms and SLO budgets (s).
    telemetry_window_s: float = 60.0
    #: Fraction of requests whose full span tree is retained ([0, 1]).
    trace_sample_rate: float = 0.0
    #: Ring-buffer capacity for retained per-request traces.
    trace_capacity: int = 32
    #: Window p99 target (ms); breaches record SLO events.  None = off.
    slo_p99_ms: Optional[float] = None
    #: Window error-rate target ([0, 1]); None = off.
    slo_error_rate: Optional[float] = None
    #: Default canary budgets (used when :meth:`PredictionService.start_canary`
    #: is not given an explicit :class:`CanaryConfig`).
    canary_fraction: float = 0.25
    canary_promote_after: int = 50
    canary_max_divergence: float = 0.25
    canary_max_latency_ratio: float = 3.0
    canary_max_error_rate: float = 0.0

    def canary_config(self) -> CanaryConfig:
        """The default :class:`CanaryConfig` slice of this config."""
        return CanaryConfig(
            fraction=self.canary_fraction,
            promote_after=self.canary_promote_after,
            max_divergence=self.canary_max_divergence,
            max_latency_ratio=self.canary_max_latency_ratio,
            max_error_rate=self.canary_max_error_rate,
        )

    def telemetry_config(self) -> TelemetryConfig:
        """The :class:`TelemetryConfig` slice of this config."""
        return TelemetryConfig(
            enabled=self.telemetry_enabled,
            window_seconds=self.telemetry_window_s,
            trace_sample_rate=self.trace_sample_rate,
            trace_capacity=self.trace_capacity,
            slo_p99_ms=self.slo_p99_ms,
            slo_error_rate=self.slo_error_rate,
        )


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
        self._canary: Optional[CanaryController] = None
        self._canary_slot: Optional[_ModelSlot] = None
        #: Completed lifecycle transitions, oldest first (JSON-ready).
        self._transitions: List[Dict[str, Any]] = []
        # The registry handle/db/name backing swap(version=...); set by
        # from_registry, absent for directly-constructed services.
        self._registry = None
        self._db = None
        self._registry_name: Optional[str] = None
        self.reset_metrics()
        # Telemetry registers the windowed serve.* histograms, so it must
        # come after reset_metrics() dropped the predecessor's instruments.
        self.telemetry = ServingTelemetry(self.config.telemetry_config())
        self._batcher = MicroBatcher(
            self._execute,
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
            max_queue_depth=self.config.max_queue_depth,
            telemetry=self.telemetry,
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
        :meth:`start_canary` against) any other published version by
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
            route=route if route is None else check_route(route),
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
            route=route if route is None else check_route(route),
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
        # Provenance: which requests were in flight when the ladder
        # engaged — the batcher stamps the executing batch's request IDs
        # into a thread-local before calling into the model path.
        self.telemetry.record_event(
            "degraded", reason, request_ids=current_request_ids()
        )
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
        canary = self._canary
        if canary is not None and slot is self._slot:
            # Shadow only traffic served by the *incumbent* slot: batches
            # still draining from a pre-swap slot are not representative.
            canary.maybe_shadow(
                op, k, keys, cutoffs, result, elapsed_ms, current_request_ids()
            )
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
                "swap/canary by version requires a registry-backed service "
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
        transition = {
            "kind": "swapped",
            "time": time.time(),
            "from": previous.label,
            "to": slot.label,
            "reason": reason,
            "restored_by": "swap" if was_degraded else None,
        }
        self._transitions.append(transition)
        self.telemetry.record_event(
            "swapped", f"live model {previous.label} -> {slot.label}: {reason}",
            from_version=previous.label, to_version=slot.label,
        )
        if was_degraded:
            # The ladder was engaged against the old model; the swap is
            # what restored full service, and provenance says so.
            self.telemetry.record_event(
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
        barrier if ``apply_fn`` also calls ``refresh_model``.  Records a
        ``graph_refreshed`` provenance event and returns ``apply_fn``'s
        result.
        """
        result = self._batcher.run_barrier(apply_fn)
        self.telemetry.record_event("graph_refreshed", reason)
        self._transitions.append({
            "kind": "graph_refreshed",
            "time": time.time(),
            "reason": reason,
        })
        _log.info("graph refreshed between micro-batches", extra={"reason": reason})
        return result

    # ------------------------------------------------------------------
    # Canary
    # ------------------------------------------------------------------
    def start_canary(
        self,
        version: Optional[int] = None,
        model=None,
        name: Optional[str] = None,
        config: Optional[CanaryConfig] = None,
        warm: bool = True,
    ) -> CanaryController:
        """Shadow live traffic to a challenger; auto-promote or roll back.

        The challenger (a registry ``version`` or a ``model`` object)
        is warmed, then a :class:`CanaryController` begins re-executing
        a fraction of live batches against it off the hot path.  On
        sustained parity the controller calls back into the service and
        the challenger is hot-swapped live (it is already warm, so the
        promote itself is instant); on regression it is discarded and
        the incumbent keeps serving.  Either way an edge-triggered
        ``canary_promoted`` / ``canary_rolled_back`` event records the
        reason, comparison window, and triggering request IDs.
        """
        if self._canary is not None and self._canary.state == "running":
            raise RuntimeError(
                f"a canary is already running ({self._canary.challenger_label}); "
                f"cancel it before starting another"
            )
        slot = self._resolve_challenger(model, name, version)
        if warm:
            self._warm_slot(slot, num_entities=16, cutoff=None)
        controller = CanaryController(
            challenger_runner=lambda op, k, keys, cutoffs: self._model_call(
                slot, op, k, keys, cutoffs
            ),
            config=config if config is not None else self.config.canary_config(),
            on_promote=self._on_canary_promote,
            on_rollback=self._on_canary_rollback,
            challenger_label=slot.label,
        )
        self._canary_slot = slot
        self._canary = controller
        self.telemetry.record_event(
            "canary_started",
            f"shadowing {controller.config.fraction:.0%} of live traffic to "
            f"{slot.label} (promote after {controller.config.promote_after})",
            challenger=slot.label, canary=controller.report(),
        )
        _log.info(
            "canary started",
            extra={"challenger": slot.label,
                   "fraction": controller.config.fraction},
        )
        return controller

    @property
    def canary(self) -> Optional[CanaryController]:
        """The active (or most recently finished) canary controller."""
        return self._canary

    def cancel_canary(self, reason: str = "cancelled by operator") -> None:
        """Stop the running canary without promoting or rolling back."""
        controller = self._canary
        if controller is None:
            return
        controller.cancel(reason)
        controller.close()
        self._canary_slot = None

    def _on_canary_promote(self, controller: CanaryController, reason: str) -> None:
        slot = self._canary_slot
        self._canary_slot = None
        transition = self._swap_to(slot, warm=False, reason=f"canary promote: {reason}")
        self._transitions.append({
            "kind": "canary_promoted", "time": time.time(),
            "to": slot.label, "reason": reason, "canary": controller.report(),
        })
        self.telemetry.record_event(
            "canary_promoted", reason,
            request_ids=controller.recent_request_ids(),
            challenger=slot.label, canary=controller.report(),
        )
        controller.close()
        _log.info(
            "canary promoted",
            extra={"challenger": slot.label, "reason": reason,
                   "swap": transition["to"]},
        )

    def _on_canary_rollback(self, controller: CanaryController, reason: str) -> None:
        slot = self._canary_slot
        self._canary_slot = None
        label = slot.label if slot is not None else controller.challenger_label
        self._transitions.append({
            "kind": "canary_rolled_back", "time": time.time(),
            "challenger": label, "reason": reason, "canary": controller.report(),
        })
        self.telemetry.record_event(
            "canary_rolled_back", reason,
            request_ids=controller.recent_request_ids(),
            challenger=label, canary=controller.report(),
        )
        controller.close()
        _log.warning(
            "canary rolled back",
            extra={"challenger": label, "reason": reason},
        )

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
            self.telemetry.record_event(
                "restored", "operator restore: climbed back to the model path",
                restored_by="operator",
            )

    def lifecycle(self) -> Dict[str, Any]:
        """JSON-ready lifecycle state: live version, transitions, canary."""
        canary = self._canary
        return {
            "live": self._slot.label,
            "version": self._slot.version,
            "registry_model": self._registry_name,
            "transitions": list(self._transitions),
            "canary": canary.report() if canary is not None else None,
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
            "telemetry": self.telemetry.snapshot(),
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
        slo = self.telemetry.slo
        canary = self._canary
        return {
            "status": "degraded" if self.degraded else "ok",
            "name": self.name,
            "degraded": self.degraded,
            "degraded_reason": self._degraded_reason,
            "queue_depth": self._batcher.queue_depth,
            "slo_breaching": slo.breaching,
            "window": slo.window(),
            "canary": canary.state if canary is not None else None,
        }

    def close(self, drain: bool = True) -> None:
        """Shut the request queue and canary down (idempotent)."""
        controller = self._canary
        if controller is not None:
            controller.cancel("service closing")
            controller.close()
        self._batcher.close(drain=drain)

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""Live serving telemetry: windowed histograms, request tracing, SLOs.

:mod:`repro.obs.trace` and :mod:`repro.obs.metrics` were built for
offline batch runs — one collection window, lifetime aggregates.  A
long-running server needs three more things, which this module adds:

* :class:`WindowedHistogram` — a ring-buffer histogram that reports
  streaming p50/p95/p99 over a sliding time window, so ``stats``
  answers "what is the p99 *now*", not "since the process started";
* :class:`RequestTracer` — request-ID assignment plus deterministic
  head sampling: every request gets an ID at ingress, a configurable
  fraction additionally retain a full per-request span tree (queue
  wait, the coalesced batch's model spans) exportable as JSON;
* :class:`SLOMonitor` — per-window latency/error budgets with a
  provenance event log: every degradation, restoration, or SLO breach
  records *why* it happened and which request IDs triggered it.

:class:`ServingTelemetry` bundles the three behind one facade that
:class:`~repro.serve.service.PredictionService` owns, and the
exposition helpers (:func:`render_prometheus`, :func:`stats_document`,
:func:`render_stats_text`) turn the registry into Prometheus text
format, a JSON snapshot, or the human table ``repro stats`` prints.

Everything here is thread-safe and dependency-free, like the rest of
:mod:`repro.obs`.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import (
    DEFAULT_PERCENTILES,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
)

__all__ = [
    "RequestTracer",
    "SLOMonitor",
    "ServingTelemetry",
    "TelemetryConfig",
    "WindowedHistogram",
    "current_request_ids",
    "render_data_summary",
    "render_prometheus",
    "render_stats_text",
    "set_current_request_ids",
    "stats_document",
]


# ----------------------------------------------------------------------
# Windowed histograms
# ----------------------------------------------------------------------
class WindowedHistogram(Histogram):
    """Sliding-window histogram: streaming percentiles over recent values.

    Observations older than ``window_seconds`` (or beyond the
    ``max_samples`` ring-buffer capacity) fall out of the summary;
    ``total_count`` still counts everything ever observed.  A
    :class:`~repro.obs.metrics.Histogram` subclass, so registry code
    that looks a name up via ``histogram(name)`` transparently finds
    the windowed instrument.
    """

    __slots__ = (
        "window_seconds", "max_samples", "total_count",
        "_window_values", "_chunks", "_clock",
    )

    def __init__(
        self,
        name: str,
        window_seconds: float = 60.0,
        max_samples: int = 4096,
        percentiles: Sequence[float] = DEFAULT_PERCENTILES,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        super().__init__(name, percentiles=percentiles)
        self.window_seconds = float(window_seconds)
        self.max_samples = int(max_samples)
        self.total_count = 0
        # Values and their timestamps live in parallel: one float per
        # observation, one (timestamp, count) chunk per observe call —
        # batch feeding stamps a whole micro-batch with one tuple.
        self._window_values: Deque[float] = deque()
        self._chunks: Deque[Tuple[float, int]] = deque()
        self._clock = clock

    def observe(self, value: float) -> None:
        """Record one observation, evicting anything past the window."""
        now = self._clock()
        with self._lock:
            self.total_count += 1
            self._window_values.append(float(value))
            self._chunks.append((now, 1))
            self._evict(now)

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations with one timestamp and lock."""
        if not values:
            return
        now = self._clock()
        floats = [float(v) for v in values]
        with self._lock:
            self.total_count += len(floats)
            self._window_values.extend(floats)
            self._chunks.append((now, len(floats)))
            self._evict(now)

    def _evict(self, now: float) -> None:
        """Drop samples past the window or capacity (lock is held)."""
        horizon = now - self.window_seconds
        values, chunks = self._window_values, self._chunks
        while chunks and chunks[0][0] < horizon:
            _, dropped = chunks.popleft()
            for _ in range(dropped):
                values.popleft()
        excess = len(values) - self.max_samples
        while excess > 0:
            stamp, count = chunks[0]
            take = min(count, excess)
            for _ in range(take):
                values.popleft()
            if take == count:
                chunks.popleft()
            else:
                chunks[0] = (stamp, count - take)
            excess -= take

    def _snapshot(self) -> List[float]:
        """Values currently inside the window, oldest first."""
        now = self._clock()
        with self._lock:
            self._evict(now)
            return list(self._window_values)

    @property
    def count(self) -> int:
        """Observations currently inside the window."""
        return len(self._snapshot())

    def summary(self, percentiles: Optional[Sequence[float]] = None) -> Dict[str, float]:
        """Window count/min/mean/percentiles/max + lifetime total_count."""
        values = self._snapshot()
        result = super()._summarize(values, percentiles)
        result["window_seconds"] = self.window_seconds
        result["total_count"] = self.total_count
        return result

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready ``{type, ...summary}`` record."""
        return {"type": "windowed_histogram", **self.summary()}


# ----------------------------------------------------------------------
# Request tracing
# ----------------------------------------------------------------------
class RequestTracer:
    """Request-ID assignment plus head-sampled trace retention.

    IDs are sequential (``req-000001``, …) so logs, SLO events, and
    span trees cross-reference cheaply.  Sampling is deterministic —
    an error-diffusion accumulator admits exactly ``sample_rate`` of
    requests (every request at 1.0, every other at 0.5, none at 0.0) —
    so tests and replayed traffic sample identically.  Retained traces
    live in a bounded ring buffer; old traces fall off the back.
    """

    def __init__(self, sample_rate: float = 0.0, capacity: int = 32) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sample_rate = float(sample_rate)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._admitted = 0
        self._sampled = 0
        self._acc = 0.0
        self._traces: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)

    def admit(self) -> Tuple[str, bool]:
        """Assign the next request ID and the head-sampling decision."""
        with self._lock:
            self._admitted += 1
            request_id = f"req-{self._admitted:06d}"
            sampled = False
            if self.sample_rate > 0.0:
                self._acc += self.sample_rate
                if self._acc >= 1.0 - 1e-9:
                    self._acc -= 1.0
                    sampled = True
                    self._sampled += 1
            return request_id, sampled

    def record(self, trace: Dict[str, Any]) -> None:
        """Retain one finished per-request trace (JSON-ready dict)."""
        with self._lock:
            self._traces.append(trace)

    def traces(self) -> List[Dict[str, Any]]:
        """Retained traces, oldest first."""
        with self._lock:
            return list(self._traces)

    @property
    def admitted(self) -> int:
        """Requests that received an ID."""
        return self._admitted

    @property
    def sampled(self) -> int:
        """Requests chosen for full trace retention."""
        return self._sampled


# ----------------------------------------------------------------------
# SLO monitoring
# ----------------------------------------------------------------------
class SLOMonitor:
    """Per-window latency/error budgets with a provenance event log.

    Feeds on resolved requests (:meth:`on_request`), tracks the
    sliding-window p99 and error rate against optional targets, and
    records **events** — edge-triggered ``slo_breach`` /
    ``slo_recovered`` transitions plus whatever the serving ladder
    reports via :meth:`record_event` (``degraded``, ``restored``).
    Every event carries the reason, the window stats at that moment,
    and the request IDs that triggered it, so "why did the ladder
    engage at 14:32" has a recorded answer.

    Evaluating the budgets means sorting the latency window, so the
    check is amortized: it runs on every failed request, on every
    request while already breaching (prompt recovery), and otherwise
    on every ``check_every``-th request or after ``check_interval_s``
    seconds, whichever comes first — high-traffic services amortize
    the sort, idle ones still notice a breach within a fraction of a
    second.  ``check_every=1`` restores exact per-request evaluation.
    """

    def __init__(
        self,
        window_seconds: float = 60.0,
        p99_target_ms: Optional[float] = None,
        error_rate_target: Optional[float] = None,
        max_events: int = 64,
        check_every: int = 2048,
        check_interval_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        latency: Optional[WindowedHistogram] = None,
    ) -> None:
        self.window_seconds = float(window_seconds)
        self.p99_target_ms = p99_target_ms
        self.error_rate_target = error_rate_target
        self.check_every = max(1, int(check_every))
        self.check_interval_s = float(check_interval_s)
        self._clock = clock
        self._lock = threading.Lock()
        # A caller already observing latencies into a shared windowed
        # histogram (the serving facade) passes it in; then on_request
        # reads it instead of double-observing.
        self._latency = latency if latency is not None else WindowedHistogram(
            "slo.latency_ms", window_seconds=window_seconds, clock=clock
        )
        self._owns_latency = latency is None
        # Outcome chunks: (timestamp, requests, errors) per fed batch,
        # so window accounting is O(1) per batch, not per request.
        self._outcomes: Deque[Tuple[float, int, int]] = deque(maxlen=8192)
        self._window_total = 0
        self._window_errors = 0
        self._recent_ids: Deque[str] = deque(maxlen=16)
        self._events: Deque[Dict[str, Any]] = deque(maxlen=max(1, max_events))
        self._event_seq = 0
        self._since_check = 0
        self._last_check = float("-inf")
        self._breaching = False

    def on_request(self, request_id: str, latency_ms: float, ok: bool = True) -> None:
        """Feed one resolved request into the window and check budgets."""
        self.on_batch(((request_id, latency_ms, ok),))

    def on_batch(self, resolved: Sequence[Tuple[str, float, bool]]) -> None:
        """Feed a micro-batch of ``(request_id, latency_ms, ok)`` at once.

        One lock round-trip for the whole batch keeps the per-request
        cost of SLO accounting negligible at serving rates.
        """
        if not resolved:
            return
        if self._owns_latency:
            self._latency.observe_many([latency for _, latency, _ in resolved])
        now = self._clock()
        total = len(resolved)
        errors = sum(1 for _, _, ok in resolved if not ok)
        recent = [request_id for request_id, _, _ in resolved[-16:]]
        with self._lock:
            outcomes = self._outcomes
            if len(outcomes) == outcomes.maxlen:
                _, old_total, old_errors = outcomes.popleft()
                self._window_total -= old_total
                self._window_errors -= old_errors
            outcomes.append((now, total, errors))
            self._window_total += total
            self._window_errors += errors
            self._recent_ids.extend(recent)
            self._trim(now)
            self._since_check += total
            due = (
                errors > 0
                or self._breaching
                or self._since_check >= self.check_every
                or now - self._last_check >= self.check_interval_s
            )
            if due:
                self._since_check = 0
                self._last_check = now
        if due:
            self._check_budgets()

    def _trim(self, now: float) -> None:
        horizon = now - self.window_seconds
        while self._outcomes and self._outcomes[0][0] < horizon:
            _, old_total, old_errors = self._outcomes.popleft()
            self._window_total -= old_total
            self._window_errors -= old_errors

    def window(self) -> Dict[str, Any]:
        """Current-window latency summary + error rate."""
        latency = self._latency.summary()
        now = self._clock()
        with self._lock:
            self._trim(now)
            total = self._window_total
            errors = self._window_errors
        return {
            "requests": total,
            "errors": errors,
            "error_rate": (errors / total) if total else 0.0,
            "latency_ms": latency,
        }

    def _check_budgets(self) -> None:
        """Edge-triggered breach detection against the configured targets."""
        if self.p99_target_ms is None and self.error_rate_target is None:
            return
        window = self.window()
        reasons = []
        p99 = window["latency_ms"].get("p99")
        if (
            self.p99_target_ms is not None
            and p99 is not None
            and window["latency_ms"]["count"] > 0
            and p99 > self.p99_target_ms
        ):
            reasons.append(
                f"window p99 {p99:.1f}ms > target {self.p99_target_ms:.1f}ms"
            )
        if (
            self.error_rate_target is not None
            and window["requests"] > 0
            and window["error_rate"] > self.error_rate_target
        ):
            reasons.append(
                f"window error rate {window['error_rate']:.1%} > "
                f"target {self.error_rate_target:.1%}"
            )
        breaching = bool(reasons)
        with self._lock:
            transition = breaching != self._breaching
            self._breaching = breaching
        if transition and breaching:
            self.record_event("slo_breach", "; ".join(reasons))
        elif transition:
            self.record_event("slo_recovered", "window back inside budget")

    def record_event(
        self, kind: str, reason: str, request_ids: Sequence[str] = (),
        **extra: Any,
    ) -> Dict[str, Any]:
        """Append a provenance event; defaults to the recent request IDs.

        ``extra`` keyword fields are merged into the event dict — the
        model lifecycle uses them to attach swap/canary provenance
        (versions, comparison windows) without the monitor having to
        know those schemas.
        """
        with self._lock:
            ids = list(request_ids) if request_ids else list(self._recent_ids)
            self._event_seq += 1
            seq = self._event_seq
        event = {
            "seq": seq,
            "time": time.time(),
            "kind": kind,
            "reason": reason,
            "request_ids": ids,
            "window": self.window(),
            **extra,
        }
        with self._lock:
            self._events.append(event)
        return event

    def events(self) -> List[Dict[str, Any]]:
        """Recorded events, oldest first."""
        with self._lock:
            return list(self._events)

    @property
    def breaching(self) -> bool:
        """Whether the window is currently outside its budgets."""
        return self._breaching

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready budgets + current window + event log."""
        return {
            "window_seconds": self.window_seconds,
            "p99_target_ms": self.p99_target_ms,
            "error_rate_target": self.error_rate_target,
            "breaching": self._breaching,
            "window": self.window(),
            "events": self.events(),
        }


# ----------------------------------------------------------------------
# Batch context: which request IDs is the runner serving right now?
# ----------------------------------------------------------------------
_batch_context = threading.local()


def set_current_request_ids(request_ids: Sequence[str]) -> None:
    """Record the request IDs of the batch executing on this thread."""
    _batch_context.request_ids = tuple(request_ids)


def current_request_ids() -> Tuple[str, ...]:
    """The request IDs of the batch executing on this thread (or ())."""
    return getattr(_batch_context, "request_ids", ())


# ----------------------------------------------------------------------
# The serving facade
# ----------------------------------------------------------------------
@dataclass
class TelemetryConfig:
    """Knobs for one service instance's live telemetry."""

    #: Master switch; off = no windowed histograms, no tracing, no SLOs
    #: (request IDs are still assigned — they cost one counter add).
    enabled: bool = True
    #: Sliding window for ``serve.*`` histograms and SLO budgets.
    window_seconds: float = 60.0
    #: Fraction of requests whose full span tree is retained ([0, 1]).
    trace_sample_rate: float = 0.0
    #: Ring-buffer capacity for retained per-request traces.
    trace_capacity: int = 32
    #: Window p99 target (ms); breaches record SLO events.  None = off.
    slo_p99_ms: Optional[float] = None
    #: Window error-rate target ([0, 1]); None = off.
    slo_error_rate: Optional[float] = None


#: The ``serve.*`` histograms that become windowed when telemetry is on.
SERVE_WINDOWED_HISTOGRAMS: Tuple[str, ...] = (
    "serve.latency_ms",
    "serve.queue_wait_ms",
    "serve.execute_ms",
    "serve.batch_rows",
)


class ServingTelemetry:
    """One service instance's tracer + windowed histograms + SLO monitor.

    Constructing it (with ``enabled=True``) registers the ``serve.*``
    latency histograms as :class:`WindowedHistogram` in the registry —
    the micro-batcher keeps calling plain ``registry.histogram(name)``
    and transparently lands on the windowed instruments.
    """

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or TelemetryConfig()
        self.registry = registry if registry is not None else get_registry()
        rate = self.config.trace_sample_rate if self.config.enabled else 0.0
        self.tracer = RequestTracer(rate, capacity=self.config.trace_capacity)
        shared_latency = None
        if self.config.enabled:
            for name in SERVE_WINDOWED_HISTOGRAMS:
                instrument = self.registry.windowed_histogram(
                    name, window_seconds=self.config.window_seconds
                )
                if name == "serve.latency_ms" and isinstance(
                    instrument, WindowedHistogram
                ):
                    # The batcher already observes into this one; let
                    # the SLO monitor read it instead of keeping a
                    # duplicate window.
                    shared_latency = instrument
        self.slo = SLOMonitor(
            window_seconds=self.config.window_seconds,
            p99_target_ms=self.config.slo_p99_ms,
            error_rate_target=self.config.slo_error_rate,
            latency=shared_latency,
        )

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def admit(self) -> Tuple[str, bool]:
        """Assign the next request ID + head-sampling decision."""
        return self.tracer.admit()

    def record_trace(self, trace: Dict[str, Any]) -> None:
        """Retain one per-request trace (sampled requests only)."""
        self.tracer.record(trace)

    def on_resolved(self, request_id: str, latency_ms: float, ok: bool = True) -> None:
        """Feed one resolved request into the SLO window."""
        if self.config.enabled:
            self.slo.on_request(request_id, latency_ms, ok=ok)

    def on_resolved_batch(self, resolved: Sequence[Tuple[str, float, bool]]) -> None:
        """Feed a micro-batch of ``(request_id, latency_ms, ok)`` at once."""
        if self.config.enabled and resolved:
            self.slo.on_batch(resolved)

    def record_event(
        self, kind: str, reason: str, request_ids: Sequence[str] = (),
        **extra: Any,
    ) -> Dict[str, Any]:
        """Record a provenance event (degraded/restored/swapped/canary_*)."""
        return self.slo.record_event(kind, reason, request_ids=request_ids, **extra)

    def traces(self) -> List[Dict[str, Any]]:
        """Retained per-request span trees, oldest first."""
        return self.tracer.traces()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state: sampling stats, SLO window + events, traces."""
        return {
            "enabled": self.config.enabled,
            "window_seconds": self.config.window_seconds,
            "trace_sample_rate": self.config.trace_sample_rate,
            "requests_admitted": self.tracer.admitted,
            "requests_sampled": self.tracer.sampled,
            "slo": self.slo.snapshot(),
            "traces": self.traces(),
        }


# ----------------------------------------------------------------------
# Exposition: Prometheus text format, JSON snapshots, CLI rendering
# ----------------------------------------------------------------------
_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """``serve.latency_ms`` → ``serve_latency_ms`` (Prometheus-legal)."""
    sanitized = _PROM_BAD_CHARS.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


_QUANTILE_KEY = re.compile(r"^p(\d+(?:\.\d+)?)$")


def render_prometheus(
    metrics: Union[MetricsRegistry, Dict[str, Dict[str, Any]], None] = None,
) -> str:
    """The registry (or a ``to_dict()`` export of one) as Prometheus text.

    Counters render as ``<name>_total``, gauges as ``<name>``, and
    histograms as summaries (``{quantile="0.99"}`` series plus
    ``_sum``/``_count``).  Accepting the exported dict as well as a
    live registry lets ``repro stats`` re-render a snapshot file
    captured from another process.
    """
    if metrics is None:
        metrics = get_registry()
    if isinstance(metrics, MetricsRegistry):
        metrics = metrics.to_dict()
    lines: List[str] = []
    for name in sorted(metrics):
        record = dict(metrics[name])
        kind = record.pop("type", "gauge")
        pname = _prom_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname}_total {_prom_value(record.get('value', 0.0))}")
        elif kind == "gauge":
            if record.get("value") is None:
                continue
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_prom_value(record['value'])}")
        elif kind in ("histogram", "windowed_histogram"):
            lines.append(f"# TYPE {pname} summary")
            count = record.get("count", 0)
            for key, value in record.items():
                match = _QUANTILE_KEY.match(key)
                if match and value is not None:
                    quantile = float(match.group(1)) / 100.0
                    lines.append(
                        f'{pname}{{quantile="{quantile:g}"}} {_prom_value(value)}'
                    )
            mean = record.get("mean", 0.0)
            lines.append(f"{pname}_sum {_prom_value(mean * count)}")
            lines.append(f"{pname}_count {_prom_value(count)}")
            if kind == "windowed_histogram":
                lines.append(
                    f"{pname}_window_seconds "
                    f"{_prom_value(record.get('window_seconds', 0.0))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def stats_document(service) -> Dict[str, Any]:
    """One JSON snapshot of a live service: stats + health + full registry.

    This is what ``repro serve --stats-json PATH`` writes on shutdown
    and what ``repro stats PATH`` renders back.
    """
    return {
        "generated_at": time.time(),
        "service": service.stats(),
        "health": service.health(),
        "metrics": service.telemetry.registry.to_dict(),
    }


def _fmt_num(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)):
        if value != value:  # NaN
            return "nan"
        if float(value).is_integer():
            return str(int(value))
        return f"{value:.3f}"
    return str(value)


def render_data_summary(data: Dict[str, Any]) -> str:
    """One ``key=value`` line for a model's ``data_summary()`` — where
    the served database came from and how large and fresh it is.  The
    ``ready:`` line of ``repro serve`` and ``repro stats`` share it."""
    return " ".join(f"{key}={_fmt_num(value)}" for key, value in data.items())


def render_stats_text(document: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`stats_document` snapshot."""
    lines: List[str] = []
    health = document.get("health", {})
    service = document.get("service", {})
    name = service.get("name", health.get("name", "?"))
    status = health.get("status", "?")
    lines.append(f"service {name}: {status}")
    if health.get("degraded_reason"):
        lines.append(f"  degraded: {health['degraded_reason']}")
    if service.get("data"):
        lines.append(f"  data: {render_data_summary(service['data'])}")
    metrics = document.get("metrics", {})
    if metrics:
        lines.append("")
        lines.append(f"{'metric':<36} {'type':<20} summary")
        for metric_name in sorted(metrics):
            record = dict(metrics[metric_name])
            kind = record.pop("type", "?")
            rendered = " ".join(
                f"{key}={_fmt_num(value)}"
                for key, value in record.items()
                if value is not None
            )
            lines.append(f"{metric_name:<36} {kind:<20} {rendered}")
    telemetry = service.get("telemetry", {})
    slo = telemetry.get("slo", {})
    events = slo.get("events", [])
    if events:
        lines.append("")
        lines.append("slo events:")
        for event in events:
            ids = ",".join(event.get("request_ids", [])) or "-"
            lines.append(
                f"  #{event['seq']} {event['kind']}: {event['reason']} "
                f"[requests: {ids}]"
            )
    traces = telemetry.get("traces", [])
    if traces:
        lines.append("")
        lines.append(f"sampled traces ({len(traces)} retained):")
        for trace in traces:
            lines.append(
                f"  {trace.get('request_id', '?')} {trace.get('op', '?')} "
                f"outcome={trace.get('outcome', '?')} "
                f"latency={_fmt_num(trace.get('latency_ms'))}ms"
            )
    return "\n".join(lines)

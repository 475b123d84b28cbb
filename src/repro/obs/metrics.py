"""Counters, gauges, and histograms with JSON export.

The registry is the numeric companion to :mod:`repro.obs.trace`:
spans answer *where did the time go*, metrics answer *how much work
happened* — rows scanned, nodes sampled, epoch throughput.

Instruments are cheap enough to keep always-on (a counter increment
is one locked attribute add), but code on per-edge hot paths should
still accumulate locals and record once per call.

::

    registry = MetricsRegistry()
    registry.counter("sql.rows_scanned").inc(1024)
    registry.histogram("train.epoch_seconds").observe(0.42)
    json.dumps(registry.to_dict())

Every instrument is **thread-safe**: the serving path mutates the
registry from the protocol reader, the micro-batcher worker, and the
response writer concurrently, and no update may be lost.  A
process-global registry is available via :func:`get_registry` /
:func:`reset_registry` for code that has no registry handy.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_PERCENTILES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WindowedHistogram",
    "get_registry",
    "percentile",
    "reset_registry",
]

#: Quantiles every histogram reports unless configured otherwise.
DEFAULT_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready ``{type, value}`` record."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (e.g. current learning rate, graph size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value`` (atomic: one store)."""
        self.value = float(value)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready ``{type, value}`` record."""
        return {"type": "gauge", "value": self.value}


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile over pre-sorted values.

    ``q`` is in [0, 100].  Matches ``numpy.percentile`` with the
    default linear interpolation, implemented locally so the metrics
    module stays dependency-free.
    """
    if not sorted_values:
        return math.nan
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(sorted_values) - 1)
    frac = rank - low
    return sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac


class Histogram:
    """Stores raw observations; summarizes as count/min/mean/p*/max.

    Raw storage is deliberate: the pipelines being profiled observe
    thousands of values per run, not millions, and exact percentiles
    beat bucketed approximations for regression hunting.  Reported
    quantiles default to p50/p95/p99 and are configurable per
    instrument (``percentiles=(50, 90, 99.9)``) or per call.
    """

    __slots__ = ("name", "values", "percentiles", "_lock")

    def __init__(
        self, name: str, percentiles: Sequence[float] = DEFAULT_PERCENTILES
    ) -> None:
        self.name = name
        self.values: List[float] = []
        self.percentiles: Tuple[float, ...] = tuple(float(q) for q in percentiles)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.values.append(float(value))

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations in one lock round-trip."""
        floats = [float(v) for v in values]
        with self._lock:
            self.values.extend(floats)

    @property
    def count(self) -> int:
        return len(self.values)

    def _snapshot(self) -> List[float]:
        """A consistent copy of the observations under the lock."""
        with self._lock:
            return list(self.values)

    def _summarize(
        self, values: List[float], percentiles: Optional[Sequence[float]] = None
    ) -> Dict[str, float]:
        """Summary dict over an explicit value list (shared with subclasses)."""
        if not values:
            return {"count": 0}
        ordered = sorted(values)
        quantiles = self.percentiles if percentiles is None else tuple(percentiles)
        result = {
            "count": len(ordered),
            "min": ordered[0],
            "mean": sum(ordered) / len(ordered),
        }
        for q in quantiles:
            result[_percentile_key(q)] = percentile(ordered, q)
        result["max"] = ordered[-1]
        return result

    def summary(self, percentiles: Optional[Sequence[float]] = None) -> Dict[str, float]:
        """count / min / mean / configured percentiles / max."""
        return self._summarize(self._snapshot(), percentiles)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready ``{type, ...summary}`` record."""
        return {"type": "histogram", **self.summary()}


def _percentile_key(q: float) -> str:
    """``50.0 -> "p50"``, ``99.9 -> "p99.9"``."""
    return f"p{int(q)}" if float(q).is_integer() else f"p{q:g}"


class WindowedHistogram(Histogram):
    """Sliding-window histogram: streaming percentiles over recent values.

    Observations older than ``window_seconds`` (or beyond the
    ``max_samples`` ring-buffer capacity) fall out of the summary, so a
    long-running server answers "what is the p99 *now*" in bounded
    memory.  ``total_count`` and ``total_sum`` still cover everything
    ever observed — the monotonic figures a scraper needs.  A
    :class:`Histogram` subclass, so ``registry.histogram(name)`` finds
    the windowed instrument registered under ``name``.
    """

    __slots__ = (
        "window_seconds", "max_samples", "total_count", "total_sum",
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
        self.total_sum = 0.0
        # Values and their timestamps live in parallel: one float per
        # observation, one (timestamp, count) chunk per observe call —
        # batch feeding stamps a whole micro-batch with one tuple.
        self._window_values: Deque[float] = deque()
        self._chunks: Deque[Tuple[float, int]] = deque()
        self._clock = clock

    def observe(self, value: float) -> None:
        """Record one observation, evicting anything past the window."""
        now = self._clock()
        value = float(value)
        with self._lock:
            self.total_count += 1
            self.total_sum += value
            self._window_values.append(value)
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
            self.total_sum += sum(floats)
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
        """Window count/min/mean/percentiles/max + lifetime totals."""
        values = self._snapshot()
        result = self._summarize(values, percentiles)
        result["window_seconds"] = self.window_seconds
        result["total_count"] = self.total_count
        result["total_sum"] = self.total_sum
        return result

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready ``{type, ...summary}`` record."""
        return {"type": "windowed_histogram", **self.summary()}


class MetricsRegistry:
    """Named instruments, created on first use, exported as one dict."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, *args, **kwargs):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, *args, **kwargs)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {type(instrument).__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._get(name, Histogram)

    def windowed_histogram(
        self,
        name: str,
        window_seconds: float = 60.0,
        max_samples: int = 4096,
    ) -> WindowedHistogram:
        """The sliding-window histogram named ``name`` (created on first use).

        Later ``histogram(name)`` lookups find the same instrument;
        requesting a windowed view of a name already registered as a
        plain histogram raises.
        """
        return self._get(
            name, WindowedHistogram,
            window_seconds=window_seconds, max_samples=max_samples,
        )

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready ``{name: {type, ...values}}`` export."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: instruments[name].to_dict() for name in sorted(instruments)}

    def reset(self) -> None:
        """Drop every instrument."""
        with self._lock:
            self._instruments.clear()

    def drop_prefix(self, prefix: str) -> int:
        """Drop every instrument whose name starts with ``prefix``.

        Returns the number of instruments dropped.  Used by components
        with a lifecycle shorter than the process (e.g. one
        :class:`~repro.serve.PredictionService` per model version) so
        a fresh instance never reports a predecessor's numbers.
        """
        with self._lock:
            doomed = [name for name in self._instruments if name.startswith(prefix)]
            for name in doomed:
                del self._instruments[name]
            return len(doomed)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry."""
    return _registry


def reset_registry() -> None:
    """Clear the process-global registry (tests, repeated CLI runs)."""
    _registry.reset()

"""Observability for the predictive-query compiler.

Three complementary instruments, all dependency-free:

* :mod:`repro.obs.trace` — nestable wall-time spans with per-span
  counters; off by default, a true no-op until a ``collect()`` window
  opens.
* :mod:`repro.obs.metrics` — counters, gauges, and histograms
  (p50/p95/p99 summaries, configurable percentiles) with JSON export.
* :mod:`repro.obs.logs` — stdlib-``logging`` structured loggers under
  the ``repro.*`` namespace with one ``configure_logging(verbosity)``
  entry point.

:mod:`repro.obs.metrics` also holds :class:`WindowedHistogram`, the
sliding-window instrument behind a live server's ``serve.*``
percentiles.  :mod:`repro.obs.report` renders a collected trace as the
EXPLAIN ANALYZE-style stage tree the CLI prints under ``--profile``,
and a serving snapshot as Prometheus text, a JSON document, or the
``repro stats`` table.  The serving state itself — request IDs, head
sampling, the trace ring, the SLO check and the event log — lives in
:mod:`repro.serve`.
"""

from repro.obs.logs import configure_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowedHistogram,
    get_registry,
    reset_registry,
)
from repro.obs.report import (
    render_prometheus,
    render_stats_text,
    render_trace,
    stage_timings,
    stats_document,
    trace_document,
    write_trace_json,
)
from repro.obs.trace import (
    Span,
    Trace,
    add_counter,
    collect,
    current_span,
    enabled,
    span,
    start_collection,
    stop_collection,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Trace",
    "WindowedHistogram",
    "add_counter",
    "collect",
    "configure_logging",
    "current_span",
    "enabled",
    "get_logger",
    "get_registry",
    "render_prometheus",
    "render_stats_text",
    "render_trace",
    "reset_registry",
    "span",
    "stage_timings",
    "start_collection",
    "stop_collection",
    "stats_document",
    "trace_document",
    "write_trace_json",
]

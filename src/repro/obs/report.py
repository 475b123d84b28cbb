"""Rendering: EXPLAIN ANALYZE stage trees and serving snapshots.

Turns the span tree from :mod:`repro.obs.trace` (plus an optional
:class:`~repro.obs.metrics.MetricsRegistry`) into the stage report the
CLI prints under ``--profile``::

    EXPLAIN ANALYZE (total 12.340s)
    └─ planner.fit                         12.100s  96.1%
       ├─ planner.parse                     0.002s   0.0%
       ├─ planner.label                     0.410s   3.3%  [label.train_rows=1200]
       ├─ planner.graph_build               0.380s   3.1%  [graph.nodes=5400 graph.edges=21000]
       └─ planner.train                    11.300s  91.5%  [train.epochs=15]

and into the JSON document ``--trace-json`` writes for tooling.  For a
live service it renders the registry as Prometheus text
(:func:`render_prometheus`), captures one JSON snapshot
(:func:`stats_document`, what ``repro serve --stats-json`` writes), and
prints that snapshot as the table ``repro stats`` shows
(:func:`render_stats_text`).
"""

from __future__ import annotations

import json
import re
import time
from typing import Any, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Span, Trace

__all__ = [
    "render_data_summary",
    "render_prometheus",
    "render_stats_text",
    "render_trace",
    "stage_timings",
    "stats_document",
    "trace_document",
    "write_trace_json",
]


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


def _render_span(span: Span, total: float, prefix: str, is_last: bool, lines: List[str]) -> None:
    connector = "└─ " if is_last else "├─ "
    label = f"{prefix}{connector}{span.name}"
    pct = 100.0 * span.seconds / total if total > 0 else 0.0
    line = f"{label:<44} {span.seconds:>9.3f}s {pct:>5.1f}%"
    if span.counters:
        rendered = " ".join(
            f"{name}={_fmt_num(value)}" for name, value in sorted(span.counters.items())
        )
        line += f"  [{rendered}]"
    if span.error is not None:
        line += f"  !! {span.error}"
    lines.append(line)
    child_prefix = prefix + ("   " if is_last else "│  ")
    for i, child in enumerate(span.children):
        _render_span(child, total, child_prefix, i == len(span.children) - 1, lines)


def render_trace(trace: Trace, registry: Optional[MetricsRegistry] = None) -> str:
    """The human-readable stage tree (plus metric summaries, if given)."""
    total = sum(root.seconds for root in trace.roots)
    lines = [f"EXPLAIN ANALYZE (total {total:.3f}s)"]
    for i, root in enumerate(trace.roots):
        _render_span(root, total, "", i == len(trace.roots) - 1, lines)
    if registry is not None and len(registry):
        lines.append("")
        lines.append("metrics:")
        for name, record in registry.to_dict().items():
            kind = record.pop("type")
            rendered = " ".join(
                f"{key}={_fmt_num(value)}"
                for key, value in record.items()
                if value is not None
            )
            lines.append(f"  {name:<40} [{kind}] {rendered}")
    return "\n".join(lines)


def stage_timings(trace: Trace) -> Dict[str, float]:
    """Flat ``{span name: seconds}`` map (durations summed per name).

    Repeated spans (per-epoch, per-batch) aggregate under one key, so
    the result is a stable dict a benchmark row can carry.
    """
    timings: Dict[str, float] = {}
    for span in trace.iter_spans():
        timings[span.name] = timings.get(span.name, 0.0) + span.seconds
    return timings


def trace_document(
    trace: Trace, registry: Optional[MetricsRegistry] = None
) -> Dict[str, Any]:
    """The JSON document written by ``--trace-json``."""
    document: Dict[str, Any] = trace.to_dict()
    document["stage_timings"] = stage_timings(trace)
    if registry is not None:
        document["metrics"] = registry.to_dict()
    return document


def write_trace_json(
    path: str, trace: Trace, registry: Optional[MetricsRegistry] = None
) -> None:
    """Serialize :func:`trace_document` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace_document(trace, registry), handle, indent=2)
        handle.write("\n")


# ----------------------------------------------------------------------
# Serving exposition: Prometheus text, JSON snapshots, CLI rendering
# ----------------------------------------------------------------------
_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_QUANTILE_KEY = re.compile(r"^p(\d+(?:\.\d+)?)$")


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


def render_prometheus(
    metrics: Union[MetricsRegistry, Dict[str, Dict[str, Any]], None] = None,
) -> str:
    """The registry (or a ``to_dict()`` export of one) as Prometheus text.

    Counters render as ``<name>_total``, gauges as ``<name>``, and
    histograms as summaries: ``{quantile="0.99"}`` series plus
    ``_sum``/``_count``.  A windowed histogram's quantiles are the
    window's, but its ``_sum``/``_count`` are lifetime totals, so they
    never go backwards when old samples leave the window (a scraper
    would read that as a counter reset).  Accepting the exported dict
    as well as a live registry lets ``repro stats`` re-render a
    snapshot file captured from another process.
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
            for key, value in record.items():
                match = _QUANTILE_KEY.match(key)
                if match and value is not None:
                    quantile = float(match.group(1)) / 100.0
                    lines.append(
                        f'{pname}{{quantile="{quantile:g}"}} {_prom_value(value)}'
                    )
            count = record.get("count", 0)
            total = record.get("total_sum", record.get("mean", 0.0) * count)
            lines.append(f"{pname}_sum {_prom_value(total)}")
            lines.append(f"{pname}_count {_prom_value(record.get('total_count', count))}")
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
        "metrics": get_registry().to_dict(),
    }


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
    events = telemetry.get("slo", {}).get("events", [])
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

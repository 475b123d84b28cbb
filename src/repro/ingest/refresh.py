"""Staleness-aware refresh: when to reconcile models with the stream.

Everything downstream of a delta that memoized graph-derived state is
*potentially* stale, but nothing needs to be told: the graph carries a
version and a change journal (:mod:`repro.graph.hetero`), and every
holder — the sampler's per-cutoff degrees, the link trainer's
item-embedding memo, yellow's per-cutoff feature blocks, green's
popularity memos —
reconciles itself against it before it answers, keeping exactly what
the change cannot have altered.  :func:`refresh_model` has a fitted
model's holders do that *now*, inside the caller's barrier instead of
on the first request after it, and reports what they dropped; leaving
it out costs that request the reconcile, never a wrong answer.  The
router's latency EMAs are *kept*: machine speed did not change.

:class:`RefreshPolicy` decides *when* to do that work: immediately
for big deltas (touched-entity fraction over a threshold), otherwise
deferred until the event-time watermark has advanced past a
staleness budget — the knob that trades refresh cost against serving
models a bounded distance behind the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.ingest.delta import DeltaReport
from repro.obs import get_logger, get_registry

__all__ = ["RefreshPolicy", "refresh_model"]

_log = get_logger("ingest.refresh")

_COUNTERS = (
    # Always 0; kept for their reader benchmarks/e2e/layers.py until the re-baseline PR.
    "cache_retained", "cache_invalidated",
    "item_memo_dropped", "yellow_blocks_dropped", "popularity_dropped",
)


def _merge_touched(
    into: Dict[str, np.ndarray], new: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    for name, ids in new.items():
        have = into.get(name)
        into[name] = ids if have is None else np.unique(np.concatenate([have, ids]))
    return into


@dataclass
class RefreshPolicy:
    """When to propagate accumulated deltas to serving models.

    ``max_staleness`` bounds how far (in event time, seconds) the
    served graph may lag the committed watermark; ``touched_threshold``
    forces an immediate refresh when any node type had that fraction
    of its pre-delta nodes touched (a big delta invalidates so much
    that deferring buys nothing).
    """

    max_staleness: int = 3600
    touched_threshold: float = 0.01

    def __post_init__(self) -> None:
        self._pending: Optional[DeltaReport] = None
        self._refreshed_watermark: Optional[int] = None

    @property
    def pending(self) -> Optional[DeltaReport]:
        """The merged not-yet-refreshed delta, if any."""
        return self._pending

    def observe(self, report: DeltaReport) -> None:
        """Fold one applied delta into the pending accumulator."""
        if report.num_events == 0:
            return
        if self._pending is None:
            merged = DeltaReport(
                touched=dict(report.touched),
                min_event_time=report.min_event_time,
                watermark=report.watermark,
                num_events=report.num_events,
                new_nodes=dict(report.new_nodes),
                new_edges=report.new_edges,
                touched_fraction=report.touched_fraction,
            )
            self._pending = merged
            return
        pending = self._pending
        _merge_touched(pending.touched, report.touched)
        pending.min_event_time = min(pending.min_event_time, report.min_event_time)
        pending.watermark = report.watermark
        pending.num_events += report.num_events
        for name, count in report.new_nodes.items():
            pending.new_nodes[name] = pending.new_nodes.get(name, 0) + count
        pending.new_edges += report.new_edges
        pending.touched_fraction = max(pending.touched_fraction, report.touched_fraction)

    def staleness(self) -> int:
        """Event-time lag between pending watermark and last refresh."""
        if self._pending is None or self._pending.watermark is None:
            return 0
        if self._refreshed_watermark is None:
            return self.max_staleness + 1  # never refreshed: anything pending is due
        return int(self._pending.watermark) - int(self._refreshed_watermark)

    def due(self) -> bool:
        """Whether the pending delta should be propagated now."""
        if self._pending is None:
            return False
        if self._pending.touched_fraction >= self.touched_threshold:
            return True
        return self.staleness() >= self.max_staleness

    def drain(self) -> Optional[DeltaReport]:
        """Take the pending delta (marking its watermark refreshed)."""
        report, self._pending = self._pending, None
        if report is not None:
            self._refreshed_watermark = report.watermark
        return report


def refresh_model(model, report: Optional[DeltaReport] = None) -> Dict[str, int]:
    """Reconcile a fitted model's memoized state with its graph, now.

    ``model`` is a :class:`~repro.pql.planner.PredictiveModel` whose
    ``graph``/``db`` are the live objects ingest grows.  What changed
    is read from the graph's own journal, so ``report`` (accepted for
    callers that have one) cannot under-invalidate.  Returns what this
    call dropped or kept (also exported under ``ingest.refresh.*``).
    """
    stats = dict.fromkeys(_COUNTERS, 0)
    # The sampler's memo reconciles in its own ``get`` and counts nothing.
    for holder in (model.link_trainer, model.green, model.yellow):
        if holder is not None:
            for name, count in holder.reconcile().items():
                stats[name] += count
    registry = get_registry()
    for name, value in stats.items():
        if value:
            registry.counter(f"ingest.refresh.{name}").inc(value)
    _log.info("refreshed model after delta", extra=dict(stats))
    return stats

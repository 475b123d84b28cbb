"""Staleness-aware refresh: propagate a delta to models, selectively.

After a delta lands, everything downstream that memoized graph-derived
state is *potentially* stale — but only the pieces whose inputs the
delta actually touched are *actually* stale.  :func:`refresh_model`
walks a fitted model (plain or routed) and invalidates exactly those:

* subgraph-cache entries — retained unless they contain a touched
  entity at a context time that admits the new rows
  (:meth:`~repro.graph.cache.CachedSampler.apply_delta`);
* the link trainer's item-embedding memo — dropped only if the item
  type was touched;
* the yellow tier's per-cutoff feature blocks and green's popularity
  memos — dropped only for cutoffs at/after the earliest new event.
  These are the tiers of the model's ladder
  (:meth:`~repro.pql.planner.TrainedPredictiveModel.ladder`): a routed
  model's own, a degraded fit's ``baseline``, and the green tier a
  serving process degrades an unrouted model onto.

The router's latency EMAs are *kept*: machine speed did not change.

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

from repro.graph.hetero import TIME_MIN
from repro.ingest.delta import DeltaReport
from repro.obs import get_logger, get_registry

__all__ = ["RefreshPolicy", "refresh_model"]

_log = get_logger("ingest.refresh")


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


def refresh_model(model, report: DeltaReport) -> Dict[str, int]:
    """Selectively invalidate a fitted model's memoized state.

    ``model`` is a ``TrainedPredictiveModel`` or
    ``RoutedPredictiveModel`` whose ``graph``/``db`` are the live
    objects the delta mutated.  Returns invalidation counters (also
    exported under ``ingest.refresh.*``).
    """
    red = getattr(model, "red", model)
    stats = {
        "cache_retained": 0,
        "cache_invalidated": 0,
        "item_memo_dropped": 0,
        "yellow_blocks_dropped": 0,
        "popularity_dropped": 0,
    }
    for trainer in (red.node_trainer, red.link_trainer):
        if trainer is None:
            continue
        sampler = trainer.sampler
        if hasattr(sampler, "apply_delta"):
            out = sampler.apply_delta(report.touched, report.min_event_time)
            stats["cache_retained"] += out["retained"]
            stats["cache_invalidated"] += out["invalidated"]
        if hasattr(trainer, "_item_embed_cache"):
            item_type = trainer.model.item_type
            touched_items = report.touched.get(item_type)
            if touched_items is not None and len(touched_items):
                if trainer._item_embed_cache is not None:
                    stats["item_memo_dropped"] += 1
                trainer._item_embed_cache = None
            trainer._num_items = trainer.graph.num_nodes(item_type)

    min_time = report.min_event_time
    ladder = model.ladder()
    memo = ladder.green._popularity
    stale = [c for c in memo if min_time == TIME_MIN or c >= min_time]
    for cutoff in stale:
        del memo[cutoff]
    stats["popularity_dropped"] += len(stale)
    yellow = ladder.yellow
    if yellow is not None and yellow._builder is not None:
        if report.new_nodes.get(yellow.entity_table):
            # New entity rows: the builder's key→slot mapping is stale,
            # so rebind wholesale (drops every block).
            stats["yellow_blocks_dropped"] += len(yellow._blocks)
            yellow.bind(red.db, red.graph)
        else:
            stale = [
                c for c in yellow._blocks if min_time == TIME_MIN or c >= min_time
            ]
            for cutoff in stale:
                del yellow._blocks[cutoff]
            stats["yellow_blocks_dropped"] += len(stale)
    registry = get_registry()
    for name, value in stats.items():
        if value:
            registry.counter(f"ingest.refresh.{name}").inc(value)
    _log.info("refreshed model after delta", extra=dict(stats))
    return stats

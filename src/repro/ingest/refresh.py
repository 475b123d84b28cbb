"""Refresh: reconcile a model's memos with the stream, now.

Everything downstream of a delta that memoized graph-derived state is
*potentially* stale, but nothing needs to be told: the graph carries a
version and a change journal (:mod:`repro.graph.hetero`), and every
holder — the sampler's per-cutoff degrees, the link trainer's
item-embedding memo and yellow's per-cutoff feature blocks —
reconciles itself against it before it answers, keeping exactly what
the change cannot have altered.  :func:`refresh_model` has a fitted
model's holders do that *now*, inside the caller's barrier instead of
on the first request after it, and reports what they dropped; leaving
it out costs that request the reconcile, never a wrong answer.  The
router's latency EMAs are *kept*: machine speed did not change.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ingest.delta import DeltaReport
from repro.obs import get_logger, get_registry

__all__ = ["refresh_model"]

_log = get_logger("ingest.refresh")

_COUNTERS = (
    # Always 0; kept for their reader benchmarks/e2e/layers.py until the re-baseline PR.
    "cache_retained", "cache_invalidated",
    "item_memo_dropped", "yellow_blocks_dropped",
)


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
    for holder in (model.link_trainer, model.yellow):
        if holder is not None:
            for name, count in holder.reconcile().items():
                stats[name] += count
    registry = get_registry()
    for name, value in stats.items():
        if value:
            registry.counter(f"ingest.refresh.{name}").inc(value)
    _log.info("refreshed model after delta", extra=dict(stats))
    return stats

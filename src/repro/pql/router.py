"""Cost-based tiered execution for predictive queries.

The planner's declarative promise — *you say what to predict, the
system picks how* — is only half-kept if every query pays for the full
GNN sample-and-infer pipeline.  This module adds the other half: a
router that, per prediction request, estimates the cost and quality of
three candidate plans and executes the cheapest one that clears a
configurable quality floor:

* **GREEN** — the :class:`~repro.serve.fallback.ActivityHeuristic`
  activity count under a linear/logistic calibration fitted on the
  training labels.  Microseconds per row (binary searches over the
  CSR), no features, no model.
* **YELLOW** — the from-scratch GBDT over auto-extracted relational
  features (:mod:`repro.baselines.trees` + ``features``), with the
  green activity signal stacked in as an extra column so the mid-tier
  is genuinely competitive.
* **RED** — the full GNN.  When the hybrid is enabled, red's binary
  output is a validation-tuned logit blend of the GNN margin
  (:meth:`~repro.gnn.trainer.NodeTaskTrainer.export_scores`) with the
  yellow score — the GBDT→GNN score stacking of "Boosting Relational
  Deep Learning with Pretrained Tabular Models".

Costs come from cheap statistics: per-tier per-row costs calibrated
at fit time (and refined online by an EMA of realized latencies),
the seed fan-out expected from the graph's CSR degree arrays, the
subgraph-cache hit likelihood read non-destructively from
:meth:`LRUSubgraphCache.snapshot`, and the model's warm/cold state.
Quality comes from per-tier validation scores recorded at fit time.
Every routed call runs under a ``router.predict`` span carrying the
chosen tier plus estimated and realized cost, so ``--profile``
(EXPLAIN ANALYZE) reports the route next to the stage tree, and the
decision is exposed to the serving layer via :attr:`last_route`.

Routing changes *which* plan runs, never what a plan computes: a
forced route (``route="red"``) is bit-identical to the auto router
choosing red, because both execute the same tier predictor.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.baselines.features import FeatureBuilder
from repro.baselines.linear import LinearRegression, LogisticRegression
from repro.baselines.trees import GradientBoostingClassifier, GradientBoostingRegressor
from repro.eval.metrics import auroc, mae
from repro.eval.splits import TemporalSplit
from repro.obs import get_logger, get_registry
from repro.obs import trace as obs_trace
from repro.pql.ast import PredictiveQuery, TaskType
from repro.pql.labeler import LabelTable, build_label_table
from repro.pql.planner import (
    PredictiveQueryPlanner,
    TrainedPredictiveModel,
)
from repro.resilience.checkpoint import atomic_write_bytes, atomic_write_json, sha256_file

__all__ = [
    "GREEN",
    "YELLOW",
    "RED",
    "TIERS",
    "RouterConfig",
    "TierEstimate",
    "RouteDecision",
    "CostModel",
    "GreenTier",
    "YellowTier",
    "RoutedPredictiveModel",
    "fit_routed",
    "estimate_fanout_work",
    "is_routed_dir",
]

_log = get_logger("pql.router")

GREEN = "green"
YELLOW = "yellow"
RED = "red"
TIERS = (GREEN, YELLOW, RED)

#: Fraction of red's per-row cost attributed to sampling (the part a
#: subgraph-cache hit skips): sampling dominates the no-grad path.
_RED_SAMPLING_FRACTION = 0.8
#: Extra rows' worth of red cost charged while the model is cold
#: (first call pays allocator warmup, lazy memos, branch-predictor
#: cold paths).
_COLD_SURCHARGE_ROWS = 8.0
#: EMA weight for realized per-row costs observed after fit.
_COST_EMA = 0.5
#: Rows of evidence at which an online observation carries half the
#: full EMA weight; small batches barely move a calibrated estimate.
_EMA_EVIDENCE_ROWS = 16


@dataclass
class RouterConfig:
    """Routing policy knobs (CLI: ``--route`` / ``--quality-floor``).

    ``route``
        ``"auto"`` picks per request; a tier name forces every request
        through that tier (useful for A/B checks and the bit-identity
        acceptance gate).
    ``quality_floor``
        A tier is eligible when its fit-time validation quality is at
        least ``quality_floor``  × the best tier's quality.  1.0 routes
        on cost only among quality-maximal tiers; 0.0 always picks the
        cheapest tier.
    ``hybrid``
        Stack the green activity signal into yellow's features and
        blend red's binary output with yellow in logit space (blend
        weight tuned on validation).
    ``max_calibration_rows``
        Cap on the validation rows used for per-tier quality scoring
        and cost timing at fit time.
    """

    route: str = "auto"
    quality_floor: float = 0.98
    hybrid: bool = True
    max_calibration_rows: int = 512

    def __post_init__(self) -> None:
        if self.route not in ("auto",) + TIERS:
            raise ValueError(f"route must be auto|green|yellow|red, got {self.route!r}")
        if not 0.0 <= self.quality_floor <= 1.0:
            raise ValueError(f"quality_floor must be in [0, 1], got {self.quality_floor}")


@dataclass
class TierEstimate:
    """One candidate plan, as the router saw it at decision time."""

    tier: str
    quality: float
    est_cost_ms: float
    eligible: bool
    reason: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record for EXPLAIN ANALYZE / serve responses."""
        return {
            "tier": self.tier,
            "quality": round(float(self.quality), 6),
            "est_cost_ms": round(float(self.est_cost_ms), 4),
            "eligible": bool(self.eligible),
            "reason": self.reason,
        }


@dataclass
class RouteDecision:
    """The route taken for one request, with its cost accounting."""

    tier: str
    rows: int
    est_cost_ms: float
    forced: bool
    reason: str
    estimates: List[TierEstimate] = field(default_factory=list)
    realized_cost_ms: float = float("nan")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record for EXPLAIN ANALYZE / serve responses."""
        return {
            "tier": self.tier,
            "rows": self.rows,
            "est_cost_ms": round(float(self.est_cost_ms), 4),
            "realized_cost_ms": round(float(self.realized_cost_ms), 4),
            "forced": self.forced,
            "reason": self.reason,
            "estimates": [e.to_dict() for e in self.estimates],
        }


def estimate_fanout_work(graph, entity_type: str, fanouts) -> float:
    """Expected sampled nodes per seed, from the CSR degree arrays.

    A cheap static statistic: hop 1 branches by the seed type's
    capped mean in-degree; deeper hops use the graph-wide mean
    branching factor (the frontier's type mix is unknown without
    sampling, which is exactly what we are avoiding).
    """

    def branching(node_type: str, fanout: int) -> float:
        total = 0.0
        for edge_type in graph.edge_types_into(node_type):
            store = graph._edges[edge_type]
            mean_deg = float(store.indptr[-1]) / max(1, graph.num_nodes(node_type))
            total += min(float(fanout), mean_deg)
        return total

    work, frontier = 1.0, 1.0
    fanouts = list(fanouts)
    for hop, fanout in enumerate(fanouts):
        if hop == 0:
            b = branching(entity_type, fanout)
        else:
            per_type = [branching(t, fanout) for t in graph.node_types]
            b = float(np.mean(per_type)) if per_type else 0.0
        frontier *= max(b, 1.0)
        work += frontier
    return work


class CostModel:
    """Per-tier cost estimator, seeded at fit time and refined online.

    Estimated cost is ``overhead_ms + per_row_ms * rows``: the
    calibrated fixed cost of dispatching one call into the tier plus
    the calibrated marginal cost of each prediction row (both measured
    during fit-time validation scoring).  Every routed call feeds its
    realized latency back through a rows-weighted, clamped EMA so
    estimates track the current machine — a single cold outlier (e.g.
    yellow's first call building its feature block) nudges the
    estimate instead of poisoning it, which matters because the router
    stops sending traffic to a tier it believes is expensive and an
    unvisited tier's estimate never self-corrects.  Red's estimate is
    additionally shaped by the subgraph-cache hit likelihood (hits
    skip the sampling fraction of the marginal work) and a cold-start
    surcharge.
    """

    def __init__(
        self,
        per_row_ms: Dict[str, float],
        fanout_work: float = 1.0,
        overhead_ms: Optional[Dict[str, float]] = None,
    ) -> None:
        self._per_row_ms = {t: float(c) for t, c in per_row_ms.items()}
        self._overhead_ms = {t: float(c) for t, c in (overhead_ms or {}).items()}
        self.fanout_work = float(fanout_work)
        self._lock = threading.Lock()

    def per_row_ms(self) -> Dict[str, float]:
        """Current per-tier marginal cost estimates (ms per row)."""
        with self._lock:
            return dict(self._per_row_ms)

    def overhead_ms(self) -> Dict[str, float]:
        """Per-tier fixed call overheads (ms), calibrated at fit time."""
        with self._lock:
            return dict(self._overhead_ms)

    def estimate(
        self, tier: str, rows: int, cache_hit_rate: float = 0.0, warm: bool = True
    ) -> float:
        """Estimated cost in milliseconds for ``rows`` predictions."""
        with self._lock:
            per_row = self._per_row_ms.get(tier, 1.0)
            overhead = self._overhead_ms.get(tier, 0.0)
        marginal = per_row * max(int(rows), 1)
        if tier == RED:
            marginal *= 1.0 - _RED_SAMPLING_FRACTION * float(np.clip(cache_hit_rate, 0.0, 1.0))
            if not warm:
                marginal += per_row * _COLD_SURCHARGE_ROWS
        return overhead + marginal

    def observe(self, tier: str, rows: int, elapsed_ms: float) -> None:
        """Fold one realized latency into the tier's per-row EMA.

        The observation is the marginal cost implied by this call
        (elapsed minus the tier's fixed overhead, per row), weighted by
        how many rows backed it — a 1-row call barely moves a per-row
        estimate calibrated on hundreds — and clamped to at most a 2x
        move per update in either direction.
        """
        if rows <= 0 or not np.isfinite(elapsed_ms):
            return
        with self._lock:
            overhead = self._overhead_ms.get(tier, 0.0)
            realized = max(float(elapsed_ms) - overhead, 0.0) / rows
            prior = self._per_row_ms.get(tier)
            if prior is None:
                self._per_row_ms[tier] = realized
                return
            alpha = _COST_EMA * rows / (rows + _EMA_EVIDENCE_ROWS)
            updated = (1 - alpha) * prior + alpha * realized
            self._per_row_ms[tier] = float(np.clip(updated, prior * 0.5, prior * 2.0))


class GreenTier:
    """Linear/logistic calibration over the time-valid activity count.

    Picklable: holds fitted coefficients and names only; the graph is
    re-attached with :meth:`bind` after load (mirroring how fallback
    models take the database back at predict time).
    """

    kind = GREEN

    def __init__(self, entity_table: str, task: str, item_table: str = "") -> None:
        self.entity_table = entity_table
        self.task = task  # "binary" | "regression" | "link"
        self.item_table = item_table  # set for LIST queries (popularity ranking)
        self.calibrator = None  # LogisticRegression | LinearRegression | None
        self.constant: float = 0.0
        self._heuristic = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_heuristic"] = None
        return state

    def bind(self, graph) -> "GreenTier":
        """Attach the activity heuristic for ``graph`` (not pickled)."""
        from repro.serve.fallback import ActivityHeuristic  # lazy: avoids a pql↔serve import cycle

        self._heuristic = ActivityHeuristic(graph, self.entity_table, item_type=self.item_table)
        return self

    def activity(self, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        """Raw time-valid fact counts (the shared green/yellow signal)."""
        if self._heuristic is None:
            raise RuntimeError("GreenTier is unbound; call bind(graph) first")
        return self._heuristic.predict(entity_keys, cutoffs, task="regression")

    def fit(self, entity_keys: np.ndarray, cutoffs: np.ndarray, labels: np.ndarray) -> "GreenTier":
        """Calibrate log-activity against the labels (linear/logistic)."""
        x = np.log1p(self.activity(entity_keys, cutoffs))[:, None]
        y = np.asarray(labels, dtype=np.float64)
        if self.task == "binary":
            if 0.0 < y.mean() < 1.0:
                self.calibrator = LogisticRegression().fit(x, y)
            else:  # degenerate training window: fall back to the base rate
                self.calibrator = None
                self.constant = float(y.mean()) if len(y) else 0.0
        else:
            self.calibrator = LinearRegression().fit(x, y)
        return self

    def predict(self, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        """Calibrated scores from activity alone (the cheapest plan)."""
        x = np.log1p(self.activity(entity_keys, cutoffs))[:, None]
        if self.calibrator is None:
            return np.full(len(x), self.constant, dtype=np.float64)
        if self.task == "binary":
            return np.asarray(self.calibrator.predict_proba(x), dtype=np.float64)
        return np.asarray(self.calibrator.predict(x), dtype=np.float64)


class YellowTier:
    """GBDT over auto-extracted features, green signal stacked in.

    Feature blocks are built once per distinct cutoff and memoized
    (serving traffic clusters on few cutoffs), so a warm yellow call is
    a row gather plus tree traversal — orders of magnitude under the
    GNN's sample-and-infer.  Picklable: :meth:`bind` re-attaches the
    database, feature builder, and green tier after load.
    """

    kind = YELLOW
    #: Bound on memoized per-cutoff feature blocks.
    MAX_BLOCKS = 8

    def __init__(self, entity_table: str, task: str, hybrid: bool) -> None:
        self.entity_table = entity_table
        self.task = task
        self.hybrid = hybrid
        self.estimator = None
        self._db = None
        self._green: Optional[GreenTier] = None
        self._builder: Optional[FeatureBuilder] = None
        self._blocks: Dict[int, np.ndarray] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_db"] = None
        state["_green"] = None
        state["_builder"] = None
        state["_blocks"] = {}
        return state

    def bind(self, db, green: Optional[GreenTier]) -> "YellowTier":
        """Attach the database, green tier, and feature builder (not pickled)."""
        self._db = db
        self._green = green
        self._builder = FeatureBuilder(db, self.entity_table, include_two_hop=False)
        self._blocks = {}
        return self

    def _block(self, cutoff: int) -> np.ndarray:
        cached = self._blocks.get(cutoff)
        if cached is None:
            if len(self._blocks) >= self.MAX_BLOCKS:
                self._blocks.clear()
            cached = self._builder._build_at_cutoff(int(cutoff))
            self._blocks[cutoff] = cached
        return cached

    def features(self, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        """Auto-extracted features (+ stacked green activity) per row."""
        if self._builder is None:
            raise RuntimeError("YellowTier is unbound; call bind(db, green) first")
        entity_keys = np.asarray(entity_keys)
        cutoffs = np.asarray(cutoffs, dtype=np.int64)
        out = np.full((len(entity_keys), self._builder.num_features), np.nan)
        slots = np.fromiter(
            (self._builder._key_to_slot[key] for key in entity_keys.tolist()),
            dtype=np.int64,
            count=len(entity_keys),
        )
        for cutoff in np.unique(cutoffs):
            rows = np.flatnonzero(cutoffs == cutoff)
            out[rows] = self._block(int(cutoff))[slots[rows]]
        if self.hybrid and self._green is not None:
            stacked = np.log1p(self._green.activity(entity_keys, cutoffs))[:, None]
            out = np.hstack([out, stacked])
        return out

    def fit(
        self,
        train_keys: np.ndarray,
        train_cutoffs: np.ndarray,
        train_labels: np.ndarray,
        val_keys: np.ndarray,
        val_cutoffs: np.ndarray,
        val_labels: np.ndarray,
    ) -> "YellowTier":
        """Fit the GBDT on auto features with validation early stopping."""
        x_train = self.features(train_keys, train_cutoffs)
        eval_set = None
        if len(val_keys):
            eval_set = (self.features(val_keys, val_cutoffs), val_labels)
        if self.task == "binary":
            self.estimator = GradientBoostingClassifier(
                num_rounds=100, learning_rate=0.1, max_depth=4
            )
        else:
            self.estimator = GradientBoostingRegressor(
                num_rounds=100, learning_rate=0.1, max_depth=4
            )
        self.estimator.fit(x_train, train_labels, eval_set=eval_set)
        return self

    def predict(self, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        """GBDT scores on the auto-extracted feature rows."""
        features = self.features(entity_keys, cutoffs)
        if self.task == "binary":
            return np.asarray(self.estimator.predict_proba(features), dtype=np.float64)
        return np.asarray(self.estimator.predict(features), dtype=np.float64)


def _quality(task: str, labels: np.ndarray, predictions: np.ndarray) -> float:
    """One comparable quality number per tier.

    Binary → AUROC; regression → ``1 / (1 + MAE/σ)`` (unit-free, in
    (0, 1], higher is better) so the floor semantics match across task
    types.  Degenerate validation sets score 0.5 — the router then
    treats every tier as interchangeable and picks on cost alone,
    which is the only defensible call without a usable signal.
    """
    labels = np.asarray(labels, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    if len(labels) == 0:
        return 0.5
    if task == "binary":
        score = auroc(labels, predictions)
        return float(score) if np.isfinite(score) else 0.5
    scale = float(labels.std())
    if not np.isfinite(scale) or scale <= 0:
        return 0.5
    return float(1.0 / (1.0 + mae(labels, predictions) / scale))


def _logit(p: np.ndarray) -> np.ndarray:
    clipped = np.clip(p, 1e-7, 1 - 1e-7)
    return np.log(clipped / (1 - clipped))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


class RoutedPredictiveModel:
    """A fitted predictive query with tiered execution.

    Wraps the planner's :class:`TrainedPredictiveModel` (red) plus the
    cheaper tiers fitted against the same labels, the per-tier
    validation qualities, and the calibrated :class:`CostModel`.  The
    surface mirrors ``TrainedPredictiveModel`` (``predict``,
    ``rank_items``, ``evaluate``, ``save``/``load``, ``binding``,
    ``graph``, ...) so the serving stack and CLI treat both
    interchangeably; ``predict``/``rank_items`` additionally accept
    ``route=`` to force a tier for one call.
    """

    ROUTING_FILE = "routing.json"
    TIERS_FILE = "tiers.pkl"
    RED_DIR = "red"

    def __init__(
        self,
        red: TrainedPredictiveModel,
        green: Optional[GreenTier],
        yellow: Optional[YellowTier],
        quality: Dict[str, float],
        cost: CostModel,
        router: RouterConfig,
        blend_alpha: float = 1.0,
    ) -> None:
        self.red = red
        self.green = green
        self.yellow = yellow
        self.quality = dict(quality)
        self.cost = cost
        self.router = router
        #: Logit-blend weight on the GNN margin for red's binary output
        #: (1.0 = pure GNN; tuned on validation when hybrid is on).
        self.blend_alpha = float(blend_alpha)
        #: Decision record of the most recent routed call.
        self.last_route: Optional[RouteDecision] = None
        self._red_calls = 0
        self._lock = threading.Lock()

    # -- TrainedPredictiveModel surface --------------------------------
    @property
    def db(self):
        return self.red.db

    @property
    def binding(self):
        return self.red.binding

    @property
    def graph(self):
        return self.red.graph

    @property
    def config(self):
        return self.red.config

    @property
    def task_type(self) -> TaskType:
        return self.red.task_type

    @property
    def degraded_from(self):
        return self.red.degraded_from

    @property
    def degraded_reason(self):
        return self.red.degraded_reason

    @property
    def baseline(self):
        return self.red.baseline

    @property
    def node_trainer(self):
        return self.red.node_trainer

    @property
    def link_trainer(self):
        return self.red.link_trainer

    def sampler_cache_stats(self):
        """Windowed subgraph-cache stats of the red model (may be reset)."""
        return self.red.sampler_cache_stats()

    def sampler_cache_snapshot(self):
        """Monotonic lifetime subgraph-cache counters (non-destructive)."""
        return self.red.sampler_cache_snapshot()

    # -- routing -------------------------------------------------------
    def available_tiers(self) -> List[str]:
        """Fitted tiers, cheapest first; red is always present."""
        tiers = []
        if self.green is not None:
            tiers.append(GREEN)
        if self.yellow is not None:
            tiers.append(YELLOW)
        tiers.append(RED)
        return tiers

    def _cache_hit_rate(self) -> float:
        snapshot = self.red.sampler_cache_snapshot()
        if not snapshot:
            return 0.0
        total = snapshot["hits"] + snapshot["misses"]
        return snapshot["hits"] / total if total else 0.0

    def decide(self, rows: int, route: Optional[str] = None) -> RouteDecision:
        """Pick the tier for a request of ``rows`` predictions.

        ``route`` (or ``RouterConfig.route``) other than ``"auto"``
        forces the tier; estimates are still computed so forced runs
        report the same cost accounting as auto runs.
        """
        forced = route if route is not None else self.router.route
        if forced not in ("auto",) + TIERS:
            raise ValueError(f"route must be auto|green|yellow|red, got {forced!r}")
        available = self.available_tiers()
        with self._lock:
            warm = self._red_calls > 0
        hit_rate = self._cache_hit_rate()
        best = max(self.quality.get(t, 0.0) for t in available)
        floor = self.router.quality_floor * best
        estimates = []
        for tier in TIERS:
            if tier not in available:
                estimates.append(TierEstimate(tier, 0.0, float("inf"), False, "unavailable"))
                continue
            q = self.quality.get(tier, 0.0)
            est = self.cost.estimate(tier, rows, cache_hit_rate=hit_rate, warm=warm)
            eligible = q >= floor
            estimates.append(
                TierEstimate(tier, q, est, eligible, "" if eligible else "below quality floor")
            )
        if forced != "auto":
            if forced not in available:
                raise ValueError(f"route {forced!r} unavailable; tiers: {available}")
            chosen, reason = forced, "forced"
        else:
            eligible = [e for e in estimates if e.eligible]
            pick = min(eligible, key=lambda e: e.est_cost_ms)
            chosen = pick.tier
            reason = (
                f"cheapest of {len(eligible)} tiers with quality >= "
                f"{floor:.4f} ({self.router.quality_floor:.2f} x best {best:.4f})"
            )
        return RouteDecision(
            tier=chosen,
            rows=int(rows),
            est_cost_ms=next(e.est_cost_ms for e in estimates if e.tier == chosen),
            forced=forced != "auto",
            reason=reason,
            estimates=estimates,
        )

    def _tier_predict(self, tier: str, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        if tier == GREEN:
            return self.green.predict(entity_keys, cutoffs)
        if tier == YELLOW:
            return self.yellow.predict(entity_keys, cutoffs)
        return self._red_predict(entity_keys, cutoffs)

    def _red_predict(self, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        blend = (
            self.router.hybrid
            and self.blend_alpha < 1.0
            and self.yellow is not None
            and self.red.node_trainer is not None
        )
        if not blend:
            return self.red.predict(entity_keys, cutoffs)
        from repro.graph.builder import node_index_for_keys

        entity_type = self.binding.query.entity_table
        ids = node_index_for_keys(self.graph, entity_type, np.asarray(entity_keys))
        if self.task_type == TaskType.BINARY:
            gnn_logits = self.red.node_trainer.export_scores(entity_type, ids, cutoffs)
            yellow_logits = _logit(self.yellow.predict(entity_keys, cutoffs))
            return _sigmoid(self.blend_alpha * gnn_logits + (1 - self.blend_alpha) * yellow_logits)
        gnn = self.red.predict(entity_keys, cutoffs)
        return self.blend_alpha * gnn + (1 - self.blend_alpha) * self.yellow.predict(
            entity_keys, cutoffs
        )

    def predict(self, entity_keys: np.ndarray, cutoff, route: Optional[str] = None) -> np.ndarray:
        """Routed predictions (node tasks); see :meth:`decide`."""
        if self.task_type == TaskType.LINK:
            raise RuntimeError("predict() is for node tasks; use rank_items() for LIST queries")
        entity_keys = np.asarray(entity_keys)
        cutoffs = TrainedPredictiveModel._resolve_cutoffs(cutoff, len(entity_keys))
        decision = self.decide(len(entity_keys), route)
        with obs_trace.span("router.predict") as route_span:
            route_span.add_counter(f"router.route.{decision.tier}")
            route_span.add_counter("router.rows", len(entity_keys))
            route_span.add_counter("router.est_cost_us", int(decision.est_cost_ms * 1000))
            start = time.perf_counter()
            out = self._tier_predict(decision.tier, entity_keys, cutoffs)
            decision.realized_cost_ms = (time.perf_counter() - start) * 1000.0
            route_span.add_counter(
                "router.realized_cost_us", int(decision.realized_cost_ms * 1000)
            )
        self._account(decision)
        return out

    def rank_items(
        self, entity_keys: np.ndarray, cutoff, k: int = 10, route: Optional[str] = None
    ):
        """Routed top-``k`` rankings (link tasks); green = popularity."""
        if self.task_type != TaskType.LINK:
            raise RuntimeError("rank_items() is only available for LIST queries")
        entity_keys = np.asarray(entity_keys)
        cutoffs = TrainedPredictiveModel._resolve_cutoffs(cutoff, len(entity_keys))
        decision = self.decide(len(entity_keys), route)
        with obs_trace.span("router.rank") as route_span:
            route_span.add_counter(f"router.route.{decision.tier}")
            route_span.add_counter("router.rows", len(entity_keys))
            route_span.add_counter("router.est_cost_us", int(decision.est_cost_ms * 1000))
            start = time.perf_counter()
            if decision.tier == GREEN:
                out = self.green._heuristic.rank(entity_keys, cutoffs, k)
            else:
                out = self.red.rank_items(entity_keys, cutoffs, k)
            decision.realized_cost_ms = (time.perf_counter() - start) * 1000.0
            route_span.add_counter(
                "router.realized_cost_us", int(decision.realized_cost_ms * 1000)
            )
        self._account(decision)
        return out

    def _account(self, decision: RouteDecision) -> None:
        get_registry().counter(f"router.route.{decision.tier}").inc()
        self.cost.observe(decision.tier, decision.rows, decision.realized_cost_ms)
        with self._lock:
            if decision.tier == RED:
                self._red_calls += 1
            self.last_route = decision

    # -- evaluation ----------------------------------------------------
    def evaluate(self, cutoff: int, k: int = 10, route: Optional[str] = None) -> Dict[str, float]:
        """Metrics at ``cutoff`` with routed (or forced) predictions."""
        if self.task_type == TaskType.LINK:
            return self.red.evaluate(cutoff, k)
        labels = build_label_table(self.db, self.binding, [int(cutoff)])
        predictions = self.predict(labels.entity_keys, int(cutoff), route=route)
        from repro.eval.metrics import (
            accuracy,
            average_precision,
            brier_score,
            expected_calibration_error,
            f1_score,
            r2_score,
            rmse,
        )

        if self.task_type == TaskType.BINARY:
            return {
                "auroc": auroc(labels.labels, predictions),
                "average_precision": average_precision(labels.labels, predictions),
                "accuracy": accuracy(labels.labels, (predictions > 0.5).astype(float)),
                "f1": f1_score(labels.labels, (predictions > 0.5).astype(float)),
                "brier": brier_score(labels.labels, predictions),
                "ece": expected_calibration_error(labels.labels, predictions),
                "num_examples": float(len(labels)),
                "positive_rate": labels.positive_rate,
            }
        return {
            "mae": mae(labels.labels, predictions),
            "rmse": rmse(labels.labels, predictions),
            "r2": r2_score(labels.labels, predictions),
            "num_examples": float(len(labels)),
        }

    # -- persistence ---------------------------------------------------
    def save(self, directory: str) -> None:
        """Persist atomically: ``red/`` (the GNN model), ``tiers.pkl``
        (green/yellow, database-free), ``routing.json`` (policy,
        qualities, calibrated costs, checksums)."""
        staging = directory.rstrip(os.sep) + ".tmp"
        if os.path.exists(staging):
            shutil.rmtree(staging)
        os.makedirs(staging)
        self.red.save(os.path.join(staging, self.RED_DIR))
        tiers_path = os.path.join(staging, self.TIERS_FILE)
        atomic_write_bytes(tiers_path, pickle.dumps({"green": self.green, "yellow": self.yellow}))
        manifest = {
            "router": asdict(self.router),
            "quality": {t: float(q) for t, q in self.quality.items()},
            "per_row_ms": self.cost.per_row_ms(),
            "overhead_ms": self.cost.overhead_ms(),
            "fanout_work": self.cost.fanout_work,
            "blend_alpha": self.blend_alpha,
            "tiers_sha256": sha256_file(tiers_path),
        }
        atomic_write_json(os.path.join(staging, self.ROUTING_FILE), manifest)
        backup = directory.rstrip(os.sep) + ".old"
        if os.path.exists(backup):
            shutil.rmtree(backup)
        if os.path.exists(directory):
            os.rename(directory, backup)
        os.rename(staging, directory)
        if os.path.exists(backup):
            shutil.rmtree(backup)

    @classmethod
    def load(cls, directory: str, db) -> "RoutedPredictiveModel":
        """Reload against a database, rebinding the cheap tiers."""
        with open(os.path.join(directory, cls.ROUTING_FILE)) as fh:
            manifest = json.load(fh)
        red = TrainedPredictiveModel.load(os.path.join(directory, cls.RED_DIR), db)
        with open(os.path.join(directory, cls.TIERS_FILE), "rb") as fh:
            tiers = pickle.loads(fh.read())
        green: Optional[GreenTier] = tiers.get("green")
        yellow: Optional[YellowTier] = tiers.get("yellow")
        if green is not None:
            green.bind(red.graph)
        if yellow is not None:
            yellow.bind(db, green)
        router = RouterConfig(**manifest["router"])
        cost = CostModel(
            manifest["per_row_ms"],
            fanout_work=manifest.get("fanout_work", 1.0),
            overhead_ms=manifest.get("overhead_ms"),
        )
        return cls(
            red=red,
            green=green,
            yellow=yellow,
            quality=manifest["quality"],
            cost=cost,
            router=router,
            blend_alpha=manifest.get("blend_alpha", 1.0),
        )


def is_routed_dir(directory: str) -> bool:
    """Whether ``directory`` holds a saved :class:`RoutedPredictiveModel`."""
    return os.path.exists(os.path.join(directory, RoutedPredictiveModel.ROUTING_FILE))


def _cap_labels(labels: LabelTable, cap: int, seed: int) -> LabelTable:
    if cap <= 0 or len(labels) <= cap:
        return labels
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(labels), size=cap, replace=False)
    return labels.subset(np.sort(picks))


def _tune_blend_alpha(
    red: TrainedPredictiveModel,
    yellow: YellowTier,
    val: LabelTable,
    task: str,
) -> float:
    """Grid-search the GBDT→GNN stacking weight on validation."""
    from repro.graph.builder import node_index_for_keys

    entity_type = red.binding.query.entity_table
    ids = node_index_for_keys(red.graph, entity_type, val.entity_keys)
    yellow_pred = yellow.predict(val.entity_keys, val.cutoffs)
    if task == "binary":
        gnn_scores = red.node_trainer.export_scores(entity_type, ids, val.cutoffs)
        yellow_scores = _logit(yellow_pred)

        def blended(alpha: float) -> np.ndarray:
            return _sigmoid(alpha * gnn_scores + (1 - alpha) * yellow_scores)

    else:
        gnn_pred = red.predict(val.entity_keys, val.cutoffs)

        def blended(alpha: float) -> np.ndarray:
            return alpha * gnn_pred + (1 - alpha) * yellow_pred

    # The grid floor keeps red a genuine GNN plan: alpha=0 would turn
    # the red tier into a copy of yellow, rigging any routed-vs-all-GNN
    # comparison.  Yellow is already the pure-GBDT plan.
    best_alpha, best_quality = 1.0, -np.inf
    for alpha in (0.25, 0.5, 0.75, 1.0):
        quality = _quality(task, val.labels, blended(alpha))
        # Strict > keeps the highest alpha on ties, biasing toward the
        # GNN (the paper's model) when the blend is a wash.
        if quality > best_quality:
            best_alpha, best_quality = alpha, quality
    return best_alpha


def _fit_link_tiers(
    red: TrainedPredictiveModel, val: LabelTable, router: RouterConfig, seed: int
) -> Tuple[Optional[GreenTier], Dict[str, float], Dict[str, float]]:
    """Green popularity tier + qualities/costs for LIST queries."""
    entity_table = red.binding.query.entity_table
    green = GreenTier(entity_table, "link", item_table=red.binding.item_table).bind(red.graph)
    keep = [i for i, items in enumerate(val.item_keys or []) if len(items) > 0]
    if not keep:
        return green, {GREEN: 0.5, RED: 0.5}, {GREEN: 0.05, RED: 5.0}
    subset = _cap_labels(val.subset(np.asarray(keep)), min(router.max_calibration_rows, 64), seed)

    def hit_rate(rank_fn) -> Tuple[float, float]:
        start = time.perf_counter()
        ranked = rank_fn(subset.entity_keys, subset.cutoffs, 10)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        hits = 0
        for (item_keys, _), relevant in zip(ranked, subset.item_keys):
            if np.isin(item_keys, np.asarray(relevant)).any():
                hits += 1
        return hits / len(ranked), elapsed_ms / len(ranked)

    green_q, green_ms = hit_rate(lambda k, c, n: green._heuristic.rank(k, c, n))
    red_q, red_ms = hit_rate(lambda k, c, n: red.rank_items(k, c, n))
    quality = {GREEN: green_q, RED: red_q}
    per_row_ms = {GREEN: max(green_ms, 1e-4), RED: max(red_ms, 1e-4)}
    return green, quality, per_row_ms


def fit_routed(
    planner: PredictiveQueryPlanner,
    query: Union[str, PredictiveQuery],
    split: TemporalSplit,
    router: Optional[RouterConfig] = None,
) -> RoutedPredictiveModel:
    """Fit the full tier ladder for one predictive query.

    Red is the planner's normal :meth:`~PredictiveQueryPlanner.fit`
    (plan cache, resilience, degradation ladder all apply); green and
    yellow are fitted against the same label tables; per-tier
    validation quality and per-row cost are measured on a capped
    validation sample and recorded as the router's calibration.
    """
    router = router or RouterConfig()
    red = planner.fit(query, split)
    binding = red.binding
    seed = planner.config.seed
    with obs_trace.span("router.fit") as fit_span:
        if binding.task_type == TaskType.LINK:
            val = build_label_table(planner.db, binding, [split.val_cutoff])
            green, quality, per_row_ms = _fit_link_tiers(red, val, router, seed)
            fanout = estimate_fanout_work(
                red.graph, binding.query.entity_table, planner.config.fanouts or [8] * planner.config.num_layers
            )
            model = RoutedPredictiveModel(
                red=red,
                green=green,
                yellow=None,
                quality=quality,
                cost=CostModel(per_row_ms, fanout_work=fanout),
                router=router,
            )
            fit_span.add_counter("router.tiers", len(model.available_tiers()))
            return model

        task = "binary" if binding.task_type == TaskType.BINARY else "regression"
        entity_table = binding.query.entity_table
        train = planner._maybe_subsample(
            build_label_table(planner.db, binding, split.train_cutoffs)
        )
        val = build_label_table(planner.db, binding, [split.val_cutoff])
        cal = _cap_labels(val, router.max_calibration_rows, seed + 11)

        with obs_trace.span("router.fit_green"):
            green = GreenTier(entity_table, task).bind(red.graph)
            green.fit(train.entity_keys, train.cutoffs, train.labels)
        with obs_trace.span("router.fit_yellow"):
            yellow = YellowTier(entity_table, task, hybrid=router.hybrid).bind(planner.db, green)
            yellow.fit(
                train.entity_keys, train.cutoffs, train.labels,
                val.entity_keys, val.cutoffs, val.labels,
            )

        blend_alpha = 1.0
        if router.hybrid and red.node_trainer is not None and len(cal):
            blend_alpha = _tune_blend_alpha(red, yellow, cal, task)

        model = RoutedPredictiveModel(
            red=red,
            green=green,
            yellow=yellow,
            quality={},
            cost=CostModel({GREEN: 0.01, YELLOW: 0.1, RED: 1.0}),
            router=router,
        )
        model.blend_alpha = blend_alpha

        # Calibrate: score the validation sample through each tier,
        # measuring quality and per-row cost with the same clock the
        # router will use at serve time; then one warm single-row call
        # per tier to split off the fixed dispatch overhead (bulk
        # scoring amortizes it away, small serve batches do not).
        quality: Dict[str, float] = {}
        per_row_ms: Dict[str, float] = {}
        overhead_ms: Dict[str, float] = {}
        with obs_trace.span("router.calibrate") as cal_span:
            for tier in model.available_tiers():
                start = time.perf_counter()
                preds = model._tier_predict(tier, cal.entity_keys, cal.cutoffs)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                quality[tier] = _quality(task, cal.labels, preds)
                per_row_ms[tier] = max(elapsed_ms / max(len(cal), 1), 1e-4)
                start = time.perf_counter()
                model._tier_predict(tier, cal.entity_keys[:1], cal.cutoffs[:1])
                single_ms = (time.perf_counter() - start) * 1000.0
                overhead_ms[tier] = max(single_ms - per_row_ms[tier], 0.0)
                cal_span.add_counter(f"router.quality_bp.{tier}", int(quality[tier] * 10000))
            cal_span.add_counter("router.calibration_rows", len(cal))
        fanout = estimate_fanout_work(
            red.graph, entity_table, planner.config.fanouts or [8] * planner.config.num_layers
        )
        model.quality = quality
        model.cost = CostModel(per_row_ms, fanout_work=fanout, overhead_ms=overhead_ms)
        fit_span.add_counter("router.tiers", len(model.available_tiers()))
        _log.info(
            "router calibrated",
            extra={
                "quality": {t: round(q, 4) for t, q in quality.items()},
                "per_row_ms": {t: round(c, 4) for t, c in per_row_ms.items()},
                "blend_alpha": blend_alpha,
            },
        )
    return model

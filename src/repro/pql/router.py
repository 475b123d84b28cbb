"""Cost-based tiered execution for predictive queries.

The planner's declarative promise — *you say what to predict, the
system picks how* — is only half-kept if every query pays for the full
GNN sample-and-infer pipeline.  This module adds the other half: a
router that, per prediction request, estimates the cost and quality of
three candidate plans and executes the cheapest one that clears a
configurable quality floor:

* **GREEN** — the time-valid activity count (binary searches over the
  graph's time-sorted CSR) under a linear/logistic calibration fitted
  on the training labels.  Microseconds per row, no features, no
  model; LIST queries rank by time-valid item popularity.
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
at fit time and refined online by an EMA of realized latencies, and
the model's warm/cold state.
Quality comes from per-tier validation scores recorded at fit time.
Every routed call runs under a ``router.predict`` span carrying the
chosen tier plus estimated and realized cost, so ``--profile``
(EXPLAIN ANALYZE) reports the route next to the stage tree, and the
decision is exposed to the serving layer via :attr:`last_route`.

Routing changes *which* plan runs, never what a plan computes: a
forced route (``route="red"``) is bit-identical to the auto router
choosing red, because both execute the same tier predictor.

``GREEN < YELLOW < RED`` is also the only degradation ladder: a failed
GNN train stage leaves a model whose ``baseline`` is its YELLOW (else
GREEN) tier, and a serving process whose model path breaks forces its
batches one rung down — a degraded answer is a forced route.
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
from repro.graph.builder import node_index_for_keys
from repro.graph.hetero import CutoffMemo
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
    "ROUTES",
    "check_route",
    "RouterConfig",
    "TierEstimate",
    "RouteDecision",
    "CostModel",
    "GreenTier",
    "YellowTier",
    "RoutedPredictiveModel",
    "fit_routed",
    "is_routed_dir",
    "load_model",
    "model_class",
]

_log = get_logger("pql.router")

GREEN = "green"
YELLOW = "yellow"
RED = "red"
TIERS = (GREEN, YELLOW, RED)
#: What a ``route`` may name: let the cost model choose, or force a tier.
ROUTES = ("auto",) + TIERS


def check_route(route: str) -> str:
    """``route`` if it is one of :data:`ROUTES`, else ``ValueError``."""
    if route not in ROUTES:
        raise ValueError(f"route must be {'|'.join(ROUTES)}, got {route!r}")
    return route

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
        check_route(self.route)
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
    unvisited tier's estimate never self-corrects.  Red's estimate
    additionally carries a cold-start surcharge.
    """

    def __init__(
        self,
        per_row_ms: Dict[str, float],
        overhead_ms: Optional[Dict[str, float]] = None,
    ) -> None:
        self._per_row_ms = {t: float(c) for t, c in per_row_ms.items()}
        self._overhead_ms = {t: float(c) for t, c in (overhead_ms or {}).items()}
        self._lock = threading.Lock()

    def per_row_ms(self) -> Dict[str, float]:
        """Current per-tier marginal cost estimates (ms per row)."""
        with self._lock:
            return dict(self._per_row_ms)

    def overhead_ms(self) -> Dict[str, float]:
        """Per-tier fixed call overheads (ms), calibrated at fit time."""
        with self._lock:
            return dict(self._overhead_ms)

    def estimate(self, tier: str, rows: int, warm: bool = True) -> float:
        """Estimated cost in milliseconds for ``rows`` predictions."""
        with self._lock:
            per_row = self._per_row_ms.get(tier, 1.0)
            overhead = self._overhead_ms.get(tier, 0.0)
        marginal = per_row * max(int(rows), 1)
        if tier == RED and not warm:
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
    """The time-valid activity count, optionally calibrated.

    Answers from the compiled graph's time-sorted CSR alone (one binary
    search per entity and relation).  Unfitted (zero training) it
    scores ``count / (count + 1)`` (binary) or the raw count
    (regression); :meth:`fit` calibrates log-activity (linear/logistic);
    LIST queries rank by item popularity among facts visible at the
    cutoff, fitted or not.  Pickles names and coefficients only: the
    graph is re-attached with :meth:`bind` after load.
    """

    kind = GREEN
    #: What :meth:`bind` attaches; not pickled.
    _BOUND = ("_graph", "_entity_edges", "_item_edges", "_popularity")
    _graph = None

    def __init__(self, entity_table: str, task: str, item_table: str = "") -> None:
        self.entity_table = entity_table
        self.task = task  # "binary" | "regression" | "link"
        self.item_table = item_table  # set for LIST queries (popularity ranking)
        self.calibrator = None  # LogisticRegression | LinearRegression | None
        #: Base rate of a degenerate fit; None until :meth:`fit` needs it
        #: (files that predate the None hold a float — they are all fitted).
        self.constant: Optional[float] = None

    @classmethod
    def for_binding(cls, binding) -> "GreenTier":
        """An unfitted, unbound green tier for a validated query."""
        return cls(binding.query.entity_table, binding.task_type.value, binding.item_table or "")

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in self._BOUND}

    def bind(self, db, graph) -> "GreenTier":
        """Attach the compiled graph (``db`` is unused; see :class:`YellowTier`)."""
        self._graph = graph
        self._entity_edges = graph.edge_types_into(self.entity_table)
        self._item_edges = graph.edge_types_into(self.item_table) if self.item_table else []
        #: Per-cutoff memo of the item-popularity vector (rank path).
        self._popularity = CutoffMemo(graph, sized_by=self.item_table)
        return self

    def reconcile(self) -> Dict[str, int]:
        """Reconcile the popularity memo with the graph now rather than
        on the next rank; returns the ``refresh_model`` counter."""
        return {"popularity_dropped": self._popularity.reconcile()}

    def _counts(self, node_ids: np.ndarray, cutoffs: np.ndarray, edge_types) -> np.ndarray:
        counts = np.zeros(len(node_ids), dtype=np.float64)
        for edge_type in edge_types:
            for i, (node, cutoff) in enumerate(zip(node_ids.tolist(), cutoffs.tolist())):
                counts[i] += self._graph.count_before(edge_type, int(node), int(cutoff))
        return counts

    def activity(self, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        """Raw time-valid fact counts (the shared green/yellow signal)."""
        if self._graph is None:
            raise RuntimeError("GreenTier is unbound; call bind(db, graph) first")
        ids = node_index_for_keys(self._graph, self.entity_table, np.asarray(entity_keys))
        return self._counts(ids, np.asarray(cutoffs, dtype=np.int64), self._entity_edges)

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
        """Scores from activity alone (the cheapest plan)."""
        counts = self.activity(entity_keys, cutoffs)
        if self.calibrator is None:
            if self.constant is not None:
                return np.full(len(counts), self.constant, dtype=np.float64)
            return counts / (counts + 1.0) if self.task == "binary" else counts
        x = np.log1p(counts)[:, None]
        if self.task == "binary":
            return np.asarray(self.calibrator.predict_proba(x), dtype=np.float64)
        return np.asarray(self.calibrator.predict(x), dtype=np.float64)

    def _popularity_at(self, cutoff: int) -> np.ndarray:
        def count() -> np.ndarray:
            num_items = self._graph.num_nodes(self.item_table)
            ids = np.arange(num_items, dtype=np.int64)
            times = np.full(num_items, cutoff, dtype=np.int64)
            return self._counts(ids, times, self._item_edges)

        return self._popularity.get(cutoff, count)

    def rank(
        self, entity_keys: np.ndarray, cutoffs: np.ndarray, k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Top-``k`` (item_keys, scores) per entity by time-valid popularity."""
        if not self.item_table:
            raise RuntimeError("green ranking needs an item table (LIST queries only)")
        item_keys = self._graph.node_keys[self.item_table]
        out = []
        for cutoff in np.asarray(cutoffs, dtype=np.int64).tolist():
            scores = self._popularity_at(int(cutoff))
            top = np.argsort(-scores, kind="stable")[:k]
            out.append((item_keys[top], scores[top]))
        return out

    def score_against_items(self, seed_type, query_ids, query_times, item_ids) -> np.ndarray:
        """Popularity scores per query, (queries, items) — the scorer
        surface a degraded LIST model ranks and evaluates through."""
        item_ids = np.asarray(item_ids, dtype=np.int64)
        scores = np.empty((len(query_ids), len(item_ids)), dtype=np.float64)
        for row, cutoff in enumerate(np.asarray(query_times, dtype=np.int64).tolist()):
            scores[row] = self._popularity_at(int(cutoff))[item_ids]
        return scores


class YellowTier:
    """GBDT over auto-extracted features, green signal stacked in.

    Feature blocks are built once per distinct cutoff and memoized
    (serving traffic clusters on few cutoffs), so a warm yellow call is
    a row gather plus tree traversal — orders of magnitude under the
    GNN's sample-and-infer.  Pickles with the green tier it stacks
    (one object can therefore be a degraded model's whole ``baseline``);
    :meth:`bind` re-attaches the database and the graph.
    """

    kind = YELLOW
    #: What :meth:`bind` attaches; not pickled.
    _BOUND = ("_db", "_graph", "_builder", "_built_at", "_blocks")
    _builder: Optional[FeatureBuilder] = None
    #: A file written before yellow pickled its green tier has no such
    #: key; :meth:`RoutedPredictiveModel.load` hands the tier over.
    green: Optional[GreenTier] = None

    def __init__(
        self, entity_table: str, task: str, hybrid: bool, green: Optional[GreenTier] = None
    ) -> None:
        self.entity_table = entity_table
        self.task = task
        self.hybrid = hybrid
        self.green = green
        self.estimator = None

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in self._BOUND}

    def bind(self, db, graph) -> "YellowTier":
        """Attach the feature builder over ``db`` and bind the stacked
        green tier to ``graph`` (neither is pickled).  Ingest grows the
        two in one step, so the graph's version dates ``db`` too."""
        if self.green is not None:
            self.green.bind(db, graph)
        self._db, self._graph = db, graph
        self._build()
        self._blocks = CutoffMemo(graph, sized_by=self.entity_table)
        return self

    def _build(self) -> None:
        self._builder = FeatureBuilder(self._db, self.entity_table, include_two_hop=False)
        self._built_at = self._graph.version

    def reconcile(self) -> Dict[str, int]:
        """Reconcile with the live pair (runs before every answer):
        blocks follow the per-cutoff rule; the feature builder, which
        holds the tables it was built over, is rebuilt over the grown
        ones.  Returns the ``refresh_model`` counter."""
        dropped = self._blocks.reconcile()
        if self._built_at != self._graph.version:
            self._build()
        return {"yellow_blocks_dropped": dropped}

    def features(self, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        """Auto-extracted features (+ stacked green activity) per row."""
        if self._builder is None:
            raise RuntimeError("YellowTier is unbound; call bind(db, graph) first")
        self.reconcile()
        builder = self._builder
        entity_keys = np.asarray(entity_keys)
        cutoffs = np.asarray(cutoffs, dtype=np.int64)
        out = np.full((len(entity_keys), builder.num_features), np.nan)
        slots = np.fromiter(
            (builder._key_to_slot[key] for key in entity_keys.tolist()),
            dtype=np.int64,
            count=len(entity_keys),
        )
        for cutoff in np.unique(cutoffs).tolist():
            rows = np.flatnonzero(cutoffs == cutoff)
            block = self._blocks.get(cutoff, lambda: builder._build_at_cutoff(cutoff))
            out[rows] = block[slots[rows]]
        if self.hybrid and self.green is not None:
            stacked = np.log1p(self.green.activity(entity_keys, cutoffs))[:, None]
            out = np.hstack([out, stacked])
        return out

    def fit(self, train: LabelTable, val: LabelTable) -> "YellowTier":
        """Fit the GBDT on auto features with validation early stopping."""
        x_train = self.features(train.entity_keys, train.cutoffs)
        eval_set = None
        if len(val):
            eval_set = (self.features(val.entity_keys, val.cutoffs), val.labels)
        boosting = (
            GradientBoostingClassifier if self.task == "binary" else GradientBoostingRegressor
        )
        self.estimator = boosting(num_rounds=100, learning_rate=0.1, max_depth=4)
        self.estimator.fit(x_train, train.labels, eval_set=eval_set)
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
    ROOT_FILE = ROUTING_FILE
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

    @classmethod
    def over(
        cls, red: TrainedPredictiveModel, router: Optional[RouterConfig] = None
    ) -> "RoutedPredictiveModel":
        """``red`` over the cheap tiers it already owns, uncalibrated.

        A red whose GNN stage degraded owns the tiers it degraded to
        (its ``baseline``); any other gets the unfitted green tier as
        its floor.  Enough for forced routes, so this is an unrouted
        model's whole ladder; :func:`fit_routed` starts from it.
        """
        base = red.baseline
        yellow = base if base is not None and base.kind == YELLOW else None
        green = yellow.green if yellow is not None else base
        if green is None:
            green = GreenTier.for_binding(red.binding).bind(red.db, red.graph)
        return cls(red, green, yellow, {}, CostModel({}), router or RouterConfig())

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

    def data_summary(self):
        """Provenance and size of the database the tiers answer from."""
        return self.red.data_summary()

    # Kept for its reader benchmarks/e2e/layers.py until the re-baseline PR.
    def sampler_cache_snapshot(self) -> None:
        """None: there is no subgraph cache."""
        return None

    # -- routing -------------------------------------------------------
    def available_tiers(self) -> List[str]:
        """Tiers that can answer, cheapest first.  A red whose GNN
        stage degraded is not one: its ``baseline`` *is* a cheaper
        tier, which answers under its own name."""
        tiers = []
        if self.green is not None:
            tiers.append(GREEN)
        if self.yellow is not None:
            tiers.append(YELLOW)
        if self.red.degraded_from is None:
            tiers.append(RED)
        return tiers

    def ladder(self) -> "RoutedPredictiveModel":
        """A routed model is its own degradation ladder."""
        return self

    def decide(self, rows: int, route: Optional[str] = None) -> RouteDecision:
        """Pick the tier for a request of ``rows`` predictions.

        ``route`` (or ``RouterConfig.route``) other than ``"auto"``
        forces the tier; estimates are still computed so forced runs
        report the same cost accounting as auto runs.
        """
        forced = check_route(route if route is not None else self.router.route)
        available = self.available_tiers()
        with self._lock:
            warm = self._red_calls > 0
        best = max(self.quality.get(t, 0.0) for t in available)
        floor = self.router.quality_floor * best
        estimates = []
        for tier in TIERS:
            if tier not in available:
                estimates.append(TierEstimate(tier, 0.0, float("inf"), False, "unavailable"))
                continue
            q = self.quality.get(tier, 0.0)
            est = self.cost.estimate(tier, rows, warm=warm)
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

    def _routed(self, span_name: str, entity_keys, cutoff, route: Optional[str], run):
        """Decide, then ``run(tier, keys, cutoffs)`` under a span with
        the decision's estimated and realized cost accounted."""
        entity_keys = np.asarray(entity_keys)
        cutoffs = TrainedPredictiveModel._resolve_cutoffs(cutoff, len(entity_keys))
        decision = self.decide(len(entity_keys), route)
        with obs_trace.span(span_name) as route_span:
            route_span.add_counter(f"router.route.{decision.tier}")
            route_span.add_counter("router.rows", len(entity_keys))
            route_span.add_counter("router.est_cost_us", int(decision.est_cost_ms * 1000))
            start = time.perf_counter()
            out = run(decision.tier, entity_keys, cutoffs)
            decision.realized_cost_ms = (time.perf_counter() - start) * 1000.0
            route_span.add_counter(
                "router.realized_cost_us", int(decision.realized_cost_ms * 1000)
            )
        self._account(decision)
        return out

    def predict(self, entity_keys: np.ndarray, cutoff, route: Optional[str] = None) -> np.ndarray:
        """Routed predictions (node tasks); see :meth:`decide`."""
        if self.task_type == TaskType.LINK:
            raise RuntimeError("predict() is for node tasks; use rank_items() for LIST queries")
        return self._routed("router.predict", entity_keys, cutoff, route, self._tier_predict)

    def rank_items(
        self, entity_keys: np.ndarray, cutoff, k: int = 10, route: Optional[str] = None
    ):
        """Routed top-``k`` rankings (link tasks); green = popularity."""
        if self.task_type != TaskType.LINK:
            raise RuntimeError("rank_items() is only available for LIST queries")

        def rank(tier: str, keys: np.ndarray, cutoffs: np.ndarray):
            ranker = self.green.rank if tier == GREEN else self.red.rank_items
            return ranker(keys, cutoffs, k)

        return self._routed("router.rank", entity_keys, cutoff, route, rank)

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
        return self.red.node_metrics(labels, predictions)

    # -- persistence ---------------------------------------------------
    def save(self, directory: str) -> None:
        """Persist atomically: ``red/`` (the GNN model and, once for
        all tiers, the data snapshot), ``tiers.pkl`` (green/yellow,
        database-free), ``routing.json`` (policy, qualities, calibrated
        costs, checksums of ``tiers.pkl`` and ``red/manifest.json``)."""
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
            "blend_alpha": self.blend_alpha,
            "tiers_sha256": sha256_file(tiers_path),
            "red_manifest_sha256": sha256_file(
                os.path.join(staging, self.RED_DIR, TrainedPredictiveModel.MANIFEST_FILE)
            ),
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
    def _read_routing(cls, directory: str):
        """``routing.json`` and the ``red/`` directory whose manifest
        passed the checksum it records."""
        with open(os.path.join(directory, cls.ROUTING_FILE)) as fh:
            manifest = json.load(fh)
        red_dir = os.path.join(directory, cls.RED_DIR)
        TrainedPredictiveModel._verify_payload(
            red_dir, TrainedPredictiveModel.MANIFEST_FILE, manifest.get("red_manifest_sha256")
        )
        return manifest, red_dir

    @classmethod
    def read_manifest(cls, directory: str) -> dict:
        """The verified ``red/manifest.json`` (query, config, checksums)."""
        return TrainedPredictiveModel.read_manifest(cls._read_routing(directory)[1])

    @classmethod
    def verify_data(cls, directory: str) -> Optional[str]:
        """Re-hash the data snapshot down the checksum chain; see
        :meth:`TrainedPredictiveModel.verify_data`."""
        return TrainedPredictiveModel.verify_data(cls._read_routing(directory)[1])

    @classmethod
    def load(cls, directory: str, db=None) -> "RoutedPredictiveModel":
        """Reload, rebinding the cheap tiers to ``db`` — or, with
        ``db=None``, to the snapshot ``red/`` carries (see
        :meth:`TrainedPredictiveModel.load`)."""
        manifest, red_dir = cls._read_routing(directory)
        red = TrainedPredictiveModel.load(red_dir, db)
        db = red.db
        tiers_path = TrainedPredictiveModel._verify_payload(
            directory, cls.TIERS_FILE, manifest.get("tiers_sha256")
        )
        with open(tiers_path, "rb") as fh:
            tiers = pickle.loads(fh.read())
        green: Optional[GreenTier] = tiers.get("green")
        yellow: Optional[YellowTier] = tiers.get("yellow")
        if yellow is not None and yellow.green is None:
            yellow.green = green
        (yellow or green).bind(db, red.graph)  # yellow binds the green it stacks
        if red.baseline is not None:
            # A degraded red saved the same rungs twice; keep one copy.
            red.baseline = yellow or green
        router = RouterConfig(**manifest["router"])
        cost = CostModel(manifest["per_row_ms"], overhead_ms=manifest.get("overhead_ms"))
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


def model_class(directory: str):
    """The class whose ``save`` wrote ``directory``."""
    return RoutedPredictiveModel if is_routed_dir(directory) else TrainedPredictiveModel


def load_model(directory: str, db=None):
    """Load whichever kind of model ``directory`` holds — routed or
    plain — over ``db``, or over the artifact's own data snapshot."""
    return model_class(directory).load(directory, db)


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


def fit_green(db, graph, binding, train: LabelTable) -> GreenTier:
    """The bound GREEN rung: calibrated on ``train``, except for LIST
    queries, whose popularity needs no fitting."""
    green = GreenTier.for_binding(binding).bind(db, graph)
    if binding.task_type != TaskType.LINK:
        green.fit(train.entity_keys, train.cutoffs, train.labels)
    return green


def fit_yellow(
    db, graph, binding, green: GreenTier, train: LabelTable, val: LabelTable,
    hybrid: bool = True,
) -> YellowTier:
    """The bound YELLOW rung of a node-task query, over ``green``.
    With :func:`fit_green`, how cheap tiers get fitted: by
    :func:`fit_routed` next to a healthy GNN, by the planner's
    degradation path instead of one.  Either caller's open span gets
    the ``yellow.*`` counters: what the boosting run was given and grew."""
    yellow = YellowTier(binding.query.entity_table, binding.task_type.value, hybrid, green)
    booster = yellow.bind(db, graph).fit(train, val).estimator
    kept = rounds = len(booster.trees_)
    if booster.best_iteration_ is not None:  # kept up to the best round, ran `patience` more
        patience = booster.early_stopping_rounds or booster.num_rounds
        rounds = min(booster.num_rounds, kept + patience)
    obs_trace.add_counter("yellow.train_rows", len(train))
    obs_trace.add_counter("yellow.features", len(booster._binner.edges_))
    obs_trace.add_counter("yellow.rounds", rounds)
    obs_trace.add_counter("yellow.trees", kept)
    obs_trace.add_counter("yellow.nodes", sum(len(tree.nodes) for tree in booster.trees_))
    return yellow


def _calibrate_link(model: RoutedPredictiveModel, val: LabelTable, seed: int) -> None:
    """Hit-rate@10 quality and per-row cost of each LIST tier, on ``val``."""
    tiers = model.available_tiers()
    keep = [i for i, items in enumerate(val.item_keys or []) if len(items) > 0]
    if not keep:
        model.quality = {tier: 0.5 for tier in tiers}
        model.cost = CostModel({tier: {GREEN: 0.05, RED: 5.0}[tier] for tier in tiers})
        return
    cap = min(model.router.max_calibration_rows, 64)
    subset = _cap_labels(val.subset(np.asarray(keep)), cap, seed)
    rank = {GREEN: model.green.rank, RED: model.red.rank_items}
    per_row_ms = {}
    for tier in tiers:
        start = time.perf_counter()
        ranked = rank[tier](subset.entity_keys, subset.cutoffs, 10)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        hits = sum(
            bool(np.isin(item_keys, np.asarray(relevant)).any())
            for (item_keys, _), relevant in zip(ranked, subset.item_keys)
        )
        model.quality[tier] = hits / len(ranked)
        per_row_ms[tier] = max(elapsed_ms / len(ranked), 1e-4)
    model.cost = CostModel(per_row_ms)


def fit_routed(
    planner: PredictiveQueryPlanner,
    query: Union[str, PredictiveQuery],
    split: TemporalSplit,
    router: Optional[RouterConfig] = None,
) -> RoutedPredictiveModel:
    """Fit the full tier ladder for one predictive query.

    Red is the planner's normal :meth:`~PredictiveQueryPlanner.fit`
    (plan cache, resilience, degradation all apply); green and yellow
    are fitted against the same label tables; per-tier validation
    quality and per-row cost are measured on a capped validation
    sample and recorded as the router's calibration.  A red whose GNN
    stage degraded already holds fitted cheap tiers: those are reused,
    and red itself is left out of :meth:`~RoutedPredictiveModel.available_tiers`.
    """
    router = router or RouterConfig()
    red = planner.fit(query, split)
    binding = red.binding
    seed = planner.config.seed
    with obs_trace.span("router.fit") as fit_span:
        val = build_label_table(planner.db, binding, [split.val_cutoff])
        model = RoutedPredictiveModel.over(red, router)
        if binding.task_type == TaskType.LINK:
            _calibrate_link(model, val, seed)
            fit_span.add_counter("router.tiers", len(model.available_tiers()))
            return model

        task = binding.task_type.value
        cal = _cap_labels(val, router.max_calibration_rows, seed + 11)
        if red.degraded_from is None:
            train = planner._maybe_subsample(
                build_label_table(planner.db, binding, split.train_cutoffs)
            )
            with obs_trace.span("router.fit_green"):
                model.green = fit_green(planner.db, red.graph, binding, train)
            with obs_trace.span("router.fit_yellow"):
                model.yellow = fit_yellow(
                    planner.db, red.graph, binding, model.green, train, val, router.hybrid
                )
            if router.hybrid and len(cal):
                model.blend_alpha = _tune_blend_alpha(red, model.yellow, cal, task)

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
        model.quality = quality
        model.cost = CostModel(per_row_ms, overhead_ms=overhead_ms)
        fit_span.add_counter("router.tiers", len(model.available_tiers()))
        _log.info(
            "router calibrated",
            extra={
                "quality": {t: round(q, 4) for t, q in quality.items()},
                "per_row_ms": {t: round(c, 4) for t, c in per_row_ms.items()},
                "blend_alpha": model.blend_alpha,
            },
        )
    return model

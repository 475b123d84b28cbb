"""The tier ladder a predictive model routes between, and how it is fitted.

The planner's declarative promise — *you say what to predict, the
system picks how* — is only half-kept if every query pays for the full
GNN sample-and-infer pipeline.  Every
:class:`~repro.pql.planner.PredictiveModel` is a ladder of three plans
and a router that, per request, executes the cheapest plan clearing a
configurable quality floor:

* **GREEN** — the time-valid activity count (one vectorised search per
  relation over the graph's time-sorted CSR for a whole batch) under a
  linear/logistic calibration fitted on the training labels.
  Microseconds per row, no features, no model; LIST queries rank by
  time-valid item popularity.
* **YELLOW** — the from-scratch GBDT over auto-extracted relational
  features (:mod:`repro.baselines.trees` + ``features``), with the
  green activity signal stacked in as an extra column so the mid-tier
  is genuinely competitive.
* **RED** — the full GNN.  When the hybrid is enabled, red's binary
  output is a validation-tuned logit blend of the GNN margin
  (:meth:`~repro.gnn.trainer.NodeTaskTrainer.export_scores`) with the
  yellow score — the GBDT→GNN score stacking of "Boosting Relational
  Deep Learning with Pretrained Tabular Models".

This module holds the rungs, the policy (:class:`RouterConfig`), the
cost estimator (:class:`CostModel`: per-row costs calibrated at fit
time, refined online by an EMA of realized latencies) and
:func:`fit_ladder`, which fits the cheap tiers next to a trained GNN
and records each tier's validation quality.  A plain fit is an
uncalibrated ladder, whose ``auto`` route answers from its top tier.

Routing changes *which* plan runs, never what a plan computes: a
forced route (``route="red"``) is bit-identical to the auto router
choosing red, because both execute the same tier predictor.

``GREEN < YELLOW < RED`` is also the only degradation ladder: a failed
GNN train stage leaves a model without red, answering from its YELLOW
(else GREEN) tier, and a serving process whose model path breaks
forces its batches one rung down — a degraded answer is a forced route.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.features import FeatureBuilder
from repro.baselines.linear import LinearRegression, LogisticRegression
from repro.baselines.trees import GradientBoostingClassifier, GradientBoostingRegressor
from repro.eval.metrics import auroc, mae
from repro.graph.builder import node_index_for_keys
from repro.graph.hetero import CutoffMemo
from repro.obs import get_logger
from repro.obs import trace as obs_trace
from repro.pql.ast import TaskType
from repro.pql.labeler import LabelTable

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
    "blend",
    "fit_green",
    "fit_yellow",
    "fit_ladder",
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
        if rows <= 0 or not math.isfinite(elapsed_ms):
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
            self._per_row_ms[tier] = float(min(max(updated, prior * 0.5), prior * 2.0))


class GreenTier:
    """The time-valid activity count, optionally calibrated.

    Answers from the compiled graph's time-sorted CSR alone: one
    vectorised search per relation answers every requested row
    (``HeteroGraph.count_before``).  Unfitted (zero training) it
    scores ``count / (count + 1)`` (binary) or the raw count
    (regression); :meth:`fit` calibrates log-activity (linear/logistic);
    LIST queries rank by item popularity among facts visible at the
    cutoff, fitted or not, computed per call and memoized nowhere.
    Pickles names and coefficients only: the graph is re-attached with
    :meth:`bind` after load.
    """

    kind = GREEN
    #: What :meth:`bind` attaches; not pickled.
    _BOUND = ("_graph", "_entity_edges", "_item_edges")
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

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` calibrated this tier (a plain fit's never is)."""
        return self.calibrator is not None or self.constant is not None

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in self._BOUND}

    def bind(self, db, graph) -> "GreenTier":
        """Attach the compiled graph (``db`` is unused; see :class:`YellowTier`)."""
        self._graph = graph
        self._entity_edges = graph.edge_types_into(self.entity_table)
        self._item_edges = graph.edge_types_into(self.item_table) if self.item_table else []
        return self

    def _counts(self, node_ids: np.ndarray, cutoffs: np.ndarray, edge_types) -> np.ndarray:
        counts = np.zeros(len(node_ids), dtype=np.float64)
        for edge_type in edge_types:
            counts += self._graph.count_before(edge_type, node_ids, cutoffs)
        return counts

    def activity(
        self, entity_keys: np.ndarray, cutoffs: np.ndarray, node_ids: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Raw time-valid fact counts (the shared green/yellow signal);
        ``node_ids``, when given, are the keys' node ids, looked up already."""
        if self._graph is None:
            raise RuntimeError("GreenTier is unbound; call bind(db, graph) first")
        if node_ids is None:
            node_ids = node_index_for_keys(self._graph, self.entity_table, np.asarray(entity_keys))
        return self._counts(node_ids, np.asarray(cutoffs, dtype=np.int64), self._entity_edges)

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

    def _popularity(self, cutoffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Item popularity at each distinct cutoff, (distinct, items), and
        each row's index into it: one count search per item relation."""
        distinct, row_of = np.unique(np.asarray(cutoffs, dtype=np.int64), return_inverse=True)
        num_items = self._graph.num_nodes(self.item_table)
        ids = np.tile(np.arange(num_items, dtype=np.int64), len(distinct))
        counts = self._counts(ids, np.repeat(distinct, num_items), self._item_edges)
        return counts.reshape(len(distinct), num_items), row_of

    def rank(
        self, entity_keys: np.ndarray, cutoffs: np.ndarray, k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Top-``k`` (item_keys, scores) per entity by time-valid popularity."""
        if not self.item_table:
            raise RuntimeError("green ranking needs an item table (LIST queries only)")
        popularity, row_of = self._popularity(cutoffs)
        top = np.argsort(-popularity, axis=1, kind="stable")[:, :k]
        items = self._graph.node_keys[self.item_table][top][row_of]
        scores = np.take_along_axis(popularity, top, axis=1)[row_of]
        return list(zip(items, scores))

    def score_against_items(self, seed_type, query_ids, query_times, item_ids) -> np.ndarray:
        """Popularity scores per query, (queries, items) — the scorer
        surface a LIST model without a ranker evaluates through."""
        popularity, row_of = self._popularity(query_times)
        return popularity[:, np.asarray(item_ids, dtype=np.int64)][row_of]


class YellowTier:
    """GBDT over auto-extracted features, green signal stacked in.

    Feature blocks are built once per distinct cutoff and memoized
    (serving traffic clusters on few cutoffs), so a warm yellow call is
    one key lookup, a block row gather per cutoff, green's count search
    and one descent of all trees on the raw values — a fixed number of
    numpy passes whatever the row count, orders of magnitude under the
    GNN's sample-and-infer.  Pickles with the green tier it stacks;
    :meth:`bind` re-attaches the database and the graph.
    """

    kind = YELLOW
    #: What :meth:`bind` attaches; not pickled.
    _BOUND = ("_db", "_graph", "_builder", "_built_at", "_blocks")
    _builder: Optional[FeatureBuilder] = None
    #: A file written before yellow pickled its green tier has no such
    #: key; :meth:`~repro.pql.planner.PredictiveModel.load` hands the tier over.
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
        slots = builder.slots(entity_keys)
        for cutoff in np.unique(cutoffs).tolist():
            rows = np.flatnonzero(cutoffs == cutoff)
            block = self._blocks.get(cutoff, lambda: builder._build_at_cutoff(cutoff))
            out[rows] = block[slots[rows]]
        if self.hybrid and self.green is not None:
            # The builder's slots are the graph's node ids: both number
            # the entity table's rows in order.
            stacked = np.log1p(self.green.activity(entity_keys, cutoffs, slots))[:, None]
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


def blend(task: str, alpha: float, gnn: np.ndarray, yellow: np.ndarray) -> np.ndarray:
    """Red's hybrid output: weight ``alpha`` on the GNN, the rest on
    yellow — in logit space for binary tasks (``gnn`` is then the GNN's
    logit margin), linearly for regression."""
    if task == "binary":
        clipped = np.clip(yellow, 1e-7, 1 - 1e-7)
        return 1.0 / (1.0 + np.exp(-(alpha * gnn + (1 - alpha) * np.log(clipped / (1 - clipped)))))
    return alpha * gnn + (1 - alpha) * yellow


def _cap_labels(labels: LabelTable, cap: int, seed: int) -> LabelTable:
    if cap <= 0 or len(labels) <= cap:
        return labels
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(labels), size=cap, replace=False)
    return labels.subset(np.sort(picks))


def _tune_blend_alpha(model, val: LabelTable, task: str) -> Tuple[float, float]:
    """Grid-search the GBDT→GNN stacking weight on validation; returns
    it with the quality of α = 1.0, the unblended GNN."""
    entity_type = model.binding.query.entity_table
    ids = node_index_for_keys(model.graph, entity_type, val.entity_keys)
    yellow = model.yellow.predict(val.entity_keys, val.cutoffs)
    trainer = model.node_trainer
    gnn = (trainer.export_scores if task == "binary" else trainer.predict)(
        entity_type, ids, val.cutoffs
    )
    # The grid floor keeps red a genuine GNN plan: alpha=0 would turn
    # the red tier into a copy of yellow, rigging any routed-vs-all-GNN
    # comparison.  Yellow is already the pure-GBDT plan.
    best_alpha, best_quality = 1.0, -np.inf
    for alpha in (0.25, 0.5, 0.75, 1.0):
        quality = _quality(task, val.labels, blend(task, alpha, gnn, yellow))
        # Strict > keeps the highest alpha on ties, biasing toward the
        # GNN (the paper's model) when the blend is a wash.
        if quality > best_quality:
            best_alpha, best_quality = alpha, quality
    return best_alpha, quality  # the grid ends at alpha = 1.0


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
    :func:`fit_ladder` next to a healthy GNN, by the planner's
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


def _calibrate_link(model, val: LabelTable, seed: int) -> None:
    """Hit-rate@10 quality and per-row cost of each LIST tier, on ``val``."""
    tiers = model.available_tiers()
    keep = [i for i, items in enumerate(val.item_keys or []) if len(items) > 0]
    if not keep:
        model.quality = {tier: 0.5 for tier in tiers}
        model.cost = CostModel({tier: {GREEN: 0.05, RED: 5.0}[tier] for tier in tiers})
        return
    cap = min(model.router.max_calibration_rows, 64)
    subset = _cap_labels(val.subset(np.asarray(keep)), cap, seed)
    per_row_ms = {}
    for tier in tiers:
        start = time.perf_counter()
        ranked = model._tier_rank(tier, subset.entity_keys, subset.cutoffs, 10)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        hits = sum(
            bool(np.isin(item_keys, np.asarray(relevant)).any())
            for (item_keys, _), relevant in zip(ranked, subset.item_keys)
        )
        model.quality[tier] = hits / len(ranked)
        per_row_ms[tier] = max(elapsed_ms / len(ranked), 1e-4)
    model.cost = CostModel(per_row_ms)


def fit_ladder(model, train: LabelTable, val: LabelTable, seed: int) -> None:
    """Fit and calibrate a freshly fitted model's ladder under its
    ``router`` policy, on the label tables its GNN was fitted on.

    Green and yellow are fitted (a model whose GNN stage degraded
    already holds them), red's ``blend_alpha`` tuned, and each tier's
    validation quality and per-row cost measured on a capped sample.
    """
    router, binding = model.router, model.binding
    if binding.task_type == TaskType.LINK:
        _calibrate_link(model, val, seed)
        return
    task = binding.task_type.value
    cal = _cap_labels(val, router.max_calibration_rows, seed + 11)
    if model.node_trainer is not None:
        with obs_trace.span("router.fit_green"):
            model.green = fit_green(model.db, model.graph, binding, train)
        with obs_trace.span("router.fit_yellow"):
            model.yellow = fit_yellow(
                model.db, model.graph, binding, model.green, train, val, router.hybrid
            )
        if router.hybrid and len(cal):
            model.blend_alpha, model.raw_gnn_quality = _tune_blend_alpha(model, cal, task)

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
        if model.raw_gnn_quality is not None:
            cal_span.add_counter("router.quality_bp.raw_gnn", int(model.raw_gnn_quality * 10000))
        cal_span.add_counter("router.calibration_rows", len(cal))
    model.quality = quality
    model.cost = CostModel(per_row_ms, overhead_ms=overhead_ms)
    _log.info(
        "router calibrated",
        extra={
            "quality": {t: round(q, 4) for t, q in quality.items()},
            "per_row_ms": {t: round(c, 4) for t, c in per_row_ms.items()},
            "blend_alpha": model.blend_alpha,
            "raw_gnn_quality": model.raw_gnn_quality,
        },
    )

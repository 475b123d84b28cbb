"""The query → trained-model compiler, and the model it compiles to.

:class:`PredictiveQueryPlanner` is the paper's headline API: hand it a
database and a PQL string, and it produces a trained model —

1. **parse + validate** the query against the schema;
2. **label** every (entity, cutoff) pair by executing the window
   aggregate over the database;
3. **compile the graph**: rows → nodes, foreign keys → edges, feature
   statistics fitted strictly before the first label window;
4. **train** a heterogeneous GNN with time-respecting neighbor
   sampling (a two-tower retrieval model for LIST queries);
5. return a :class:`PredictiveModel` that predicts for any entity at
   any cutoff and evaluates itself on future cutoffs.

No per-task feature engineering appears anywhere in this path — that
is the point.

The model is one tier ladder (:mod:`repro.pql.router`): the GNN is
its RED tier, over a GREEN tier left unfitted unless ``fit`` gets a
``router`` policy, which also fits YELLOW and calibrates every tier.

Production hardening is opt-in via a
:class:`~repro.resilience.ResilienceConfig`: epoch checkpointing with
``--resume`` (the one recovery path for a failed fit), divergence
guards inside the trainers, and graceful degradation down the tier
ladder — a failed GNN train stage leaves a model without red, with
``degraded_reason`` in its manifest and in every route record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro._blas import BLAS
from repro.obs import get_logger, get_registry
from repro.obs import trace as obs_trace
from repro.eval.metrics import (
    accuracy,
    auroc,
    average_precision,
    brier_score,
    expected_calibration_error,
    f1_score,
    hit_rate_at_k,
    mae,
    mrr,
    ndcg_at_k,
    r2_score,
    rmse,
)
from repro.eval.splits import TemporalSplit
from repro.gnn.models import GraphMetadata, HeteroGNN, TwoTowerModel
from repro.gnn.trainer import LinkTaskTrainer, NodeTaskTrainer, TrainConfig
from repro.graph.builder import build_graph, node_index_for_keys
from repro.graph.hetero import HeteroGraph
from repro.graph.sampler import NeighborSampler
from repro.pql.ast import PredictiveQuery, TaskType
from repro.pql.labeler import LabelTable, build_label_table
from repro.pql.parser import parse
from repro.pql.router import (
    GREEN,
    RED,
    TIERS,
    YELLOW,
    CostModel,
    GreenTier,
    RouteDecision,
    RouterConfig,
    TierEstimate,
    YellowTier,
    blend,
    check_route,
    fit_green,
    fit_ladder,
    fit_yellow,
)
from repro.pql.validate import QueryBinding, validate
from repro.relational.database import Database
from repro.relational.snapshot import read_snapshot, write_snapshot
from repro.resilience.checkpoint import (
    CorruptModelError,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_npz,
    sha256_file,
)
from repro.resilience.config import ResilienceConfig
from repro.resilience.faults import InjectedFault, fault_point
from repro.resilience.guards import DivergenceError

__all__ = [
    "PlannerConfig",
    "PredictiveQueryPlanner",
    "PredictiveModel",
    "TrainedPredictiveModel",
    "RoutedPredictiveModel",
    "is_routed_dir",
    "CorruptModelError",
    "NoSnapshotError",
]

_log = get_logger("pql.planner")


#: What a failed GNN stage may raise for ``fallback`` to degrade on; a
#: programming error still propagates.
_DEGRADABLE_ERRORS = (DivergenceError, InjectedFault, OSError)


def _run_digest(query_text: str, config: "PlannerConfig", labels: LabelTable) -> str:
    """What a fit is, for its checkpoints: the query, the planner config
    as the manifest saves it, and the training labels' rows."""
    digest = hashlib.sha256(query_text.encode())
    digest.update(json.dumps(dataclasses.asdict(config), sort_keys=True).encode())
    for column in (labels.entity_keys, labels.cutoffs, labels.labels, *(labels.item_keys or ())):
        column = np.asarray(column)
        digest.update(repr(column.tolist()).encode() if column.dtype == object
                      else np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


class NoSnapshotError(RuntimeError):
    """A saved model carries no data snapshot (it was saved before
    artifacts carried their data) and the caller passed no database."""


#: Dtype of every model the planner builds or reloads.  The nn library
#: itself is dtype-generic (gradcheck runs in float64).
MODEL_DTYPE = "float32"


@dataclass
class PlannerConfig:
    """Hyperparameters of the compiled pipeline.

    The defaults are deliberately task-agnostic: the declarative claim
    is that one configuration serves every query.  ``PlannerConfig()``
    is what ``repro fit`` trains with no model flags, and what every
    benchmark figure starts from.  The training loop's own literals
    (epochs, batch size, seed; learning rate, weight decay, clipping,
    patience) are written once, on :class:`TrainConfig`.
    """

    hidden_dim: int = 32
    num_layers: int = 2
    fanouts: Optional[List[int]] = None  # default: [8] * num_layers
    aggregation: str = "mean"
    shared_weights: bool = False
    #: Message-passing layer family: "sage" (default) or "gat".
    conv_type: str = "sage"
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    seed: int = TrainConfig.seed
    #: The leaky ablation switch (Figure 3); keep True everywhere else.
    time_respecting: bool = True
    #: Encode each node's time-valid in-degree per relation (strong
    #: recency/frequency signal even at depth 0); off for the pure
    #: message-passing-depth ablation (Figure 1).
    degree_features: bool = True
    #: Cap on training rows (subsampled reproducibly); None = no cap.
    max_train_rows: Optional[int] = None
    #: Batch size for no-grad inference (evaluation, predict,
    #: rank_items); None falls back to ``batch_size``.  Inference holds
    #: no backward graph, so this can usually be several times larger.
    infer_batch_size: Optional[int] = TrainConfig.infer_batch_size

    # ``rng`` is unused; kept for its reader benchmarks/e2e/layers.py until the re-baseline PR.
    def make_sampler(self, graph, rng=None) -> NeighborSampler:
        """Instantiate the sampler for ``graph``: its draws are a
        function of this config's ``seed`` and the batch."""
        return NeighborSampler(
            graph, fanouts=self.resolved_fanouts(), seed=self.seed,
            time_respecting=self.time_respecting,
        )

    def make_node_network(self, metadata, rng, out_dim: int = 1) -> HeteroGNN:
        """The (untrained) network for a binary or regression query; with
        ``out_dim=hidden_dim``, a LIST query's query tower."""
        return HeteroGNN(
            metadata,
            hidden_dim=self.hidden_dim,
            out_dim=out_dim,
            num_layers=self.num_layers,
            rng=rng,
            aggregation=self.aggregation,
            shared_weights=self.shared_weights,
            degree_features=self.degree_features,
            conv_type=self.conv_type,
            dtype=MODEL_DTYPE,
        )

    def make_link_network(self, metadata, graph, item_type: str, rng) -> TwoTowerModel:
        """The (untrained) two-tower network for a LIST query: its query
        tower is :meth:`make_node_network`'s, built first."""
        tower = self.make_node_network(metadata, rng, out_dim=self.hidden_dim)
        return TwoTowerModel(
            tower, metadata, item_type=item_type, num_items=graph.num_nodes(item_type), rng=rng
        )

    def resolved_fanouts(self) -> List[int]:
        """Fanouts, defaulting to 8 per message-passing hop."""
        if self.fanouts is not None:
            return list(self.fanouts)
        return [8] * max(self.num_layers, 1)

    def train_config(self) -> TrainConfig:
        """The inner loop's hyperparameters: this config's schedule and
        seed, and :class:`TrainConfig`'s optimizer and early-stopping
        defaults."""
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
            infer_batch_size=self.infer_batch_size,
        )


class PredictiveQueryPlanner:
    """Compiles PQL queries over one database into trained models."""

    def __init__(
        self,
        db: Database,
        config: Optional[PlannerConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        self.db = db
        self.config = config or PlannerConfig()
        #: Fault-tolerance policy; None = no checkpoints, no fallback.
        self.resilience = resilience
        #: Memoized parse+validate results keyed by query text.  Safe
        #: because bindings depend only on the schema, which a planner
        #: holds fixed; serving repeated queries (the production use)
        #: skips re-parsing entirely.
        self._plan_cache: Dict[str, QueryBinding] = {}

    def plan(self, query: Union[str, PredictiveQuery]) -> QueryBinding:
        """Parse (if needed) and validate a query against the schema.

        Results are cached per query text; hit/miss counts are
        exported as ``planner.plan_cache.{hits,misses}``.
        """
        text = query if isinstance(query, str) else str(query)
        cached = self._plan_cache.get(text)
        if cached is not None:
            get_registry().counter("planner.plan_cache.hits").inc()
            if obs_trace.enabled():
                obs_trace.add_counter("planner.plan_cache.hits")
            return cached
        get_registry().counter("planner.plan_cache.misses").inc()
        if obs_trace.enabled():
            obs_trace.add_counter("planner.plan_cache.misses")
        parsed = parse(query) if isinstance(query, str) else query
        binding = validate(parsed, self.db)
        self._plan_cache[text] = binding
        return binding

    def fit(
        self,
        query: Union[str, PredictiveQuery],
        split: TemporalSplit,
        router: Optional[RouterConfig] = None,
    ) -> "PredictiveModel":
        """Compile and train; returns the deployable model.

        With a ``router`` policy the ladder is also fitted and calibrated
        on the same label tables (:func:`~repro.pql.router.fit_ladder`);
        without one ``auto`` answers from the GNN.
        """
        with obs_trace.span("planner.fit"):
            with obs_trace.span("planner.parse"):
                binding = self.plan(query)
            _log.info(
                "query compiled", extra={"task_type": binding.task_type.value,
                                         "entity": binding.query.entity_table},
            )
            stats_cutoff = min(split.train_cutoffs)
            span = self.db.time_span()
            if span is not None and stats_cutoff < span[0]:
                # The encoders fit every statistic and vocabulary on rows
                # at or before the earliest training cutoff: here, none.
                raise ValueError(
                    f"training cutoff {stats_cutoff} precedes every timestamped "
                    f"row (the first is at {span[0]}), so the feature encoders "
                    f"would fit on no data; drop that cutoff or move it to "
                    f"{span[0]} or later"
                )

            with obs_trace.span("planner.label") as label_span:
                train_labels = build_label_table(self.db, binding, split.train_cutoffs)
                val_labels = build_label_table(self.db, binding, [split.val_cutoff])
                label_span.add_counter("label.train_rows", len(train_labels))
                label_span.add_counter("label.val_rows", len(val_labels))
                label_span.add_counter("label.train_cutoffs", len(split.train_cutoffs))
            if len(train_labels) == 0:
                raise ValueError("no training rows: check cutoffs against the data's time span")
            _log.info(
                "labels built", extra={"train_rows": len(train_labels), "val_rows": len(val_labels)},
            )

            train_labels = self._maybe_subsample(train_labels)

            with obs_trace.span("planner.graph_build") as build_span:
                graph = build_graph(self.db, stats_cutoff=stats_cutoff)
                build_span.add_counter("graph.nodes", graph.total_nodes())
                build_span.add_counter("graph.edges", graph.total_edges())
                build_span.add_counter("graph.node_types", len(graph.node_types))
                build_span.add_counter("graph.edge_types", len(graph.edge_types))
            _log.info(
                "graph compiled",
                extra={"nodes": graph.total_nodes(), "edges": graph.total_edges()},
            )
            metadata = GraphMetadata.from_graph(graph)

            with obs_trace.span("planner.train"):
                rng = np.random.default_rng(self.config.seed)
                sampler = self.config.make_sampler(graph)
                fit_gnn = self._fit_link if binding.task_type == TaskType.LINK else self._fit_node
                try:
                    model = fit_gnn(binding, graph, metadata, sampler, rng,
                                    train_labels, val_labels)
                except _DEGRADABLE_ERRORS as err:
                    if self.resilience is None or not self.resilience.fallback:
                        raise
                    model = self._degrade(binding, graph, train_labels, val_labels, err)
            if model.degraded_reason is None:
                trainer = model.node_trainer or model.link_trainer
                _log.info(
                    "training finished",
                    extra={"epochs": len(trainer.history.train_loss),
                           "best_epoch": trainer.history.best_epoch},
                )
            model.stats_cutoff = stats_cutoff
            if router is not None:
                model.router = router
                with obs_trace.span("router.fit") as fit_span:
                    fit_ladder(model, train_labels, val_labels, self.config.seed)
                    fit_span.add_counter("router.tiers", len(model.available_tiers()))
        return model

    # Kept for its reader benchmarks/e2e/layers.py until the re-baseline PR (ROADMAP item 7).
    def fit_routed(self, query, split, router: Optional[RouterConfig] = None):
        """:meth:`fit` with a ``router`` policy (default when omitted)."""
        return self.fit(query, split, router=router or RouterConfig())

    def _degrade(self, binding, graph, train_labels, val_labels, err) -> "PredictiveModel":
        """Descend the tier ladder after a failed GNN train stage: the
        model without red, over YELLOW when it fits, else GREEN, which
        always does.  LIST queries have no tabular formulation; theirs
        is GREEN's popularity."""
        reason = f"{type(err).__name__}: {err}"
        get_registry().counter("resilience.degraded").inc()
        obs_trace.add_counter("resilience.degraded")
        _log.warning(
            "GNN stage failed; descending the degradation ladder",
            extra={"error": reason},
        )
        yellow = None
        with obs_trace.span("planner.fallback"):
            green = fit_green(self.db, graph, binding, train_labels)
            if binding.task_type != TaskType.LINK:
                try:
                    fault_point("fallback.gbdt")
                    yellow = fit_yellow(self.db, graph, binding, green, train_labels, val_labels)
                except Exception as yellow_err:  # noqa: BLE001 — any failure drops a rung
                    _log.warning(
                        "YELLOW rung failed to fit; degrading to GREEN",
                        extra={"error": f"{type(yellow_err).__name__}: {yellow_err}"},
                    )
        model = PredictiveModel(
            self.db, binding, graph, self.config, green=green, yellow=yellow,
            degraded_reason=reason,
        )
        _log.warning("degraded to a cheaper tier", extra={"tier": model.available_tiers()[-1]})
        return model

    def _trainer_fit_options(self, binding, train_labels: LabelTable) -> dict:
        """The resilience policy a trainer's ``fit`` takes, and with
        checkpoints on, the digest that names this run in them."""
        resilience = self.resilience
        digest = None
        if resilience is not None and resilience.checkpoint_dir:
            digest = _run_digest(str(binding.query), self.config, train_labels)
        return {"resilience": resilience, "run_digest": digest}

    # ------------------------------------------------------------------
    # Node tasks (binary / regression)
    # ------------------------------------------------------------------
    def _fit_node(self, binding, graph, metadata, sampler, rng, train_labels, val_labels):
        entity_type = binding.query.entity_table
        model = self.config.make_node_network(metadata, rng)
        task = "binary" if binding.task_type == TaskType.BINARY else "regression"
        trainer = NodeTaskTrainer(model, graph, sampler, task, config=self.config.train_config())
        train_ids = node_index_for_keys(graph, entity_type, train_labels.entity_keys)
        kwargs = self._trainer_fit_options(binding, train_labels)
        if len(val_labels):
            kwargs.update(
                val_ids=node_index_for_keys(graph, entity_type, val_labels.entity_keys),
                val_times=val_labels.cutoffs,
                val_labels=val_labels.labels,
            )
        trainer.fit(entity_type, train_ids, train_labels.cutoffs, train_labels.labels, **kwargs)
        return PredictiveModel(self.db, binding, graph, self.config, node_trainer=trainer)

    # ------------------------------------------------------------------
    # Link tasks
    # ------------------------------------------------------------------
    def _fit_link(self, binding, graph, metadata, sampler, rng, train_labels, val_labels):
        entity_type = binding.query.entity_table
        item_type = binding.item_table
        model = self.config.make_link_network(metadata, graph, item_type, rng)
        trainer = LinkTaskTrainer(model, graph, sampler, config=self.config.train_config())
        q_ids, q_times, pos_items = self._explode_pairs(graph, entity_type, item_type, train_labels)
        if len(q_ids) == 0:
            raise ValueError("no positive (entity, item) pairs in the training windows")
        kwargs = self._trainer_fit_options(binding, train_labels)
        vq, vt, vi = self._explode_pairs(graph, entity_type, item_type, val_labels)
        if len(vq):
            kwargs.update(val_query_ids=vq, val_query_times=vt, val_pos_item_ids=vi)
        trainer.fit(entity_type, q_ids, q_times, pos_items, **kwargs)
        return PredictiveModel(self.db, binding, graph, self.config, link_trainer=trainer)

    def _explode_pairs(self, graph, entity_type, item_type, labels: LabelTable):
        """Flatten a LIST label table into (query, time, item) triples."""
        queries, times, items = [], [], []
        for key, cutoff, item_keys in zip(
            labels.entity_keys.tolist(), labels.cutoffs.tolist(), labels.item_keys or []
        ):
            for item_key in np.asarray(item_keys).tolist():
                queries.append(key)
                times.append(cutoff)
                items.append(item_key)
        if not queries:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        q_ids = node_index_for_keys(graph, entity_type, np.asarray(queries))
        item_ids = node_index_for_keys(graph, item_type, np.asarray(items))
        return q_ids, np.asarray(times, dtype=np.int64), item_ids

    def _maybe_subsample(self, labels: LabelTable) -> LabelTable:
        cap = self.config.max_train_rows
        if cap is None or len(labels) <= cap:
            return labels
        rng = np.random.default_rng(self.config.seed + 7)
        picks = rng.choice(len(labels), size=cap, replace=False)
        return labels.subset(np.sort(picks))


#: Payload files of a saved model, by role; each is checksummed in the manifest.
_FILES = {"weights": "weights.npz", "tiers": "tiers.pkl", "data": "data.npz"}
#: Earlier releases saved a routed model as this file over a ``red/``
#: plain directory, and a degraded one with ``fallback.pkl``; read only.
_LEGACY_ROUTING, _LEGACY_RED, _LEGACY_FALLBACK = "routing.json", "red", "fallback.pkl"
#: Earlier releases built a LIST model's query tower with these layer
#: settings whatever its config recorded; their manifests carry no
#: ``blas`` key.
_LEGACY_LINK_TOWER = {"aggregation": "mean", "shared_weights": False,
                      "degree_features": True, "conv_type": "sage"}


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _verified(directory: str, name: str, expected: Optional[str]) -> str:
    """``directory/name``, after it exists and matches ``expected``."""
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        raise CorruptModelError(f"saved model is missing {name!r} under {directory!r}")
    if expected is not None:
        actual = sha256_file(path)
        if actual != expected:
            raise CorruptModelError(
                f"{name!r} failed its manifest checksum: "
                f"manifest={expected[:12]}… actual={actual[:12]}… — "
                f"the model directory is corrupt; re-save or restore from backup"
            )
    return path


def _with_files(manifest: dict, prefix: str = "") -> dict:
    """``manifest`` with each payload's path under ``files``; an earlier
    release's degraded ``fallback.pkl`` (one rung) is its tiers file."""
    kind = manifest.pop("fallback_kind", None)
    if kind not in (None, YELLOW, GREEN):
        raise CorruptModelError(
            f"degraded model saved by an earlier version — re-fit "
            f"(fallback_kind={kind!r} is not a tier)"
        )
    manifest["files"] = {role: os.path.join(prefix, name) for role, name in _FILES.items()}
    if kind is not None:
        manifest["tiers_sha256"] = manifest.pop("fallback_sha256", None)
        manifest["files"]["tiers"] = os.path.join(prefix, _LEGACY_FALLBACK)
    return manifest


class PredictiveModel:
    """A fitted predictive query: its tier ladder, the router policy and
    the cost model that choose a tier per request.

    The ladder is ``GREEN < YELLOW < RED`` (:mod:`repro.pql.router`):
    ``green`` always (unfitted on a plain fit), ``yellow`` when fitted,
    and red — the GNN's ``node_trainer`` or ``link_trainer`` — unless
    the GNN stage degraded, which ``degraded_reason`` records.  Every
    :meth:`predict` and :meth:`rank_items` goes through :meth:`decide`,
    and the decision of the latest call is :attr:`last_route`.
    """

    MANIFEST_FILE = "manifest.json"

    def __init__(
        self,
        db: Database,
        binding: QueryBinding,
        graph: HeteroGraph,
        config: PlannerConfig,
        node_trainer: Optional[NodeTaskTrainer] = None,
        link_trainer: Optional[LinkTaskTrainer] = None,
        green: Optional[GreenTier] = None,
        yellow: Optional[YellowTier] = None,
        router: Optional[RouterConfig] = None,
        quality: Optional[Dict[str, float]] = None,
        cost: Optional[CostModel] = None,
        blend_alpha: float = 1.0,
        raw_gnn_quality: Optional[float] = None,
        degraded_reason: Optional[str] = None,
        stats_cutoff: Optional[int] = None,
    ) -> None:
        self.db = db
        self.binding = binding
        self.graph = graph
        self.config = config
        self.node_trainer = node_trainer
        self.link_trainer = link_trainer
        self.green = green or GreenTier.for_binding(binding).bind(db, graph)
        self.yellow = yellow
        self.router = router or RouterConfig()
        #: Fit-time validation quality per tier; empty = uncalibrated.
        self.quality = dict(quality or {})
        self.cost = cost or CostModel({})
        #: Red's blend weight on the GNN (1.0 = pure GNN; tuned when
        #: hybrid is on) and the unblended GNN's validation quality.
        self.blend_alpha = float(blend_alpha)
        self.raw_gnn_quality = raw_gnn_quality
        #: Why the GNN stage failed (red is then absent), else None.
        self.degraded_reason = degraded_reason
        #: Feature-statistics cutoff used at fit time (set by the planner;
        #: persisted so a reloaded model rebuilds the identical graph).
        self.stats_cutoff = stats_cutoff
        #: Decision record of the most recent routed call.
        self.last_route: Optional[RouteDecision] = None
        self._red_calls = 0
        self._lock = threading.Lock()

    @property
    def task_type(self) -> TaskType:
        """The compiled task type."""
        return self.binding.task_type

    # Kept for its reader benchmarks/e2e/layers.py until the re-baseline PR (ROADMAP item 7).
    @property
    def red(self) -> "PredictiveModel":
        """The plain fit inside this model: its GNN over an unfitted green tier."""
        return PredictiveModel(self.db, self.binding, self.graph, self.config, self.node_trainer,
                               self.link_trainer, stats_cutoff=self.stats_cutoff)

    def data_summary(self) -> Dict[str, object]:
        """What this model answers from, for the ``ready:`` line and
        ``repro stats``: provenance, live row count, the snapshot's
        checksum prefix, newest timestamp and ``stats_cutoff``."""
        span = self.db.time_span()
        sha256 = self.db.source_sha256
        return {
            "data_source": self.db.source,
            "rows": sum(table.num_rows for table in self.db),
            "data_sha256": sha256[:12] if sha256 else None,
            "max_timestamp": span[1] if span else None,
            "stats_cutoff": self.stats_cutoff,
        }

    # Kept for its reader benchmarks/e2e/layers.py until the re-baseline PR (ROADMAP item 7).
    def sampler_cache_snapshot(self) -> None:
        """None: there is no subgraph cache."""
        return None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def available_tiers(self) -> List[str]:
        """Tiers that can answer, cheapest first; red only when the GNN trained."""
        tiers = [GREEN] if self.yellow is None else [GREEN, YELLOW]
        if self.node_trainer is not None or self.link_trainer is not None:
            tiers.append(RED)
        return tiers

    def decide(self, rows: int, route: Optional[str] = None,
               quality_floor: Optional[float] = None) -> RouteDecision:
        """Pick the tier for a request of ``rows`` predictions.

        ``route`` (or ``RouterConfig.route``) other than ``"auto"``
        forces the tier; estimates are still computed so forced runs
        report the same cost accounting as auto runs.  ``auto`` takes
        the cheapest tier clearing ``quality_floor`` (default: the
        policy's) × the best quality — the top tier if uncalibrated.
        """
        forced = check_route(route if route is not None else self.router.route)
        share = self.router.quality_floor if quality_floor is None else quality_floor
        available = self.available_tiers()
        with self._lock:
            warm = self._red_calls > 0
        best = max(self.quality.get(t, 0.0) for t in available)
        floor = share * best
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
        elif not self.quality:
            chosen, reason = available[-1], "top tier of an uncalibrated ladder"
        else:
            eligible = [e for e in estimates if e.eligible]
            chosen = min(eligible, key=lambda e: e.est_cost_ms).tier
            reason = (f"cheapest of {len(eligible)} tiers with quality >= {floor:.4f} "
                      f"({share:.2f} x best {best:.4f})")
        if self.degraded_reason is not None and forced == "auto":
            reason += f"; no red: {self.degraded_reason}"
        return RouteDecision(
            tier=chosen,
            rows=int(rows),
            est_cost_ms=next(e.est_cost_ms for e in estimates if e.tier == chosen),
            forced=forced != "auto",
            reason=reason,
            estimates=estimates,
        )

    @staticmethod
    def _resolve_cutoffs(cutoff, count: int) -> np.ndarray:
        """Broadcast a scalar cutoff (or pass through a vector) to ``count``."""
        cutoffs = np.asarray(cutoff, dtype=np.int64)
        if cutoffs.ndim == 0:
            return np.full(count, int(cutoffs), dtype=np.int64)
        if cutoffs.shape != (count,):
            raise ValueError(
                f"cutoff must be a scalar or have shape ({count},), got {cutoffs.shape}"
            )
        return cutoffs

    def _routed(self, span_name: str, entity_keys, cutoff, route, quality_floor, run):
        """Decide, then ``run(tier, keys, cutoffs)`` under a span with
        the decision's estimated and realized cost accounted."""
        entity_keys = np.asarray(entity_keys)
        cutoffs = self._resolve_cutoffs(cutoff, len(entity_keys))
        decision = self.decide(len(entity_keys), route, quality_floor)
        with obs_trace.span(span_name) as route_span:
            route_span.add_counter(f"router.route.{decision.tier}")
            route_span.add_counter("router.rows", len(entity_keys))
            route_span.add_counter("router.est_cost_us", int(decision.est_cost_ms * 1000))
            start = time.perf_counter()
            out = run(decision.tier, entity_keys, cutoffs)
            decision.realized_cost_ms = (time.perf_counter() - start) * 1000.0
            route_span.add_counter("router.realized_cost_us", int(decision.realized_cost_ms * 1000))
        get_registry().counter(f"router.route.{decision.tier}").inc()
        self.cost.observe(decision.tier, decision.rows, decision.realized_cost_ms)
        with self._lock:
            if decision.tier == RED:
                self._red_calls += 1
            self.last_route = decision
        return out

    def _tier_predict(self, tier: str, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        if tier == GREEN:
            return self.green.predict(entity_keys, cutoffs)
        if tier == YELLOW:
            return self.yellow.predict(entity_keys, cutoffs)
        return self._red_predict(entity_keys, cutoffs)

    def _red_predict(self, entity_keys: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        entity_type = self.binding.query.entity_table
        ids = node_index_for_keys(self.graph, entity_type, np.asarray(entity_keys))
        trainer = self.node_trainer
        if not (self.router.hybrid and self.blend_alpha < 1.0 and self.yellow is not None):
            return trainer.predict(entity_type, ids, cutoffs)
        task = self.task_type.value
        gnn = (trainer.export_scores if task == "binary" else trainer.predict)(
            entity_type, ids, cutoffs
        )
        return blend(task, self.blend_alpha, gnn, self.yellow.predict(entity_keys, cutoffs))

    def _tier_rank(self, tier: str, entity_keys: np.ndarray, cutoffs: np.ndarray, k: int):
        if tier == GREEN:
            return self.green.rank(entity_keys, cutoffs, k)
        entity_type = self.binding.query.entity_table
        item_type = self.binding.item_table
        q_ids = node_index_for_keys(self.graph, entity_type, np.asarray(entity_keys))
        item_ids = np.arange(self.graph.num_nodes(item_type))
        scores = self.link_trainer.score_against_items(entity_type, q_ids, cutoffs, item_ids)
        item_keys = self.graph.node_keys[item_type]
        # One vectorized sort across all rows; ``stable`` keeps the same
        # deterministic tie order as sorting each row separately.
        top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        rows = np.arange(scores.shape[0])[:, None]
        top_scores = scores[rows, top]
        return [(item_keys[top[i]], top_scores[i]) for i in range(scores.shape[0])]

    def predict(self, entity_keys: np.ndarray, cutoff, route: Optional[str] = None,
                quality_floor: Optional[float] = None) -> np.ndarray:
        """Predictions as of ``cutoff`` on the tier :meth:`decide` picks.

        ``cutoff`` may be one timestamp for the whole batch or an
        array with one prediction time per entity — one call then
        serves mixed-horizon requests, batched through the sampler.

        Binary → P(positive); regression → value on the label scale.
        For link tasks use :meth:`rank_items`.
        """
        if self.task_type == TaskType.LINK:
            raise RuntimeError("predict() is for node tasks; use rank_items() for LIST queries")
        return self._routed(
            "router.predict", entity_keys, cutoff, route, quality_floor, self._tier_predict
        )

    def rank_items(self, entity_keys: np.ndarray, cutoff, k: int = 10,
                   route: Optional[str] = None, quality_floor: Optional[float] = None):
        """Top-``k`` item keys and scores per entity (link tasks only),
        on the tier :meth:`decide` picks (green ranks by popularity).

        ``cutoff`` may be a scalar or a per-entity array, as in
        :meth:`predict`.
        """
        if self.task_type != TaskType.LINK:
            raise RuntimeError("rank_items() is only available for LIST queries")
        return self._routed("router.rank", entity_keys, cutoff, route, quality_floor,
                            lambda tier, keys, cutoffs: self._tier_rank(tier, keys, cutoffs, k))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, cutoff: int, k: int = 10, route: Optional[str] = None) -> Dict[str, float]:
        """Metrics against ground-truth labels computed at ``cutoff``,
        with routed (or ``route``-forced) predictions."""
        with obs_trace.span("planner.evaluate") as eval_span:
            labels = build_label_table(self.db, self.binding, [int(cutoff)])
            eval_span.add_counter("eval.rows", len(labels))
            if self.task_type == TaskType.LINK:
                return self._evaluate_link(labels, k)
            predictions = self.predict(labels.entity_keys, int(cutoff), route=route)
            return self.node_metrics(labels, predictions)

    def node_metrics(self, labels: LabelTable, predictions: np.ndarray) -> Dict[str, float]:
        """The node-task metric report for ``predictions`` against ``labels``."""
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

    def _evaluate_link(self, labels: LabelTable, k: int) -> Dict[str, float]:
        entity_type = self.binding.query.entity_table
        item_type = self.binding.item_table
        # Standard retrieval protocol: evaluate entities with >= 1 positive.
        keep = [i for i, items in enumerate(labels.item_keys or []) if len(items) > 0]
        if not keep:
            return {"mrr": float("nan"), f"hit_rate@{k}": float("nan"), f"ndcg@{k}": float("nan"), "num_queries": 0.0}
        subset = labels.subset(np.asarray(keep))
        q_ids = node_index_for_keys(self.graph, entity_type, subset.entity_keys)
        item_ids = np.arange(self.graph.num_nodes(item_type))
        scores = (self.link_trainer or self.green).score_against_items(
            entity_type, q_ids, subset.cutoffs, item_ids
        )
        item_key_to_node = self.graph.key_index(item_type)
        relevance = []
        for item_keys in subset.item_keys:
            mask = np.zeros(len(item_ids), dtype=bool)
            for key in np.asarray(item_keys).tolist():
                node = item_key_to_node.get(key)
                if node is not None:
                    mask[node] = True
            relevance.append(mask)
        score_lists = [scores[i] for i in range(len(scores))]
        return {
            "mrr": mrr(score_lists, relevance),
            f"hit_rate@{k}": hit_rate_at_k(score_lists, relevance, k),
            f"ndcg@{k}": ndcg_at_k(score_lists, relevance, k),
            "num_queries": float(len(score_lists)),
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Persist the model to ``directory`` atomically, in one layout.

        Layout: ``manifest.json`` (query text, planner config, task
        metadata, router policy, a calibrated ladder's qualities, costs,
        ``blend_alpha`` and ``raw_gnn_quality``, ``degraded_reason``,
        SHA-256 checksums), ``weights.npz`` (GNN parameters by dotted
        name) when red is fitted, ``tiers.pkl`` (green and yellow,
        database-free) when a cheaper tier is, and
        ``data.npz`` — the database the model answers from, as a
        columnar snapshot (:mod:`repro.relational.snapshot`) with its
        checksum, per-table row counts and newest timestamp in the
        manifest.  The artifact is therefore self-contained:
        :meth:`load` with no database serves exactly the data the model
        was saved over, and a database passed to :meth:`load` (a
        refreshed or schema-compatible one) still takes precedence.
        Everything is staged into a sibling temp directory and renamed
        into place, so a crash mid-save never corrupts a previously
        saved model or its snapshot.
        """
        trainer = self.node_trainer or self.link_trainer
        manifest = {
            "query": str(self.binding.query),
            "config": dataclasses.asdict(self.config),
            "task_type": self.task_type.value,
            "stats_cutoff": self.stats_cutoff,
            "router": dataclasses.asdict(self.router),
            "blas": BLAS,
        }
        if self.node_trainer is not None:
            manifest["target_mean"] = self.node_trainer._target_mean
            manifest["target_std"] = self.node_trainer._target_std
        if self.quality:
            manifest.update(
                quality={t: float(q) for t, q in self.quality.items()},
                per_row_ms=self.cost.per_row_ms(),
                overhead_ms=self.cost.overhead_ms(),
                blend_alpha=self.blend_alpha,
                raw_gnn_quality=self.raw_gnn_quality,
            )
        if self.degraded_reason is not None:
            manifest["degraded_reason"] = self.degraded_reason

        staging = directory.rstrip(os.sep) + ".tmp"
        if os.path.exists(staging):
            shutil.rmtree(staging)
        os.makedirs(staging)
        paths = {role: os.path.join(staging, name) for role, name in _FILES.items()}
        if trainer is not None:
            atomic_write_npz(paths["weights"], trainer.model.state_dict())
        if self.yellow is not None or self.green.fitted:
            rungs = pickle.dumps({"green": self.green, "yellow": self.yellow})
            atomic_write_bytes(paths["tiers"], rungs)
        write_snapshot(self.db, paths["data"])
        for role, path in paths.items():
            if os.path.exists(path):
                manifest[f"{role}_sha256"] = sha256_file(path)
        span = self.db.time_span()
        manifest["data_rows"] = {table.name: table.num_rows for table in self.db}
        manifest["data_max_timestamp"] = span[1] if span else None
        atomic_write_json(os.path.join(staging, self.MANIFEST_FILE), manifest)
        # Crash window under test: everything staged, commit pending.  A
        # kill here must leave any previously saved model untouched.
        fault_point("planner.save")
        backup = directory.rstrip(os.sep) + ".old"
        if os.path.exists(backup):
            shutil.rmtree(backup)
        if os.path.isdir(directory):
            os.rename(directory, backup)
        os.rename(staging, directory)
        if os.path.exists(backup):
            shutil.rmtree(backup)
        _log.info(
            "model saved",
            extra={"directory": directory, "tiers": ",".join(self.available_tiers())},
        )

    @classmethod
    def root_file(cls, directory: str) -> str:
        """The head of a saved model's checksum chain: what a registry hashes."""
        legacy = os.path.join(directory, _LEGACY_ROUTING)
        return legacy if os.path.exists(legacy) else os.path.join(directory, cls.MANIFEST_FILE)

    @classmethod
    def read_manifest(cls, directory: str) -> dict:
        """The saved model's manifest, each payload's path under ``files``.

        Also the one read-only reader of the layouts earlier releases
        wrote, returned in the current schema: a routed ``routing.json``
        over a checksummed ``red/`` plain directory, and a degraded
        ``fallback.pkl`` holding one rung.
        """
        root = cls.root_file(directory)
        if not root.endswith(_LEGACY_ROUTING):
            return _with_files(_read_json(root))
        routing = _read_json(root)
        red = _verified(directory, os.path.join(_LEGACY_RED, cls.MANIFEST_FILE),
                        routing.pop("red_manifest_sha256", None))
        manifest = _with_files(_read_json(red), _LEGACY_RED)
        manifest.update(routing)
        manifest["files"]["tiers"] = _FILES["tiers"]
        return manifest

    @classmethod
    def verify_data(cls, directory: str) -> Optional[str]:
        """Re-hash a saved model's data snapshot against its manifest.

        Returns the checksum, or None for an artifact saved without a
        snapshot; a missing or altered ``data.npz`` raises
        :class:`CorruptModelError`.
        """
        manifest = cls.read_manifest(directory)
        expected = manifest.get("data_sha256")
        if expected is not None:
            _verified(directory, manifest["files"]["data"], expected)
        return expected

    @classmethod
    def load(cls, directory: str, db: Optional[Database] = None) -> "PredictiveModel":
        """Reload a model saved by :meth:`save`.

        With ``db=None`` the database is the artifact's own snapshot,
        read (never unpickled) after it passes its manifest SHA-256 and
        re-validated; an artifact saved before snapshots existed raises
        :class:`NoSnapshotError`.  A passed ``db`` is used unchanged and
        the snapshot is not touched.  Either way the graph is recompiled
        with the persisted feature-statistics cutoff, the architecture
        is rebuilt from the persisted config, and the weights and the
        cheap tiers are restored — after every payload passes its
        manifest SHA-256 (mismatch raises :class:`CorruptModelError`).
        A model whose GNN stage did not degrade must carry its weights.
        Directories written by earlier versions still load (through
        :meth:`read_manifest`): retired config keys are ignored, float64
        weights are cast to the model's float32 on assignment, and a
        LIST model's config takes the layer settings its tower was
        trained with (``_LEGACY_LINK_TOWER``).
        """
        manifest = cls.read_manifest(directory)
        files = manifest["files"]
        if db is None:
            data_sha256 = manifest.get("data_sha256")
            if data_sha256 is None:
                raise NoSnapshotError(
                    f"{directory!r} was saved without a data snapshot; "
                    f"pass the database it was fitted on"
                )
            db = read_snapshot(_verified(directory, files["data"], data_sha256))
            db.source, db.source_sha256 = "snapshot", data_sha256
        known = {spec.name for spec in dataclasses.fields(PlannerConfig)}
        config = PlannerConfig(**{
            key: value for key, value in manifest["config"].items() if key in known
        })
        binding = PredictiveQueryPlanner(db, config).plan(manifest["query"])
        if binding.task_type == TaskType.LINK and "blas" not in manifest:
            config = dataclasses.replace(config, **_LEGACY_LINK_TOWER)
        graph = build_graph(db, stats_cutoff=manifest["stats_cutoff"])

        trainers = {}
        if "weights_sha256" in manifest or manifest.get("degraded_reason") is None:
            metadata = GraphMetadata.from_graph(graph)
            rng = np.random.default_rng(config.seed)
            sampler = config.make_sampler(graph)
            link = binding.task_type == TaskType.LINK
            network = (config.make_link_network(metadata, graph, binding.item_table, rng) if link
                       else config.make_node_network(metadata, rng))
            weights_path = _verified(directory, files["weights"], manifest.get("weights_sha256"))
            weights = np.load(weights_path)
            network.load_state_dict({name: weights[name] for name in weights.files})
            if link:
                trainers["link_trainer"] = LinkTaskTrainer(
                    network, graph, sampler, config=config.train_config()
                )
            else:
                task = "binary" if binding.task_type == TaskType.BINARY else "regression"
                trainer = NodeTaskTrainer(network, graph, sampler, task,
                                          config=config.train_config())
                trainer._target_mean = manifest.get("target_mean", 0.0)
                trainer._target_std = manifest.get("target_std", 1.0)
                trainers["node_trainer"] = trainer

        green = yellow = None
        if "tiers_sha256" in manifest:
            with open(_verified(directory, files["tiers"], manifest["tiers_sha256"]), "rb") as fh:
                rungs = pickle.load(fh)
            if not isinstance(rungs, dict):  # a legacy fallback.pkl: yellow over green, or green
                rungs = ({"green": rungs.green, "yellow": rungs} if rungs.kind == YELLOW
                         else {"green": rungs, "yellow": None})
            green, yellow = rungs["green"], rungs["yellow"]
            if yellow is not None and yellow.green is None:
                yellow.green = green  # a file written before yellow pickled its green tier
            (yellow or green).bind(db, graph)  # yellow binds the green it stacks
        return cls(
            db, binding, graph, config, green=green, yellow=yellow,
            router=RouterConfig(**manifest.get("router", {})),
            quality=manifest.get("quality"),
            cost=CostModel(manifest.get("per_row_ms", {}), overhead_ms=manifest.get("overhead_ms")),
            blend_alpha=manifest.get("blend_alpha", 1.0),
            raw_gnn_quality=manifest.get("raw_gnn_quality"),
            degraded_reason=manifest.get("degraded_reason"),
            stats_cutoff=manifest["stats_cutoff"],
            **trainers,
        )

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self, cutoff: int, table_name: str = "predictions") -> "Table":
        """Predictions for every eligible entity, as a relational table.

        The result has the entity key column plus a ``score`` column
        (P(positive) for binary queries, predicted value for
        regression) and a ``cutoff`` timestamp column; it can be added
        to a database, queried with SQL, or exported to CSV — closing
        the declarative loop.
        """
        if self.task_type == TaskType.LINK:
            raise RuntimeError("materialize() supports node tasks; LIST queries rank instead")
        labels = build_label_table(self.db, self.binding, [int(cutoff)])
        scores = self.predict(labels.entity_keys, int(cutoff))
        from repro.relational.column import Column
        from repro.relational.schema import ColumnSpec, TableSchema
        from repro.relational.table import Table
        from repro.relational.types import DType

        key_dtype = self.binding.entity_schema.dtype_of(self.binding.entity_schema.primary_key)
        schema = TableSchema(
            table_name,
            [
                ColumnSpec("entity_key", key_dtype),
                ColumnSpec("score", DType.FLOAT64),
                ColumnSpec("cutoff", DType.TIMESTAMP),
            ],
            time_column="cutoff",
        )
        return Table(
            schema,
            {
                "entity_key": Column(labels.entity_keys, key_dtype),
                "score": Column(np.asarray(scores, dtype=np.float64), DType.FLOAT64),
                "cutoff": Column(
                    np.full(len(labels), int(cutoff), dtype=np.int64), DType.TIMESTAMP
                ),
            },
        )


# Kept for their readers in benchmarks/e2e until the re-baseline PR (ROADMAP item 7).
TrainedPredictiveModel = RoutedPredictiveModel = PredictiveModel


# Kept for its reader benchmarks/e2e/workloads.py until the re-baseline PR (ROADMAP item 7).
def is_routed_dir(directory: str) -> bool:
    """Whether ``directory`` holds a model saved with a calibrated ladder."""
    return bool(PredictiveModel.read_manifest(directory).get("quality"))

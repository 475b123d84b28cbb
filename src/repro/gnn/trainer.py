"""Mini-batch training of node-level predictive tasks.

The trainer owns the loop the predictive-query planner compiles to:
shuffle seeds, sample a time-respecting subgraph per batch, forward,
loss, backward, clip, step — with early stopping on validation loss and
best-weight restoration.

Both trainers run their epochs through one shared fault-tolerant
loop (:class:`_ResilientLoop`), which owns the one epoch body and the
one validation-loss body; a trainer contributes only its
``_batch_loss(seed_type, ids, times, targets, subgraph)``:

* every optimizer step is watched by a divergence guard — a NaN/inf
  loss or an exploding pre-clip gradient norm restores the last good
  epoch snapshot, backs off the learning rate, and replays the epoch,
  a bounded number of times before raising
  :class:`~repro.resilience.DivergenceError`;
* with a :class:`~repro.resilience.ResilienceConfig` ``checkpoint_dir``
  passed to ``fit``, every epoch commits an atomic, checksummed
  checkpoint capturing weights, best weights, optimizer moments, whether
  early stopping has ended the run, and the trainer's RNG state (its
  one generator shuffles and draws negatives; the models hold none, and
  the neighbor sampler holds none either, its draws are a function of
  the batch) — so a killed or failed run resumed with ``resume=True``
  replays the remaining epochs bit-identically to an uninterrupted run,
  and a finished one resumes as finished.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.gnn.models import HeteroGNN, TwoTowerModel
from repro.graph.hetero import HeteroGraph
from repro.graph.sampler import NeighborSampler
from repro.nn.losses import binary_cross_entropy_with_logits, bpr_loss, mse_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.obs import get_logger, get_registry
from repro.obs import trace as obs_trace
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.config import ResilienceConfig
from repro.resilience.faults import corrupt_value, fault_point
from repro.resilience.guards import DivergenceGuard

__all__ = ["TrainConfig", "NodeTaskTrainer", "LinkTaskTrainer"]

_TASK_TYPES = ("binary", "regression")

_log = get_logger("gnn.trainer")


@dataclass
class TrainConfig:
    """Hyperparameters for :class:`NodeTaskTrainer`.

    The one place each loop default is written.
    :class:`~repro.pql.planner.PlannerConfig` takes its ``epochs``,
    ``batch_size``, ``seed`` and ``infer_batch_size`` defaults from
    here; the optimizer and early-stopping values are set only here.
    """

    epochs: int = 15
    batch_size: int = 256
    lr: float = 5e-3
    weight_decay: float = 1e-5
    patience: int = 5
    clip_norm: float = 5.0
    seed: int = 0
    #: Batch size for no-grad evaluation/prediction.  Inference builds
    #: no backward graph, so it can usually run much larger batches
    #: than training; ``None`` falls back to ``batch_size``.
    infer_batch_size: Optional[int] = None

    @property
    def effective_infer_batch_size(self) -> int:
        """Batch size used by evaluation/prediction paths."""
        return self.infer_batch_size or self.batch_size


@dataclass
class _History:
    """Per-epoch training telemetry returned by ``fit``.

    Beyond losses, each epoch records its wall time, its training
    throughput (examples per second), and how many optimizer steps
    activated gradient clipping (pre-clip norm above ``clip_norm``).
    """

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    best_epoch: int = -1
    epoch_seconds: List[float] = field(default_factory=list)
    examples_per_sec: List[float] = field(default_factory=list)
    clip_events: int = 0
    #: Divergence recoveries performed during this fit.
    divergence_recoveries: int = 0
    #: Epoch the run resumed from (0 = fresh start).
    resumed_from_epoch: int = 0

    @property
    def total_seconds(self) -> float:
        """Wall time summed over recorded epochs."""
        return float(sum(self.epoch_seconds))


def _record_epoch(
    history: _History, epoch: int, clock_start: float, num_examples: int, clip_events: int
) -> None:
    """Stamp one finished epoch's wall time, throughput, and clip count."""
    elapsed = time.perf_counter() - clock_start
    history.epoch_seconds.append(elapsed)
    history.examples_per_sec.append(num_examples / elapsed if elapsed > 0 else 0.0)
    history.clip_events += int(clip_events)
    if obs_trace.enabled():
        obs_trace.add_counter("train.epochs")
        obs_trace.add_counter("train.examples", num_examples)
        obs_trace.add_counter("train.clip_events", clip_events)
        obs_trace.add_counter("train.seconds", elapsed)
    _log.info(
        "epoch finished",
        extra={
            "epoch": epoch,
            "train_loss": round(history.train_loss[-1], 6) if history.train_loss else None,
            "seconds": round(elapsed, 4),
            "examples_per_sec": round(history.examples_per_sec[-1], 1),
            "clip_events": int(clip_events),
        },
    )


def _epoch_batches(
    trainer, seed_type: str, ids: np.ndarray, times: np.ndarray, order: np.ndarray
) -> Iterator[Tuple[np.ndarray, "SampledSubgraph"]]:
    """Yield ``(batch_indices, subgraph)`` for one shuffled epoch, each
    batch sampled right before its forward pass."""
    batch_size = trainer.config.batch_size
    for start in range(0, len(order), batch_size):
        batch = order[start : start + batch_size]
        yield batch, trainer.sampler.sample(seed_type, ids[batch], times[batch])


#: Validation batches a fit keeps (about 0.3 MB each at the default
#: batch size and fanouts); a larger validation set re-samples the rest
#: every epoch, as all of it used to be.
_HELD_BATCHES = 32


def _eval_batches(
    trainer, seed_type: str, ids: np.ndarray, times: np.ndarray, held: Optional[dict] = None
) -> Iterator[Tuple[slice, "SampledSubgraph"]]:
    """Yield ``(rows, subgraph)`` over inference-size batches.

    ``held`` (:attr:`_ResilientLoop.held`; ``None`` samples afresh
    every call) keeps the first :data:`_HELD_BATCHES` subgraphs, with
    their aggregation plans, for the next call: a fit validates on the
    same batches after every epoch.
    """
    batch_size = trainer.config.effective_infer_batch_size
    for start in range(0, len(ids), batch_size):
        rows = slice(start, start + batch_size)
        key = (start, trainer.graph.version)
        subgraph = held.get(key) if held is not None else None
        if subgraph is None:
            subgraph = trainer.sampler.sample(seed_type, ids[rows], times[rows])
            if held is not None and len(held) < _HELD_BATCHES:
                held[key] = subgraph
        yield rows, subgraph


class _Diverged(Exception):
    """Internal signal: the current epoch hit a divergence condition."""

    def __init__(self, reason: str, value: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.value = float(value)


class _ResilientLoop:
    """The shared epoch loop: the one epoch body and validation-loss
    body, early stopping, guards, checkpoints, resume.

    Both bodies call the trainer's ``_batch_loss(seed_type, ids, times,
    targets, subgraph)``; a training step raises :class:`_Diverged` on a
    divergence condition *before* the offending optimizer step is
    applied.  ``run_digest`` names the run in every checkpoint, and a
    resume refuses a checkpoint stamped with another (or none).
    """

    CHECKPOINT_SLOT = "train"

    def __init__(
        self,
        trainer,
        resilience: Optional[ResilienceConfig] = None,
        run_digest: Optional[str] = None,
    ) -> None:
        self.trainer = trainer
        self.resilience = resilience or ResilienceConfig()
        self.run_digest = run_digest
        cfg = trainer.config
        self.optimizer = Adam(
            trainer.model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay
        )
        self.guard = DivergenceGuard(max_recoveries=self.resilience.divergence_recoveries)
        directory = self.resilience.checkpoint_dir
        self.ckpt = CheckpointManager(directory) if directory else None
        self.best_val = float("inf")
        self.best_state = trainer.model.state_dict()
        self.stale = 0
        #: Whether early stopping has ended the run (checkpointed, so a
        #: finished run resumes as finished).
        self.stopped = False
        self.current_lr = self.optimizer.lr
        #: Validation subgraphs kept across epochs (:func:`_eval_batches`):
        #: the sampler would redraw them identically every time.
        self.held: dict = {}

    # -- Snapshot / restore ---------------------------------------------
    def _snapshot(self, next_epoch: int) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        arrays: Dict[str, np.ndarray] = {}
        for name, value in self.trainer.model.state_dict().items():
            arrays[f"model.{name}"] = value
        for name, value in self.best_state.items():
            arrays[f"best.{name}"] = np.asarray(value).copy()
        for idx, moment in self.optimizer._m.items():
            arrays[f"opt.m.{idx}"] = moment.copy()
        for idx, moment in self.optimizer._v.items():
            arrays[f"opt.v.{idx}"] = moment.copy()
        history = self.trainer.history
        meta: Dict[str, Any] = {
            "run": self.run_digest,
            "next_epoch": next_epoch,
            "stopped": self.stopped,
            "adam_t": self.optimizer._t,
            "lr": self.optimizer.lr,
            "best_val": self.best_val,
            "best_epoch": history.best_epoch,
            "stale": self.stale,
            "recoveries": self.guard.recoveries,
            "history": {
                "train_loss": list(history.train_loss),
                "val_loss": list(history.val_loss),
                "epoch_seconds": list(history.epoch_seconds),
                "examples_per_sec": list(history.examples_per_sec),
                "clip_events": int(history.clip_events),
            },
            "rng_states": [self.trainer._rng.bit_generator.state],
            "target_mean": getattr(self.trainer, "_target_mean", None),
            "target_std": getattr(self.trainer, "_target_std", None),
        }
        return arrays, meta

    def _restore(self, arrays: Dict[str, np.ndarray], meta: Dict[str, Any]) -> None:
        model_state = {
            name[len("model."):]: value for name, value in arrays.items()
            if name.startswith("model.")
        }
        self.trainer.model.load_state_dict(model_state)
        self.best_state = {
            name[len("best."):]: value.copy() for name, value in arrays.items()
            if name.startswith("best.")
        }
        self.optimizer._m = {
            int(name[len("opt.m."):]): value.copy() for name, value in arrays.items()
            if name.startswith("opt.m.")
        }
        self.optimizer._v = {
            int(name[len("opt.v."):]): value.copy() for name, value in arrays.items()
            if name.startswith("opt.v.")
        }
        self.optimizer._t = int(meta["adam_t"])
        self.optimizer.lr = float(meta["lr"])
        self.best_val = float(meta["best_val"])
        self.stale = int(meta["stale"])
        self.stopped = bool(meta["stopped"])
        history = self.trainer.history
        saved = meta["history"]
        history.train_loss[:] = [float(v) for v in saved["train_loss"]]
        history.val_loss[:] = [float(v) for v in saved["val_loss"]]
        history.epoch_seconds[:] = [float(v) for v in saved["epoch_seconds"]]
        history.examples_per_sec[:] = [float(v) for v in saved["examples_per_sec"]]
        history.clip_events = int(saved["clip_events"])
        history.best_epoch = int(meta["best_epoch"])
        states = meta["rng_states"]
        if len(states) != 1:
            raise ValueError(
                f"checkpoint has {len(states)} RNG states; a trainer has one generator"
            )
        self.trainer._rng.bit_generator.state = states[0]
        if meta.get("target_mean") is not None:
            self.trainer._target_mean = float(meta["target_mean"])
            self.trainer._target_std = float(meta["target_std"])

    # -- The epoch and validation bodies --------------------------------
    def _train_epoch(self, seed_type, ids, times, targets) -> Tuple[float, int]:
        """One shuffled epoch of optimizer steps: ``(mean_loss, clip_events)``."""
        trainer, optimizer, clip_norm = self.trainer, self.optimizer, self.trainer.config.clip_norm
        clip_events = 0
        order = trainer._rng.permutation(len(ids))
        losses = []
        for batch, subgraph in _epoch_batches(trainer, seed_type, ids, times, order):
            fault_point("trainer.step")
            loss = trainer._batch_loss(seed_type, ids[batch], times[batch], targets[batch], subgraph)
            loss_value = corrupt_value("trainer.loss", float(loss.item()))
            reason = self.guard.check_loss(loss_value)
            if reason is not None:
                raise _Diverged(reason, loss_value)
            optimizer.zero_grad()
            loss.backward()
            norm = optimizer.gather_and_clip(clip_norm)
            reason = self.guard.check_grad_norm(norm)
            if reason is not None:
                raise _Diverged(reason, norm)
            clip_events += norm > clip_norm
            optimizer.step()
            losses.append(loss_value)
        return float(np.mean(losses)), clip_events

    def _val_loss(self, seed_type, ids, times, targets) -> float:
        """The row-weighted no-grad loss over the held validation batches."""
        trainer = self.trainer
        losses, weights = [], []
        with no_grad():
            for rows, subgraph in _eval_batches(trainer, seed_type, ids, times, self.held):
                loss = trainer._batch_loss(seed_type, ids[rows], times[rows], targets[rows], subgraph)
                losses.append(loss.item())
                weights.append(len(ids[rows]))
        return float(np.average(losses, weights=weights))

    # -- Driver ----------------------------------------------------------
    def _resume(self) -> int:
        """Restore the committed checkpoint; returns the epoch to run next."""
        arrays, meta = self.ckpt.load(self.CHECKPOINT_SLOT)
        if "run" not in meta or meta["run"] != self.run_digest:
            raise ValueError(
                f"the checkpoint in {self.ckpt.directory!r} was written by a different "
                f"fit (query, config or training labels differ, or it predates run "
                f"stamps); refusing to resume — use a fresh checkpoint directory"
            )
        self._restore(arrays, meta)
        self.guard.recoveries = int(meta["recoveries"])
        self.current_lr = self.optimizer.lr
        start_epoch = int(meta["next_epoch"])
        self.trainer.history.resumed_from_epoch = start_epoch
        _log.info(
            "resumed from checkpoint",
            extra={"checkpoint_dir": self.ckpt.directory, "next_epoch": start_epoch,
                   "stopped": self.stopped},
        )
        return start_epoch

    def run(self, seed_type: str, train: tuple, val: Optional[tuple] = None) -> None:
        """Train on ``train = (ids, times, targets)``, early-stopping on
        the loss over ``val`` (same shape) when given, with the guards,
        checkpoints and resume of the resilience policy; leaves the best
        weights loaded."""
        cfg = self.trainer.config
        history = self.trainer.history
        start_epoch = 0
        if self.ckpt is not None and self.resilience.resume and self.ckpt.has(self.CHECKPOINT_SLOT):
            start_epoch = self._resume()
        # The divergence restore point; refreshed after every good epoch.
        last_good = self._snapshot(next_epoch=start_epoch)

        epoch = start_epoch
        while epoch < cfg.epochs and not self.stopped:
            epoch_clock = time.perf_counter()
            try:
                mean_loss, clip_events = self._train_epoch(seed_type, *train)
            except _Diverged as div:
                self.guard.record_recovery(div.reason, epoch, div.value)
                history.divergence_recoveries = self.guard.recoveries
                self.current_lr *= self.guard.lr_factor
                self._restore(*last_good)
                self.optimizer.lr = self.current_lr
                get_registry().counter("resilience.divergence_recoveries").inc()
                obs_trace.add_counter("train.divergence_recoveries")
                _log.warning(
                    "divergence detected; restored last good state and backed off LR",
                    extra={"epoch": epoch, "reason": div.reason, "value": div.value,
                           "lr": self.optimizer.lr, "recoveries": self.guard.recoveries},
                )
                continue  # replay the same epoch at the reduced LR
            history.train_loss.append(mean_loss)
            _record_epoch(history, epoch, epoch_clock, len(train[0]), clip_events)

            if val is not None:
                val_loss = self._val_loss(seed_type, *val)
                history.val_loss.append(val_loss)
                if math.isnan(val_loss):
                    # nan < best is always False, so NaN could silently
                    # masquerade as "no improvement" forever; make it
                    # explicit and visible.
                    _log.warning(
                        "validation loss is NaN; counting as no improvement",
                        extra={"epoch": epoch},
                    )
                    improved = False
                else:
                    improved = val_loss < self.best_val - 1e-6
                if improved:
                    self.best_val = val_loss
                    self.best_state = self.trainer.model.state_dict()
                    history.best_epoch = epoch
                    self.stale = 0
                else:
                    self.stale += 1
                    if self.stale >= cfg.patience:
                        self.stopped = True

            last_good = self._snapshot(next_epoch=epoch + 1)
            if self.ckpt is not None:
                self.ckpt.save(self.CHECKPOINT_SLOT, *last_good)
            fault_point("trainer.epoch")
            epoch += 1

        if val is not None:
            self.trainer.model.load_state_dict(self.best_state)


class NodeTaskTrainer:
    """Trains a :class:`~repro.gnn.models.HeteroGNN` on one node task.

    Parameters
    ----------
    model:
        The GNN; its ``out_dim`` is 1.
    graph:
        The full heterogeneous graph.
    sampler:
        Time-respecting sampler whose depth should equal the model's
        message-passing depth.
    task_type:
        ``"binary"`` or ``"regression"``.
    config:
        Loop hyperparameters.
    """

    def __init__(
        self,
        model: HeteroGNN,
        graph: HeteroGraph,
        sampler: NeighborSampler,
        task_type: str,
        config: Optional[TrainConfig] = None,
    ) -> None:
        if task_type not in _TASK_TYPES:
            raise ValueError(f"task_type must be one of {_TASK_TYPES}, got {task_type!r}")
        self.model = model
        self.graph = graph
        self.sampler = sampler
        self.task_type = task_type
        self.config = config or TrainConfig()
        self.history = _History()
        self._rng = np.random.default_rng(self.config.seed)
        self._target_mean = 0.0
        self._target_std = 1.0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        seed_type: str,
        train_ids: np.ndarray,
        train_times: np.ndarray,
        train_labels: np.ndarray,
        val_ids: Optional[np.ndarray] = None,
        val_times: Optional[np.ndarray] = None,
        val_labels: Optional[np.ndarray] = None,
        resilience: Optional[ResilienceConfig] = None,
        run_digest: Optional[str] = None,
    ) -> _History:
        """Train with early stopping; returns the loss history.

        Regression targets are standardized with train statistics (and
        de-standardized at prediction time).  ``resilience`` sets the
        checkpoint/resume/divergence policy; ``run_digest`` names the
        run in its checkpoints (see :class:`_ResilientLoop`).
        """
        train_labels = self._prepare_targets(train_labels, fit=True)
        val = None
        if val_ids is not None:
            val = (val_ids, val_times, self._prepare_targets(val_labels, fit=False))
        _ResilientLoop(self, resilience, run_digest).run(
            seed_type, (train_ids, train_times, train_labels), val
        )
        return self.history

    def _prepare_targets(self, labels: np.ndarray, fit: bool) -> np.ndarray:
        labels = np.asarray(labels, dtype=np.float64)
        if self.task_type == "regression":
            if fit:
                self._target_mean = float(labels.mean())
                self._target_std = float(labels.std()) or 1.0
            return (labels - self._target_mean) / self._target_std
        return labels

    def _batch_loss(self, seed_type, ids, times, labels, subgraph):
        outputs = self.model(subgraph, self.graph)
        if self.task_type == "binary":
            return binary_cross_entropy_with_logits(outputs.reshape(len(ids)), labels)
        return mse_loss(outputs.reshape(len(ids)), labels)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, seed_type: str, ids: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Model predictions for the given seeds.

        Binary → probability of the positive class, shape (n,).
        Regression → de-standardized values, shape (n,).
        """
        outputs: List[np.ndarray] = []
        with no_grad():
            for _, subgraph in _eval_batches(self, seed_type, ids, times):
                raw = self.model(subgraph, self.graph)
                if self.task_type == "binary":
                    outputs.append(raw.reshape(len(raw)).sigmoid().data)
                else:
                    outputs.append(
                        raw.reshape(len(raw)).data * self._target_std + self._target_mean
                    )
        return np.concatenate(outputs) if outputs else np.empty(0)

    def export_scores(self, seed_type: str, ids: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Raw pre-activation model scores, shape (n,) — the hybrid export.

        Binary → logits (no sigmoid); regression → standardized outputs
        (no de-normalization).  Score stacking (the GBDT→GNN hybrid in
        :mod:`repro.pql.router`) wants the model's unsquashed margin as
        a feature column: a downstream stacker can re-calibrate it,
        whereas a saturated probability throws resolution away.
        Sampling follows the same deterministic-inference contract as
        :meth:`predict`, so exported scores are reproducible.
        """
        outputs: List[np.ndarray] = []
        with no_grad():
            for _, subgraph in _eval_batches(self, seed_type, ids, times):
                raw = self.model(subgraph, self.graph)
                outputs.append(raw.reshape(len(raw)).data.copy())
        return np.concatenate(outputs) if outputs else np.empty(0)


class LinkTaskTrainer:
    """Trains a :class:`~repro.gnn.models.TwoTowerModel` with BPR loss.

    Training examples are (query entity, seed time, positive item)
    triples; each step samples ``num_negatives`` uniform negative items
    per positive and minimizes the Bayesian-personalized-ranking loss
    between the positive score and each negative score.
    """

    def __init__(
        self,
        model: TwoTowerModel,
        graph: HeteroGraph,
        sampler: NeighborSampler,
        config: Optional[TrainConfig] = None,
        num_negatives: int = 4,
    ) -> None:
        self.model = model
        self.graph = graph
        self.sampler = sampler
        self.config = config or TrainConfig()
        self.num_negatives = num_negatives
        self.history = _History()
        self._rng = np.random.default_rng(self.config.seed)
        #: ((item-type version, item_ids bytes), embeddings) memo for
        #: inference; see :meth:`_cached_item_embeddings`.
        self._item_embed_cache: Optional[Tuple[Tuple[int, bytes], Tensor]] = None

    def fit(
        self,
        seed_type: str,
        query_ids: np.ndarray,
        query_times: np.ndarray,
        pos_item_ids: np.ndarray,
        val_query_ids: Optional[np.ndarray] = None,
        val_query_times: Optional[np.ndarray] = None,
        val_pos_item_ids: Optional[np.ndarray] = None,
        resilience: Optional[ResilienceConfig] = None,
        run_digest: Optional[str] = None,
    ) -> _History:
        """Train on positive (query, item) pairs with sampled negatives;
        ``resilience`` and ``run_digest`` as in :meth:`NodeTaskTrainer.fit`."""
        self._item_embed_cache = None  # parameters are about to change
        val = None
        if val_query_ids is not None:
            val = (val_query_ids, val_query_times, val_pos_item_ids)
        _ResilientLoop(self, resilience, run_digest).run(
            seed_type, (query_ids, query_times, pos_item_ids), val
        )
        self._item_embed_cache = None  # drop anything cached mid-fit
        return self.history

    def _batch_loss(self, seed_type, query_ids, query_times, pos_items, subgraph):
        queries = self.model.query_embeddings(subgraph, self.graph)
        pos_embed = self.model.item_embeddings(pos_items, self.graph)
        pos_scores = self.model.score_pairs(queries, pos_embed)
        total = None
        for _ in range(self.num_negatives):
            num_items = self.graph.num_nodes(self.model.item_type)
            negatives = self._rng.integers(0, num_items, size=len(query_ids))
            neg_embed = self.model.item_embeddings(negatives, self.graph)
            neg_scores = self.model.score_pairs(queries, neg_embed)
            term = bpr_loss(pos_scores, neg_scores)
            total = term if total is None else total + term
        return total * (1.0 / self.num_negatives)

    def score_against_items(
        self,
        seed_type: str,
        query_ids: np.ndarray,
        query_times: np.ndarray,
        item_ids: np.ndarray,
    ) -> np.ndarray:
        """Score every query against every item: (num_queries, num_items)."""
        blocks: List[np.ndarray] = []
        with no_grad():
            items = self._cached_item_embeddings(item_ids)
            for _, subgraph in _eval_batches(self, seed_type, query_ids, query_times):
                queries = self.model.query_embeddings(subgraph, self.graph)
                blocks.append(self.model.score(queries, items).data)
        if not blocks:
            return np.zeros((0, len(item_ids)))
        return np.vstack(blocks)

    def _cached_item_embeddings(self, item_ids: np.ndarray) -> Tensor:
        """Item-tower embeddings, memoized across inference calls.

        The item tower sees the same ids on every ``rank_items`` /
        ``score_against_items`` call, so its forward pass is pure
        repeated work once the model is frozen.  The memo answers only
        for the item type as it was when computed (its last-changed
        version is part of the key); ``fit`` invalidates it
        (parameters change every step).
        """
        key = (
            self.graph.last_changed(self.model.item_type),
            np.asarray(item_ids, dtype=np.int64).tobytes(),
        )
        cached = self._item_embed_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        items = self.model.item_embeddings(item_ids, self.graph)
        self._item_embed_cache = (key, items)
        return items

    def reconcile(self) -> Dict[str, int]:
        """Drop the item memo now if the item type changed under it
        (the next call would anyway); a ``refresh_model`` counter."""
        cached = self._item_embed_cache
        stale = cached is not None and cached[0][0] != self.graph.last_changed(self.model.item_type)
        if stale:
            self._item_embed_cache = None
        return {"item_memo_dropped": int(stale)}

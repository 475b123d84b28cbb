"""Gradient-boosted decision trees from scratch.

A faithful stand-in for the LightGBM/XGBoost baseline:

* **Histogram splits** — each feature is quantile-binned once (up to
  ``max_bins`` bins).  A node's split search is one O(rows × features)
  histogram pass over *all* features (three ``np.bincount`` calls on
  ``feature * width + bin`` codes: gradient, hessian, count) plus one
  O(features × bins) vector scan of every candidate's gain.  The scan
  is bit-identical to a feature-major / bin-major / missing-left-first
  loop keeping the first strictly best gain
  (``tests/oracles.py:LoopTreeGrower``): within a histogram cell rows
  accumulate in ascending row order, node totals are ``g[rows].sum()``,
  squares are products, and a child's histogram is never derived as
  parent − sibling, because that changes the float sums.
* **Second-order boosting** — leaf values are the Newton step
  ``-Σg / (Σh + λ)``, with squared loss for regression and logistic
  loss for binary classification.
* **Shrinkage, subsampling, early stopping** on a validation set.

NaN feature values are routed to their own bin (missing-value support,
matching how the manual-feature baseline produces undefined
aggregates).  Only ``fit`` bins: prediction descends on raw values,
each node comparing against its split value ``edges[threshold_bin - 1]``
— the same leaves as the binned walk (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["DecisionTreeRegressor", "GradientBoostingRegressor", "GradientBoostingClassifier"]

_MISSING_BIN = 0  # NaNs map to bin 0; real values start at bin 1.


class _Binner:
    """Quantile binning shared by all trees of an ensemble."""

    def __init__(self, max_bins: int = 32) -> None:
        if max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        self.max_bins = max_bins
        self.edges_: List[np.ndarray] = []

    def fit(self, x: np.ndarray) -> "_Binner":
        """Compute per-feature quantile edges from training data."""
        self.edges_ = []
        self._matrix = None
        for j in range(x.shape[1]):
            column = x[:, j]
            finite = column[np.isfinite(column)]
            if len(finite) == 0:
                self.edges_.append(np.empty(0))
                continue
            quantiles = np.linspace(0, 1, self.max_bins + 1)[1:-1]
            edges = np.unique(np.quantile(finite, quantiles))
            self.edges_.append(edges)
        return self

    def _edge_matrix(self) -> np.ndarray:
        """Per-feature edges padded to a rectangle with +inf (cached;
        the split values of :func:`_raw_walk` are read off it)."""
        matrix = getattr(self, "_matrix", None)
        if matrix is None:
            width = max((len(edges) for edges in self.edges_), default=0)
            matrix = np.full((len(self.edges_), max(width, 1)), np.inf)
            for j, edges in enumerate(self.edges_):
                matrix[j, : len(edges)] = edges
            self._matrix = matrix
        return matrix

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Bin indices, shape (n, features); NaN → bin 0."""
        if not self.edges_:
            raise RuntimeError("binner not fitted")
        n, num_features = x.shape
        binned = np.zeros((n, num_features), dtype=np.int32)
        for j in range(num_features):
            column = x[:, j]
            finite = np.isfinite(column)
            binned[finite, j] = (
                np.searchsorted(self.edges_[j], column[finite], side="right") + 1
            )
        return binned

    def num_bins(self, feature: int) -> int:
        """Bins for one feature, including the missing bin."""
        return len(self.edges_[feature]) + 2


def _raw_walk(binner: _Binner, feature, threshold_bin, left, right) -> Tuple[np.ndarray, ...]:
    """What a descent on raw values reads besides the node arrays: each
    node's split value — a finite ``v`` has bin ``<= t`` exactly when
    ``v < edges[t - 1]`` (a leaf's is unused) — and its children,
    right at ``2 * node`` and left at ``2 * node + 1``."""
    split = binner._edge_matrix()[feature, np.maximum(threshold_bin, 1) - 1]
    return split, np.stack([right, left], axis=1).ravel()


def _descend(x, idx, feature, split, children, missing_left, depth: int) -> np.ndarray:
    """Step the nodes ``idx`` (one row of it per row of ``x``) ``depth``
    times on raw values; a non-finite value goes its node's missing way."""
    flat = x.ravel()
    base = np.arange(len(x)).reshape((-1,) + (1,) * (idx.ndim - 1)) * x.shape[1]
    for _ in range(depth):
        values = flat.take(base + feature.take(idx))
        go_left = np.where(np.isfinite(values), values < split.take(idx), missing_left.take(idx))
        idx = children.take(2 * idx + go_left)
    return idx


class _SplitPlan:
    """What every node of every tree of one fit shares, built once per
    fit and never stored on an estimator: the binned matrix pre-offset
    to ``feature * width + bin`` codes, so one flat ``np.bincount``
    histograms all features at once, and which ``(feature, threshold)``
    candidates exist (features are padded to the widest one)."""

    def __init__(self, binned: np.ndarray, binner: _Binner) -> None:
        num_features = binned.shape[1]
        num_bins = np.array([binner.num_bins(j) for j in range(num_features)], dtype=np.intp)
        self.width = int(num_bins.max(initial=2))
        self.codes = binned + self.width * np.arange(num_features, dtype=np.intp)
        # "Go left if bin <= t" is a split for t in 1 .. num_bins - 2.
        self.valid = np.arange(self.width - 2) < (num_bins - 2)[:, None]


@dataclass
class _Node:
    feature: int = -1
    threshold_bin: int = -1  # go left if bin <= threshold_bin
    left: int = -1
    right: int = -1
    value: float = 0.0
    is_leaf: bool = True
    missing_left: bool = True


class DecisionTreeRegressor:
    """A single histogram regression tree fit to (gradient, hessian) pairs.

    Not meant to be used alone for prediction quality — it is the weak
    learner inside the boosting classes — but it exposes the standard
    fit/predict interface on raw targets too (hessian = 1).
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 10,
        reg_lambda: float = 1.0,
        min_gain: float = 1e-7,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain
        self.nodes: List[_Node] = []
        self._binner: Optional[_Binner] = None

    # -- public sklearn-style API on raw targets -----------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Fit to raw targets (squared loss)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._binner = _Binner().fit(x)
        plan = _SplitPlan(self._binner.transform(x), self._binner)
        self.fit_binned(plan, gradients=-y, hessians=np.ones(len(y)))
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict raw targets (requires :meth:`fit`)."""
        if self._binner is None:
            raise RuntimeError("tree was fit via fit_binned; use predict_binned")
        feature, threshold, left, right, value, _, missing_left = self.flat()
        x = np.asarray(x, dtype=np.float64)
        split, children = _raw_walk(self._binner, feature, threshold, left, right)
        start = np.zeros(len(x), dtype=np.int64)
        return value[_descend(x, start, feature, split, children, missing_left, self.max_depth)]

    # -- ensemble-facing API --------------------------------------------
    def fit_binned(
        self, plan: _SplitPlan, gradients: np.ndarray, hessians: np.ndarray
    ) -> "DecisionTreeRegressor":
        """Fit on pre-binned features to minimize Σ g·f + ½ h·f²."""
        self.nodes = []
        self._flat = None
        self._grow(plan, gradients, hessians, np.arange(len(gradients)), depth=0)
        return self

    def _leaf_value(self, gradients: np.ndarray, hessians: np.ndarray) -> float:
        return float(-gradients.sum() / (hessians.sum() + self.reg_lambda))

    def _grow(self, plan, gradients, hessians, rows, depth) -> int:
        node_index = len(self.nodes)
        self.nodes.append(_Node(value=self._leaf_value(gradients[rows], hessians[rows])))
        if depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf:
            return node_index
        best = self._best_split(plan, gradients, hessians, rows)
        if best is None:
            return node_index
        feature, threshold_bin, missing_left = best
        feature_bins = plan.codes[rows, feature] - feature * plan.width
        go_left = feature_bins <= threshold_bin
        if missing_left:
            go_left |= feature_bins == _MISSING_BIN
        else:
            go_left &= feature_bins != _MISSING_BIN
        left_rows, right_rows = rows[go_left], rows[~go_left]
        if len(left_rows) < self.min_samples_leaf or len(right_rows) < self.min_samples_leaf:
            return node_index
        node = self.nodes[node_index]
        node.is_leaf = False
        node.feature = feature
        node.threshold_bin = threshold_bin
        node.missing_left = missing_left
        node.left = self._grow(plan, gradients, hessians, left_rows, depth + 1)
        node.right = self._grow(plan, gradients, hessians, right_rows, depth + 1)
        return node_index

    def _best_split(self, plan, gradients, hessians, rows):
        g, h = gradients[rows], hessians[rows]
        total_g, total_h = g.sum(), h.sum()
        num_features = plan.codes.shape[1]
        flat = plan.codes[rows].ravel()

        def left_sums(weights):
            """Left-child sum per (feature, threshold, missing left / right)."""
            if weights is not None:
                weights = np.repeat(weights, num_features)
            hist = np.bincount(flat, weights, minlength=num_features * plan.width)
            hist = hist.reshape(num_features, plan.width)
            missing = np.stack([hist[:, 0], np.zeros_like(hist[:, 0])], axis=1)
            return np.cumsum(hist[:, 1:-1], axis=1)[:, :, None] + missing[:, None, :]

        left_g, left_h, left_n = left_sums(g), left_sums(h), left_sums(None)
        right_g, right_h = total_g - left_g, total_h - left_h
        with np.errstate(divide="ignore", invalid="ignore"):  # masked-out candidates
            gain = (
                left_g * left_g / (left_h + self.reg_lambda)
                + right_g * right_g / (right_h + self.reg_lambda)
                - total_g * total_g / (total_h + self.reg_lambda)
            )
        ok = (
            plan.valid[:, :, None]
            & (left_n >= self.min_samples_leaf)
            & (len(rows) - left_n >= self.min_samples_leaf)
            & (gain > self.min_gain)
        )
        if not ok.any():
            return None
        # The first maximum in C order is the loop's strict-> winner.
        feature, b, missing_right = np.unravel_index(
            np.argmax(np.where(ok, gain, -np.inf)), gain.shape
        )
        return int(feature), int(b) + 1, not missing_right

    def flat(self) -> Tuple[np.ndarray, ...]:
        """The node list as parallel arrays for vectorized traversal.

        Leaves are made traversal-safe: their feature is remapped to 0
        and their children point back at themselves, so a descent loop
        can step every row each iteration without a leaf mask — rows
        that reached a leaf simply stay there.  Built lazily after
        fitting (and after unpickling models saved before this cache
        existed) and reused for every predict.
        """
        cached = getattr(self, "_flat", None)
        if cached is None:
            nodes = self.nodes
            is_leaf = np.array([n.is_leaf for n in nodes], dtype=bool)
            self_idx = np.arange(len(nodes), dtype=np.int64)
            cached = (
                np.where(is_leaf, 0, [n.feature for n in nodes]).astype(np.int64),
                np.array([n.threshold_bin for n in nodes], dtype=np.int32),
                np.where(is_leaf, self_idx, [n.left for n in nodes]).astype(np.int64),
                np.where(is_leaf, self_idx, [n.right for n in nodes]).astype(np.int64),
                np.array([n.value for n in nodes], dtype=np.float64),
                is_leaf,
                np.array([n.missing_left for n in nodes], dtype=bool),
            )
            self._flat = cached
        return cached

    def predict_binned(self, binned: np.ndarray) -> np.ndarray:
        """Leaf values for pre-binned rows (vectorized descent).

        All rows step down one level per iteration; rows already at a
        leaf self-loop, so ``max_depth`` iterations land everyone.
        """
        feature, threshold, left, right, value, is_leaf, missing_left = self.flat()
        idx = np.zeros(len(binned), dtype=np.int64)
        rows = np.arange(len(binned))
        for _ in range(self.max_depth):
            if is_leaf[idx].all():
                break
            bins = binned[rows, feature[idx]]
            go_left = np.where(bins == _MISSING_BIN, missing_left[idx], bins <= threshold[idx])
            idx = np.where(go_left, left[idx], right[idx])
        return value[idx]

    @property
    def num_leaves(self) -> int:
        """Number of leaf nodes."""
        return sum(node.is_leaf for node in self.nodes)


class _Boosting:
    """Shared boosting machinery; subclasses define the loss."""

    def __init__(
        self,
        num_rounds: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 10,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        max_bins: int = 32,
        early_stopping_rounds: Optional[int] = 10,
        seed: int = 0,
    ) -> None:
        self.num_rounds = num_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.max_bins = max_bins
        self.early_stopping_rounds = early_stopping_rounds
        self.seed = seed
        self.trees_: List[DecisionTreeRegressor] = []
        self.base_score_ = 0.0
        self._binner: Optional[_Binner] = None
        self.best_iteration_: Optional[int] = None
        self._arena: Optional[Tuple[np.ndarray, ...]] = None

    # -- loss interface (overridden) ------------------------------------
    def _base_score(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _grad_hess(self, y: np.ndarray, raw: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _loss(self, y: np.ndarray, raw: np.ndarray) -> float:
        raise NotImplementedError

    # -- training --------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        eval_set: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> "_Boosting":
        """Fit with optional validation-based early stopping."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        self._binner = _Binner(self.max_bins).fit(x)
        binned = self._binner.transform(x)
        plan = _SplitPlan(binned, self._binner)
        self.base_score_ = self._base_score(y)
        raw = np.full(len(y), self.base_score_)
        self.trees_ = []
        self.best_iteration_ = None  # a refit must not inherit a stale early stop

        val_binned = val_y = None
        val_raw = None
        best_loss = np.inf
        stale = 0
        if eval_set is not None:
            val_x, val_y = eval_set
            val_binned = self._binner.transform(np.asarray(val_x, dtype=np.float64))
            val_raw = np.full(len(val_y), self.base_score_)

        for round_index in range(self.num_rounds):
            gradients, hessians = self._grad_hess(y, raw)
            if self.subsample < 1.0:
                keep = rng.random(len(y)) < self.subsample
                # Zero out non-sampled rows' grad/hess: they don't vote.
                gradients = np.where(keep, gradients, 0.0)
                hessians = np.where(keep, hessians, 0.0)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
            )
            tree.fit_binned(plan, gradients, hessians)
            update = tree.predict_binned(binned)
            raw = raw + self.learning_rate * update
            self.trees_.append(tree)

            if val_binned is not None:
                val_raw = val_raw + self.learning_rate * tree.predict_binned(val_binned)
                loss = self._loss(val_y, val_raw)
                if loss < best_loss - 1e-9:
                    best_loss = loss
                    self.best_iteration_ = round_index
                    stale = 0
                else:
                    stale += 1
                    if (
                        self.early_stopping_rounds is not None
                        and stale >= self.early_stopping_rounds
                    ):
                        break
        if self.best_iteration_ is not None:
            self.trees_ = self.trees_[: self.best_iteration_ + 1]
        self._arena = None
        self.__dict__.pop("_walk", None)
        return self

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_walk"}

    def _ensure_arena(self) -> Optional[Tuple[np.ndarray, ...]]:
        """All trees' nodes concatenated into one arena, plus per-tree roots.

        Lets :meth:`_raw_predict` descend every tree for every row in a
        single (rows × trees) traversal — one numpy pass per depth level
        instead of a Python loop over trees.  Child indices are shifted
        by each tree's offset so they stay valid in the shared arrays.
        """
        arena = getattr(self, "_arena", None)
        if arena is None and self.trees_:
            parts = [tree.flat() for tree in self.trees_]
            sizes = [len(part[4]) for part in parts]
            roots = np.cumsum([0] + sizes[:-1]).astype(np.int64)
            arena = (
                np.concatenate([part[0] for part in parts]),
                np.concatenate([part[1] for part in parts]),
                np.concatenate([part[2] + off for part, off in zip(parts, roots)]),
                np.concatenate([part[3] + off for part, off in zip(parts, roots)]),
                np.concatenate([part[4] for part in parts]),
                np.concatenate([part[6] for part in parts]),
                roots,
            )
            self._arena = arena
        return arena

    def _raw_predict(self, x: np.ndarray) -> np.ndarray:
        """Descend every tree on raw values against the arena's split
        values (built once from the arena, never pickled): the binned
        walk's leaves, without binning the rows."""
        if self._binner is None:
            raise RuntimeError("model not fitted")
        x = np.asarray(x, dtype=np.float64)
        arena = self._ensure_arena()
        if arena is None:
            return np.full(len(x), self.base_score_)
        feature, threshold, left, right, value, missing_left, roots = arena
        walk = self.__dict__.get("_walk")
        if walk is None:
            walk = self._walk = _raw_walk(self._binner, feature, threshold, left, right)
        idx = np.repeat(roots[None, :], len(x), axis=0)
        idx = _descend(x, idx, feature, *walk, missing_left, self.max_depth)
        return self.base_score_ + self.learning_rate * value[idx].sum(axis=1)


class GradientBoostingRegressor(_Boosting):
    """Boosted trees with squared loss."""

    def _base_score(self, y: np.ndarray) -> float:
        return float(y.mean()) if len(y) else 0.0

    def _grad_hess(self, y: np.ndarray, raw: np.ndarray):
        return raw - y, np.ones(len(y))

    def _loss(self, y: np.ndarray, raw: np.ndarray) -> float:
        return float(((y - raw) ** 2).mean())

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted values."""
        return self._raw_predict(x)


class GradientBoostingClassifier(_Boosting):
    """Boosted trees with logistic loss (binary)."""

    def _base_score(self, y: np.ndarray) -> float:
        rate = float(np.clip(y.mean() if len(y) else 0.5, 1e-6, 1 - 1e-6))
        return float(np.log(rate / (1 - rate)))

    def _grad_hess(self, y: np.ndarray, raw: np.ndarray):
        prob = 1.0 / (1.0 + np.exp(-raw))
        return prob - y, prob * (1 - prob)

    def _loss(self, y: np.ndarray, raw: np.ndarray) -> float:
        # Stable logistic loss: softplus(raw) - raw*y.
        return float((np.logaddexp(0.0, raw) - raw * y).mean())

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """P(positive class), shape (n,)."""
        return 1.0 / (1.0 + np.exp(-self._raw_predict(x)))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard 0/1 predictions at threshold 0.5."""
        return (self.predict_proba(x) > 0.5).astype(np.float64)

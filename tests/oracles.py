"""Reference implementations the suite diffs the product code against.

These used to ship in ``src/`` behind runtime switches; they are kept
here, unoptimized and obviously correct, as oracles only.
"""

from __future__ import annotations

import csv
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.trees import _MISSING_BIN, DecisionTreeRegressor, _Node
from repro.graph.hetero import EdgeType, HeteroGraph, _EdgeStore
from repro.graph.sampler import SampledSubgraph
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.relational import DType, Table


# ----------------------------------------------------------------------
# Scalar CSR readers: the sampler reads the CSR arrays in bulk instead
# ----------------------------------------------------------------------
def neighbors_before(
    graph: HeteroGraph, edge_type: EdgeType, dst: int, time: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(source ids, edge times) of the edges into ``dst`` with time
    <= ``time``: a prefix of its time-ascending CSR segment."""
    store = graph._edges[edge_type]
    start, stop = store.indptr[dst], store.indptr[dst + 1]
    times = store.nbr_time[start:stop]
    valid = int(np.searchsorted(times, time, side="right"))
    return store.nbr_src[start:start + valid], times[:valid]


def segment_count_before(store: _EdgeStore, dst: int, time: int) -> int:
    """Edges into ``dst`` with time <= ``time``: one binary search over
    its time-ascending segment (the oracle for ``_EdgeStore.count_before``)."""
    start, stop = store.indptr[dst], store.indptr[dst + 1]
    return int(np.searchsorted(store.nbr_time[start:stop], time, side="right"))


def count_before(graph: HeteroGraph, edge_type: EdgeType, dst: int, time: int) -> int:
    """Time-valid in-degree of one node under one edge type."""
    return segment_count_before(graph._edges[edge_type], dst, time)


def loop_popularity(tier, cutoff: int) -> np.ndarray:
    """A bound LIST ``GreenTier``'s item popularity at one cutoff, item by
    item and relation by relation."""
    graph = tier._graph
    return np.array([
        float(sum(count_before(graph, edge_type, item, cutoff) for edge_type in tier._item_edges))
        for item in range(graph.num_nodes(tier.item_table))
    ], dtype=np.float64)


def loop_green_rank(tier, cutoffs: np.ndarray, k: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``GreenTier.rank`` row by row: one popularity vector and one stable
    sort per requested cutoff (the oracle for its one-pass batch)."""
    item_keys = tier._graph.node_keys[tier.item_table]
    out = []
    for cutoff in np.asarray(cutoffs, dtype=np.int64).tolist():
        scores = loop_popularity(tier, cutoff)
        top = np.argsort(-scores, kind="stable")[:k]
        out.append((item_keys[top], scores[top]))
    return out


def all_neighbors(graph: HeteroGraph, edge_type: EdgeType, dst: int) -> np.ndarray:
    """Source ids of every edge into ``dst``, whatever its time (leaky)."""
    store = graph._edges[edge_type]
    return store.nbr_src[store.indptr[dst]:store.indptr[dst + 1]]


def in_degree(graph: HeteroGraph, edge_type: EdgeType) -> np.ndarray:
    """Edges into each destination node of ``edge_type``."""
    return np.diff(graph._edges[edge_type].indptr)


def edge_list(
    graph: HeteroGraph, edge_type: EdgeType
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, time) arrays of ``edge_type`` read off its CSR:
    grouped by destination, time-ascending within each."""
    store = graph._edges[edge_type]
    dst_ids = np.repeat(np.arange(len(store.indptr) - 1), in_degree(graph, edge_type))
    return store.nbr_src, dst_ids, store.nbr_time


class LoopNeighborSampler:
    """Per-node loop sampler: the oracle for :class:`repro.graph.NeighborSampler`.

    Same contract — every valid neighbor when there are at most
    ``fanout`` of them, otherwise exactly ``fanout`` drawn uniformly
    without replacement, never anything newer than the seed time — but
    it walks one node at a time through scalar reads
    (``neighbors_before`` and ``count_before`` above) and draws with
    ``rng.choice``.  It consumes the generator differently, so it agrees
    with the product sampler in distribution and on every deterministic
    quantity (degrees, low-degree neighborhoods), not draw for draw.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        fanouts: Sequence[int],
        rng: np.random.Generator,
        time_respecting: bool = True,
    ) -> None:
        if any(f <= 0 for f in fanouts):
            raise ValueError(f"fanouts must be positive, got {list(fanouts)}")
        self.graph = graph
        self.fanouts = list(fanouts)
        self.rng = rng
        self.time_respecting = time_respecting
        self._edge_types_into: Dict[str, List[EdgeType]] = {
            node_type: graph.edge_types_into(node_type) for node_type in graph.node_types
        }

    @property
    def num_hops(self) -> int:
        return len(self.fanouts)

    def sample(
        self, seed_type: str, seed_ids: np.ndarray, seed_times: np.ndarray
    ) -> SampledSubgraph:
        seed_ids = np.asarray(seed_ids, dtype=np.int64)
        seed_times = np.asarray(seed_times, dtype=np.int64)
        if seed_ids.shape != seed_times.shape:
            raise ValueError("seed_ids and seed_times must have the same shape")

        subgraph = SampledSubgraph(seed_type)
        frontier: List[Tuple[str, int, int, int]] = []  # (type, orig, ctx_time, local)
        seed_locals = np.empty(len(seed_ids), dtype=np.int64)
        for i, (orig, time) in enumerate(zip(seed_ids.tolist(), seed_times.tolist())):
            local, new = subgraph.add_node(seed_type, orig, time)
            seed_locals[i] = local
            if new:
                self._record_degrees(subgraph, seed_type, orig, time, local)
                frontier.append((seed_type, orig, time, local))
        subgraph.seed_locals = seed_locals

        for fanout in self.fanouts:
            next_frontier: List[Tuple[str, int, int, int]] = []
            for node_type, orig, ctx_time, local in frontier:
                for edge_type in self._edge_types_into[node_type]:
                    for nbr in self._sample_neighbors(edge_type, orig, ctx_time, fanout):
                        nbr_local, new = subgraph.add_node(edge_type.src, int(nbr), ctx_time)
                        subgraph.add_edges(edge_type, [nbr_local], [local])
                        if new:
                            self._record_degrees(
                                subgraph, edge_type.src, int(nbr), ctx_time, nbr_local
                            )
                            next_frontier.append((edge_type.src, int(nbr), ctx_time, nbr_local))
            frontier = next_frontier
        return subgraph.finalize()

    def _record_degrees(
        self, subgraph: SampledSubgraph, node_type: str, orig: int, ctx_time: int, local: int
    ) -> None:
        incoming = self._edge_types_into[node_type]
        if not incoming:
            return
        if self.time_respecting:
            degrees = [float(count_before(self.graph, et, orig, ctx_time)) for et in incoming]
        else:
            degrees = [float(len(all_neighbors(self.graph, et, orig))) for et in incoming]
        subgraph.set_degrees_block(node_type, [local], [degrees])

    def _sample_neighbors(
        self, edge_type: EdgeType, dst: int, ctx_time: int, fanout: int
    ) -> np.ndarray:
        if self.time_respecting:
            candidates, _ = neighbors_before(self.graph, edge_type, dst, ctx_time)
        else:
            candidates = all_neighbors(self.graph, edge_type, dst)
        if len(candidates) <= fanout:
            return candidates
        return candidates[self.rng.choice(len(candidates), size=fanout, replace=False)]


class DictInterner:
    """Per-node dict interning: the oracle for the sampler's array
    interner (``repro.graph.sampler._Interner``, same interface).

    It is the loop the sampler shipped with: seeds are numbered by
    first appearance; an expansion walks its distinct keys in ascending
    order and gives each unseen one the type's next local index; the
    next frontier visits node types in the order a hop first reached
    them, whether or not that reach found anything new.
    """

    def __init__(self, graph: HeteroGraph) -> None:
        self.contexts = np.empty(0, dtype=np.int64)
        self.reset()

    def reset(self) -> None:
        self._index: Dict[str, Dict[int, int]] = {}
        self._reached: Dict[str, List[np.ndarray]] = {}

    def _walk(self, node_type: str, keys: List[int]) -> Tuple[Dict[int, int], List[int]]:
        index = self._index.setdefault(node_type, {})
        fresh = []
        for key in keys:
            if key not in index:
                index[key] = len(index)
                fresh.append(key)
        return index, fresh

    def intern(self, node_type: str, keys: np.ndarray, ascending: bool = True) -> np.ndarray:
        blocks = self._reached.setdefault(node_type, [])
        order = sorted(set(keys.tolist())) if ascending else keys.tolist()
        index, fresh = self._walk(node_type, order)
        if fresh:
            blocks.append(np.asarray(fresh, dtype=np.int64))
        return np.asarray([index[key] for key in keys.tolist()], dtype=np.int64)

    def take_reached(self) -> Dict[str, List[np.ndarray]]:
        reached, self._reached = self._reached, {}
        return {node_type: blocks for node_type, blocks in reached.items() if blocks}


# ----------------------------------------------------------------------
# Full-snapshot subgraphs: exact (non-sampled) inference
# ----------------------------------------------------------------------
def snapshot_subgraph(
    graph: HeteroGraph,
    cutoff: int,
    seed_type: str,
    seed_ids: Sequence[int],
) -> SampledSubgraph:
    """The complete time-valid graph at ``cutoff`` as a subgraph.

    Every node with timestamp ≤ ``cutoff`` (static nodes always) is
    included with exact per-relation degrees; every edge whose
    timestamp and endpoints are valid is included.  ``seed_ids`` must
    all be valid at ``cutoff``.
    """
    cutoff = int(cutoff)
    subgraph = SampledSubgraph(seed_type)
    local_of = {}

    for node_type in graph.node_types:
        valid = graph.node_times(node_type) <= cutoff
        origs = np.flatnonzero(valid)
        mapping = np.full(graph.num_nodes(node_type), -1, dtype=np.int64)
        incoming = graph.edge_types_into(node_type)
        degrees = np.zeros((len(origs), len(incoming)))
        for j, edge_type in enumerate(incoming):
            store = graph._edges[edge_type]
            csum = np.concatenate([[0], np.cumsum(store.nbr_time <= cutoff, dtype=np.int64)])
            degrees[:, j] = csum[store.indptr[origs + 1]] - csum[store.indptr[origs]]
        for orig in origs.tolist():
            mapping[orig], _ = subgraph.add_node(node_type, orig, cutoff)
        if incoming:
            subgraph.set_degrees_block(node_type, mapping[origs], degrees)
        local_of[node_type] = mapping

    for edge_type in graph.edge_types:
        src_ids, dst_ids, times = edge_list(graph, edge_type)
        valid = (
            (times <= cutoff)
            & (local_of[edge_type.src][src_ids] >= 0)
            & (local_of[edge_type.dst][dst_ids] >= 0)
        )
        if not valid.any():
            continue
        subgraph.add_edges(
            edge_type,
            local_of[edge_type.src][src_ids[valid]],
            local_of[edge_type.dst][dst_ids[valid]],
        )

    seed_ids = np.asarray(seed_ids, dtype=np.int64)
    seed_locals = local_of[seed_type][seed_ids]
    if (seed_locals < 0).any():
        missing = seed_ids[seed_locals < 0][:3].tolist()
        raise ValueError(f"seeds not valid at cutoff {cutoff}: e.g. {missing}")
    subgraph.seed_locals = seed_locals
    return subgraph


# ----------------------------------------------------------------------
# ``ufunc.at`` scatter: the oracle for ``repro.nn.segment.SegmentPlan``
# ----------------------------------------------------------------------
def at_sum(values: np.ndarray, index: np.ndarray, num_targets: int) -> np.ndarray:
    """``out[index[e]] += values[e]``, one edge after another."""
    out = np.zeros((num_targets,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def at_max(values: np.ndarray, index: np.ndarray, num_targets: int) -> np.ndarray:
    """Running maximum per slot; empty slots stay ``-inf``."""
    out = np.full((num_targets,) + values.shape[1:], -np.inf, dtype=values.dtype)
    np.maximum.at(out, index, values)
    return out


def at_scatter_sum(messages: Tensor, index: np.ndarray, num_targets: int) -> Tensor:
    """``scatter_sum`` as it shipped before the segment kernel."""
    data = at_sum(messages.data, index, num_targets)

    def backward(grad: np.ndarray) -> None:
        if messages.requires_grad:
            messages._accumulate(np.asarray(grad)[index], owned=True)

    return Tensor._make(data, (messages,), backward)


def at_scatter_mean(messages: Tensor, index: np.ndarray, num_targets: int) -> Tensor:
    """``scatter_mean`` as it shipped before the segment kernel."""
    counts = np.bincount(index, minlength=num_targets).astype(messages.data.dtype)
    safe_counts = np.maximum(counts, 1.0)
    data = at_sum(messages.data, index, num_targets)
    data /= safe_counts[:, None]

    def backward(grad: np.ndarray) -> None:
        if messages.requires_grad:
            scaled = np.asarray(grad) / safe_counts[:, None]
            messages._accumulate(scaled[index], owned=True)

    return Tensor._make(data, (messages,), backward)


def at_scatter_max(messages: Tensor, index: np.ndarray, num_targets: int) -> Tensor:
    """``scatter_max`` as it shipped before the segment kernel."""
    data = at_max(messages.data, index, num_targets)
    empty = ~np.isfinite(data)
    data = np.where(empty, 0.0, data)

    def backward(grad: np.ndarray) -> None:
        if not messages.requires_grad:
            return
        grad = np.asarray(grad)
        is_max = (messages.data == data[index]) & ~empty[index]
        tie_counts = at_sum(is_max.astype(messages.data.dtype), index, num_targets)
        tie_counts = np.maximum(tie_counts, 1.0)
        messages._accumulate(np.where(is_max, grad[index] / tie_counts[index], 0.0), owned=True)

    return Tensor._make(data, (messages,), backward)


def at_take(tensor: Tensor, indices: np.ndarray) -> Tensor:
    """``Tensor.take`` with its ``np.add.at`` backward."""
    indices = np.asarray(indices, dtype=np.int64)

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            tensor._accumulate(at_sum(np.asarray(grad), indices, len(tensor.data)))

    return Tensor._make(tensor.data[indices], (tensor,), backward)


# ----------------------------------------------------------------------
# Per-parameter gradient clipping: the oracle for Adam's fused clip
# ----------------------------------------------------------------------
def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.  ``Optimizer.gather_and_clip`` does
    the same over the flat buffer, bit for bit.
    """
    total = 0.0
    for param in parameters:
        if param.grad is not None:
            total += float((param.grad**2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in parameters:
            if param.grad is not None:
                param.grad *= scale
    return norm


# ----------------------------------------------------------------------
# Per-feature, per-bin split scan and the binned descent: the oracles
# for ``repro.baselines.trees``
# ----------------------------------------------------------------------
class LoopTreeGrower(DecisionTreeRegressor):
    """The tree grower as it shipped before the all-feature histogram
    pass: one ``np.bincount`` triple per feature and a python loop over
    bins x {missing left, missing right} in scalar arithmetic, keeping
    the first strictly best gain.  Takes the binned matrix and its
    binner where the product takes a ``_SplitPlan``; everything it does
    not define (leaf values, ``flat()``, prediction) is the product's.

    One token differs from the loop that shipped: squares are products.
    The shipped loop wrote ``x ** 2`` on numpy scalars, which is libm
    ``pow`` and lands one ulp off ``x * x`` on roughly one input in a
    thousand — enough to flip the winner between two candidates whose
    gains are equal on paper (a column and its negation).  The product
    is exact IEEE arithmetic on every host, so it is the contract;
    :class:`PowLoopTreeGrower` is the shipped arithmetic."""

    @staticmethod
    def square(value):
        """``value`` squared, as the gain formula squares it."""
        return value * value

    def fit_binned(self, binned, binner, gradients, hessians) -> "LoopTreeGrower":
        """Fit on pre-binned features to minimize Σ g·f + ½ h·f²."""
        self.nodes = []
        self._flat = None
        self._grow(binned, binner, gradients, hessians, np.arange(len(gradients)), depth=0)
        return self

    def _grow(self, binned, binner, gradients, hessians, rows, depth) -> int:
        node_index = len(self.nodes)
        self.nodes.append(_Node(value=self._leaf_value(gradients[rows], hessians[rows])))
        if depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf:
            return node_index
        best = self._best_split(binned, binner, gradients, hessians, rows)
        if best is None:
            return node_index
        feature, threshold_bin, missing_left = best
        feature_bins = binned[rows, feature]
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
        node.left = self._grow(binned, binner, gradients, hessians, left_rows, depth + 1)
        node.right = self._grow(binned, binner, gradients, hessians, right_rows, depth + 1)
        return node_index

    def _best_split(self, binned, binner, gradients, hessians, rows):
        g = gradients[rows]
        h = hessians[rows]
        total_g, total_h = g.sum(), h.sum()
        parent_score = self.square(total_g) / (total_h + self.reg_lambda)
        best_gain = self.min_gain
        best = None
        for feature in range(binned.shape[1]):
            bins = binned[rows, feature]
            num_bins = binner.num_bins(feature)
            if num_bins <= 2:
                continue
            g_hist = np.bincount(bins, weights=g, minlength=num_bins)
            h_hist = np.bincount(bins, weights=h, minlength=num_bins)
            n_hist = np.bincount(bins, minlength=num_bins)
            missing_g, missing_h, missing_n = g_hist[0], h_hist[0], n_hist[0]
            # Cumulative over real bins (1..num_bins-1), split after bin b.
            cg = np.cumsum(g_hist[1:])
            ch = np.cumsum(h_hist[1:])
            cn = np.cumsum(n_hist[1:])
            for b in range(len(cg) - 1):
                for missing_left in (True, False):
                    left_g = cg[b] + (missing_g if missing_left else 0.0)
                    left_h = ch[b] + (missing_h if missing_left else 0.0)
                    left_n = cn[b] + (missing_n if missing_left else 0)
                    right_g = total_g - left_g
                    right_h = total_h - left_h
                    right_n = len(rows) - left_n
                    if left_n < self.min_samples_leaf or right_n < self.min_samples_leaf:
                        continue
                    gain = (
                        self.square(left_g) / (left_h + self.reg_lambda)
                        + self.square(right_g) / (right_h + self.reg_lambda)
                        - parent_score
                    )
                    if gain > best_gain:
                        best_gain = gain
                        best = (feature, b + 1, missing_left)
        return best


class PowLoopTreeGrower(LoopTreeGrower):
    """The loop byte for byte as it shipped: scalar ``x ** 2``."""

    @staticmethod
    def square(value):
        """``value`` squared through the scalar power operator."""
        return value**2


def binned_raw_predict(model, x: np.ndarray) -> np.ndarray:
    """A booster's raw score by the walk that shipped before the raw
    split values: bin every row (``_Binner.transform``), then descend
    the arena comparing bins with each node's ``threshold_bin``."""
    binned = model._binner.transform(np.asarray(x, dtype=np.float64))
    arena = model._ensure_arena()
    if arena is None:
        return np.full(len(binned), model.base_score_)
    feature, threshold, left, right, value, missing_left, roots = arena
    idx = np.repeat(roots[None, :], len(binned), axis=0)
    rows = np.arange(len(binned))[:, None]
    for _ in range(model.max_depth):
        bins = binned[rows, feature[idx]]
        go_left = np.where(bins == _MISSING_BIN, missing_left[idx], bins <= threshold[idx])
        idx = np.where(go_left, left[idx], right[idx])
    return model.base_score_ + model.learning_rate * value[idx].sum(axis=1)


# ----------------------------------------------------------------------
# Per-row foreign-key lookups: the oracles for the entity slots
# ``repro.baselines.features`` links carry
# ----------------------------------------------------------------------
def loop_child_groups(builder, child) -> np.ndarray:
    """The entity slot of each child row (-1: null or unknown key), one
    dict lookup per non-null row."""
    fk = child.table[child.fk_column]
    groups = np.full(child.table.num_rows, -1, dtype=np.int64)
    for i in np.flatnonzero(~fk.null_mask()):
        slot = builder._key_to_slot.get(fk.values[i])
        if slot is not None:
            groups[i] = slot
    return groups


def loop_grandchild_groups(builder, grandchild) -> np.ndarray:
    """The entity slot of each grandchild row through its child row."""
    child = grandchild.child
    child_groups = loop_child_groups(builder, child)
    child_key_to_entity = {
        key: child_groups[i]
        for i, key in enumerate(child.table[child.table.schema.primary_key].values.tolist())
    }
    fk = grandchild.table[grandchild.fk_column]
    groups = np.full(grandchild.table.num_rows, -1, dtype=np.int64)
    for i in np.flatnonzero(~fk.null_mask()):
        groups[i] = child_key_to_entity.get(fk.values[i], -1)
    return groups


# ----------------------------------------------------------------------
# Per-draw generator loops: the oracles for ``repro.datasets``
# ----------------------------------------------------------------------
# Each is its generator's body as it shipped before the CDFs were built
# once and the derived columns computed as arrays: one
# ``Generator.choice(k, p=row)`` per categorical draw, scalar numpy
# arithmetic per row, python lists per column.  It returns what that
# body handed to ``Table.from_dict``, table by table; the differential
# test builds those tables with the product's schemas and compares
# every column's bytes.
_DAY = 86400


def loop_ecommerce_rows(
    num_customers: int = 300,
    num_products: int = 120,
    num_categories: int = 6,
    span_days: int = 360,
    seed: int = 0,
) -> Dict[str, Dict[str, list]]:
    """``make_ecommerce``'s draw loop, as it shipped."""
    _REGIONS = ["na", "eu", "apac", "latam"]
    rng = np.random.default_rng(seed)
    span = span_days * _DAY

    # ---- products -----------------------------------------------------
    product_category = rng.integers(0, num_categories, size=num_products)
    category_price = np.exp(rng.normal(2.5, 0.6, size=num_categories))
    product_price = category_price[product_category] * np.exp(rng.normal(0, 0.3, num_products))
    product_quality = rng.normal(0, 1, num_products)
    # Within-category popularity: Zipf-like weights.
    popularity = 1.0 / (1.0 + rng.permutation(num_products).astype(np.float64))

    # ---- customers ----------------------------------------------------
    signup = rng.integers(0, span // 2, size=num_customers)
    base_rate = np.exp(rng.normal(np.log(0.08), 0.7, size=num_customers))  # orders/day
    lapse_hazard = np.exp(rng.normal(np.log(0.006), 0.8, size=num_customers))
    preference = rng.dirichlet(np.full(num_categories, 0.5), size=num_customers)
    region = rng.choice(_REGIONS, size=num_customers)
    age = np.clip(rng.normal(40, 12, num_customers), 18, 90)

    # Lapse time: exponential with the customer's hazard, after signup.
    lapse_after = rng.exponential(1.0 / lapse_hazard) * _DAY
    lapse_time = signup + lapse_after.astype(np.int64)

    order_rows: Dict[str, List] = {
        "id": [], "customer_id": [], "product_id": [], "quantity": [], "amount": [], "ts": []
    }
    review_rows: Dict[str, List] = {
        "id": [], "customer_id": [], "product_id": [], "rating": [], "ts": []
    }
    category_products = [np.flatnonzero(product_category == c) for c in range(num_categories)]
    category_pop = [popularity[idx] / popularity[idx].sum() for idx in category_products]

    oid = rid = 0
    for customer in range(num_customers):
        t = float(signup[customer])
        active_until = min(float(lapse_time[customer]), float(span))
        rate_per_second = base_rate[customer] / _DAY
        while True:
            t += rng.exponential(1.0 / rate_per_second)
            if t >= active_until:
                break
            category = rng.choice(num_categories, p=preference[customer])
            pool = category_products[category]
            if len(pool) == 0:
                continue
            product = int(rng.choice(pool, p=category_pop[category]))
            quantity = int(rng.integers(1, 4))
            amount = float(product_price[product] * quantity * np.exp(rng.normal(0, 0.05)))
            order_rows["id"].append(oid)
            order_rows["customer_id"].append(customer)
            order_rows["product_id"].append(product)
            order_rows["quantity"].append(quantity)
            order_rows["amount"].append(round(amount, 2))
            order_rows["ts"].append(int(t))
            oid += 1
            if rng.random() < 0.3:
                rating = float(np.clip(3.0 + product_quality[product] + rng.normal(0, 0.7), 1, 5))
                review_rows["id"].append(rid)
                review_rows["customer_id"].append(customer)
                review_rows["product_id"].append(product)
                review_rows["rating"].append(round(rating, 1))
                review_rows["ts"].append(int(t) + int(rng.integers(_DAY, 7 * _DAY)))
                rid += 1

    return {
        "customers": {
            "id": list(range(num_customers)),
            "region": region.tolist(),
            "age": np.round(age, 1).tolist(),
            "signup_ts": signup.tolist(),
        },
        "products": {
            "id": list(range(num_products)),
            "category": [f"cat{c}" for c in product_category.tolist()],
            "price": np.round(product_price, 2).tolist(),
        },
        "orders": order_rows,
        "reviews": review_rows,
    }


def loop_forum_rows(
    num_users: int = 250,
    span_days: int = 360,
    seed: int = 0,
) -> Dict[str, Dict[str, list]]:
    """``make_forum``'s week-by-week, user-by-user loop, as it shipped."""
    _TOPICS = ["python", "sql", "ml", "devops", "frontend", "random"]
    rng = np.random.default_rng(seed)
    num_weeks = span_days // 7
    week = 7 * _DAY

    signup = rng.integers(0, (span_days // 3) * _DAY, size=num_users)
    talent = rng.normal(0, 1, size=num_users)
    base_rate = np.exp(rng.normal(np.log(1.0), 0.4, size=num_users))  # posts/week
    sensitivity = rng.uniform(0.5, 2.0, size=num_users)
    topic_pref = rng.dirichlet(np.full(len(_TOPICS), 0.6), size=num_users)
    topic_popularity = np.exp(rng.normal(0, 0.5, size=len(_TOPICS)))

    post_rows: Dict[str, List] = {"id": [], "user_id": [], "topic": [], "ts": []}
    vote_rows: Dict[str, List] = {"id": [], "post_id": [], "voter_id": [], "ts": []}
    comment_rows: Dict[str, List] = {"id": [], "post_id": [], "user_id": [], "ts": []}

    # recent_votes[u] = votes received by u's posts in the previous week.
    recent_votes = np.zeros(num_users)
    pid = vid = cid = 0
    for week_index in range(num_weeks):
        week_start = week_index * week
        votes_this_week = np.zeros(num_users)
        for user in range(num_users):
            if signup[user] > week_start:
                continue
            # The planted two-hop signal: next week's posting rate is
            # driven by the votes last week's posts received.
            feedback = sensitivity[user] * np.log1p(recent_votes[user])
            rate = base_rate[user] * 0.35 * np.exp(0.7 * feedback)
            num_posts = rng.poisson(min(rate, 6.0))
            for _ in range(num_posts):
                topic = int(rng.choice(len(_TOPICS), p=topic_pref[user]))
                ts = int(week_start + rng.integers(0, week))
                post_rows["id"].append(pid)
                post_rows["user_id"].append(user)
                post_rows["topic"].append(_TOPICS[topic])
                post_rows["ts"].append(ts)
                # Votes arrive shortly after the post.
                expected_votes = np.exp(0.8 * talent[user]) * topic_popularity[topic]
                num_votes = rng.poisson(expected_votes)
                votes_this_week[user] += num_votes
                for _ in range(num_votes):
                    voter = int(rng.integers(0, num_users))
                    vote_rows["id"].append(vid)
                    vote_rows["post_id"].append(pid)
                    vote_rows["voter_id"].append(voter)
                    vote_rows["ts"].append(ts + int(rng.integers(0, 3 * _DAY)))
                    vid += 1
                if rng.random() < 0.5:
                    commenter = int(rng.integers(0, num_users))
                    comment_rows["id"].append(cid)
                    comment_rows["post_id"].append(pid)
                    comment_rows["user_id"].append(commenter)
                    comment_rows["ts"].append(ts + int(rng.integers(0, 2 * _DAY)))
                    cid += 1
                pid += 1
        recent_votes = votes_this_week

    return {
        "users": {"id": list(range(num_users)), "signup_ts": signup.tolist()},
        "posts": post_rows,
        "votes": vote_rows,
        "comments": comment_rows,
    }


def loop_clinical_rows(
    num_patients: int = 250,
    span_days: int = 540,
    seed: int = 0,
) -> Dict[str, Dict[str, list]]:
    """``make_clinical``'s patient-by-patient visit loop, as it shipped."""
    _CHRONIC_CODES = ["E11", "I10", "J44", "N18"]
    _ACUTE_CODES = ["J06", "A09", "S93", "H66", "L03", "R51"]
    _DRUGS = ["metformin", "lisinopril", "salbutamol", "amoxicillin", "ibuprofen", "omeprazole"]
    rng = np.random.default_rng(seed)
    span = span_days * _DAY

    age = np.clip(rng.normal(55, 18, num_patients), 18, 95)
    sex = rng.choice(["f", "m"], size=num_patients)
    frailty = 0.02 * (age - 55) + rng.normal(0, 0.6, num_patients)
    chronic = rng.random(num_patients) < (0.25 + 0.15 * (age > 65))
    # Visit rate per day: chronic patients visit ~4x as often.
    visit_rate = np.exp(rng.normal(np.log(0.01), 0.5, num_patients)) * np.where(chronic, 4.0, 1.0)

    visit_rows: Dict[str, List] = {"id": [], "patient_id": [], "severity": [], "ts": []}
    diagnosis_rows: Dict[str, List] = {"id": [], "visit_id": [], "code": [], "ts": []}
    prescription_rows: Dict[str, List] = {"id": [], "visit_id": [], "drug": [], "ts": []}

    visit_id = diag_id = rx_id = 0
    for patient in range(num_patients):
        t = float(rng.integers(0, 30 * _DAY))
        rate_per_second = visit_rate[patient] / _DAY
        while True:
            t += rng.exponential(1.0 / rate_per_second)
            if t >= span:
                break
            severity = float(
                np.clip(frailty[patient] + (0.8 if chronic[patient] else 0.0) + rng.normal(0, 0.5), -2, 4)
            )
            ts = int(t)
            visit_rows["id"].append(visit_id)
            visit_rows["patient_id"].append(patient)
            visit_rows["severity"].append(round(severity, 2))
            visit_rows["ts"].append(ts)
            # Diagnoses: chronic patients usually record their chronic code.
            if chronic[patient] and rng.random() < 0.8:
                code = _CHRONIC_CODES[patient % len(_CHRONIC_CODES)]
            else:
                code = _ACUTE_CODES[int(rng.integers(0, len(_ACUTE_CODES)))]
            diagnosis_rows["id"].append(diag_id)
            diagnosis_rows["visit_id"].append(visit_id)
            diagnosis_rows["code"].append(code)
            diagnosis_rows["ts"].append(ts)
            diag_id += 1
            # Prescriptions scale with severity.
            for _ in range(rng.poisson(max(severity, 0.0) + 0.3)):
                prescription_rows["id"].append(rx_id)
                prescription_rows["visit_id"].append(visit_id)
                prescription_rows["drug"].append(_DRUGS[int(rng.integers(0, len(_DRUGS)))])
                prescription_rows["ts"].append(ts)
                rx_id += 1
            visit_id += 1

    return {
        "patients": {
            "id": list(range(num_patients)),
            "age": np.round(age, 1).tolist(),
            "sex": sex.tolist(),
        },
        "visits": visit_rows,
        "diagnoses": diagnosis_rows,
        "prescriptions": prescription_rows,
    }


# ----------------------------------------------------------------------
# Cell-by-cell CSV writer: the oracle for ``repro.relational.csvio``
# ----------------------------------------------------------------------
def rowwise_save_table(table: Table, path: str) -> None:
    """``csvio._save_table`` as it shipped: ``Column.get`` and one
    serialisation per cell, one ``writerow`` per row."""

    def serialize(value, dtype):
        if value is None:
            return ""
        if dtype == DType.BOOL:
            return "true" if value else "false"
        if dtype == DType.FLOAT64:
            return repr(float(value))
        return str(value)

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        columns = [table[name] for name in table.column_names]
        for i in range(table.num_rows):
            writer.writerow(
                [serialize(col.get(i), col.dtype) for col in columns]
            )

"""Autograd-aware scatter aggregations.

Message passing reduces per-edge message vectors into per-node slots:
``out[dst[e]] += message[e]``.  These functions build the reverse-mode
closure by hand around the :class:`~repro.nn.segment.SegmentPlan`
kernel (forward) and a gather (backward), so neither direction loops
over edges.  ``index`` is a raw index array or the plan of one: given a
subgraph's cached plan, every layer shares its range check and grouping.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.nn.segment import SegmentPlan
from repro.nn.tensor import Tensor

__all__ = ["scatter_sum", "scatter_mean", "scatter_max", "segment_softmax"]

Index = Union[np.ndarray, SegmentPlan]


def _check(messages: Tensor, index: Index, num_targets: int) -> SegmentPlan:
    """The plan behind ``index`` (range-checked once, when built),
    shape-checked against this call's messages and slot count."""
    if messages.ndim != 2:
        raise ValueError(f"messages must be 2-D (edges, dim), got shape {messages.shape}")
    plan = index if isinstance(index, SegmentPlan) else SegmentPlan(index, num_targets)
    if plan.index.shape != (messages.shape[0],):
        raise ValueError(
            f"index shape {plan.index.shape} must match number of messages {messages.shape[0]}"
        )
    if plan.num_segments != num_targets:
        raise ValueError(f"plan covers {plan.num_segments} slots, expected {num_targets}")
    return plan


def scatter_sum(messages: Tensor, index: Index, num_targets: int) -> Tensor:
    """Sum messages into ``num_targets`` slots: ``out[i] = Σ_{e: index[e]=i} m[e]``."""
    plan = _check(messages, index, num_targets)
    data = plan.sum(messages.data)

    def backward(grad: np.ndarray) -> None:
        if messages.requires_grad:
            messages._accumulate(np.asarray(grad)[plan.index], owned=True)

    return Tensor._make(data, (messages,), backward)


def scatter_mean(messages: Tensor, index: Index, num_targets: int) -> Tensor:
    """Average messages per slot; empty slots stay zero."""
    plan = _check(messages, index, num_targets)
    safe_counts = np.maximum(plan.counts.astype(messages.data.dtype), 1.0)
    data = plan.sum(messages.data)
    data /= safe_counts[:, None]

    def backward(grad: np.ndarray) -> None:
        if messages.requires_grad:
            scaled = np.asarray(grad) / safe_counts[:, None]
            messages._accumulate(scaled[plan.index], owned=True)

    return Tensor._make(data, (messages,), backward)


def scatter_max(messages: Tensor, index: Index, num_targets: int) -> Tensor:
    """Elementwise max per slot; empty slots are zero.

    Gradient flows to every message element attaining the slot maximum
    (split equally among ties).
    """
    plan = _check(messages, index, num_targets)
    index = plan.index
    data = plan.max(messages.data)
    empty = ~np.isfinite(data)
    data = np.where(empty, 0.0, data)

    def backward(grad: np.ndarray) -> None:
        if not messages.requires_grad:
            return
        grad = np.asarray(grad)
        is_max = (messages.data == data[index]) & ~empty[index]
        tie_counts = np.maximum(plan.sum(is_max.astype(messages.data.dtype)), 1.0)
        messages._accumulate(np.where(is_max, grad[index] / tie_counts[index], 0.0), owned=True)

    return Tensor._make(data, (messages,), backward)


def segment_softmax(scores: Tensor, index: Index, num_targets: int) -> Tensor:
    """Softmax of per-edge scores within each destination segment.

    ``scores`` is (E, 1); edges sharing ``index[e]`` form one segment
    and their outputs sum to 1.  Numerically stabilized by subtracting
    the per-segment maximum.  Built entirely from differentiable ops,
    so gradients flow through attention coefficients.
    """
    plan = _check(scores, index, num_targets)
    if scores.shape[1] != 1:
        raise ValueError(f"segment_softmax expects (E, 1) scores, got {scores.shape}")
    # Per-segment max (floored at zero), gathered back to edges (treated
    # as a constant in the backward pass — standard for stabilized softmax).
    seg_max = np.maximum(plan.max(scores.data), 0.0)
    shifted = scores - Tensor(seg_max[plan.index])
    exp = shifted.exp()
    denominator = scatter_sum(exp, plan, num_targets)
    safe = denominator + Tensor(np.where(denominator.data <= 0, 1.0, 0.0).astype(scores.data.dtype))
    return exp / safe.take(plan)

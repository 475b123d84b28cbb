"""Loss functions.

All losses return a scalar :class:`~repro.nn.tensor.Tensor` (mean over
the batch) so ``loss.backward()`` starts from a well-defined gradient.
Targets are plain numpy arrays — they never need gradients.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor

__all__ = [
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "bpr_loss",
]


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray, pos_weight: Optional[float] = None
) -> Tensor:
    """Stable binary cross-entropy on raw logits.

    Uses the identity ``bce = max(z, 0) - z*y + log(1 + exp(-|z|))``.
    ``pos_weight`` multiplies the positive-class term, for class
    imbalance.
    """
    targets = np.asarray(targets, dtype=logits.data.dtype).reshape(logits.shape)
    # bce = softplus(z) - z*y, which equals -y*log(p) - (1-y)*log(1-p);
    # the fused kernel backpropagates sigmoid(z) - y directly.
    weight = pos_weight if pos_weight is not None and pos_weight != 1.0 else None
    return F.bce_with_logits(logits, targets, pos_weight=weight).mean()


def mse_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error."""
    diff = pred - Tensor(np.asarray(targets, dtype=pred.data.dtype).reshape(pred.shape))
    return (diff * diff).mean()


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Bayesian personalized ranking loss: -log sigmoid(pos - neg)."""
    diff = pos_scores - neg_scores
    # -log(sigmoid(x)) = softplus(-x), computed stably.
    return (diff * -1.0).softplus().mean()

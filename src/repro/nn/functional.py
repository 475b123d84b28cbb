"""Fused autograd kernels for the hot compute path.

Each function here collapses what would be several :class:`~repro.nn.tensor.Tensor`
graph nodes (and their intermediate gradient buffers) into a single
node with a hand-written backward:

* :func:`addmm`           — ``x @ W + b`` as one node
* :func:`linear_relu`     — ``relu(x @ W + b)`` as one node
* :func:`bce_with_logits` — elementwise binary cross-entropy from
  logits; backward is ``sigmoid(z) - y`` (per-example, pre-reduction)

The op-by-op compositions they replace live in the test suite
(``tests/test_compute_path.py``) as the oracles the equivalence checks
diff against.  Kernels inherit their compute dtype from the inputs —
float32 graphs stay float32.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "addmm",
    "linear_relu",
    "bce_with_logits",
]

def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    return np.where(
        z >= 0,
        1.0 / (1.0 + np.exp(-np.clip(z, None, 500))),
        np.exp(np.clip(z, -500, None)) / (1.0 + np.exp(np.clip(z, -500, None))),
    )


# ----------------------------------------------------------------------
# Linear kernels
# ----------------------------------------------------------------------
def addmm(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` as a single graph node (2-D ``x`` only;
    other ranks fall back to the unfused composition)."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        out = x @ weight
        return out + bias if bias is not None else out
    data = x.data @ weight.data
    if bias is not None:
        data += bias.data

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        if x.requires_grad:
            x._accumulate(grad @ weight.data.T, owned=True)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ grad, owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=0), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(data, parents, backward)


def linear_relu(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``relu(x @ weight + bias)`` as a single graph node."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        return addmm(x, weight, bias).relu()
    pre = x.data @ weight.data
    if bias is not None:
        pre += bias.data
    mask = pre > 0
    data = np.where(mask, pre, 0.0)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad) * mask
        if x.requires_grad:
            x._accumulate(g @ weight.data.T, owned=True)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ g, owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(data, parents, backward)


# ----------------------------------------------------------------------
# Loss kernels
# ----------------------------------------------------------------------


def bce_with_logits(
    logits: Tensor, targets: np.ndarray, pos_weight: Optional[float] = None
) -> Tensor:
    """Per-example binary cross-entropy from logits, fused.

    Returns the *unreduced* per-example loss (callers apply masking /
    weighting / mean, matching :func:`repro.nn.losses.binary_cross_entropy_with_logits`).
    Backward is ``w * (sigmoid(z) - y)`` with ``w`` the positive-class
    weight — no softplus/sigmoid intermediates in the graph.
    """
    targets = np.asarray(targets, dtype=logits.data.dtype)
    z = logits.data
    per_example = np.logaddexp(0.0, z) - z * targets
    weights = None
    if pos_weight is not None:
        weights = np.where(targets > 0.5, float(pos_weight), 1.0).astype(z.dtype)
        per_example = per_example * weights

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        dz = _stable_sigmoid(z) - targets
        if weights is not None:
            dz *= weights
        dz *= np.asarray(grad)
        logits._accumulate(dz, owned=True)

    return Tensor._make(per_example, (logits,), backward)

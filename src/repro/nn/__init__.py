"""Neural-network substrate: reverse-mode autograd on numpy.

This package replaces the paper's PyTorch dependency.  It provides

* :mod:`repro.nn.tensor` — the autograd :class:`Tensor` with broadcasted
  arithmetic, matmul, reductions, indexing, and activation functions;
* :mod:`repro.nn.module` — the :class:`Module` base class with
  parameter registration and state dicts (no train/eval mode: no layer
  behaves differently in training);
* :mod:`repro.nn.layers` — ``Linear``, ``MLP``, ``Embedding``,
  ``LayerNorm``, ``Sequential``;
* :mod:`repro.nn.losses` — classification/regression/ranking losses;
* :mod:`repro.nn.optim` — ``SGD``, ``Adam``, ``AdamW`` (flat-buffer
  vectorized by default), gradient clipping and LR schedules;
* :mod:`repro.nn.functional` — fused forward/backward kernels
  (``addmm``, ``linear_relu``, ``softmax_cross_entropy``);
* :mod:`repro.nn.init` — weight initializers.
"""

from repro.nn.tensor import Tensor, as_dtype, no_grad
from repro.nn import functional
from repro.nn.module import Module, Parameter
from repro.nn.layers import Embedding, LayerNorm, Linear, MLP, ReLU, Sequential, Tanh
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    bpr_loss,
    cross_entropy,
    huber_loss,
    l1_loss,
    mse_loss,
)
from repro.nn.optim import SGD, Adam, AdamW, clip_grad_norm, CosineSchedule, StepSchedule
from repro.nn import init
from repro.nn.gradcheck import check_gradients, numeric_gradient

__all__ = [
    "Tensor",
    "no_grad",
    "as_dtype",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Embedding",
    "LayerNorm",
    "ReLU",
    "Tanh",
    "Sequential",
    "binary_cross_entropy_with_logits",
    "cross_entropy",
    "mse_loss",
    "l1_loss",
    "huber_loss",
    "bpr_loss",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "CosineSchedule",
    "StepSchedule",
    "init",
    "check_gradients",
    "numeric_gradient",
]

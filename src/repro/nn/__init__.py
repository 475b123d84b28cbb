"""Neural-network substrate: reverse-mode autograd on numpy.

This package replaces the paper's PyTorch dependency with what the
hetero GNNs need, and no more.  It provides

* :mod:`repro.nn.tensor` — the autograd :class:`Tensor` with broadcasted
  arithmetic, matmul, reductions, indexing, and activation functions;
* :mod:`repro.nn.module` — the :class:`Module` base class with
  parameter registration and state dicts (no train/eval mode: no layer
  behaves differently in training);
* :mod:`repro.nn.layers` — ``Linear``, ``MLP``, ``Embedding``;
* :mod:`repro.nn.losses` — the binary, regression and ranking losses;
* :mod:`repro.nn.optim` — ``Adam``, ``AdamW`` (flat-buffer vectorized)
  with fused gradient clipping;
* :mod:`repro.nn.functional` — fused forward/backward kernels
  (``addmm``, ``linear_relu``, ``bce_with_logits``);
* :mod:`repro.nn.init` — weight initializers.
"""

from repro.nn.tensor import Tensor, as_dtype, no_grad
from repro.nn import functional
from repro.nn.module import Module, Parameter
from repro.nn.layers import Embedding, Linear, MLP
from repro.nn.losses import binary_cross_entropy_with_logits, bpr_loss, mse_loss
from repro.nn.optim import Adam, AdamW
from repro.nn import init

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
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "bpr_loss",
    "Adam",
    "AdamW",
    "init",
]

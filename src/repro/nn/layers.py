"""Standard layers built on the autograd tensor."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = [
    "Linear",
    "MLP",
    "Embedding",
]


class Linear(Module):
    """Affine map ``x @ W + b`` with Xavier-initialized weights.

    Parameters
    ----------
    in_features, out_features:
        Input / output widths.
    rng:
        Random generator for initialization.
    bias:
        Whether to include the additive bias term.
    dtype:
        Compute dtype for the parameters (default float64).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        dtype=None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng), dtype=dtype)
        self.bias = Parameter(init.zeros((out_features,)), dtype=dtype) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Affine transform of the last axis (fused ``addmm`` on 2-D input)."""
        return F.addmm(x, self.weight, self.bias)


class MLP(Module):
    """Multi-layer perceptron with ReLU activations.

    Parameters
    ----------
    dims:
        Layer widths, e.g. ``[64, 128, 1]`` builds two linear layers.
    rng:
        Random generator for initialization.
    final_activation:
        Whether to apply ReLU after the last layer too (default off,
        so the MLP can produce logits/regression outputs).
    dtype:
        Compute dtype for every layer's parameters (default float64).
    """

    def __init__(
        self,
        dims: Sequence[int],
        rng: np.random.Generator,
        final_activation: bool = False,
        dtype=None,
    ) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and an output width")
        self.layers: List[Linear] = [
            Linear(d_in, d_out, rng, dtype=dtype) for d_in, d_out in zip(dims[:-1], dims[1:])
        ]
        self.final_activation = final_activation

    def forward(self, x: Tensor) -> Tensor:
        """Run the linear stack with fused linear+ReLU between layers."""
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            if i < last or self.final_activation:
                x = F.linear_relu(x, layer.weight, layer.bias)
            else:
                x = layer(x)
        return x


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator, dtype=None) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal((num_embeddings, dim), rng, std=0.1), dtype=dtype)

    def forward(self, indices: np.ndarray) -> Tensor:
        """Embedding rows for integer ``indices`` (gradients accumulate)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding indices out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return self.weight.take(indices)



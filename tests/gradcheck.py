"""Numerical gradient checking: the finite-difference oracle for autograd ops.

Every backward pass in :mod:`repro.nn` (and the scatter kernels in
:mod:`repro.gnn.scatter`) is checked against central differences in
one line::

    from tests.gradcheck import check_gradients

    check_gradients(lambda t: my_custom_op(t).sum(), x0)
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["numeric_gradient", "check_gradients"]


def numeric_gradient(
    func: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array.

    ``func`` must treat its input as read-only between calls; ``x`` is
    perturbed in place and restored.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        high = func(x)
        flat[i] = original - eps
        low = func(x)
        flat[i] = original
        out[i] = (high - low) / (2 * eps)
    return grad


def check_gradients(
    build: Callable[[Tensor], Tensor],
    x: np.ndarray,
    atol: float = 1e-6,
    rtol: float = 1e-4,
    eps: float = 1e-6,
) -> None:
    """Assert that autograd and finite differences agree.

    Parameters
    ----------
    build:
        Maps an input tensor to a *scalar* output tensor.
    x:
        Input point.  Avoid kinks (ReLU at 0, abs at 0): finite
        differences straddle them and disagree with any subgradient.
    atol, rtol, eps:
        Comparison and perturbation tolerances.

    Raises
    ------
    AssertionError
        With the elementwise mismatch when the check fails.
    """
    x = np.asarray(x, dtype=np.float64)
    tensor = Tensor(x.copy(), requires_grad=True)
    out = build(tensor)
    if out.size != 1:
        raise ValueError(f"build must return a scalar, got shape {out.shape}")
    out.backward()
    analytic = tensor.grad
    expected = numeric_gradient(lambda arr: float(build(Tensor(arr)).data.reshape(())), x.copy(), eps=eps)
    np.testing.assert_allclose(analytic, expected, atol=atol, rtol=rtol)

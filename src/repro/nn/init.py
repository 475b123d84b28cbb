"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so
training runs are reproducible end-to-end from a single seed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["xavier_uniform", "normal", "zeros"]


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = gain * sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def normal(shape: Tuple[int, ...], rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Zero-mean gaussian with the given standard deviation."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero array (biases)."""
    return np.zeros(shape)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive

"""Reverse-mode automatic differentiation on numpy arrays.

The :class:`Tensor` records a dynamic computation graph: every
differentiable op stores its parents and a closure that accumulates
gradients into them.  :meth:`Tensor.backward` topologically sorts the
graph and runs the closures in reverse.

Floating data participates in differentiation in a configurable
compute dtype: float64 by default (the reference numerics), float32
when a model opts in via ``dtype=`` for speed.  Integer index arrays
are passed as plain numpy arrays to ops like :meth:`Tensor.take` and
:func:`scatter-style <repro.gnn.scatter>` aggregations.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.segment import SegmentPlan

__all__ = ["Tensor", "no_grad", "as_dtype"]



class _GradMode(threading.local):
    """Per-thread autograd switch: a serving thread under
    :func:`no_grad` must not turn graph construction off (or, on exit,
    leave it off) for a trainer on another thread."""

    enabled = True


_grad_mode = _GradMode()

#: Dtypes a Tensor will keep as-is; everything else is cast to float64.
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def as_dtype(spec) -> np.dtype:
    """Resolve a compute-dtype spec (``"float32"``/``"float64"``/numpy
    dtype/None) to a numpy dtype; ``None`` means the float64 default."""
    if spec is None:
        return np.dtype(np.float64)
    dtype = np.dtype(spec)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"compute dtype must be float32 or float64, got {dtype}")
    return dtype


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode gradient tracking.

    Parameters
    ----------
    data:
        Array-like.  float32/float64 arrays are kept as-is; anything
        else is cast to float64.  Pass ``dtype`` to force a cast.
    requires_grad:
        Whether gradients should flow into this tensor (leaf
        parameters set this true).
    dtype:
        Optional compute dtype (float32 or float64) to cast ``data`` to.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, dtype=None) -> None:
        if dtype is not None:
            self.data = np.asarray(data, dtype=as_dtype(dtype))
        else:
            arr = np.asarray(data)
            if arr.dtype not in _FLOAT_DTYPES:
                arr = arr.astype(np.float64)
            self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _grad_mode.enabled
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        """The single scalar value (errors if not one element)."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise ValueError(f"item() requires a one-element tensor, got shape {self.shape}")

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if _grad_mode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (allocated on first use).

        ``owned=True`` promises the caller just allocated ``grad`` for
        this tensor alone, so the first accumulation can adopt the
        array instead of copying it.  Mixed-dtype graphs (float32
        params fed float64 inputs) cast back to the tensor's dtype
        here, keeping accumulation in-place and dtype-stable.
        """
        grad = np.asarray(grad)
        if grad.dtype != self.data.dtype:
            grad = grad.astype(self.data.dtype)
            owned = True
        out = _unbroadcast(grad, self.data.shape)
        if out is not grad:
            owned = True
        if self.grad is None:
            self.grad = out if owned else out.copy()
        else:
            self.grad += out

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (appropriate for scalar losses).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        root_owned = grad is None
        if grad is None:
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    topo.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    if parent.requires_grad and id(parent) not in visited:
                        stack.append((parent, False))

        visit(self)
        self._accumulate(grad, owned=root_owned)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Intermediate (non-leaf) grads are consumed the moment the
                # closure runs; free them so deep graphs don't retain one
                # activation-sized buffer per op.
                node.grad = None

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut off from the graph."""
        return Tensor(self.data)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _lift(self, value) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        # Python scalars follow this tensor's dtype (a 0-d float64 array
        # would otherwise silently upcast a float32 graph under NEP 50).
        if isinstance(value, (int, float, np.floating, np.integer)):
            return Tensor(value, dtype=self.data.dtype)
        return Tensor(value)

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return Tensor._make(data, (self, other), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if self.data.ndim == 2 else grad * other.data)
                else:
                    self._accumulate(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad) if other.data.ndim == 2 else grad * self.data)
                else:
                    other._accumulate(self.data.swapaxes(-1, -2) @ grad)

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (numerically stable)."""
        data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, None, 500))),
            np.exp(np.clip(self.data, -500, None)) / (1.0 + np.exp(np.clip(self.data, -500, None))),
        )

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def softplus(self) -> "Tensor":
        """Elementwise ``log(1 + exp(x))``, computed stably; d/dx = sigmoid(x)."""
        data = np.logaddexp(0.0, self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                sig = np.where(
                    self.data >= 0,
                    1.0 / (1.0 + np.exp(-np.clip(self.data, None, 500))),
                    np.exp(np.clip(self.data, -500, None))
                    / (1.0 + np.exp(np.clip(self.data, -500, None))),
                )
                self._accumulate(grad * sig)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        """Elementwise leaky ReLU."""
        mask = self.data > 0
        data = np.where(mask, self.data, slope * self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, slope))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when ``None``)."""
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (all axes when ``None``)."""
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / max(count, 1))

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Reshape (view semantics on forward, exact reverse on backward)."""
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(self.data.shape))

        return Tensor._make(data, (self,), backward)

    def transpose(self) -> "Tensor":
        """Swap the last two axes."""
        data = self.data.swapaxes(-1, -2)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).swapaxes(-1, -2))

        return Tensor._make(data, (self,), backward)

    def take(self, indices: Union[np.ndarray, SegmentPlan]) -> "Tensor":
        """Gather rows along axis 0 (repeats allowed; grads accumulate).

        Given the :class:`~repro.nn.segment.SegmentPlan` of an index,
        every backward pass over it shares the plan's grouping.
        """
        plan = indices if isinstance(indices, SegmentPlan) else None
        index = np.asarray(indices, dtype=np.int64) if plan is None else plan.index
        if plan is not None and plan.num_segments != len(self.data):
            raise ValueError(f"plan covers {plan.num_segments} rows, tensor has {len(self.data)}")
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                rows = plan  # negative indices count from the end, as in the gather
                if rows is None:
                    rows = SegmentPlan(index.reshape(-1) % max(len(self.data), 1), len(self.data))
                width = self.data[:1].size  # trailing dims flattened, known even for no rows
                full = rows.sum(np.asarray(grad).reshape(len(rows), width))
                self._accumulate(full.reshape(self.data.shape), owned=True)

        return Tensor._make(data, (self,), backward)

    def slice_rows(self, start: int, stop: int) -> "Tensor":
        """Contiguous row slice along axis 0."""
        data = self.data[start:stop]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                full[start:stop] = grad
                self._accumulate(full)

        return Tensor._make(data, (self,), backward)


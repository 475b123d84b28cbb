"""Adam and AdamW over flat parameter storage, with fused gradient clipping.

Optimizers keep *flat* storage: at construction every parameter's
storage is rebound to a view into one contiguous buffer per dtype, so
an update step is a handful of vectorized numpy ops over the whole
model instead of a Python loop per parameter.  The layout is recorded
in a manifest (:meth:`Optimizer.layout_manifest`) and the
per-parameter optimizer state (``_m``/``_v``) is still
addressable by parameter index, which is the form checkpoints use.

The flat step is constructed to be *bit-identical* in every dtype to
the textbook per-parameter loop (kept in ``tests/test_compute_path.py``
as the oracle): each vectorized expression performs exactly the same
elementwise operations in the same order (exploiting that float
``+``/``*`` are bitwise commutative), and parameters whose gradient is
``None`` are restored after the update, matching the loop's
``continue``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.module import Parameter

__all__ = [
    "Optimizer",
    "Adam",
    "AdamW",
]


class _Slot:
    """Placement of one parameter inside its dtype group's flat buffer."""

    __slots__ = ("param", "index", "offset", "size", "shape")

    def __init__(self, param: Parameter, index: int, offset: int) -> None:
        self.param = param
        self.index = index
        self.offset = offset
        self.size = param.data.size
        self.shape = param.data.shape


class _Group:
    """One dtype's contiguous data/grad buffers and the slots inside them."""

    __slots__ = ("dtype", "data", "grad", "slots")

    def __init__(self, dtype: np.dtype, total: int, slots: List[_Slot]) -> None:
        self.dtype = dtype
        self.data = np.empty(total, dtype=dtype)
        self.grad = np.zeros(total, dtype=dtype)
        self.slots = slots


class FlatParamSpace:
    """Contiguous flat storage for a parameter list, grouped by dtype.

    Construction copies each parameter's current values into the flat
    buffer and rebinds ``param.data`` to a reshaped view of it, so
    layers keep reading/writing their own storage while the optimizer
    updates the whole group with single vectorized expressions.
    """

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        by_dtype: Dict[np.dtype, List[Tuple[int, Parameter]]] = {}
        for index, param in enumerate(parameters):
            by_dtype.setdefault(param.data.dtype, []).append((index, param))
        self.groups: List[_Group] = []
        for dtype, members in by_dtype.items():
            offset = 0
            slots = []
            for index, param in members:
                slots.append(_Slot(param, index, offset))
                offset += param.data.size
            group = _Group(dtype, offset, slots)
            for slot in slots:
                group.data[slot.offset:slot.offset + slot.size] = slot.param.data.reshape(-1)
                slot.param.data = group.data[slot.offset:slot.offset + slot.size].reshape(slot.shape)
            self.groups.append(group)

    def layout_manifest(self) -> List[Dict]:
        """Stable description of where each parameter lives."""
        manifest = []
        for group in self.groups:
            for slot in group.slots:
                manifest.append(
                    {
                        "index": slot.index,
                        "dtype": str(group.dtype),
                        "offset": slot.offset,
                        "size": slot.size,
                        "shape": list(slot.shape),
                    }
                )
        return sorted(manifest, key=lambda entry: entry["index"])

    def gather(self) -> List[Tuple[int, _Slot]]:
        """Copy per-parameter grads into the flat grad buffers.

        Returns the slots whose parameter has no gradient (their grad
        slice is zeroed; the optimizer restores their state after the
        vectorized update, reproducing a per-parameter loop's skip).
        """
        missing: List[Tuple[int, _Slot]] = []
        for gi, group in enumerate(self.groups):
            flat = group.grad
            for slot in group.slots:
                grad = slot.param.grad
                if grad is None:
                    flat[slot.offset:slot.offset + slot.size] = 0.0
                    missing.append((gi, slot))
                else:
                    flat[slot.offset:slot.offset + slot.size] = grad.reshape(-1)
        return missing

    def grad_norm(self) -> float:
        """Global L2 norm of the gathered flat gradients.

        Accumulated per parameter in registration order with the exact
        ``(grad ** 2).sum()`` reduction the per-parameter oracle uses
        (``clip_grad_norm`` in ``tests/oracles.py``), so flat clipping
        stays bit-identical to it (a BLAS dot over the
        whole buffer can differ in the last ulp and would break
        checkpoint equivalence).
        """
        contributions: Dict[int, float] = {}
        for group in self.groups:
            for slot in group.slots:
                view = group.grad[slot.offset:slot.offset + slot.size]
                contributions[slot.index] = float((view**2).sum())
        total = 0.0
        for index in sorted(contributions):
            total += contributions[index]
        return math.sqrt(total)

    def scale_grads(self, scale: float) -> None:
        """Multiply every gathered flat gradient by ``scale`` (clipping)."""
        for group in self.groups:
            group.grad *= scale

    def alloc_like(self) -> List[np.ndarray]:
        """Zeroed state buffers, one per dtype group (for moments etc.)."""
        return [np.zeros_like(group.data) for group in self.groups]

    def state_views(self, buffers: Optional[List[np.ndarray]]) -> Dict[int, np.ndarray]:
        """Per-parameter-index views into state ``buffers``."""
        if buffers is None:
            return {}
        out: Dict[int, np.ndarray] = {}
        for group, buf in zip(self.groups, buffers):
            for slot in group.slots:
                out[slot.index] = buf[slot.offset:slot.offset + slot.size].reshape(slot.shape)
        return out

    def load_state(self, buffers: List[np.ndarray], mapping: Dict[int, np.ndarray]) -> None:
        """Zero ``buffers`` and scatter ``mapping`` (index -> array) into them."""
        for group, buf in zip(self.groups, buffers):
            buf[:] = 0.0
            for slot in group.slots:
                value = mapping.get(slot.index)
                if value is not None:
                    buf[slot.offset:slot.offset + slot.size] = np.asarray(
                        value, dtype=group.dtype
                    ).reshape(-1)


class Optimizer:
    """Base optimizer: holds parameters, the current LR, and flat storage.

    Parameters
    ----------
    parameters:
        The learnable parameters (their storage is rebound into a flat
        buffer).
    lr:
        Learning rate.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer created with no parameters")
        self.lr = lr
        self._flat = FlatParamSpace(self.parameters)
        self._gathered = False
        self._missing: List[Tuple[int, _Slot]] = []

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for param in self.parameters:
            param.zero_grad()

    def layout_manifest(self) -> List[Dict]:
        """Flat-buffer layout (index/dtype/offset/size/shape per parameter)."""
        return self._flat.layout_manifest()

    def gather_and_clip(self, max_norm: Optional[float] = None) -> float:
        """Gather grads into the flat buffer and return the global L2 norm.

        When ``max_norm`` is given and exceeded, the flat gradients are
        scaled down (the per-parameter ``.grad`` arrays are left
        untouched; the subsequent :meth:`step` consumes the flat
        buffer).
        """
        self._missing = self._flat.gather()
        self._gathered = True
        norm = self._flat.grad_norm()
        if max_norm is not None and norm > max_norm and norm > 0:
            self._flat.scale_grads(max_norm / norm)
        return norm

    # -- step helpers ---------------------------------------------------
    def _ensure_gathered(self) -> None:
        if not self._gathered:
            self._missing = self._flat.gather()
            self._gathered = True

    def _save_missing(self, buffer_sets: List[List[np.ndarray]]) -> List[Tuple]:
        """Snapshot data+state slices of grad-less params before the update."""
        saved = []
        for gi, slot in self._missing:
            lo, hi = slot.offset, slot.offset + slot.size
            group = self._flat.groups[gi]
            copies = [group.data[lo:hi].copy()]
            for buffers in buffer_sets:
                if buffers is not None:
                    copies.append(buffers[gi][lo:hi].copy())
            saved.append((gi, lo, hi, copies))
        return saved

    def _restore_missing(self, saved: List[Tuple], buffer_sets: List[List[np.ndarray]]) -> None:
        for gi, lo, hi, copies in saved:
            group = self._flat.groups[gi]
            group.data[lo:hi] = copies[0]
            pos = 1
            for buffers in buffer_sets:
                if buffers is not None:
                    buffers[gi][lo:hi] = copies[pos]
                    pos += 1

    def step(self) -> None:
        """Apply one update; subclasses override."""
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    #: AdamW flips this to apply decay to the weights instead of the grad.
    _decoupled_decay = False

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._flat_m = self._flat.alloc_like()
        self._flat_v = self._flat.alloc_like()
        self._scratch_a = self._flat.alloc_like()
        self._scratch_b = self._flat.alloc_like()
        self._t = 0

    # Resilience snapshots read/write the moments as
    # ``{param_index: array}``.
    @property
    def _m(self) -> Dict[int, np.ndarray]:
        return self._flat.state_views(self._flat_m)

    @_m.setter
    def _m(self, value: Dict[int, np.ndarray]) -> None:
        self._flat.load_state(self._flat_m, value)

    @property
    def _v(self) -> Dict[int, np.ndarray]:
        return self._flat.state_views(self._flat_v)

    @_v.setter
    def _v(self, value: Dict[int, np.ndarray]) -> None:
        self._flat.load_state(self._flat_v, value)

    def step(self) -> None:
        """Apply one bias-corrected Adam update."""
        self._ensure_gathered()
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        saved = self._save_missing([self._flat_m, self._flat_v])
        for gi, group in enumerate(self._flat.groups):
            # All arithmetic lands in two persistent scratch buffers:
            # zero allocations per step, and every expression computes
            # the same floats (in the same order) as the textbook loop.
            s_update, s_denom = self._scratch_a[gi], self._scratch_b[gi]
            grad = group.grad
            if self._decoupled_decay:
                if self.weight_decay:
                    np.multiply(group.data, self.lr * self.weight_decay, out=s_update)
                    group.data -= s_update
            elif self.weight_decay:
                np.multiply(group.data, self.weight_decay, out=s_update)
                grad += s_update  # grad + wd*data (float + is commutative)
            m, v = self._flat_m[gi], self._flat_v[gi]
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=s_update)
            m += s_update
            np.multiply(grad, grad, out=s_update)
            s_update *= 1.0 - self.beta2
            v *= self.beta2
            v += s_update
            np.divide(m, bias1, out=s_update)
            s_update *= self.lr
            np.divide(v, bias2, out=s_denom)
            np.sqrt(s_denom, out=s_denom)
            s_denom += self.eps
            s_update /= s_denom
            group.data -= s_update
        self._restore_missing(saved, [self._flat_m, self._flat_v])
        self._gathered = False


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    _decoupled_decay = True



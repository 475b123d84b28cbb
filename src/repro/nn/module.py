"""Module base class: parameter registration and state dicts."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Module", "Parameter"]


class Parameter(Tensor):
    """A tensor that is registered as a learnable parameter.

    ``dtype`` selects the compute dtype (float64 default; float32 for
    the fast training path).  Initializers hand in float64 arrays, so
    the cast happens exactly once, here.
    """

    def __init__(self, data, dtype=None) -> None:
        super().__init__(data, requires_grad=True, dtype=dtype or np.float64)


class Module:
    """Base class for neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances
    as attributes; those are discovered automatically for
    :meth:`parameters` and :meth:`state_dict`.  Dict-valued attributes
    of modules/parameters (as used by heterogeneous GNN layers keyed by
    relation) are also traversed.  A module has no train/eval mode:
    nothing it computes differs between training and inference.
    """

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield (dotted-name, parameter) pairs, depth-first.

        Shared submodules/parameters (the same object reachable under
        several names) are yielded once, under the first name found.
        """
        yield from self._named_parameters(prefix, set())

    def _named_parameters(self, prefix: str, seen: set) -> Iterator[Tuple[str, Parameter]]:
        if id(self) in seen:
            return
        seen.add(id(self))
        for name, value in sorted(vars(self).items()):
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                if id(value) not in seen:
                    seen.add(id(value))
                    yield full, value
            elif isinstance(value, Module):
                yield from value._named_parameters(f"{full}.", seen)
            elif isinstance(value, dict):
                for key, item in sorted(value.items(), key=lambda kv: str(kv[0])):
                    if isinstance(item, Parameter):
                        if id(item) not in seen:
                            seen.add(id(item))
                            yield f"{full}.{key}", item
                    elif isinstance(item, Module):
                        yield from item._named_parameters(f"{full}.{key}.", seen)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        if id(item) not in seen:
                            seen.add(id(item))
                            yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item._named_parameters(f"{full}.{i}.", seen)

    def parameters(self) -> List[Parameter]:
        """All parameters, depth-first."""
        return [param for _, param in self.named_parameters()]

    # ------------------------------------------------------------------
    # Gradients
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter's data keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter data saved by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in params.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"parameter {name!r}: shape {param.data.shape} != saved {state[name].shape}"
                )
            param.data[...] = state[name]

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args: Any, **kwargs: Any):
        """Compute the module's output; subclasses override."""
        raise NotImplementedError

    def __call__(self, *args: Any, **kwargs: Any):
        return self.forward(*args, **kwargs)

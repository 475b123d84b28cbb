"""Module base class: parameter registration, train/eval, state dicts."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Module", "Parameter"]

# Bumped whenever any module is built or has a module/container attribute
# assigned, so a flat module list cached at one epoch is still complete
# while the epoch has not moved.  (The one edit this cannot see is moving
# an already-built module into an existing dict/list in place.)
_structure_epoch = [0]


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
    :meth:`parameters`, :meth:`state_dict`, and mode switching.
    Dict-valued attributes of modules/parameters (as used by
    heterogeneous GNN layers keyed by relation) are also traversed.
    """

    def __init__(self) -> None:
        _structure_epoch[0] += 1
        self.training = True

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, (Module, dict, list, tuple)):
            _structure_epoch[0] += 1
        object.__setattr__(self, name, value)

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

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants (shared modules once)."""
        yield from self._flat_modules()

    def _flat_modules(self) -> Tuple["Module", ...]:
        """:meth:`modules` as a tuple, re-walked only after the structure
        epoch moved (mode switches run on every predict call)."""
        epoch = _structure_epoch[0]
        cached = self.__dict__.get("_flat")
        if cached is None or cached[0] != epoch:
            # Nested so attribute discovery (which descends one container
            # level) never mistakes the cache for child modules.
            cached = self.__dict__["_flat"] = (epoch, tuple(self._modules(set())))
        return cached[1]

    def _modules(self, seen: set) -> Iterator["Module"]:
        if id(self) in seen:
            return
        seen.add(id(self))
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value._modules(seen)
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        yield from item._modules(seen)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item._modules(seen)

    # ------------------------------------------------------------------
    # Mode and gradients
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Switch to training mode (enables dropout etc.)."""
        for module in self._flat_modules():
            module.__dict__["training"] = True
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode."""
        for module in self._flat_modules():
            module.__dict__["training"] = False
        return self

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

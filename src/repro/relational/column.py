"""Typed, nullable column backed by a numpy array.

A :class:`Column` is the unit of storage in the relational engine: an
immutable-by-convention pair of a value array and an optional null
mask.  All operations are vectorized; none mutate the receiver.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.relational.types import DType, NULL_SENTINELS, numpy_dtype_for

__all__ = ["Column"]


def _coerce_values(values: Any, dtype: DType) -> np.ndarray:
    """Coerce a python sequence / numpy array into the physical dtype.

    ``None`` entries (and float NaN for non-float targets) are replaced
    with the dtype's null sentinel; the caller tracks nullness in the
    mask.
    """
    np_dtype = numpy_dtype_for(dtype)
    if isinstance(values, np.ndarray) and values.dtype == np_dtype:
        array = values
    elif dtype == DType.STRING:
        array = np.empty(len(values), dtype=object)
        for i, value in enumerate(values):
            array[i] = "" if value is None else str(value)
    elif isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype.kind == "f" and dtype != DType.FLOAT64:
            values = np.where(np.isnan(values), NULL_SENTINELS[dtype], values)
        array = values.astype(np_dtype)
    else:
        sentinel = NULL_SENTINELS[dtype]
        cleaned = [
            sentinel if value is None or (isinstance(value, float) and np.isnan(value)) else value
            for value in values
        ]
        array = np.asarray(cleaned, dtype=np_dtype)
    if array.ndim != 1:
        raise ValueError(f"column values must be 1-D, got shape {array.shape}")
    return array


def _infer_mask(values: Any, dtype: DType) -> Optional[np.ndarray]:
    """Infer a null mask from ``None`` and float NaN entries, whatever
    the target dtype (as the list path does)."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype.kind == "f":
            nan_mask = np.isnan(values)
            return nan_mask if nan_mask.any() else None
        return None
    mask = np.fromiter(
        (value is None or (isinstance(value, float) and np.isnan(value)) for value in values),
        dtype=bool,
        count=len(values),
    )
    return mask if mask.any() else None


class Column:
    """A typed, nullable, 1-D column.

    Parameters
    ----------
    values:
        Sequence or numpy array of values.  ``None`` entries mark nulls.
    dtype:
        Logical :class:`~repro.relational.types.DType`.
    mask:
        Optional explicit boolean null mask (``True`` = null).  When
        omitted, nulls are inferred from ``None``/NaN entries.
    """

    __slots__ = ("dtype", "values", "mask")

    def __init__(
        self,
        values: Any,
        dtype: DType,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        self.dtype = dtype
        if mask is None:
            mask = _infer_mask(values, dtype)
        self.values = _coerce_values(values, dtype)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != self.values.shape:
                raise ValueError("mask shape must match values shape")
            if not mask.any():
                mask = None
            else:
                # Normalize null slots to the sentinel so that physical
                # arrays never carry stale user data at null positions.
                self.values = self.values.copy()
                self.values[mask] = NULL_SENTINELS[dtype]
        self.mask = mask

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, dtype: DType) -> "Column":
        """A zero-length column of the given dtype."""
        return cls(np.empty(0, dtype=numpy_dtype_for(dtype)), dtype)

    @classmethod
    def full(cls, length: int, value: Any, dtype: DType) -> "Column":
        """A column of ``length`` copies of ``value`` (``None`` = all null)."""
        if value is None:
            values = np.full(length, NULL_SENTINELS[dtype], dtype=numpy_dtype_for(dtype))
            return cls(values, dtype, mask=np.ones(length, dtype=bool))
        values = np.full(length, value, dtype=numpy_dtype_for(dtype))
        return cls(values, dtype)

    @classmethod
    def concat(cls, columns: Sequence["Column"]) -> "Column":
        """Concatenate columns of identical dtype."""
        if not columns:
            raise ValueError("cannot concat zero columns")
        dtype = columns[0].dtype
        if any(col.dtype != dtype for col in columns):
            raise TypeError("cannot concat columns of differing dtypes")
        values = np.concatenate([col.values for col in columns])
        if any(col.mask is not None for col in columns):
            mask = np.concatenate(
                [col.mask if col.mask is not None else np.zeros(len(col), dtype=bool) for col in columns]
            )
        else:
            mask = None
        return cls(values, dtype, mask=mask)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        for i in range(len(self)):
            yield self.get(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.dtype != other.dtype or len(self) != len(other):
            return False
        self_mask = self.null_mask()
        other_mask = other.null_mask()
        if not np.array_equal(self_mask, other_mask):
            return False
        valid = ~self_mask
        if self.dtype == DType.FLOAT64:
            return bool(np.allclose(self.values[valid], other.values[valid], equal_nan=True))
        return bool(np.array_equal(self.values[valid], other.values[valid]))

    def __repr__(self) -> str:
        preview = ", ".join(repr(self.get(i)) for i in range(min(len(self), 5)))
        suffix = ", ..." if len(self) > 5 else ""
        return f"Column<{self.dtype.value}>[{preview}{suffix}] (n={len(self)})"

    def get(self, index: int) -> Any:
        """Python-level value at ``index`` (``None`` for nulls)."""
        if self.mask is not None and self.mask[index]:
            return None
        value = self.values[index]
        if self.dtype in (DType.INT64, DType.TIMESTAMP):
            return int(value)
        if self.dtype == DType.FLOAT64:
            return float(value)
        if self.dtype == DType.BOOL:
            return bool(value)
        return value

    def to_list(self) -> list:
        """Materialize as a python list with ``None`` for nulls."""
        return [self.get(i) for i in range(len(self))]

    def null_mask(self) -> np.ndarray:
        """Boolean null mask (always materialized, never ``None``)."""
        if self.mask is None:
            return np.zeros(len(self), dtype=bool)
        return self.mask

    @property
    def null_count(self) -> int:
        """Number of null entries."""
        return 0 if self.mask is None else int(self.mask.sum())

    # ------------------------------------------------------------------
    # Vectorized transforms
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by integer indices."""
        indices = np.asarray(indices, dtype=np.int64)
        mask = self.mask[indices] if self.mask is not None else None
        return Column(self.values[indices], self.dtype, mask=mask)

    def filter(self, keep: np.ndarray) -> "Column":
        """Keep rows where the boolean ``keep`` mask is true."""
        keep = np.asarray(keep, dtype=bool)
        mask = self.mask[keep] if self.mask is not None else None
        return Column(self.values[keep], self.dtype, mask=mask)

    # ------------------------------------------------------------------
    # Comparisons (produce boolean numpy masks; nulls compare false)
    # ------------------------------------------------------------------
    def _comparable(self, other: Any) -> np.ndarray:
        if isinstance(other, Column):
            return other.values
        return other

    def _guard_nulls(self, result: np.ndarray, other: Any) -> np.ndarray:
        result = np.asarray(result, dtype=bool)
        if self.mask is not None:
            result = result & ~self.mask
        if isinstance(other, Column) and other.mask is not None:
            result = result & ~other.mask
        return result

    def equals(self, other: Any) -> np.ndarray:
        """Element-wise equality mask (nulls never match)."""
        return self._guard_nulls(self.values == self._comparable(other), other)

    def not_equals(self, other: Any) -> np.ndarray:
        """Element-wise inequality mask (nulls never match)."""
        return self._guard_nulls(self.values != self._comparable(other), other)

    def less_than(self, other: Any) -> np.ndarray:
        """Element-wise ``<`` mask (nulls never match)."""
        return self._guard_nulls(self.values < self._comparable(other), other)

    def less_equal(self, other: Any) -> np.ndarray:
        """Element-wise ``<=`` mask (nulls never match)."""
        return self._guard_nulls(self.values <= self._comparable(other), other)

    def greater_than(self, other: Any) -> np.ndarray:
        """Element-wise ``>`` mask (nulls never match)."""
        return self._guard_nulls(self.values > self._comparable(other), other)

    def greater_equal(self, other: Any) -> np.ndarray:
        """Element-wise ``>=`` mask (nulls never match)."""
        return self._guard_nulls(self.values >= self._comparable(other), other)

    def isin(self, values: Iterable[Any]) -> np.ndarray:
        """Membership mask (nulls never match)."""
        candidates = np.asarray(list(values), dtype=self.values.dtype if self.dtype != DType.STRING else object)
        return self._guard_nulls(np.isin(self.values, candidates), None)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def _valid_values(self) -> np.ndarray:
        if self.mask is None:
            return self.values
        return self.values[~self.mask]

    def unique(self) -> np.ndarray:
        """Sorted unique non-null values."""
        return np.unique(self._valid_values())

    def value_counts(self) -> dict:
        """Mapping from non-null value to occurrence count."""
        values, counts = np.unique(self._valid_values(), return_counts=True)
        return {self._to_python(v): int(c) for v, c in zip(values, counts)}

    def _to_python(self, value: Any) -> Any:
        if self.dtype in (DType.INT64, DType.TIMESTAMP):
            return int(value)
        if self.dtype == DType.FLOAT64:
            return float(value)
        if self.dtype == DType.BOOL:
            return bool(value)
        return value

    def min(self) -> Any:
        """Minimum non-null value (``None`` if all null / empty)."""
        valid = self._valid_values()
        return None if len(valid) == 0 else self._to_python(valid.min())

    def max(self) -> Any:
        """Maximum non-null value (``None`` if all null / empty)."""
        valid = self._valid_values()
        return None if len(valid) == 0 else self._to_python(valid.max())

    def sum(self) -> Union[int, float]:
        """Sum of non-null values (0 for empty)."""
        if not self.dtype.is_numeric:
            raise TypeError(f"sum not defined for dtype {self.dtype}")
        valid = self._valid_values()
        total = valid.sum() if len(valid) else 0
        return self._to_python(total) if len(valid) else 0

    def mean(self) -> Optional[float]:
        """Mean of non-null values (``None`` for empty)."""
        if not self.dtype.is_numeric:
            raise TypeError(f"mean not defined for dtype {self.dtype}")
        valid = self._valid_values()
        return None if len(valid) == 0 else float(valid.mean())

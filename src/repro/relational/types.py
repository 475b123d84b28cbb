"""Column data types for the relational engine.

Every column in a table carries a :class:`DType`.  The physical storage
for each logical type is a numpy array:

========== =======================  =========================================
DType       numpy storage            notes
========== =======================  =========================================
INT64       ``int64``                null encoded in a separate mask
FLOAT64     ``float64``              null encoded as NaN *and* in the mask
BOOL        ``bool``                 null encoded in a separate mask
STRING      ``object``               arbitrary python strings
TIMESTAMP   ``int64``                seconds since the unix epoch
========== =======================  =========================================

Timestamps are plain integers (seconds).
"""

from __future__ import annotations

import enum
import operator

import numpy as np

__all__ = ["DType", "Timestamp", "NULL_SENTINELS", "numpy_dtype_for",
           "exact_int"]

#: Alias used in signatures that accept epoch-second timestamps.
Timestamp = int


class DType(enum.Enum):
    """Logical column type."""

    INT64 = "int64"
    FLOAT64 = "float64"
    BOOL = "bool"
    STRING = "string"
    TIMESTAMP = "timestamp"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type support arithmetic aggregation."""
        return self in (DType.INT64, DType.FLOAT64, DType.TIMESTAMP)

    @classmethod
    def parse(cls, name: str) -> "DType":
        """Parse a dtype from its string name (as stored in schema.json)."""
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown dtype name: {name!r}") from None


#: Per-dtype value stored in the physical array at null positions.  The
#: authoritative null indicator is the column mask; these sentinels only
#: keep the physical arrays well-formed.
NULL_SENTINELS = {
    DType.INT64: np.int64(0),
    DType.FLOAT64: np.float64("nan"),
    DType.BOOL: np.False_,
    DType.STRING: "",
    DType.TIMESTAMP: np.int64(0),
}


def numpy_dtype_for(dtype: DType) -> np.dtype:
    """Physical numpy dtype used to store values of ``dtype``."""
    mapping = {
        DType.INT64: np.dtype(np.int64),
        DType.FLOAT64: np.dtype(np.float64),
        DType.BOOL: np.dtype(np.bool_),
        DType.STRING: np.dtype(object),
        DType.TIMESTAMP: np.dtype(np.int64),
    }
    return mapping[dtype]


_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1


def exact_int(value) -> int:
    """``value`` as an INT64/TIMESTAMP cell, exactly.

    Integers and integer text keep every digit (no detour through a
    float, which rounds above 2**53); integral floats and float text
    such as ``3.0`` or ``"1e3"`` are accepted.  Non-integral or
    non-finite input raises ``ValueError``, a value outside int64
    ``OverflowError``.
    """
    if type(value) is int:
        number = value
    elif isinstance(value, str):
        try:
            number = int(value)
        except ValueError:
            # Rare (float text), so the decimal module loads only here.
            from decimal import Decimal, InvalidOperation

            try:
                number = Decimal(value.strip())
            except InvalidOperation:
                raise ValueError(f"not a number: {value!r}") from None
            if not number.is_finite() or number != number.to_integral_value():
                raise ValueError(f"not an integer: {value!r}") from None
    elif isinstance(value, (float, np.floating)):
        if not float(value).is_integer():
            raise ValueError(f"not an integer: {value!r}")
        number = int(value)
    else:
        number = operator.index(value)  # numpy integers, bool
    if not _INT64_MIN <= number <= _INT64_MAX:
        raise OverflowError(f"{value!r} is outside the int64 range")
    return int(number)

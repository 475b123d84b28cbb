"""Column encoders: table columns → model-ready node features.

Encoding rules (mirroring RelBench's default column transforms):

* INT64 / FLOAT64 — standardized numeric channel plus a null-indicator
  channel.  Standardization statistics are computed from rows at or
  before a ``stats_cutoff`` timestamp so no information from the
  evaluation horizon leaks into feature scaling.
* BOOL — a single 0/1 channel (nulls become 0 with indicator).
* STRING — categorical codes for an embedding table; values unseen
  before the cutoff (or beyond a cardinality cap) hash into overflow
  buckets.
* TIMESTAMP feature columns — age in days relative to the cutoff,
  standardized like numeric columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.relational.table import Table
from repro.relational.types import DType

__all__ = [
    "NodeFeatures",
    "CategoricalEncoding",
    "encode_table_features",
    "FeatureGrower",
]

#: Hash buckets reserved for unseen / overflow categorical values.
_OVERFLOW_BUCKETS = 8
#: Above this many distinct values a STRING column is hashed entirely.
_MAX_VOCAB = 256
_SECONDS_PER_DAY = 86400.0


@dataclass
class CategoricalEncoding:
    """One categorical column encoded as integer codes.

    ``codes`` holds per-row indices in ``[0, cardinality)``; the last
    ``_OVERFLOW_BUCKETS`` indices are shared hash buckets for unseen
    values, and index ``cardinality - _OVERFLOW_BUCKETS - 1`` is the
    dedicated null code.
    """

    name: str
    codes: np.ndarray
    cardinality: int
    vocabulary: Dict[str, int] = field(default_factory=dict)


@dataclass
class NodeFeatures:
    """Encoded features of one node type.

    ``numeric`` is an (n, d) float array (possibly d == 0),
    ``numeric_names`` labels its channels, and ``categorical`` lists the
    embedding-ready columns.
    """

    numeric: np.ndarray
    numeric_names: List[str]
    categorical: List[CategoricalEncoding]

    @property
    def num_nodes(self) -> int:
        """Number of nodes covered."""
        return self.numeric.shape[0]

    @property
    def numeric_dim(self) -> int:
        """Width of the numeric block."""
        return self.numeric.shape[1]

@lru_cache(maxsize=65536)
def _stable_hash(text: str) -> int:
    """Deterministic FNV-1a string hash (python's builtin is salted per process).

    Cached: encoding hashes each *distinct* value once, and the same
    vocabularies recur across snapshot cutoffs within a run.
    """
    value = 2166136261
    for char in text.encode("utf-8"):
        value = ((value ^ char) * 16777619) & 0xFFFFFFFF
    return value


def _fit_rows(table: Table, stats_cutoff: Optional[int]) -> np.ndarray:
    """Boolean mask of rows usable for fitting statistics (<= cutoff)."""
    time_col = table.schema.time_column
    if stats_cutoff is None or time_col is None:
        return np.ones(table.num_rows, dtype=bool)
    return table[time_col].less_equal(stats_cutoff)


def encode_table_features(
    table: Table,
    stats_cutoff: Optional[int] = None,
) -> NodeFeatures:
    """Encode the feature columns of ``table`` into :class:`NodeFeatures`.

    ``stats_cutoff`` bounds the rows used for fitting normalization and
    vocabularies (pass the train cutoff to avoid temporal leakage).
    """
    fit_mask = _fit_rows(table, stats_cutoff)
    numeric_channels: List[np.ndarray] = []
    numeric_names: List[str] = []
    categorical: List[CategoricalEncoding] = []

    for name in table.schema.feature_columns:
        column = table[name]
        if column.dtype in (DType.INT64, DType.FLOAT64):
            values, indicator = _encode_numeric(
                column.values.astype(np.float64), column.null_mask(), fit_mask
            )
            numeric_channels.extend([values, indicator])
            numeric_names.extend([name, f"{name}__isnull"])
        elif column.dtype == DType.BOOL:
            numeric_channels.append(
                np.where(column.null_mask(), 0.0, column.values.astype(np.float64))
            )
            numeric_names.append(name)
        elif column.dtype == DType.TIMESTAMP:
            reference = float(stats_cutoff) if stats_cutoff is not None else float(
                np.max(column.values[~column.null_mask()], initial=0)
            )
            age_days = (reference - column.values.astype(np.float64)) / _SECONDS_PER_DAY
            values, indicator = _encode_numeric(age_days, column.null_mask(), fit_mask)
            numeric_channels.extend([values, indicator])
            numeric_names.extend([f"{name}__age_days", f"{name}__isnull"])
        elif column.dtype == DType.STRING:
            categorical.append(_encode_categorical(name, column.values, column.null_mask(), fit_mask))
        else:  # pragma: no cover - exhaustive over DType
            raise TypeError(f"unsupported feature dtype {column.dtype}")

    if numeric_channels:
        numeric = np.column_stack(numeric_channels)
    else:
        numeric = np.zeros((table.num_rows, 0))
    return NodeFeatures(numeric=numeric, numeric_names=numeric_names, categorical=categorical)


def _encode_numeric(
    values: np.ndarray, null_mask: np.ndarray, fit_mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Standardize using fit-window statistics; nulls become 0 + indicator."""
    usable = fit_mask & ~null_mask
    if usable.any():
        mean = float(values[usable].mean())
        std = float(values[usable].std())
    else:
        mean, std = 0.0, 1.0
    if std < 1e-12:
        std = 1.0
    standardized = (values - mean) / std
    standardized = np.where(null_mask, 0.0, standardized)
    # Clip so outliers beyond the fit window cannot blow up activations.
    standardized = np.clip(standardized, -10.0, 10.0)
    return standardized, null_mask.astype(np.float64)


class FeatureGrower:
    """Incrementally extend :class:`NodeFeatures` as table rows append.

    The ingest delta path needs feature blocks that stay bit-identical
    to a cold ``encode_table_features`` over the grown table.  That is
    provable when every appended row's timestamp lies strictly after
    ``stats_cutoff``: the fit window (rows ``<= cutoff``) — and with it
    every mean, std, and vocabulary — is frozen, and the per-row
    transforms are elementwise, so encoding just the new slice with the
    frozen statistics reproduces the cold bytes.  Fit-window statistics
    are memoized per (table, channel) so repeated deltas skip the
    full-column scans.

    Whenever the fast path cannot be proven (no cutoff, a static
    table, or an appended row at/before the cutoff), :meth:`grow`
    falls back to a full re-encode — still cold-identical, just not
    incremental — and drops the table's memoized statistics, since the
    fit window may have changed.
    """

    def __init__(self, stats_cutoff: Optional[int]) -> None:
        self.stats_cutoff = stats_cutoff
        self._stats: Dict[Tuple[str, str], Tuple[float, float]] = {}

    def _numeric_stats(
        self, table_name: str, channel: str, values: np.ndarray, usable: np.ndarray
    ) -> Tuple[float, float]:
        key = (table_name, channel)
        cached = self._stats.get(key)
        if cached is not None:
            return cached
        if usable.any():
            mean = float(values[usable].mean())
            std = float(values[usable].std())
        else:
            mean, std = 0.0, 1.0
        if std < 1e-12:
            std = 1.0
        self._stats[key] = (mean, std)
        return mean, std

    def _grow_numeric(
        self,
        table_name: str,
        channel: str,
        values: np.ndarray,
        null_mask: np.ndarray,
        fit_mask: np.ndarray,
        rows: slice,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``_encode_numeric`` restricted to ``rows``, stats frozen."""
        mean, std = self._numeric_stats(
            table_name, channel, values, fit_mask & ~null_mask
        )
        new_null = null_mask[rows]
        standardized = (values[rows] - mean) / std
        standardized = np.where(new_null, 0.0, standardized)
        standardized = np.clip(standardized, -10.0, 10.0)
        return standardized, new_null.astype(np.float64)

    @staticmethod
    def _grow_categorical(
        base: CategoricalEncoding, values: np.ndarray, null_mask: np.ndarray, rows: slice
    ) -> np.ndarray:
        """Codes for the new rows under the frozen vocabulary.

        Mirrors both cold branches of ``_encode_categorical``: a
        vocabulary maps hits directly and hashes misses into the
        overflow buckets (an empty one — a column with no fit-window
        values — sends every value there); the hashed-all branch, an
        empty vocabulary over ``_MAX_VOCAB`` codes, hashes into those.
        """
        null_code = base.cardinality - 1 - _OVERFLOW_BUCKETS
        overflow_start = null_code + 1
        as_text = values[rows].astype(str)
        new_null = null_mask[rows]
        uniq, inverse = np.unique(as_text, return_inverse=True)
        if base.vocabulary or null_code != _MAX_VOCAB:
            unique_codes = np.array(
                [
                    base.vocabulary[text]
                    if text in base.vocabulary
                    else overflow_start + _stable_hash(text) % _OVERFLOW_BUCKETS
                    for text in map(str, uniq)
                ],
                dtype=np.int64,
            )
        else:
            unique_codes = np.array(
                [_stable_hash(str(text)) % _MAX_VOCAB for text in uniq], dtype=np.int64
            )
        codes = unique_codes[inverse] if len(as_text) else np.zeros(0, dtype=np.int64)
        codes[new_null] = null_code
        return codes

    def grow(self, table: Table, base: NodeFeatures) -> NodeFeatures:
        """Features for the grown ``table``, extending ``base``.

        ``base`` must be the encoding of the table's first
        ``base.num_nodes`` rows at the same ``stats_cutoff``.
        """
        old = base.num_nodes
        if table.num_rows < old:
            raise ValueError(
                f"table {table.name!r} shrank: {table.num_rows} < {old} encoded rows"
            )
        if table.num_rows == old:
            return base
        time_col = table.schema.time_column
        fast = self.stats_cutoff is not None and time_col is not None
        if fast:
            col = table[time_col]
            new_null = col.null_mask()[old:]
            new_times = col.values[old:]
            if new_null.any() or bool((new_times <= self.stats_cutoff).any()):
                fast = False
        if not fast:
            self._stats = {
                k: v for k, v in self._stats.items() if k[0] != table.name
            }
            return encode_table_features(table, self.stats_cutoff)

        rows = slice(old, table.num_rows)
        fit_mask = _fit_rows(table, self.stats_cutoff)
        numeric_channels: List[np.ndarray] = []
        categorical: List[CategoricalEncoding] = []
        cat_index = 0
        for name in table.schema.feature_columns:
            column = table[name]
            if column.dtype in (DType.INT64, DType.FLOAT64):
                values, indicator = self._grow_numeric(
                    table.name, name, column.values.astype(np.float64),
                    column.null_mask(), fit_mask, rows,
                )
                numeric_channels.extend([values, indicator])
            elif column.dtype == DType.BOOL:
                null = column.null_mask()[rows]
                numeric_channels.append(
                    np.where(null, 0.0, column.values[rows].astype(np.float64))
                )
            elif column.dtype == DType.TIMESTAMP:
                reference = float(self.stats_cutoff)
                age_days = (
                    reference - column.values.astype(np.float64)
                ) / _SECONDS_PER_DAY
                values, indicator = self._grow_numeric(
                    table.name, f"{name}__age_days", age_days,
                    column.null_mask(), fit_mask, rows,
                )
                numeric_channels.extend([values, indicator])
            elif column.dtype == DType.STRING:
                old_cat = base.categorical[cat_index]
                cat_index += 1
                new_codes = self._grow_categorical(
                    old_cat, column.values, column.null_mask(), rows
                )
                categorical.append(
                    CategoricalEncoding(
                        name=name,
                        codes=np.concatenate([old_cat.codes, new_codes]),
                        cardinality=old_cat.cardinality,
                        vocabulary=old_cat.vocabulary,
                    )
                )
            else:  # pragma: no cover - exhaustive over DType
                raise TypeError(f"unsupported feature dtype {column.dtype}")

        if numeric_channels:
            new_block = np.column_stack(numeric_channels)
            numeric = np.concatenate([base.numeric, new_block], axis=0)
        else:
            numeric = np.zeros((table.num_rows, 0))
        return NodeFeatures(
            numeric=numeric, numeric_names=base.numeric_names, categorical=categorical
        )


def _encode_categorical(
    name: str, values: np.ndarray, null_mask: np.ndarray, fit_mask: np.ndarray
) -> CategoricalEncoding:
    """Integer-code a string column with overflow hashing for unseen values.

    Vectorized: rows are uniqued once, each distinct string is coded
    (vocabulary lookup, else stable hash) exactly once, and per-row
    codes are a single gather instead of a python loop over rows.
    """
    usable = fit_mask & ~null_mask
    as_text = values.astype(str)
    seen = np.unique(as_text[usable]).tolist()
    hash_all = len(seen) > _MAX_VOCAB
    if hash_all:
        # Hash everything: cardinality = _MAX_VOCAB + null + overflow.
        vocabulary: Dict[str, int] = {}
        base = _MAX_VOCAB
    else:
        # An empty fit window gives an empty vocabulary: every value is
        # unseen and lands in the overflow buckets, inside cardinality.
        vocabulary = {value: i for i, value in enumerate(seen)}
        base = len(seen)
    null_code = base
    overflow_start = base + 1
    cardinality = overflow_start + _OVERFLOW_BUCKETS

    uniq, inverse = np.unique(as_text, return_inverse=True)
    if not hash_all:
        unique_codes = np.array(
            [
                vocabulary[text]
                if text in vocabulary
                else overflow_start + _stable_hash(text) % _OVERFLOW_BUCKETS
                for text in map(str, uniq)
            ],
            dtype=np.int64,
        )
    else:
        unique_codes = np.array(
            [_stable_hash(str(text)) % _MAX_VOCAB for text in uniq], dtype=np.int64
        )
    codes = unique_codes[inverse]
    codes[null_mask] = null_code
    return CategoricalEncoding(
        name=name, codes=codes, cardinality=cardinality, vocabulary=vocabulary
    )

"""Planned segment reductions: the scatter kernel of message passing.

``out[index[e]] += values[e]`` sits under both the forward aggregation
of a conv layer (destination side) and the backward pass of its gather
(source side).  :class:`SegmentPlan` computes it without ``ufunc.at``:
slots are grouped by *segment length* once, and each length ``L`` is
one dense ``values[rows].reshape(m, L, d)`` reduced over its middle
axis.  The grouping is stable (a slot's rows stay in index order) and
a reduction over a non-trailing axis adds whole rows one after
another, so every slot accumulates exactly the sequence ``np.add.at``
would: the results are equal (at most the sign of an all-``-0.0`` sum
may differ, where numpy starts from the first row instead of ``+0.0``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SegmentPlan"]


class SegmentPlan:
    """A 1-D ``index`` into ``num_segments`` slots, range-checked once,
    plus its grouping by segment length, built on first use and shared
    by every reduction over the index (forward and backward, all layers).
    """

    __slots__ = ("index", "num_segments", "_counts", "_layout")

    #: Up to this many rows ``ufunc.at`` beats gathering by length (a
    #: one-row predict aggregates a handful of edges per relation).
    #: Both branches add a slot's rows in index order, so they agree.
    BASE_CASE_ROWS = 64

    def __init__(self, index: np.ndarray, num_segments: int) -> None:
        index = np.asarray(index, dtype=np.int64)
        if index.ndim != 1:
            raise ValueError(f"segment index must be 1-D, got shape {index.shape}")
        if index.size and (index.min() < 0 or index.max() >= num_segments):
            raise IndexError(f"segment index out of range [0, {num_segments})")
        self.index = index
        self.num_segments = int(num_segments)
        self._counts = None
        self._layout = None

    def __len__(self) -> int:
        return len(self.index)

    @property
    def counts(self) -> np.ndarray:
        """Rows per slot, shape ``(num_segments,)``."""
        if self._counts is None:
            self._counts = np.bincount(self.index, minlength=self.num_segments)
        return self._counts

    def _build(self):
        """``(gather, slots, groups)``: row numbers ordered by segment
        length, then slot, then position (so a slot's rows stay in index
        order); the slot of each segment in that order; and per length
        one ``(first segment, last segment, first gathered row, L)``."""
        counts = self.counts
        # Subgraph-sized plans fit 16 bits: radix sorts, and a quarter
        # of the bytes for every epoch a kept plan lives.
        narrow = max(self.num_segments, len(self.index)) < 1 << 16
        dtype = np.uint16 if narrow else np.int64
        gather = np.lexsort((self.index.astype(dtype), counts[self.index].astype(dtype))).astype(dtype)
        slots = np.flatnonzero(counts)
        slots = slots[np.argsort(counts[slots], kind="stable")].astype(dtype)
        lengths = counts[slots]
        first = np.flatnonzero(np.concatenate(([True], lengths[1:] != lengths[:-1])))
        last = np.append(first[1:], len(lengths))
        offsets = (np.cumsum(lengths) - lengths)[first]
        groups = list(zip(first.tolist(), last.tolist(), offsets.tolist(), lengths[first].tolist()))
        self._layout = gather, slots, groups
        return self._layout

    def _reduce(self, ufunc: np.ufunc, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fold each slot's rows into ``out`` with ``ufunc``, in index
        order; empty slots keep what ``out`` was filled with."""
        if len(self.index) <= self.BASE_CASE_ROWS:
            ufunc.at(out, self.index, values)
            return out
        gather, slots, groups = self._layout or self._build()
        width = values.shape[1]
        gathered = values[gather]
        reduced = np.empty((len(slots), width), dtype=values.dtype)
        for first, last, offset, length in groups:
            block = gathered[offset : offset + (last - first) * length]
            ufunc.reduce(block.reshape(last - first, length, width), axis=1, out=reduced[first:last])
        out[slots] = reduced
        return out

    def sum(self, values: np.ndarray) -> np.ndarray:
        """``out[i] = Σ_{e: index[e]=i} values[e]``; empty slots are zero."""
        if values.shape[1] == 1 and len(self.index) > self.BASE_CASE_ROWS:
            # A length-1 trailing axis would make the segment axis the
            # contiguous one, which numpy sums pairwise, not in order.
            return self.sum(np.repeat(values, 2, axis=1))[:, :1]
        out = np.zeros((self.num_segments, values.shape[1]), dtype=values.dtype)
        return self._reduce(np.add, values, out)

    def max(self, values: np.ndarray) -> np.ndarray:
        """Elementwise maximum per slot; empty slots are ``-inf``."""
        out = np.full((self.num_segments, values.shape[1]), -np.inf, dtype=values.dtype)
        return self._reduce(np.maximum, values, out)

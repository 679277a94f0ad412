"""Fast bulk range-sum evaluation via d-dimensional prefix sums.

The paper's workloads have 40 000 queries per dataset (§VII-A); summing a
box per query would cost ``O(m)`` each.  A summed-area table (prefix-sum
array) answers any axis-aligned box in ``O(2^d)`` lookups by
inclusion-exclusion, after one ``O(m)`` build.  :func:`box_sums` is that
lookup, shared by this oracle and by every release
(:mod:`repro.core.release`), which all serve from the same zero-bordered
layout (:func:`repro.core.release.prefix_tensor`).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.release import prefix_tensor
from repro.data.frequency import FrequencyMatrix
from repro.errors import QueryError
from repro.queries.query import RangeCountQuery
from repro.utils.validation import ensure_boxes

__all__ = ["RangeSumOracle", "box_sums"]


def box_sums(prefix: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Box sums over a zero-bordered prefix tensor, by inclusion-exclusion.

    ``lows``/``highs`` are already-validated ``(n, d)`` int64 half-open
    bounds (see :func:`repro.utils.validation.ensure_boxes`); this does
    no checking of its own, so each public call validates once.  One
    gather of ``n`` prefix entries per corner pattern, ``2^d`` in all.
    """
    d = prefix.ndim
    flat = prefix.reshape(-1)
    strides = np.asarray(
        [int(np.prod(prefix.shape[axis + 1 :])) for axis in range(d)], dtype=np.int64
    )
    totals = np.zeros(lows.shape[0], dtype=np.float64)
    # The sign of a corner is (-1)^(number of "lo" picks).
    for corner in itertools.product((0, 1), repeat=d):
        picks = np.where(np.asarray(corner, dtype=bool), highs, lows)
        sign = -1.0 if (d - sum(corner)) % 2 else 1.0
        totals += sign * flat[picks @ strides]
    return totals


class RangeSumOracle:
    """Answer axis-aligned box sums over one matrix in ``O(2^d)`` each."""

    def __init__(self, matrix: FrequencyMatrix):
        self._schema = matrix.schema
        self._shape = matrix.shape
        # P[i1..id] = sum of values[:i1, ..., :id], zero on every border.
        self._prefix = prefix_tensor(
            matrix.shape, lambda inner: np.copyto(inner, matrix.values)
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nbytes(self) -> int:
        """Bytes held by the prefix array (the oracle's whole state)."""
        return int(self._prefix.nbytes)

    def box_sum(self, box) -> float:
        """Sum of the half-open box ``[(lo, hi), ...]`` via the prefix array."""
        box = list(box)
        if len(box) != len(self._shape):
            raise QueryError(f"box must have {len(self._shape)} ranges, got {len(box)}")
        lows = [[lo for lo, _ in box]]
        highs = [[hi for _, hi in box]]
        return float(self.answer_boxes(lows, highs)[0])

    def answer(self, query: RangeCountQuery) -> float:
        """Answer one range-count query."""
        if query.schema.shape != self._shape:
            raise QueryError("query schema does not match oracle matrix shape")
        return self.box_sum(query.box())

    def answer_all(self, queries) -> np.ndarray:
        """Answer a sequence of queries; returns a float array.

        Vectorized: one gather of ``len(queries)`` prefix entries per
        corner pattern (``2^d`` gathers total), so the 40 000-query paper
        workloads evaluate in milliseconds.
        """
        queries = list(queries)
        if not queries:
            return np.zeros(0, dtype=np.float64)
        d = len(self._shape)
        lows = np.empty((len(queries), d), dtype=np.int64)
        highs = np.empty((len(queries), d), dtype=np.int64)
        for row, query in enumerate(queries):
            if query.schema.shape != self._shape:
                raise QueryError("query schema does not match oracle matrix shape")
            for axis, (lo, hi) in enumerate(query.box()):
                lows[row, axis] = lo
                highs[row, axis] = hi
        return self.answer_boxes(lows, highs)

    def answer_boxes(self, lows, highs) -> np.ndarray:
        """Bulk box sums from ``(n, d)`` low/high bound arrays.

        The array-level core of :meth:`answer_all`: validates the bounds
        once, then :func:`box_sums`.
        """
        lows, highs = ensure_boxes(lows, highs, self._shape)
        return box_sums(self._prefix, lows, highs)

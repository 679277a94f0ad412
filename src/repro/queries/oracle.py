"""Fast bulk range-sum evaluation via d-dimensional prefix sums.

The paper's workloads have 40 000 queries per dataset (§VII-A); summing a
box per query would cost ``O(m)`` each.  A summed-area table (prefix-sum
array) answers any axis-aligned box in ``O(2^d)`` lookups by
inclusion-exclusion, after one ``O(m)`` build.  The oracle serves through
the same corner kernel as every release (:mod:`repro.core.release`): one
zero-bordered layout (:func:`repro.core.release.prefix_tensor`), one flat
index for all ``2^d`` corners of a batch, bounds validated once at
:meth:`RangeSumOracle.answer_boxes`.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.exact import query_boxes
from repro.core.release import _CornerKernel, prefix_tensor
from repro.data.frequency import FrequencyMatrix
from repro.errors import QueryError
from repro.queries.query import RangeCountQuery
from repro.utils.validation import ensure_boxes

__all__ = ["RangeSumOracle"]


class RangeSumOracle:
    """Answer axis-aligned box sums over one matrix in ``O(2^d)`` each."""

    def __init__(self, matrix: FrequencyMatrix):
        self._schema = matrix.schema
        self._shape = matrix.shape
        # P[i1..id] = sum of values[:i1, ..., :id], zero on every border.
        self._kernel = _CornerKernel(
            prefix_tensor(matrix.shape, lambda inner: np.copyto(inner, matrix.values))
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def nbytes(self) -> int:
        """Bytes held by the prefix array (the oracle's whole state)."""
        return self._kernel.nbytes

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

        Vectorized: one gather of all ``2^d`` corners of every query, so
        the 40 000-query paper workloads evaluate in milliseconds.
        """
        return self.answer_boxes(*query_boxes(queries, self._shape))

    def answer_boxes(self, lows, highs) -> np.ndarray:
        """Bulk box sums from ``(n, d)`` low/high bound arrays.

        The array-level core of :meth:`answer_all`: validates the bounds
        once, then reads every box's corners through the kernel.  A box
        with an empty range answers an exact ``0.0``.
        """
        lows, highs = ensure_boxes(lows, highs, self._shape)
        return self._kernel(lows, highs)

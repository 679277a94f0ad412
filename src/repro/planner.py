"""Batch deduplication on top of the query engine.

The engine answers whatever rows it is handed, in the order it is
handed them.  A serving workload re-asks identical boxes inside one
batch (dashboards, repeated widgets), and because a release's noise is
*frozen at publish time* the same box always returns the same float.
:class:`QueryPlanner` exploits exactly that, without changing a single
output bit: the batch's ``(lo, hi)`` rows are collapsed to their
distinct boxes (keyed by their corners' flat indices), each distinct
box is answered once, and the answers are scattered back through the
inverse map, so the response order is the request order.

The planner validates the batch once, then hands the distinct rows to
the engine's own post-validation pass and gathers every output column
(estimates, stds and both bounds) back through the inverse map.  Each
output is elementwise in its row, so
:meth:`QueryPlanner.answer_columnar` is bit-for-bit equal to
:meth:`~repro.queries.engine.QueryEngine.answer_columnar` on the same
rows.  A composed release routes the distinct boxes inside its own
``answer_boxes``, so lazy parts still load only when a box routes to
them.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.queries.engine import BatchQueryAnswers
from repro.utils.validation import ensure_boxes, ensure_confidence

__all__ = ["QueryPlanner"]


def _distinct_boxes(lows, highs, shape) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` over validated bounds: one row index per
    distinct box, and each row's position among them, so
    ``lows[first][inverse]`` is ``lows``.

    A box is keyed by the flat indices of its two corners in the
    ``prod(n_i + 1)`` corner grid, and one ``lexsort`` of the key pairs
    groups equal boxes; at 256 rows that costs about an eighth of
    ``numpy.unique(axis=0)`` over the stacked bounds.
    """
    sizes = np.asarray(shape, dtype=np.int64) + 1
    strides = np.append(np.cumprod(sizes[:0:-1])[::-1], 1)
    flat_lows, flat_highs = lows @ strides, highs @ strides
    order = np.lexsort((flat_highs, flat_lows))
    sorted_lows, sorted_highs = flat_lows[order], flat_highs[order]
    starts = np.ones(order.shape[0], dtype=bool)
    starts[1:] = (sorted_lows[1:] != sorted_lows[:-1]) | (
        sorted_highs[1:] != sorted_highs[:-1]
    )
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


class QueryPlanner:
    """Answer columnar batches for one engine, each distinct box once.

    Finding the duplicates costs more than the engine rows it saves
    unless most of a batch repeats, so the serving layer's compiled
    plans answer through the engine without one; wrap an engine in a
    planner when a workload's batches are mostly duplicates.

    Parameters
    ----------
    engine:
        The :class:`~repro.queries.engine.QueryEngine` to answer
        through (one release snapshot, possibly a time window).
    """

    def __init__(self, engine):
        self._engine = engine
        self._lock = threading.Lock()
        #: Rows answered through :meth:`answer_columnar` (monotone).
        self.rows_planned = 0
        #: Rows answered by scatter from an identical row's answer.
        self.rows_deduped = 0

    @property
    def engine(self):
        """The engine this planner answers through."""
        return self._engine

    def answer_columnar(
        self, lows, highs, confidence: float = 0.95
    ) -> BatchQueryAnswers:
        """Answer a batch once per distinct box — bit-for-bit the engine's.

        Parameters
        ----------
        lows, highs:
            ``(n, d)`` arrays of half-open box bounds, one row per
            query (axis order = schema order).
        confidence:
            Two-sided coverage level: a real number in ``(0, 1)``
            (:class:`~repro.errors.QueryError` otherwise).

        Returns
        -------
        repro.queries.engine.BatchQueryAnswers
            Arrays aligned with the request rows, identical to
            :meth:`~repro.queries.engine.QueryEngine.answer_columnar`
            on the same inputs.
        """
        # Same precedence as the engine: a bad confidence fails before
        # the bounds are even looked at.
        confidence = ensure_confidence(confidence)
        shape = self._engine.schema.shape
        lows, highs = ensure_boxes(lows, highs, shape)
        first, inverse = _distinct_boxes(lows, highs, shape)
        answered = self._engine._answer_validated(lows[first], highs[first], confidence)
        with self._lock:
            self.rows_planned += int(inverse.shape[0])
            self.rows_deduped += int(inverse.shape[0]) - int(first.shape[0])
        return BatchQueryAnswers(
            estimates=answered.estimates[inverse],
            noise_stds=answered.noise_stds[inverse],
            lowers=answered.lowers[inverse],
            uppers=answered.uppers[inverse],
            confidence=confidence,
        )

    def __repr__(self) -> str:
        return (
            f"QueryPlanner(rows_planned={self.rows_planned}, "
            f"rows_deduped={self.rows_deduped})"
        )

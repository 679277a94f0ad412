"""Batch deduplication on top of the query engine.

The engine answers whatever rows it is handed, in the order it is
handed them.  A serving workload re-asks identical boxes inside one
batch (dashboards, repeated widgets), and because a release's noise is
*frozen at publish time* the same box always returns the same float.
:class:`QueryPlanner` exploits exactly that, without changing a single
output bit: the batch's ``(lo, hi)`` rows are collapsed to their
distinct boxes (``numpy.unique`` over the stacked bounds), each distinct
box is answered once, and the answers are scattered back through the
inverse map, so the response order is the request order.

Deduplicated and direct batches share one interval constructor, one
variance pass, and one backend gather, so
:meth:`QueryPlanner.answer_columnar` is bit-for-bit equal to
:meth:`~repro.queries.engine.QueryEngine.answer_columnar` on the same
rows.  A composed release routes the distinct boxes inside its own
``answer_boxes``, so lazy parts still load only when a box routes to
them.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.queries.engine import BatchQueryAnswers, _interval_answers
from repro.utils.validation import ensure_boxes, ensure_confidence

__all__ = ["QueryPlanner"]


class QueryPlanner:
    """Answer columnar batches for one engine, each distinct box once.

    The serving layer attaches one planner to every compiled plan (see
    :class:`~repro.serving.plans.PlanCache`), so a stream refresh drops
    the planner with its plan and the counters fold into the cache's
    retired totals.

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
        lows, highs = ensure_boxes(lows, highs, self._engine.schema.shape)
        dims = lows.shape[1]
        unique, inverse = np.unique(
            np.concatenate([lows, highs], axis=1), axis=0, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        answered = self._engine.answer_columnar(
            unique[:, :dims], unique[:, dims:], confidence
        )
        with self._lock:
            self.rows_planned += int(inverse.shape[0])
            self.rows_deduped += int(inverse.shape[0]) - int(unique.shape[0])
        return _interval_answers(
            answered.estimates[inverse], answered.noise_stds[inverse], confidence
        )

    def __repr__(self) -> str:
        return (
            f"QueryPlanner(rows_planned={self.rows_planned}, "
            f"rows_deduped={self.rows_deduped})"
        )

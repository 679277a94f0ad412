"""A query engine over published results, with uncertainty estimates.

Downstream consumers of a DP release need more than point answers: they
need to know how noisy each answer is.  Because Privelet's noise is a
known linear function of independent Laplace draws, the *exact* standard
deviation of every range-count answer is computable from the release
metadata alone (no additional privacy cost — it depends only on the
mechanism configuration, not the data).  :class:`QueryEngine` packages:

* point answers via the release's prefix-sum tensor,
* exact noise variance per query (:mod:`repro.analysis.exact`),
* Gaussian-approximation confidence intervals (a range answer sums many
  independent Laplace terms, so the CLT applies; for one-coefficient
  answers the interval is conservative by design — we widen the Gaussian
  quantile to the Laplace one when the effective term count is tiny).

The primary entry point for traffic is the **batch API**
(:meth:`QueryEngine.answer_all_with_intervals`): one vectorized backend
gather plus one variance pass over the whole batch.  The variance pass
is stateless: each row's per-axis range profiles are table reads or
closed forms (:class:`~repro.analysis.exact.AxisProfileCache`), so a
row's std has the same bits whatever batch, engine or process computes
it.  The single-query methods are thin wrappers over the batch path.

Answer backends
---------------
Point answers come from the result's :class:`~repro.core.release.
Release`, which is the engine's **answer-backend protocol** (``schema``,
``answer_boxes``, ``marginal``): both leaf representations, a
:class:`~repro.core.release.DenseRelease` and a
:class:`~repro.core.release.CoefficientRelease`, serve from the
prefix-sum tensor of their data, which a coefficient release builds from
its noisy coefficients on first use — same answers, ``2^d`` corner reads
per box.  Everything else in the engine (exact variances, intervals,
marginal stds) already depended only on the mechanism configuration, so
it is representation-independent by construction.  **Composed**
backends — any node of the composition algebra
(:mod:`repro.core.compose`), including
:class:`~repro.core.compose.Partition`,
:class:`~repro.core.compose.TimeTree`, and their nestings —
have no single mechanism configuration (each part carries its own
transform and λ), so the engine detects their ``noise_variances_boxes``
hook and delegates point answers *and* exact variances to the release,
which routes per part and sums (independent noise means the variances
add).  The engine serves a result exactly as it was published: its SA
set comes from the release (a coefficient release or a composed
release's parts) or from the mechanism details a dense release records,
and a result without one is rejected with a
:class:`~repro.errors.QueryError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.exact import AxisProfileCache, query_boxes
from repro.core.framework import PublishResult
from repro.core.release import CoefficientRelease, infer_sa_names, marginal_boxes
from repro.errors import QueryError
from repro.queries.query import RangeCountQuery
from repro.transforms.multidim import HNTransform
from repro.utils.stats import gaussian_quantile
from repro.utils.validation import ensure_boxes, ensure_confidence

__all__ = ["QueryAnswer", "BatchQueryAnswers", "QueryEngine"]


def _interval_answers(
    estimates: np.ndarray, noise_stds: np.ndarray, confidence: float
) -> "BatchQueryAnswers":
    """Two-sided confidence intervals around ``estimates``, vectorized.

    The single interval construction every batch path uses — the engine
    directly, and the planner after scattering deduplicated rows — so
    planned answers stay bit-for-bit identical to unplanned ones.
    Gaussian approximation to the sum of independent Laplace noises,
    widened to the exact Laplace quantile when it is larger.
    ``confidence`` has already passed :func:`~repro.utils.validation.
    ensure_confidence`.
    """
    tail = (1.0 - confidence) / 2.0
    gaussian_multiplier = -gaussian_quantile(tail)
    # Exact Laplace quantile for a *single* Laplace with the same
    # variance: scale = std / sqrt(2); P(|X| > w) = exp(-w/scale).
    laplace_multiplier = -math.log(2.0 * tail) / math.sqrt(2.0)
    half_widths = max(gaussian_multiplier, laplace_multiplier) * noise_stds
    return BatchQueryAnswers(
        estimates=estimates,
        noise_stds=noise_stds,
        lowers=estimates - half_widths,
        uppers=estimates + half_widths,
        confidence=confidence,
    )


@dataclass(frozen=True)
class QueryAnswer:
    """A private answer with its noise profile."""

    estimate: float
    #: Exact standard deviation of the noise in ``estimate``.
    noise_std: float
    #: Confidence interval at the level the engine was asked for.
    lower: float
    upper: float
    confidence: float


@dataclass(frozen=True)
class BatchQueryAnswers:
    """Vectorized answers for a query batch (arrays aligned by query).

    Indexing (or iterating) yields per-query :class:`QueryAnswer` views
    for callers that want the scalar shape.
    """

    estimates: np.ndarray
    #: Exact standard deviation of the noise in each estimate.
    noise_stds: np.ndarray
    #: Two-sided confidence bounds at ``confidence``.
    lowers: np.ndarray
    uppers: np.ndarray
    confidence: float

    def __len__(self) -> int:
        return len(self.estimates)

    def __getitem__(self, index: int) -> QueryAnswer:
        return QueryAnswer(
            estimate=float(self.estimates[index]),
            noise_std=float(self.noise_stds[index]),
            lower=float(self.lowers[index]),
            upper=float(self.uppers[index]),
            confidence=self.confidence,
        )

    def __iter__(self):
        return (self[index] for index in range(len(self)))


class QueryEngine:
    """Answer queries on one :class:`PublishResult` with noise accounting.

    Parameters
    ----------
    result:
        A published result from any mechanism in this library.  A dense
        leaf's SA set is read from ``result.details`` (Basic implies all
        attributes); see :func:`~repro.core.release.infer_sa_names`.
    """

    def __init__(self, result: PublishResult):
        self._result = result
        self._release = result.release
        if hasattr(self._release, "noise_variances_boxes"):
            # A composed release (sharded, stream) has no single
            # transform or lambda: each shard or tree node carries its
            # own.  Point answers and exact variances both delegate to
            # the release, which routes and sums per part.
            self._transform = None
            self._profiles = AxisProfileCache(())
            return
        if isinstance(self._release, CoefficientRelease):
            self._transform = self._release.transform
        else:
            self._transform = HNTransform(self._release.schema, infer_sa_names(result))
        self._profiles = AxisProfileCache(self._transform.transforms)

    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self._release.schema

    @property
    def release(self):
        """The answer backend this engine serves point answers from."""
        return self._release

    @property
    def transform(self) -> HNTransform:
        """The HN transform reconstructed from the result's configuration.

        ``None`` for a composed backend (sharded or stream), which has
        one transform per shard or tree node instead.
        """
        return self._transform

    @property
    def profile_cache(self):
        """This engine's stateless profile kernel; ``hits``/``misses`` read 0.

        Kept for readers of the retired memo's counters until ROADMAP
        item 2's benchmark change.
        """
        return self._profiles

    def answer(self, query: RangeCountQuery) -> float:
        """Point answer for one ``query`` from the published release.

        ``2^d`` prefix-tensor reads on either leaf backend, whatever the
        box's width.

        Parameters
        ----------
        query:
            A range-count query over the release's schema shape.

        Returns
        -------
        float
            The private (noisy) count.
        """
        if query.schema.shape != self._release.schema.shape:
            raise QueryError("query schema does not match the release's shape")
        return self._release.answer_box(query.box())

    def noise_variance(self, query: RangeCountQuery) -> float:
        """Exact noise variance of one ``query``'s answer (data-free).

        Parameters
        ----------
        query:
            A range-count query over the release's schema shape.

        Returns
        -------
        float
            ``2 lambda^2 * prod_i profile_i`` — exact, not a bound.
        """
        return float(self.noise_variances([query])[0])

    def noise_variances(self, queries) -> np.ndarray:
        """Exact noise variances for a query batch, vectorized.

        One vectorized pass: each axis's ranges are profiled in one
        transform call, then multiplied across axes per query — one
        table read per nominal range, ``O(log m_i)`` per Haar range.

        Parameters
        ----------
        queries:
            Iterable of range-count queries over the release's schema.

        Returns
        -------
        numpy.ndarray
            Per-query exact variances, aligned with ``queries``.
        """
        lows, highs = query_boxes(queries, self.schema.shape)
        return self.noise_variances_columnar(lows, highs)

    def noise_variances_columnar(self, lows, highs) -> np.ndarray:
        """Exact noise variances straight from ``(n, d)`` bound arrays.

        The columnar twin of :meth:`noise_variances`: no query objects,
        just per-axis half-open bounds, same exact math.

        Parameters
        ----------
        lows, highs:
            ``(n, d)`` int64 arrays of half-open box bounds, one row per
            query (axis order = schema order).

        Returns
        -------
        numpy.ndarray
            Per-row exact variances.
        """
        lows, highs = ensure_boxes(lows, highs, self.schema.shape)
        if self._transform is None:
            # Composed: per-part 2 lambda_i^2 * profile products,
            # summed (independent noise adds).
            return self._release.noise_variances_boxes(lows, highs)
        products = self._profiles.box_profile_products(lows, highs)
        return 2.0 * self._result.noise_magnitude**2 * products

    def answer_with_interval(
        self, query: RangeCountQuery, confidence: float = 0.95
    ) -> QueryAnswer:
        """Point answer plus a two-sided confidence interval for ``query``.

        A batch of one — see :meth:`answer_all_with_intervals` for the
        interval construction and the ``confidence`` semantics.

        Returns
        -------
        QueryAnswer
            Estimate, exact noise std, and interval bounds.
        """
        return self.answer_all_with_intervals([query], confidence)[0]

    def answer_all_with_intervals(
        self, queries, confidence: float = 0.95
    ) -> BatchQueryAnswers:
        """Batch answers with exact stds and confidence intervals.

        One vectorized prefix-tensor gather for the estimates plus one
        compiled variance pass for the stds.  The interval uses the Gaussian
        approximation to the sum of independent Laplace noises, widened
        to the exact Laplace quantile when it is larger (so intervals
        stay valid even for answers dominated by a single coefficient).
        Per query this is ``2^d`` corner reads plus one profile per axis
        for the variance.

        Parameters
        ----------
        queries:
            Iterable of range-count queries over the release's schema.
        confidence:
            Two-sided coverage level in ``(0, 1)``.

        Returns
        -------
        BatchQueryAnswers
            Arrays aligned with ``queries``.
        """
        lows, highs = query_boxes(queries, self.schema.shape)
        return self.answer_columnar(lows, highs, confidence)

    def answer_columnar(
        self, lows, highs, confidence: float = 0.95
    ) -> BatchQueryAnswers:
        """Batch answers with intervals straight from ``(n, d)`` bound arrays.

        The zero-object entry point the serving layer's columnar fast
        path hands its decoded wire batches to: no
        :class:`~repro.queries.query.RangeCountQuery` instances, no
        per-query Python — one vectorized backend gather, one variance
        pass, one vectorized interval construction, the same code the
        scalar path runs, so the answers are bit-for-bit identical to
        :meth:`answer_all_with_intervals` on the equivalent queries.

        Degenerate rows (``lo == hi`` on any axis) cover zero cells and
        answer an exact ``0.0`` with zero noise — consistent with every
        release backend's ``answer_boxes`` contract.

        Parameters
        ----------
        lows, highs:
            ``(n, d)`` int64 arrays of half-open box bounds, one row per
            query (axis order = schema order).
        confidence:
            Two-sided coverage level: a real number in ``(0, 1)``, never
            a string or boolean (:class:`~repro.errors.QueryError`).

        Returns
        -------
        BatchQueryAnswers
            Arrays aligned with the rows.
        """
        confidence = ensure_confidence(confidence)
        lows, highs = ensure_boxes(lows, highs, self.schema.shape)
        estimates = self._release.answer_boxes(lows, highs)
        stds = np.sqrt(self.noise_variances_columnar(lows, highs))
        return _interval_answers(estimates, stds, confidence)

    def answer_all(self, queries) -> np.ndarray:
        """Bulk point answers (one vectorized backend gather).

        Parameters
        ----------
        queries:
            Iterable of range-count queries over the release's schema.

        Returns
        -------
        numpy.ndarray
            Per-query private counts, aligned with ``queries``.
        """
        lows, highs = query_boxes(queries, self.schema.shape)
        return self._release.answer_boxes(lows, highs)

    def marginal_with_std(self, attribute_names) -> tuple[np.ndarray, np.ndarray]:
        """A DP marginal table plus the exact noise std of every cell.

        Each marginal cell is a range-count query (a point on the kept
        axes, the full range on the summed-out axes), so its exact noise
        variance factorizes per axis — the whole std table costs one
        vectorized profile pass per kept axis.

        Parameters
        ----------
        attribute_names:
            Attributes to keep, in the desired output-axis order.

        Returns
        -------
        tuple[numpy.ndarray, numpy.ndarray]
            ``(values, stds)`` with one axis per requested attribute
            (order of the request).
        """
        schema = self.schema
        names = list(attribute_names)
        if self._transform is None:
            # Composed: every marginal cell is a box, so both the values
            # and the exact stds come from one grid of per-part box
            # passes (marginal_boxes validates the names).
            kept_sizes, lows, highs = marginal_boxes(schema, names)
            values = self._release.answer_boxes(lows, highs).reshape(kept_sizes)
            variances = self._release.noise_variances_boxes(lows, highs)
            return values, np.sqrt(variances).reshape(kept_sizes)

        keep_axes = schema.axes_of(names)
        if len(set(keep_axes)) != len(keep_axes):
            raise QueryError(f"duplicate attribute names: {names}")

        values = self._release.marginal(names)
        factor = 2.0 * self._result.noise_magnitude**2
        per_axis = []
        for axis, transform in enumerate(self._transform.transforms):
            if axis in keep_axes:
                cells = np.arange(transform.input_length, dtype=np.int64)
                per_axis.append(transform.range_profiles(cells, cells + 1))
            else:
                factor *= transform.range_profile(0, transform.input_length)
        # Outer product of the kept axes' profiles, ordered as requested.
        variance = np.ones((1,) * len(names))
        ordered = [per_axis[sorted(keep_axes).index(axis)] for axis in keep_axes]
        for position, profile in enumerate(ordered):
            shape = [1] * len(names)
            shape[position] = len(profile)
            variance = variance * profile.reshape(shape)
        return values, np.sqrt(factor * variance)

    def __repr__(self) -> str:
        return (
            f"QueryEngine(epsilon={self._result.epsilon}, "
            f"shape={self._release.schema.shape}, "
            f"backend={self._release.representation})"
        )

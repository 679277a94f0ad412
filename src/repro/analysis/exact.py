"""Exact per-query noise variance under Privelet+ (beyond the paper).

The paper bounds the noise variance of a range-count answer (Lemma 3/5,
Theorem 3, Corollary 1).  Because the whole pipeline from noisy
coefficients to the answer is *linear* — the inverse transforms, the
mean-subtraction refinement, and the box sum — the variance is also
available **exactly**, in closed form, per query:

    answer = sum_j  g[j] * C*[j]          (some coefficient weighting g)
    Var    = 2 lambda^2 * sum_j g[j]^2 / W[j]^2

and for the HN transform both ``g`` and ``W`` factor across axes, so

    Var = 2 lambda^2 * prod_i ( sum_{j_i} g_i[j_i]^2 / W_i[j_i]^2 ).

``g_i`` is the adjoint of axis ``i``'s reconstruction map applied to the
query's range indicator on that axis.  The transforms expose the folded
profile per range (``OneDimensionalTransform.range_profiles``) without a
reconstruction matrix: a Haar axis in its ``O(log m)`` closed form, a
nominal axis as one read of an exact ``(m+1) x (m+1)`` table built once
per transform, an identity axis as the range width.  Each range's
profile is computed on its own, so it has the same bits whatever batch
it arrives in, and :class:`AxisProfileCache` multiplies them across
axes without storing anything.

Batch evaluation goes through :class:`CompiledWorkload`, which extracts
every query's per-axis ranges once, deduplicates them per axis, and
computes all profiles in one vectorized transform call — the same
compile-then-execute idiom conv-based FWT implementations use.  One
compiled workload can be re-evaluated under *any* SA choice over the
same schema, which is what makes :func:`optimize_sa` cheap across all
``2^d`` candidates.

This module powers two things the paper lists as future work (§IX):

* an *exact* expected-error profile for a known query distribution,
* :func:`optimize_sa`, workload-aware selection of the Privelet+ ``SA``
  set (minimizing average exact variance instead of the worst-case
  Equation-7 bound).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.data.schema import Schema
from repro.errors import QueryError
from repro.transforms.base import IdentityTransform, OneDimensionalTransform
from repro.transforms.multidim import HNTransform
from repro.utils.validation import ensure_boxes, ensure_positive

__all__ = [
    "axis_variance_profile",
    "query_noise_variance",
    "query_boxes",
    "AxisProfileCache",
    "CompiledWorkload",
    "workload_average_variance",
    "expected_relative_errors",
    "SaChoice",
    "optimize_sa",
]


def axis_variance_profile(transform: OneDimensionalTransform, lo: int, hi: int) -> float:
    """``sum_j g[j]^2 / W[j]^2`` for one axis and one half-open range.

    ``g = R^T r`` where ``R`` is the reconstruction map and ``r`` the
    indicator of ``[lo, hi)``.  This is the axis's multiplicative
    contribution to the exact query variance (times ``2 lambda^2``
    overall).  Computed matrix-free through the transform's own adjoint
    — ``O(log m)`` for a Haar axis — never via a dense identity
    reconstruction.

    Parameters
    ----------
    transform:
        The axis's one-dimensional transform.
    lo, hi:
        Half-open range bounds on that axis.

    Returns
    -------
    float
        The axis profile (dimensionless).
    """
    if not (0 <= lo <= hi <= transform.input_length):
        raise QueryError(
            f"range [{lo}, {hi}) out of bounds for axis of length "
            f"{transform.input_length}"
        )
    return float(transform.range_profile(lo, hi))


def query_noise_variance(hn: HNTransform, query, noise_magnitude: float) -> float:
    """Exact noise variance of ``query``'s answer under transform ``hn``.

    ``query`` is a :class:`repro.queries.query.RangeCountQuery` (imported
    lazily to keep this module free of the queries package — the engine
    there imports us).  ``noise_magnitude`` is the Privelet parameter
    lambda; each coefficient carries independent Laplace(lambda / W(c))
    noise.  Cost is ``O(sum_i log m_i)`` via the per-axis adjoints.

    Returns
    -------
    float
        ``2 lambda^2 * prod_i profile_i`` — exact, not a bound.
    """
    noise_magnitude = ensure_positive(noise_magnitude, "noise_magnitude")
    if query.schema.shape != hn.input_shape:
        raise QueryError("query schema does not match the transform's input shape")
    product = 1.0
    for axis, (lo, hi) in enumerate(query.box()):
        product *= axis_variance_profile(hn.transforms[axis], lo, hi)
    return 2.0 * noise_magnitude**2 * product


def query_boxes(queries, shape) -> tuple[np.ndarray, np.ndarray]:
    """Extract every query's box into ``(n, d)`` low/high arrays.

    Validates each of ``queries``' schema shape against ``shape``.  This
    is the shared first step of every batch path (compiled workloads,
    the engine's variance batches).

    Returns
    -------
    tuple[numpy.ndarray, numpy.ndarray]
        ``(lows, highs)`` int64 arrays, one row per query.
    """
    queries = list(queries)
    dimensions = len(shape)
    lows = np.empty((len(queries), dimensions), dtype=np.int64)
    highs = np.empty((len(queries), dimensions), dtype=np.int64)
    for row, query in enumerate(queries):
        if query.schema.shape != shape:
            raise QueryError("query schema does not match the expected shape")
        for axis, (lo, hi) in enumerate(query.box()):
            lows[row, axis] = lo
            highs[row, axis] = hi
    return lows, highs


class AxisProfileCache:
    """Per-query products of per-axis range profiles, stateless.

    Bound to one sequence of per-axis transforms (e.g. an engine's
    ``HNTransform.transforms``).  Every transform's ``range_profiles`` is
    elementwise per range — a table read on a nominal axis, the
    ``O(log m)`` closed form on a Haar axis, the width on an identity
    axis — so a product has the same bits whatever batch it is computed
    in, and there is nothing to memoize.

    Parameters
    ----------
    transforms:
        Per-axis :class:`~repro.transforms.base.OneDimensionalTransform`
        sequence the profiles are computed against (axis order = index).
    """

    #: Always 0: nothing is memoized.  Kept for readers of the retired
    #: memo's counters until ROADMAP item 2's benchmark change.
    hits = 0
    misses = 0

    def __init__(self, transforms):
        self._transforms = tuple(transforms)

    def box_profile_products(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Per-query products of axis profiles for ``(n, d)`` box arrays.

        Parameters
        ----------
        lows, highs:
            ``(n, d)`` half-open box bounds, one row per query.

        Returns
        -------
        numpy.ndarray
            ``(n,)`` products over axes — the exact variance of query
            ``q`` is ``2 lambda^2 * products[q]``.
        """
        products = np.ones(lows.shape[0], dtype=np.float64)
        for axis, transform in enumerate(self._transforms):
            products *= transform.range_profiles(lows[:, axis], highs[:, axis])
        return products


class CompiledWorkload:
    """A workload compiled to per-axis deduplicated ranges.

    Compilation extracts every query's box once, groups the ``(lo, hi)``
    ranges per axis, and deduplicates them; evaluation then computes each
    axis's unique profiles in **one** vectorized transform call and
    gathers them back per query.  The compiled form is independent of the
    SA choice: profiles are cached per ``(axis, wavelet-or-identity)``,
    so all ``2^d`` Privelet+ candidates over the same schema reuse the
    same compiled ranges (each axis is profiled at most twice in total).

    Parameters
    ----------
    schema:
        The schema all ``queries`` are bound to.
    queries:
        Non-empty iterable of range-count queries.
    """

    def __init__(self, schema: Schema, queries):
        self.schema = schema
        self.queries = tuple(queries)
        if not self.queries:
            raise QueryError("workload is empty")
        lows, highs = query_boxes(self.queries, schema.shape)
        self._compile(lows, highs)

    @classmethod
    def from_boxes(cls, schema: Schema, lows, highs) -> "CompiledWorkload":
        """Compile raw ``(n, d)`` box arrays, no query objects involved.

        The columnar serving path arrives with bound arrays straight off
        the wire; this constructor compiles them directly — same
        deduplicated per-axis ranges, same SA-independent profile cache
        — without materializing a Python query per row.  The resulting
        workload has no :attr:`queries` tuple (it is empty), but every
        vectorized method (:meth:`profile_products`, :meth:`variances`,
        :meth:`average_variance`, :meth:`expected_relative_errors`)
        works identically.

        Parameters
        ----------
        schema:
            The schema the boxes are bound to.
        lows, highs:
            ``(n, d)`` half-open box bounds, one row per query.

        Returns
        -------
        CompiledWorkload
            Compiled over the given boxes (``len`` = n).
        """
        lows, highs = ensure_boxes(lows, highs, schema.shape)
        if lows.shape[0] == 0:
            raise QueryError("workload is empty")
        compiled = cls.__new__(cls)
        compiled.schema = schema
        compiled.queries = ()
        compiled._compile(lows, highs)
        return compiled

    def _compile(self, lows: np.ndarray, highs: np.ndarray) -> None:
        self._count = lows.shape[0]
        # Per axis: unique (lo, hi) pairs + the gather map back to queries.
        self._axis_ranges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for axis in range(self.schema.dimensions):
            pairs = np.stack([lows[:, axis], highs[:, axis]], axis=1)
            unique, inverse = np.unique(pairs, axis=0, return_inverse=True)
            self._axis_ranges.append((unique[:, 0], unique[:, 1], inverse))
        # (axis, is_identity) -> profiles of that axis's unique ranges.
        # Sound because the wavelet transform of an axis is a pure
        # function of the schema attribute, and the only alternative an
        # SA choice introduces is the identity.
        self._profile_cache: dict[tuple[int, bool], np.ndarray] = {}

    def __len__(self) -> int:
        return self._count

    @property
    def unique_range_counts(self) -> tuple[int, ...]:
        """Deduplicated range count per axis (diagnostics/tests)."""
        return tuple(len(lows) for lows, _, _ in self._axis_ranges)

    def axis_profiles(self, axis: int, transform: OneDimensionalTransform) -> np.ndarray:
        """Per-*query* profiles of one axis under ``transform``."""
        lows, highs, inverse = self._axis_ranges[axis]
        key = (axis, isinstance(transform, IdentityTransform))
        unique_profiles = self._profile_cache.get(key)
        if unique_profiles is None:
            unique_profiles = np.asarray(
                transform.range_profiles(lows, highs), dtype=np.float64
            )
            self._profile_cache[key] = unique_profiles
        return unique_profiles[inverse]

    def profile_products(self, hn: HNTransform) -> np.ndarray:
        """Per-query products of axis profiles under the transform ``hn``.

        Returns
        -------
        numpy.ndarray
            One product per compiled query.
        """
        # Schema *equality*, not just shape: the profile cache assumes
        # each axis's wavelet transform is determined by this workload's
        # schema, so a same-shape schema with e.g. a different hierarchy
        # must be rejected rather than served stale profiles.
        if hn.schema != self.schema:
            raise QueryError(
                "transform schema does not match the compiled workload"
            )
        products = np.ones(self._count, dtype=np.float64)
        for axis, transform in enumerate(hn.transforms):
            products *= self.axis_profiles(axis, transform)
        return products

    def variances(self, hn: HNTransform, noise_magnitude: float) -> np.ndarray:
        """Exact per-query noise variances under ``hn``, vectorized.

        Parameters
        ----------
        hn:
            The HN transform (an SA choice over the compiled schema).
        noise_magnitude:
            The Privelet lambda the mechanism uses.

        Returns
        -------
        numpy.ndarray
            One exact variance per compiled query.
        """
        noise_magnitude = ensure_positive(noise_magnitude, "noise_magnitude")
        return 2.0 * noise_magnitude**2 * self.profile_products(hn)

    def average_variance(self, hn: HNTransform, noise_magnitude: float) -> float:
        """Mean of :meth:`variances` under ``hn`` and ``noise_magnitude``."""
        return float(self.variances(hn, noise_magnitude).mean())

    def expected_relative_errors(
        self,
        hn: HNTransform,
        noise_magnitude: float,
        exact_answers,
        sanity: float,
    ) -> np.ndarray:
        """Gaussian-approximation ``E[relerr]`` per query (§IX analysis).

        ``E|noise| = sigma * sqrt(2/pi)`` under the CLT, divided by the
        §VII-A ``sanity``-bounded exact answer.

        Parameters
        ----------
        hn:
            The HN transform (an SA choice over the compiled schema).
        noise_magnitude:
            The Privelet lambda the mechanism uses.
        exact_answers:
            True answers aligned with the compiled queries.
        sanity:
            The §VII-A sanity bound ``s`` (denominator floor).

        Returns
        -------
        numpy.ndarray
            Predicted expected relative error per query.
        """
        sanity = ensure_positive(sanity, "sanity")
        stds = np.sqrt(self.variances(hn, noise_magnitude))
        exact_answers = np.asarray(exact_answers, dtype=np.float64)
        if exact_answers.shape != (self._count,):
            raise QueryError(
                f"expected {self._count} exact answers, got shape "
                f"{exact_answers.shape}"
            )
        denominators = np.maximum(exact_answers, sanity)
        return stds * math.sqrt(2.0 / math.pi) / denominators


def workload_average_variance(
    schema: Schema, sa_names, queries, epsilon: float, *, compiled: CompiledWorkload | None = None
) -> float:
    """Average *exact* noise variance over a workload for one SA choice.

    Pass ``compiled`` to reuse a :class:`CompiledWorkload` across SA
    choices (as :func:`optimize_sa` does); it must have been built from
    the same queries over the same schema.

    Parameters
    ----------
    schema:
        The released schema.
    sa_names:
        The Privelet+ SA candidate to evaluate.
    queries:
        The workload sample (ignored when ``compiled`` is given).
    epsilon:
        Privacy budget the lambda is derived from.
    compiled:
        Optional pre-compiled workload to reuse.

    Returns
    -------
    float
        Mean exact variance over the workload.
    """
    epsilon = ensure_positive(epsilon, "epsilon")
    hn = HNTransform(schema, sa_names)
    magnitude = 2.0 * hn.generalized_sensitivity() / epsilon
    if compiled is None:
        compiled = CompiledWorkload(schema, queries)
    return compiled.average_variance(hn, magnitude)


def expected_relative_errors(
    schema: Schema, sa_names, workload, epsilon: float, sanity: float
) -> np.ndarray:
    """Predicted expected relative error per query (§IX future work).

    The paper's second future-work item asks what Privelet guarantees for
    *expected relative error*.  Given a bound workload (with exact
    answers), each query's answer carries zero-mean noise of known exact
    variance ``sigma_q^2``; under the Gaussian approximation to the noise
    sum, ``E|noise| = sigma_q * sqrt(2/pi)``, so::

        E[relerr(q)] ~= sigma_q * sqrt(2/pi) / max(act_q, s)

    with the §VII-A sanity bound ``s``.  This is a *prediction* from the
    mechanism configuration plus the exact answers (a designer-side
    analysis tool, not a private release — it consumes the true answers).

    Parameters
    ----------
    schema:
        The released schema.
    sa_names:
        The Privelet+ SA set the mechanism would use.
    workload:
        A :class:`repro.queries.workload.Workload` (bound queries with
        exact answers).
    epsilon:
        Privacy budget the lambda is derived from.
    sanity:
        The §VII-A sanity bound (denominator floor).

    Returns
    -------
    numpy.ndarray
        Predicted expected relative error per query.
    """
    epsilon = ensure_positive(epsilon, "epsilon")
    sanity = ensure_positive(sanity, "sanity")
    hn = HNTransform(schema, sa_names)
    magnitude = 2.0 * hn.generalized_sensitivity() / epsilon
    compiled = CompiledWorkload(schema, workload.queries)
    return compiled.expected_relative_errors(
        hn, magnitude, workload.exact_answers, sanity
    )


@dataclass(frozen=True)
class SaChoice:
    """Result of workload-aware SA optimization."""

    sa: tuple[str, ...]
    average_variance: float
    #: All evaluated candidates, sorted best-first: (sa, avg variance).
    ranking: tuple[tuple[tuple[str, ...], float], ...]


def optimize_sa(schema: Schema, queries, epsilon: float = 1.0) -> SaChoice:
    """Choose the Privelet+ ``SA`` minimizing average exact variance.

    Exhausts all ``2^d`` subsets (d is small for relational schemas; the
    paper's is 4).  This implements the §IX future-work direction
    "extend Privelet for the case where the distribution of range-count
    queries is known in advance": with a workload sample in hand, pick
    the hybrid split that is optimal *for that workload* rather than for
    the worst case.  The workload is compiled once; every candidate
    reuses the same deduplicated per-axis profiles, so the sweep costs
    two profile passes per axis instead of ``2^d`` rebuilds.

    Parameters
    ----------
    schema:
        The schema to publish under.
    queries:
        A workload sample representative of expected traffic.
    epsilon:
        Privacy budget the per-candidate lambdas are derived from.

    Returns
    -------
    SaChoice
        Best SA set, its average variance, and the full ranking.
    """
    compiled = CompiledWorkload(schema, list(queries))
    candidates = []
    for r in range(len(schema.names) + 1):
        for sa in itertools.combinations(schema.names, r):
            average = workload_average_variance(
                schema, sa, compiled.queries, epsilon, compiled=compiled
            )
            candidates.append((sa, average))
    candidates.sort(key=lambda item: item[1])
    best_sa, best_average = candidates[0]
    return SaChoice(sa=best_sa, average_variance=best_average, ranking=tuple(candidates))

"""Release representations: how a published result stores and serves data.

The paper's mechanisms add Laplace noise *in coefficient space*, and
Equation 3 shows any range-count answer needs only ``O(log m)``
coefficients per axis — yet the original pipeline always inverted the
transform into a dense ``M*`` and served queries from an ``O(m)``
prefix-sum oracle.  This module makes the representation pluggable:

* :class:`DenseRelease` — the materialized ``M*`` plus a lazily built
  prefix-sum oracle; today's semantics, best when the domain is small or
  the query volume is huge.
* :class:`CoefficientRelease` — the noisy HN coefficients plus the SA
  configuration, answering any box query by per-axis *sparse adjoint*
  gathers in ``O(prod_i log m_i)`` with no dense reconstruction ever.
  Publishing becomes O(coefficient count) with no inverse transform, and
  serving needs no ``O(m)`` oracle build — which is what makes 1-D
  domains of ``m = 2**24`` (or multi-dimensional domains whose volume
  makes a prefix array infeasible) practical.

Both implement the **answer-backend protocol** the query engine serves
through: ``schema``, :meth:`Release.answer_boxes`,
:meth:`Release.marginal`, and :meth:`Release.to_matrix`.  A third
family, the composition algebra of :mod:`repro.core.compose`, lives in
its own module: partitions and time trees of independently published
releases, composed behind the same protocol.

How a coefficient release answers (Equation 3, batched)
-------------------------------------------------------
A range answer is ``r . R c`` with ``R`` the reconstruction map, so it
equals ``g . c`` for the range adjoint ``g = R^T r`` — and under the HN
transform ``g`` is an outer product of per-axis adjoints.  Each axis
exposes its adjoint *sparsely* (:meth:`~repro.transforms.base.
OneDimensionalTransform.sparse_adjoint_ranges`): ``O(log m)`` boundary
nodes for Haar, one tree pass for nominal.  Identity (``SA``) axes get a
better trick: the serving tensor is prefix-summed along them once, which
collapses an identity range's support from its width to the two entries
``P[hi] - P[lo]``.  A query then gathers the coefficient tensor at the
cross product of its per-axis supports and contracts with the outer
product of support values — ``prod_i k_i`` multiply-adds per query.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.frequency import FrequencyMatrix
from repro.data.schema import Schema
from repro.errors import QueryError, TransformError
from repro.transforms.base import IdentityTransform
from repro.transforms.multidim import HNTransform
from repro.utils.validation import ensure_boxes

__all__ = [
    "Release",
    "DenseRelease",
    "CoefficientRelease",
    "REPRESENTATIONS",
    "marginal_boxes",
    "infer_sa_names",
    "convert_result",
]

#: The representations mechanisms, archives, and CLIs can name.
REPRESENTATIONS = ("dense", "coefficients")

#: Cap on (queries per chunk) x (gathered entries per query) so batch
#: answering never allocates more than a few MB of scratch indices.
_CHUNK_BUDGET = 1 << 21


def marginal_boxes(schema, attribute_names):
    """The box batch whose answers form a marginal table.

    Each marginal cell is a box query — a point on the kept axes, the
    full range elsewhere — so any backend with a batch box path can
    serve marginals from one :meth:`Release.answer_boxes` call.  Shared
    by the coefficient and sharded backends and by the engine's
    marginal-std path.

    Parameters
    ----------
    schema:
        The released schema.
    attribute_names:
        Attributes to keep, in the desired output-axis order.

    Returns
    -------
    tuple[list[int], numpy.ndarray, numpy.ndarray]
        ``(kept_sizes, lows, highs)`` — reshape the box answers to
        ``kept_sizes`` to obtain the marginal table.
    """
    names = list(attribute_names)
    axes = schema.axes_of(names)
    if len(set(axes)) != len(axes):
        raise QueryError(f"duplicate attribute names: {names}")
    kept_sizes = [schema.shape[axis] for axis in axes]
    cells = int(np.prod(kept_sizes)) if kept_sizes else 1
    grid = np.indices(kept_sizes, dtype=np.int64).reshape(len(axes), cells)
    lows = np.zeros((cells, schema.dimensions), dtype=np.int64)
    highs = np.broadcast_to(
        np.asarray(schema.shape, dtype=np.int64), (cells, schema.dimensions)
    ).copy()
    for position, axis in enumerate(axes):
        lows[:, axis] = grid[position]
        highs[:, axis] = grid[position] + 1
    return kept_sizes, lows, highs


class Release:
    """Answer-backend protocol shared by every release representation."""

    #: Which representation this is (one of :data:`REPRESENTATIONS`).
    representation: str = "abstract"

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    def answer_boxes(self, lows, highs) -> np.ndarray:
        """Batch box answers.

        Parameters
        ----------
        lows, highs:
            ``(n, d)`` arrays of half-open box bounds, one row per query.

        Returns
        -------
        numpy.ndarray
            ``(n,)`` private counts aligned with the rows.
        """
        raise NotImplementedError

    def answer_box(self, box) -> float:
        """Answer one ``box`` given as ``((lo, hi), ...)`` per dimension.

        Returns
        -------
        float
            The private count (a batch of one through
            :meth:`answer_boxes`).
        """
        box = tuple(box)
        lows = np.asarray([[lo for lo, _ in box]], dtype=np.int64)
        highs = np.asarray([[hi for _, hi in box]], dtype=np.int64)
        return float(self.answer_boxes(lows, highs)[0])

    def marginal(self, attribute_names) -> np.ndarray:
        """Marginal table over the attributes in ``attribute_names``.

        The default implementation answers the marginal as one
        :meth:`answer_boxes` batch (see :func:`marginal_boxes`), so any
        backend with a batch box path serves marginals for free;
        backends holding a dense matrix override with a direct sum.

        Parameters
        ----------
        attribute_names:
            Attributes to keep, in the desired output-axis order.

        Returns
        -------
        numpy.ndarray
            One axis per requested attribute (order of the request).
        """
        kept_sizes, lows, highs = marginal_boxes(self.schema, attribute_names)
        return self.answer_boxes(lows, highs).reshape(kept_sizes)

    def to_matrix(self) -> FrequencyMatrix:
        """The dense ``M*`` this release represents (may materialize)."""
        raise NotImplementedError

    def nbytes(self) -> int:
        """Bytes currently held by this release's serving state."""
        raise NotImplementedError

    def _check_boxes(self, lows, highs) -> tuple[np.ndarray, np.ndarray]:
        return ensure_boxes(lows, highs, self.schema.shape)


class DenseRelease(Release):
    """Today's representation: ``M*`` plus a lazily built prefix oracle.

    Parameters
    ----------
    matrix:
        The materialized noisy frequency matrix to serve from.
    """

    representation = "dense"

    def __init__(self, matrix: FrequencyMatrix):
        if not isinstance(matrix, FrequencyMatrix):
            raise QueryError("DenseRelease requires a FrequencyMatrix")
        self._matrix = matrix
        self._oracle = None

    @property
    def schema(self) -> Schema:
        return self._matrix.schema

    def oracle(self):
        """The prefix-sum oracle, built on first use (an ``O(m)`` step)."""
        if self._oracle is None:
            # Imported here: repro.queries imports repro.core at package
            # import time, so the reverse import must happen at call time.
            from repro.queries.oracle import RangeSumOracle

            self._oracle = RangeSumOracle(self._matrix)
        return self._oracle

    def answer_boxes(self, lows, highs) -> np.ndarray:
        # The oracle performs the same shape/bounds validation as
        # _check_boxes, so the batch is checked exactly once.
        answers = self.oracle().answer_boxes(lows, highs)
        # An empty box has exactly zero cells; force the float-exact 0.0
        # the inclusion-exclusion sum is not guaranteed to produce.
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        empty = np.any(lows == highs, axis=1)
        if empty.any():
            answers[empty] = 0.0
        return answers

    def marginal(self, attribute_names) -> np.ndarray:
        return self._matrix.marginal(attribute_names)

    def to_matrix(self) -> FrequencyMatrix:
        return self._matrix

    def nbytes(self) -> int:
        total = self._matrix.values.nbytes
        if self._oracle is not None:
            total += self._oracle.nbytes
        return total

    def __repr__(self) -> str:
        return f"DenseRelease(shape={self._matrix.shape})"


class CoefficientRelease(Release):
    """Noisy HN coefficients + SA configuration; never builds ``M*``.

    Parameters
    ----------
    schema:
        The released frequency matrix's schema.
    sa_names:
        The Privelet+ ``SA`` set the coefficients were produced under
        (``()`` for Privelet, all attribute names for Basic).
    coefficients:
        The *raw* noisy coefficient tensor, shaped like the HN
        transform's output.  Refinement (nominal mean subtraction) is
        applied implicitly through the adjoints at answer time, so the
        stored tensor is exactly what the mechanism drew noise onto.
    """

    representation = "coefficients"

    def __init__(self, schema: Schema, sa_names, coefficients):
        self._transform = HNTransform(schema, tuple(sa_names))
        # Ordered (schema-order) form of the SA set, for archives/repr.
        self._sa_names = tuple(
            name for name in schema.names if name in self._transform.sa_names
        )
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.shape != self._transform.output_shape:
            raise TransformError(
                f"expected coefficient shape {self._transform.output_shape}, "
                f"got {coefficients.shape}"
            )
        self._coefficients = coefficients
        self._served = None  # prefix-summed along identity axes, lazily

    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(cls, matrix: FrequencyMatrix, sa_names) -> "CoefficientRelease":
        """Forward-transform a dense ``M*`` into coefficient form.

        Sound because ``inverse(forward(x)) = x`` and the refinement is a
        no-op on exact forward coefficients (sibling groups of true
        nominal coefficients sum to zero), so the converted release
        answers every query identically to the dense one.
        """
        transform = HNTransform(matrix.schema, tuple(sa_names))
        return cls(matrix.schema, sa_names, transform.forward(matrix.values))

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._transform.schema

    @property
    def sa_names(self) -> tuple[str, ...]:
        """The SA set, in schema order."""
        return self._sa_names

    @property
    def transform(self) -> HNTransform:
        """The HN transform the coefficients live in."""
        return self._transform

    @property
    def coefficients(self) -> np.ndarray:
        """The raw noisy coefficient tensor (archive payload)."""
        return self._coefficients

    # ------------------------------------------------------------------
    def _serving_tensor(self) -> np.ndarray:
        """Coefficients prefix-summed along identity (SA) axes.

        The prefix pass turns an identity-axis range's adjoint support
        from its width into two entries, keeping the per-query gather at
        ``prod_i k_i`` with every ``k_i`` logarithmic or hierarchy-sized.
        When there are no SA axes this is the coefficient tensor itself
        (no copy).
        """
        if self._served is None:
            served = self._coefficients
            for axis, transform in enumerate(self._transform.transforms):
                if isinstance(transform, IdentityTransform):
                    served = np.cumsum(served, axis=axis)
                    pad = [(0, 0)] * served.ndim
                    pad[axis] = (1, 0)
                    served = np.pad(served, pad)
            self._served = served
        return self._served

    def _axis_supports(self, axis: int, lows, highs):
        """Sparse adjoint ``(indices, values)`` of one axis's ranges.

        Identity axes index the prefix-summed serving tensor, so their
        support is ``P[hi] - P[lo]``; wavelet axes use their transform's
        own sparse adjoint.
        """
        transform = self._transform.transforms[axis]
        if isinstance(transform, IdentityTransform):
            indices = np.stack([highs, lows], axis=1)
            values = np.broadcast_to(
                np.asarray([1.0, -1.0]), indices.shape
            )
            return indices, values
        return transform.sparse_adjoint_ranges(lows, highs)

    def answer_boxes(self, lows, highs) -> np.ndarray:
        """Batch box answers by cross-product coefficient gathers.

        Per query the work is ``prod_i k_i`` gathered entries (``k_i``
        the axis-``i`` support width, ``O(log m_i)`` for Haar axes);
        the batch is chunked so scratch index arrays stay a few MB
        regardless of batch size.

        Parameters
        ----------
        lows, highs:
            ``(n, d)`` arrays of half-open box bounds, one row per query.

        Returns
        -------
        numpy.ndarray
            ``(n,)`` private counts aligned with the rows.
        """
        lows, highs = self._check_boxes(lows, highs)
        count = lows.shape[0]
        answers = np.empty(count, dtype=np.float64)
        if count == 0:
            return answers
        # An empty box's adjoint is the zero vector, but the gather can
        # leave ~1e-16 residue; pin it to the exact 0.0 the dense
        # backend returns so the representations agree bit-for-bit.
        empty = np.any(lows == highs, axis=1)
        served = self._serving_tensor()
        flat = served.reshape(-1)
        strides = np.asarray(
            [int(np.prod(served.shape[axis + 1 :])) for axis in range(served.ndim)],
            dtype=np.int64,
        )
        # Support widths are data-independent, so chunk size can be set
        # from one probe row.
        probe = [
            self._axis_supports(axis, lows[:1, axis], highs[:1, axis])[0].shape[1]
            for axis in range(served.ndim)
        ]
        per_query = int(np.prod(probe))
        chunk = max(1, _CHUNK_BUDGET // max(1, per_query))
        for start in range(0, count, chunk):
            stop = min(count, start + chunk)
            combined_idx = None
            combined_val = None
            for axis in range(served.ndim):
                indices, values = self._axis_supports(
                    axis, lows[start:stop, axis], highs[start:stop, axis]
                )
                scaled = indices * strides[axis]
                if combined_idx is None:
                    combined_idx, combined_val = scaled, values
                else:
                    rows = stop - start
                    combined_idx = (
                        combined_idx[:, :, None] + scaled[:, None, :]
                    ).reshape(rows, -1)
                    combined_val = (
                        combined_val[:, :, None] * values[:, None, :]
                    ).reshape(rows, -1)
            answers[start:stop] = np.einsum(
                "ij,ij->i", flat[combined_idx], combined_val
            )
        if empty.any():
            answers[empty] = 0.0
        return answers

    def to_matrix(self) -> FrequencyMatrix:
        """Materialize ``M*`` by inverting the transform (with refinement).

        This allocates the full dense matrix — the thing this
        representation exists to avoid — so the result is *not* cached;
        wrap it in a :class:`DenseRelease` if you intend to serve from it.
        """
        return FrequencyMatrix(
            self.schema, self._transform.inverse(self._coefficients, refine=True)
        )

    def nbytes(self) -> int:
        total = self._coefficients.nbytes
        if self._served is not None and self._served is not self._coefficients:
            total += self._served.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"CoefficientRelease(shape={self._transform.output_shape}, "
            f"SA={list(self._sa_names)})"
        )


def infer_sa_names(result) -> tuple[str, ...]:
    """The SA set a result was published under, from its metadata.

    Coefficient releases carry the set themselves; dense releases record
    it in ``details`` (Basic means every attribute is released direct).
    """
    release = result.release
    if isinstance(release, CoefficientRelease):
        return release.sa_names
    details = result.details
    if details.get("mechanism") == "Basic":
        return tuple(release.schema.names)
    if "sa" in details:
        return tuple(details["sa"])
    raise QueryError(
        "cannot infer the mechanism configuration from the result; "
        "pass sa_names explicitly"
    )


def convert_result(result, representation: str, *, sa_names=None):
    """Re-represent a :class:`~repro.core.framework.PublishResult`.

    ``dense -> coefficients`` forward-transforms ``M*`` (exact: the
    refinement is a no-op on true coefficients); ``coefficients ->
    dense`` materializes via the inverse transform.  Either direction
    preserves every answer, and the accounting fields are untouched.
    Returns ``result`` itself when it already has the requested
    representation.  ``sa_names`` overrides the inferred SA set for
    results whose metadata does not record one (mirroring
    :class:`~repro.queries.engine.QueryEngine`'s escape hatch).  A
    composed release (sharded or stream) converts part by part through
    its own ``convert`` hook (each part carries its own SA set, so
    ``sa_names`` is ignored) and keeps its routing structure.
    """
    if representation not in REPRESENTATIONS:
        raise QueryError(
            f"unknown representation {representation!r}; "
            f"expected one of {REPRESENTATIONS}"
        )
    release = result.release
    if release.representation == representation:
        return result
    converter = getattr(release, "convert", None)
    if converter is not None:
        converted = converter(representation)
        if converted is release:
            return result
        return dataclasses.replace(result, release=converted)
    if representation == "dense":
        converted = DenseRelease(release.to_matrix())
    else:
        if sa_names is None:
            sa_names = infer_sa_names(result)
        converted = CoefficientRelease.from_matrix(release.to_matrix(), sa_names)
    return dataclasses.replace(result, release=converted)

"""Release representations: how a published result stores and serves data.

Every release serves from one layout: the zero-bordered prefix-sum
tensor of its data-space matrix, ``prod_i (n_i + 1)`` floats built on
the first answer (:func:`prefix_tensor`) with its serving kernel
(``_CornerKernel``), after which a batch of boxes is one gather of every
box's ``2^d`` corners.  Bounds are validated once, at the edge; the
kernel checks nothing.  The two leaf representations differ only in
what they store:

* :class:`DenseRelease` — the materialized ``M*``; its serving tensor is
  that matrix prefix-summed.
* :class:`CoefficientRelease` — the noisy HN coefficients plus the SA
  configuration, exactly what the mechanism drew noise onto.  Publishing
  is ``O(coefficient count)`` with no inverse transform, and archives and
  shared memory carry the coefficients; each process builds its own
  serving tensor from them.

The representation is chosen at publish time and a release serves in it
everywhere: a dense and a coefficient publish of one seed answer bit for
bit alike, so nothing re-represents a release to serve it.
:func:`convert_result` re-represents a leaf only to build a reference.

Both implement the **answer-backend protocol** the query engine serves
through: ``schema``, :meth:`Release.answer_boxes`,
:meth:`Release.marginal`, and :meth:`Release.to_matrix`.  A third
family, the composition algebra of :mod:`repro.core.compose`, lives in
its own module: partitions and time trees of independently published
releases, composed behind the same protocol.  A partition's parts serve
through their own leaves' tensors; a time tree folds its leaves'
tensors into running-prefix slices and serves through their kernels.

How a coefficient release builds its serving tensor
---------------------------------------------------
The refined reconstruction ``R c`` (nominal axes with mean subtraction)
is written into the interior of the preallocated tensor by
:meth:`~repro.transforms.multidim.HNTransform.inverse_into`: identity
(``SA``) axes are copies, and the last wavelet axis inverts straight
into the tensor, so a release with one wavelet axis (census under
Privelet+, or any 1-D domain) allocates nothing else the size of the
output.  The interior is then prefix-summed in place along every axis.
Serving memory is the coefficients plus the tensor.  The build uses
elementwise numpy only (no BLAS contraction, no reduction whose order
could follow memory layout), so a fleet worker building from
shared-memory coefficients gets the in-process bits, and
:meth:`CoefficientRelease.to_matrix` reconstructs with the same code, so
a :class:`DenseRelease` over it answers identically.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading

import numpy as np

from repro.data.frequency import FrequencyMatrix
from repro.data.schema import Schema
from repro.errors import QueryError, TransformError
from repro.transforms.multidim import HNTransform
from repro.utils.validation import ensure_boxes

__all__ = [
    "Release",
    "DenseRelease",
    "CoefficientRelease",
    "REPRESENTATIONS",
    "marginal_boxes",
    "prefix_tensor",
    "infer_sa_names",
    "convert_result",
]

#: The representations mechanisms, archives, and CLIs can name.
REPRESENTATIONS = ("dense", "coefficients")


def prefix_tensor(shape, fill) -> np.ndarray:
    """The zero-bordered prefix-sum tensor of the values ``fill`` writes.

    Allocates the ``prod_i (shape[i] + 1)`` output once and calls
    ``fill(interior)`` to write the values into its interior (a strided
    view), then prefix-sums the interior in place along every axis, so
    ``P[i_1, ..., i_d]`` is the sum of ``values[:i_1, ..., :i_d]``.  The
    in-place ``cumsum`` chain allocates nothing and equals
    cumsum-then-pad bit for bit.
    """
    prefix = np.zeros(tuple(size + 1 for size in shape), dtype=np.float64)
    interior = prefix[(slice(1, None),) * len(shape)]
    fill(interior)
    for axis in range(len(shape)):
        np.cumsum(interior, axis=axis, out=interior)
    return prefix


def _corner_matrix(strides) -> np.ndarray:
    """The ``(2d, 2^d)`` float64 map from ``[lows | widths]`` to corner indices.

    Column ``c`` is corner ``c`` of ``itertools.product((0, 1),
    repeat=d)``: its first ``d`` entries are the element strides (every
    corner starts at the low corner) and its last ``d`` are the strides
    times the corner's bits (a set bit moves that axis to the high end).
    """
    strides = np.asarray(strides, dtype=np.int64)
    bits = np.asarray(
        list(itertools.product((0, 1), repeat=strides.shape[0])), dtype=np.int64
    ).T
    lows_part = np.broadcast_to(strides[:, None], bits.shape)
    return np.concatenate((lows_part, strides[:, None] * bits)).astype(np.float64)


def _corner_index(matrix: np.ndarray, lows, highs) -> tuple[np.ndarray, np.ndarray]:
    """Every row's ``2^d`` flat corner indices, and its float64 widths.

    One float64 matmul of ``[lows | highs - lows]`` by
    :func:`_corner_matrix`'s map, cast to int64.  numpy has no BLAS path
    for integers, and the float product is exact: every operand, product
    and partial sum is a non-negative integer no larger than the largest
    flat index, which is below the tensor's element count and so far
    below 2^53, whatever order the BLAS sums in.
    """
    dimensions = lows.shape[1]
    operands = np.concatenate((lows, highs - lows), axis=1, dtype=np.float64)
    return (operands @ matrix).astype(np.int64), operands[:, dimensions:]


class _CornerKernel:
    """Box sums over one zero-bordered prefix tensor, by inclusion-exclusion.

    Holds a flat view of the tensor (never a copy), the ``(2d, 2^d)``
    corner map of its element strides (:func:`_corner_matrix`) and the
    corner signs, both in ``itertools.product`` order.  A call takes
    validated ``(n, d)`` int64 bounds and checks nothing: one exact
    float64 matmul gives every corner's flat index
    (:func:`_corner_index`), one gather reads them, and
    ``add.accumulate`` (never a reordering reduction) adds the signed
    corners one after another in ``product`` order, so a row has the
    same bits in any batch.  A row with an empty range answers an exact
    ``0.0``, which the sum is not guaranteed to give.  Kernels over
    tensors of one shape share their indices: :meth:`corners` computes
    them once and :meth:`sums` gathers from any such kernel.
    """

    def __init__(self, prefix: np.ndarray):
        corners = np.asarray(
            list(itertools.product((0, 1), repeat=prefix.ndim)), dtype=np.int64
        )
        self._flat = prefix.reshape(-1)
        self._matrix = _corner_matrix(np.asarray(prefix.strides) // prefix.itemsize)
        self._signs = np.where((prefix.ndim - corners.sum(axis=1)) % 2, -1.0, 1.0)

    @property
    def nbytes(self) -> int:
        """Bytes of the prefix tensor this kernel reads."""
        return int(self._flat.nbytes)

    @property
    def flat(self) -> np.ndarray:
        """The prefix tensor this kernel reads, as a flat view."""
        return self._flat

    def corners(self, lows: np.ndarray, highs: np.ndarray) -> tuple:
        """``(index, empty)``: the rows' corner indices, and a mask of
        the rows with an empty range (``None`` when there is none)."""
        index, widths = _corner_index(self._matrix, lows, highs)
        empty = None if widths.all() else (widths == 0).any(axis=1)
        return index, empty

    def sums(self, index: np.ndarray, empty) -> np.ndarray:
        """The box sums of :meth:`corners`' output over this tensor."""
        values = self._flat[index]
        values *= self._signs
        np.add.accumulate(values, axis=1, out=values)
        # A copy, so the answers do not keep the (n, 2^d) corners alive.
        answers = values[:, -1].copy()
        if empty is not None:
            answers[empty] = 0.0
        return answers

    def __call__(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return self.sums(*self.corners(lows, highs))


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
        lows = np.asarray([[lo for lo, _ in box]])
        highs = np.asarray([[hi for _, hi in box]])
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

    #: The leaf's serving kernel over its prefix tensor, built on first answer.
    _kernel = None

    def _fill_prefix(self, interior: np.ndarray) -> None:
        """Write the data-space matrix into the serving tensor's interior."""
        raise NotImplementedError

    def _prefix_nbytes(self) -> int:
        return 0 if self._kernel is None else self._kernel.nbytes

    def _serving_kernel(self) -> _CornerKernel:
        """The kernel, built once with its prefix tensor and published only
        complete; callers pass it bounds they have already validated."""
        if self._kernel is None:
            with self._prefix_lock:
                if self._kernel is None:
                    self._kernel = _CornerKernel(
                        prefix_tensor(self.schema.shape, self._fill_prefix)
                    )
        return self._kernel


class DenseRelease(Release):
    """The materialized ``M*``, served from its prefix-sum tensor.

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
        self._prefix_lock = threading.Lock()

    @property
    def schema(self) -> Schema:
        return self._matrix.schema

    def answer_boxes(self, lows, highs) -> np.ndarray:
        # Documented on Release: validate, then 2^d corner reads.
        lows, highs = self._check_boxes(lows, highs)
        return self._serving_kernel()(lows, highs)

    def _fill_prefix(self, interior: np.ndarray) -> None:
        np.copyto(interior, self._matrix.values)

    def marginal(self, attribute_names) -> np.ndarray:
        return self._matrix.marginal(attribute_names)

    def to_matrix(self) -> FrequencyMatrix:
        return self._matrix

    def nbytes(self) -> int:
        return self._matrix.values.nbytes + self._prefix_nbytes()

    def __repr__(self) -> str:
        return f"DenseRelease(shape={self._matrix.shape})"


class CoefficientRelease(Release):
    """Noisy HN coefficients + SA configuration, served from a prefix tensor.

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
        applied when the serving tensor is built, so the stored tensor is
        exactly what the mechanism drew noise onto.
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
        self._prefix_lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(cls, matrix: FrequencyMatrix, sa_names) -> "CoefficientRelease":
        """Forward-transform a dense ``M*`` into coefficient form.

        Sound because ``inverse(forward(x)) = x`` and the refinement is a
        no-op on exact forward coefficients (sibling groups of true
        nominal coefficients sum to zero), so the converted release
        answers every query like the dense one, up to float rounding.
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
    def answer_boxes(self, lows, highs) -> np.ndarray:
        """Batch box answers: ``2^d`` corner reads per row.

        The first call builds the serving tensor from the coefficients
        (see the module docstring); every call after that reads it.

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
        return self._serving_kernel()(lows, highs)

    def _fill_prefix(self, interior: np.ndarray) -> None:
        self._transform.inverse_into(self._coefficients, interior, refine=True)

    def to_matrix(self) -> FrequencyMatrix:
        """Materialize ``M*`` by inverting the transform (with refinement).

        Allocates a full dense matrix and is not cached.  Serving never
        needs it: the serving tensor is reconstructed by the same code,
        so a :class:`DenseRelease` over this matrix answers bit for bit
        like this release.
        """
        return FrequencyMatrix(
            self.schema, self._transform.inverse(self._coefficients, refine=True)
        )

    def nbytes(self) -> int:
        return self._coefficients.nbytes + self._prefix_nbytes()

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
        "cannot infer the mechanism configuration from the result: its "
        "release records no SA set and its details name neither the "
        "Basic mechanism nor an 'sa' entry"
    )


def convert_result(result, representation: str):
    """Re-represent a leaf :class:`~repro.core.framework.PublishResult`.

    ``dense -> coefficients`` forward-transforms ``M*`` (exact: the
    refinement is a no-op on true coefficients); ``coefficients ->
    dense`` materializes via the inverse transform.  Either direction
    preserves every answer, and the accounting fields are untouched.
    Returns ``result`` itself when it already has the requested
    representation.  Serving never converts (a release serves as it was
    published); this exists for building references, such as a dense
    copy to compare a coefficient release against.  A composed release
    (sharded or stream) is rejected with a :class:`QueryError`.
    """
    if representation not in REPRESENTATIONS:
        raise QueryError(
            f"unknown representation {representation!r}; "
            f"expected one of {REPRESENTATIONS}"
        )
    release = result.release
    if not isinstance(release, (DenseRelease, CoefficientRelease)):
        raise QueryError(
            f"only leaf releases convert; got a {release.representation!r} "
            "release"
        )
    if release.representation == representation:
        return result
    if representation == "dense":
        converted = DenseRelease(release.to_matrix())
    else:
        converted = CoefficientRelease.from_matrix(
            release.to_matrix(), infer_sa_names(result)
        )
    return dataclasses.replace(result, release=converted)

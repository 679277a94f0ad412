"""The multi-dimensional Haar-Nominal (HN) wavelet transform (paper §VI).

Standard decomposition: apply a one-dimensional transform along each axis
of the frequency matrix in turn — Haar for ordinal dimensions, nominal
for nominal dimensions, and (for Privelet+, §VI-D) the identity for the
``SA`` dimensions that are released untransformed.  The step-``i`` matrix
of the paper is the array after the first ``i`` axes are transformed.

Identity axes are skipped in both directions: copying an axis changes no
bits, so the forward transform writes only its wavelet axes, the last of
them straight into one C-ordered coefficient tensor.

Weights: because every 1-D transform stores its coefficients in level
order, a coefficient's per-step weight depends only on its *index along
that axis*.  ``W_HN`` is therefore the outer (tensor) product of the
per-axis weight vectors (Example 5 of the paper works through exactly
this product).  The publish path builds it along the wavelet axes only:
:meth:`HNTransform.broadcast_weights` keeps every identity axis at length
1, and the noise draw broadcasts over it.

Privacy/utility factors (Theorem 2, Theorem 3, Corollary 1) are products
of the per-axis factors exposed by each 1-D transform.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.data.attributes import Attribute, NominalAttribute, OrdinalAttribute
from repro.data.schema import Schema
from repro.errors import TransformError
from repro.transforms.base import IdentityTransform, OneDimensionalTransform
from repro.transforms.haar import HaarTransform
from repro.transforms.nominal import NominalTransform

__all__ = ["HNTransform", "transform_for_attribute", "apply_along_axis", "weight_tensor"]


def transform_for_attribute(attribute: Attribute) -> OneDimensionalTransform:
    """The 1-D transform Privelet uses for one attribute."""
    if isinstance(attribute, OrdinalAttribute):
        return HaarTransform(attribute.size)
    if isinstance(attribute, NominalAttribute):
        return NominalTransform(attribute.hierarchy)
    raise TransformError(f"unsupported attribute type: {type(attribute).__name__}")


def apply_along_axis(
    transform: OneDimensionalTransform,
    values: np.ndarray,
    axis: int,
    *,
    inverse: bool = False,
    refine: bool = False,
) -> np.ndarray:
    """Apply a 1-D transform along ``axis`` of an ndarray.

    The transform operates on axis 0 and vectorizes over the rest, so a
    single call processes every fiber of the matrix at once.
    """
    moved = np.moveaxis(values, axis, 0)
    if inverse:
        result = transform.inverse(moved, refine=refine)
    else:
        result = transform.forward(moved)
    return np.moveaxis(result, 0, axis)


def weight_tensor(weight_vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Materialize the outer product of per-axis weight vectors.

    Shape is ``(len(w_0), ..., len(w_{d-1}))``; a length-1 vector keeps
    its axis at length 1, so the product broadcasts along it.
    """
    tensor = np.ones((1,) * len(weight_vectors), dtype=np.float64)
    for axis, vector in enumerate(weight_vectors):
        shape = [1] * len(weight_vectors)
        shape[axis] = len(vector)
        tensor = tensor * np.asarray(vector, dtype=np.float64).reshape(shape)
    return tensor


class HNTransform:
    """Haar-Nominal transform over a schema, with optional ``SA`` axes.

    Parameters
    ----------
    schema:
        The frequency matrix's schema.
    sa_names:
        Attribute names to *exclude* from the wavelet transform — the
        ``SA`` set of Privelet+ (§VI-D).  Those axes use the identity
        transform with unit weights, which is equivalent to the paper's
        sub-matrix splitting (tested equivalent in the test suite).
        ``SA = ()`` is plain Privelet; ``SA = all names`` is Basic.
    """

    def __init__(self, schema: Schema, sa_names: Iterable[str] = ()):
        self.schema = schema
        sa = tuple(sa_names)
        for name in sa:
            schema.index_of(name)  # raises SchemaError for unknown names
        if len(set(sa)) != len(sa):
            raise TransformError(f"duplicate attribute names in SA: {sa}")
        self.sa_names = frozenset(sa)
        self.transforms: list[OneDimensionalTransform] = []
        for attribute in schema:
            if attribute.name in self.sa_names:
                self.transforms.append(IdentityTransform(attribute.size))
            else:
                self.transforms.append(transform_for_attribute(attribute))

    # ------------------------------------------------------------------
    @property
    def input_shape(self) -> tuple[int, ...]:
        return tuple(t.input_length for t in self.transforms)

    @property
    def output_shape(self) -> tuple[int, ...]:
        return tuple(t.output_length for t in self.transforms)

    @property
    def dimensions(self) -> int:
        return len(self.transforms)

    # ------------------------------------------------------------------
    def forward(self, values: np.ndarray) -> np.ndarray:
        """Transform axes ``0 .. d-1`` in turn (producing the step-d matrix).

        Identity axes are skipped.  Wavelet axes go in ascending order,
        each but the last through a temporary; the last writes straight
        into the returned C-ordered array.  The result never shares
        memory with ``values``, so a caller may add noise to it in place.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.input_shape:
            raise TransformError(
                f"expected input shape {self.input_shape}, got {values.shape}"
            )
        out = np.empty(self.output_shape)
        wavelet_axes = self._wavelet_axes()
        if not wavelet_axes:
            np.copyto(out, values)
            return out
        *first, last = wavelet_axes
        for axis in first:
            values = apply_along_axis(self.transforms[axis], values, axis)
        self.transforms[last].forward_into(
            np.moveaxis(values, last, 0), np.moveaxis(out, last, 0)
        )
        return out

    def inverse(self, coefficients: np.ndarray, *, refine: bool = True) -> np.ndarray:
        """Invert axes ``d-1 .. 0``.

        ``refine=True`` applies each nominal axis's mean-subtraction step
        before that axis is inverted (footnote 2 of the paper).  Pass
        ``refine=False`` for the ablation without refinement.
        """
        values = np.empty(self.input_shape)
        self.inverse_into(coefficients, values, refine=refine)
        return values

    def inverse_into(
        self, coefficients: np.ndarray, out: np.ndarray, *, refine: bool = True
    ) -> None:
        """:meth:`inverse`, written into ``out`` (shape :attr:`input_shape`).

        Identity axes are skipped.  Wavelet axes are inverted ``d-1 .. 0``,
        each but the last through a temporary; the last writes straight
        into ``out`` (which may be a strided view), so with one wavelet
        axis nothing else the size of ``out`` is allocated.
        """
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.shape != self.output_shape:
            raise TransformError(
                f"expected coefficient shape {self.output_shape}, got {coefficients.shape}"
            )
        wavelet_axes = self._wavelet_axes()[::-1]
        if not wavelet_axes:
            np.copyto(out, coefficients)
            return
        *first, last = wavelet_axes
        for axis in first:
            coefficients = apply_along_axis(
                self.transforms[axis], coefficients, axis, inverse=True, refine=refine
            )
        self.transforms[last].inverse_into(
            np.moveaxis(coefficients, last, 0), np.moveaxis(out, last, 0), refine=refine
        )

    def _wavelet_axes(self) -> list[int]:
        return [
            axis
            for axis, transform in enumerate(self.transforms)
            if not isinstance(transform, IdentityTransform)
        ]

    # ------------------------------------------------------------------
    def weight_vectors(self) -> list[np.ndarray]:
        """Per-axis weight vectors whose outer product is ``W_HN``."""
        return [t.weight_vector() for t in self.transforms]

    def broadcast_weights(self) -> np.ndarray:
        """``W_HN`` with every identity axis at length 1.

        An identity axis's weights are all ones and ``x * 1.0 == x``, so
        each entry has the bits of the full :func:`weight_tensor` entry
        it broadcasts to, at a fraction of its size.
        """
        return weight_tensor(
            [
                np.ones(1) if isinstance(t, IdentityTransform) else t.weight_vector()
                for t in self.transforms
            ]
        )

    def weight_of(self, coordinates: Sequence[int]) -> float:
        """``W_HN`` at one coefficient coordinate (Example 5 arithmetic)."""
        if len(coordinates) != self.dimensions:
            raise TransformError(
                f"expected {self.dimensions} coordinates, got {len(coordinates)}"
            )
        weight = 1.0
        for coordinate, transform in zip(coordinates, self.transforms):
            weight *= float(transform.weight_vector()[int(coordinate)])
        return weight

    def generalized_sensitivity(self) -> float:
        """Theorem 2 / Corollary 1: ``prod_{A not in SA} P(A)``."""
        return math.prod(t.sensitivity_factor() for t in self.transforms)

    def variance_bound_factor(self) -> float:
        """Theorem 3 / Corollary 1: ``prod H(A)`` (``|A|`` for SA axes).

        A query's noise variance is at most ``sigma^2`` times this, where
        ``sigma^2 = 2 * lambda^2`` is the variance of a unit-weight
        coefficient's noise.
        """
        return math.prod(t.variance_factor() for t in self.transforms)

    def __repr__(self) -> str:
        sa = sorted(self.sa_names)
        return f"HNTransform(shape={self.input_shape}->{self.output_shape}, SA={sa})"

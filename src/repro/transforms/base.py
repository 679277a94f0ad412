"""Common interface for the one-dimensional transforms Privelet composes.

The multi-dimensional Haar-Nominal (HN) transform of paper §VI applies a
one-dimensional transform along each axis of the frequency matrix in
turn.  Each 1-D transform must provide, beyond ``forward`` and
``inverse_into`` (the inverse written into a caller's array):

* a **weight vector** aligned with its coefficient layout — the weight
  function ``W`` of §III-B, which scales per-coefficient Laplace noise
  (magnitude ``lambda / W(c)``);
* its **generalized sensitivity** with respect to those weights (the
  ``P(A)`` factor of Theorem 2);
* its **variance factor** — the per-dimension factor ``H(A)`` of the
  range-count noise-variance bound (Theorem 3).

All transforms operate along axis 0 of an ndarray and vectorize over any
trailing axes, which is what lets the HN transform process every row/
column/fiber of the matrix in one numpy call.

Adjoints
--------
A range-count answer over ``[lo, hi)`` is ``r . x = r . R c = (R^T r) . c``
where ``R`` is the (linear) coefficient-to-data reconstruction map
including refinement and ``r`` the range indicator.  The vector
``g = R^T r`` — the **range adjoint** — is all the exact-variance
machinery in :mod:`repro.analysis.exact` needs, so every transform
exposes :meth:`OneDimensionalTransform.adjoint_range` plus a vectorized
batch form, and a :meth:`~OneDimensionalTransform.range_profile` that
folds ``g`` with the weight vector into the scalar
``sum_j (g[j] / W[j])^2``.  The base class supplies a dense fallback that
materializes ``R`` **once per transform instance**; concrete transforms
override it with closed forms that never build a matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OneDimensionalTransform", "IdentityTransform"]


class OneDimensionalTransform:
    """Abstract 1-D invertible linear transform with weighted noise."""

    #: Expected length of axis 0 on input.
    input_length: int
    #: Length of axis 0 of the coefficient output (may exceed
    #: ``input_length`` for over-complete transforms, §V-A).
    output_length: int

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Transform ``values`` (shape ``(input_length, ...)``) to coefficients."""
        raise NotImplementedError

    def inverse(self, coefficients: np.ndarray, *, refine: bool = False) -> np.ndarray:
        """Map coefficients back to data space.

        ``refine=True`` applies the transform's refinement step (§III-A
        step 3) — currently only the nominal transform has one (mean
        subtraction).  Refinement must depend only on the coefficients,
        never on the original data, to preserve the privacy argument.
        """
        coefficients = self._check_inverse_input(coefficients)
        values = np.empty((self.input_length,) + coefficients.shape[1:])
        self.inverse_into(coefficients, values, refine=refine)
        return values

    def inverse_into(
        self, coefficients: np.ndarray, out: np.ndarray, *, refine: bool = False
    ) -> None:
        """:meth:`inverse`, written into ``out`` instead of a new array.

        ``coefficients`` has shape ``(output_length, ...)`` and ``out``
        ``(input_length, ...)`` with the same trailing shape; either may
        be a strided view.  Shapes are not re-checked.  Implementations
        allocate nothing the size of ``out``, which is what lets a
        release reconstruct straight into its serving tensor.
        """
        raise NotImplementedError

    def weight_vector(self) -> np.ndarray:
        """Per-coefficient weights ``W(c)``, shape ``(output_length,)``."""
        raise NotImplementedError

    def sensitivity_factor(self) -> float:
        """Generalized sensitivity of this transform w.r.t. its weights."""
        raise NotImplementedError

    def variance_factor(self) -> float:
        """Factor this dimension contributes to the variance bound."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Range adjoints (matrix-free exact variance support)
    # ------------------------------------------------------------------
    def adjoint_range(self, lo: int, hi: int) -> np.ndarray:
        """``g = R^T r`` for the half-open data-space range ``[lo, hi)``.

        ``R`` is the full coefficient-to-data reconstruction map
        (``inverse(..., refine=True)``, so refinement and padding
        truncation are included) and ``r`` the indicator of ``[lo, hi)``.
        Returns a ``(output_length,)`` vector.  The base implementation
        uses a dense reconstruction computed once and cached on the
        instance; subclasses override it with closed forms.
        """
        lo, hi = self._check_range(lo, hi)
        cumulative = self._cumulative_reconstruction()
        return cumulative[hi] - cumulative[lo]

    def adjoint_ranges(self, lows, highs) -> np.ndarray:
        """Vectorized :meth:`adjoint_range` — one row per ``(lo, hi)`` pair.

        ``lows``/``highs`` are equal-length integer arrays; the result has
        shape ``(len(lows), output_length)``.
        """
        lows, highs = self._check_ranges(lows, highs)
        cumulative = self._cumulative_reconstruction()
        return cumulative[highs] - cumulative[lows]

    def range_profile(self, lo: int, hi: int) -> float:
        """``sum_j (g[j] / W[j])^2`` for one range — the axis's
        multiplicative contribution to the exact query variance."""
        return float(self.range_profiles([lo], [hi])[0])

    def range_profiles(self, lows, highs) -> np.ndarray:
        """Vectorized :meth:`range_profile`; returns shape ``(len(lows),)``."""
        adjoints = self.adjoint_ranges(lows, highs)
        weights = self._cached_weight_vector()
        return np.sum((adjoints / weights) ** 2, axis=-1)

    # -- shared caches and validation ----------------------------------
    def _cached_weight_vector(self) -> np.ndarray:
        """The weight vector, computed once per instance (do not mutate)."""
        cached = getattr(self, "_weight_vector_cache", None)
        if cached is None:
            cached = self.weight_vector()
            self._weight_vector_cache = cached
        return cached

    def _cumulative_reconstruction(self) -> np.ndarray:
        """Row-prefix-sums of the dense reconstruction matrix, cached.

        Shape ``(input_length + 1, output_length)``; the adjoint of any
        range is then one row difference.  Built from a single
        ``inverse(identity, refine=True)`` the first time it is needed —
        the only place the dense fallback ever materializes a matrix.
        """
        cached = getattr(self, "_cumulative_reconstruction_cache", None)
        if cached is None:
            reconstruction = self.inverse(
                np.eye(self.output_length, dtype=np.float64), refine=True
            )
            cached = np.concatenate(
                [
                    np.zeros((1, self.output_length), dtype=np.float64),
                    np.cumsum(reconstruction, axis=0),
                ],
                axis=0,
            )
            self._cumulative_reconstruction_cache = cached
        return cached

    def _check_range(self, lo, hi) -> tuple[int, int]:
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= self.input_length:
            raise _transform_error(
                f"{type(self).__name__}: range [{lo}, {hi}) out of bounds "
                f"for axis of length {self.input_length}"
            )
        return lo, hi

    def _check_ranges(self, lows, highs) -> tuple[np.ndarray, np.ndarray]:
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        if lows.ndim != 1 or lows.shape != highs.shape:
            raise _transform_error(
                f"{type(self).__name__}: lows/highs must be equal-length 1-D "
                f"arrays, got shapes {lows.shape} and {highs.shape}"
            )
        valid = (lows >= 0) & (lows <= highs) & (highs <= self.input_length)
        if not valid.all():
            bad = int(np.argmin(valid))
            raise _transform_error(
                f"{type(self).__name__}: range [{lows[bad]}, {highs[bad]}) "
                f"out of bounds for axis of length {self.input_length}"
            )
        return lows, highs

    def _check_forward_input(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim < 1 or values.shape[0] != self.input_length:
            raise _transform_error(
                f"{type(self).__name__}: expected axis 0 of length "
                f"{self.input_length}, got shape {values.shape}"
            )
        return values

    def _check_inverse_input(self, coefficients: np.ndarray) -> np.ndarray:
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.ndim < 1 or coefficients.shape[0] != self.output_length:
            raise _transform_error(
                f"{type(self).__name__}: expected axis 0 of length "
                f"{self.output_length}, got shape {coefficients.shape}"
            )
        return coefficients


class IdentityTransform(OneDimensionalTransform):
    """The no-op transform used on Privelet+'s ``SA`` dimensions (§VI-D).

    Releasing a dimension untransformed with unit weights is exactly
    Dwork et al.'s treatment of that dimension: its generalized
    sensitivity factor is 1 and a range can cover all ``|A|`` cells, so
    its variance factor is ``|A|``.  Basic is the special case where
    *every* dimension uses this transform.
    """

    def __init__(self, length: int):
        if length < 1:
            raise _transform_error(f"length must be >= 1, got {length}")
        self.input_length = int(length)
        self.output_length = int(length)

    def forward(self, values: np.ndarray) -> np.ndarray:
        return self._check_forward_input(values).copy()

    def inverse_into(
        self, coefficients: np.ndarray, out: np.ndarray, *, refine: bool = False
    ) -> None:
        np.copyto(out, coefficients)

    def weight_vector(self) -> np.ndarray:
        return np.ones(self.output_length, dtype=np.float64)

    def sensitivity_factor(self) -> float:
        return 1.0

    def variance_factor(self) -> float:
        return float(self.input_length)

    def adjoint_range(self, lo: int, hi: int) -> np.ndarray:
        """The identity's adjoint is the range indicator itself."""
        lo, hi = self._check_range(lo, hi)
        adjoint = np.zeros(self.output_length, dtype=np.float64)
        adjoint[lo:hi] = 1.0
        return adjoint

    def adjoint_ranges(self, lows, highs) -> np.ndarray:
        """Batch of range indicators, shape ``(len(lows), output_length)``."""
        lows, highs = self._check_ranges(lows, highs)
        positions = np.arange(self.output_length, dtype=np.int64)
        return (
            (positions >= lows[:, None]) & (positions < highs[:, None])
        ).astype(np.float64)

    def range_profiles(self, lows, highs) -> np.ndarray:
        """With unit weights the profile is just the range width."""
        lows, highs = self._check_ranges(lows, highs)
        return (highs - lows).astype(np.float64)


def _transform_error(message: str):
    from repro.errors import TransformError

    return TransformError(message)

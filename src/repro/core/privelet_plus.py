"""Privelet+ — the hybrid mechanism of paper §VI-D (Figure 5).

Privelet+ takes a subset ``SA`` of the attributes and skips the wavelet
transform on those dimensions: the frequency matrix is (conceptually)
split into sub-matrices along the ``SA`` dimensions and each sub-matrix
is processed with a ``(d - |SA|)``-dimensional HN transform.

Two implementations are provided and tested equivalent:

* the **vectorized** default: run the HN transform with the identity
  transform (unit weights) on the ``SA`` axes — a coefficient's noise
  magnitude, sensitivity contribution, and variance contribution are then
  exactly those of the paper's per-sub-matrix scheme, because the 1-D
  transforms act independently on each fiber;
* the **literal** Figure 5 algorithm (:meth:`PriveletPlusMechanism.
  publish_matrix_by_splitting`), which loops over sub-matrices.  It is
  kept as an executable specification / cross-check.

Accounting (Corollary 1): with ``lambda = (2/epsilon) * prod_{A not in
SA} P(A)`` the output is ε-DP, and every range-count answer has noise
variance at most ``2 lambda^2 * (prod_{A in SA} |A|) * prod_{A not in SA}
H(A)``.

``SA`` selection: §VI-D puts an attribute in ``SA`` when
``|A| <= P(A)^2 * H(A)`` — small domains are better off with Basic-style
direct noise.  :func:`select_sa` implements that rule (it chooses
{Age, Gender} for the paper's census data, as §VII-A reports).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.framework import PublishingMechanism, PublishResult
from repro.core.laplace import laplace_noise, laplace_variance, magnitude_for_epsilon
from repro.core.release import CoefficientRelease, DenseRelease
from repro.data.frequency import FrequencyMatrix
from repro.data.schema import Schema
from repro.transforms.multidim import HNTransform, weight_tensor
from repro.utils.rng import as_generator

__all__ = ["PriveletPlusMechanism", "select_sa"]


def select_sa(schema: Schema) -> tuple[str, ...]:
    """Attributes for which direct release beats the wavelet transform.

    The §VI-D rule: ``A in SA`` iff ``|A| <= P(A)^2 * H(A)``; with that
    choice Privelet+'s bound (Equation 7) is never worse than either
    Privelet's or Basic's.
    """
    return tuple(attr.name for attr in schema if attr.favours_direct_release())


class PriveletPlusMechanism(PublishingMechanism):
    """Privelet+ with an explicit ``SA`` set (Figure 5).

    ``SA = ()`` gives plain Privelet; ``SA`` = all attributes gives
    Basic-equivalent noise (but prefer :class:`~repro.core.basic.
    BasicMechanism` for clarity).  ``sa_names="auto"`` applies
    :func:`select_sa` at publish time.
    """

    supports_coefficient_release = True

    def __init__(self, sa_names="auto"):
        if sa_names != "auto":
            sa_names = tuple(sa_names)
        self._sa_names = sa_names

    @property
    def name(self) -> str:
        if self._sa_names == "auto":
            return "Privelet+"
        if not self._sa_names:
            return "Privelet"
        return f"Privelet+(SA={{{', '.join(self._sa_names)}}})"

    # ------------------------------------------------------------------
    def sa_for(self, schema: Schema) -> tuple[str, ...]:
        """Resolve the ``SA`` set for ``schema``."""
        if self._sa_names == "auto":
            return select_sa(schema)
        for name in self._sa_names:
            schema.index_of(name)
        return tuple(self._sa_names)

    def _transform(self, schema: Schema) -> HNTransform:
        return HNTransform(schema, self.sa_for(schema))

    def noise_magnitude(self, schema: Schema, epsilon: float) -> float:
        """``lambda = (2/epsilon) * prod_{A not in SA} P(A)`` (Corollary 1)."""
        epsilon = self._check_epsilon(epsilon)
        rho = self._transform(schema).generalized_sensitivity()
        return magnitude_for_epsilon(epsilon, 2.0 * rho)

    # ------------------------------------------------------------------
    def publish_matrix(
        self,
        matrix: FrequencyMatrix,
        epsilon: float,
        *,
        seed=None,
        materialize: bool = True,
    ) -> PublishResult:
        """Publish with the vectorized HN pipeline.

        ``materialize=False`` stops after the noise step: the result
        carries a :class:`CoefficientRelease` holding exactly the noisy
        coefficients (same Laplace draws as the dense path under the same
        seed), and the inverse transform is never run.
        """
        epsilon = self._check_epsilon(epsilon)
        self._check_matrix(matrix)
        sa = self.sa_for(matrix.schema)
        transform = self._transform(matrix.schema)
        rho = transform.generalized_sensitivity()
        magnitude = magnitude_for_epsilon(epsilon, 2.0 * rho)

        noisy = transform.forward(matrix.values)
        magnitudes = magnitude / transform.broadcast_weights()
        noisy += laplace_noise(magnitudes, noisy.shape, seed=seed)
        if materialize:
            reconstructed = transform.inverse(noisy, refine=True)
            release = DenseRelease(FrequencyMatrix(matrix.schema, reconstructed))
        else:
            release = CoefficientRelease(matrix.schema, sa, noisy)

        return PublishResult(
            release=release,
            epsilon=epsilon,
            noise_magnitude=magnitude,
            generalized_sensitivity=rho,
            variance_bound=self.variance_bound(matrix.schema, epsilon),
            details={
                "mechanism": self.name,
                "sa": sa,
                "coefficient_shape": transform.output_shape,
            },
        )

    def publish_matrix_by_splitting(
        self, matrix: FrequencyMatrix, epsilon: float, *, seed=None
    ) -> PublishResult:
        """The literal Figure 5 algorithm: loop over ``SA`` sub-matrices.

        Kept as an executable specification; the vectorized
        :meth:`publish_matrix` is distribution-identical (tests verify
        both determinize to the same output under zeroed noise, and that
        the per-coefficient noise magnitudes match).
        """
        epsilon = self._check_epsilon(epsilon)
        schema = matrix.schema
        sa = self.sa_for(schema)
        sa_axes = schema.axes_of(sa)
        other_attrs = [attr for attr in schema if attr.name not in sa]
        rng = as_generator(seed)

        if not other_attrs:
            # Degenerate case: everything in SA -> Basic's noise.
            magnitude = magnitude_for_epsilon(epsilon, 2.0)
            noisy = matrix.values + laplace_noise(magnitude, matrix.shape, seed=rng)
            return PublishResult(
                release=DenseRelease(FrequencyMatrix(schema, noisy)),
                epsilon=epsilon,
                noise_magnitude=magnitude,
                generalized_sensitivity=1.0,
                variance_bound=self.variance_bound(schema, epsilon),
                details={"mechanism": self.name, "sa": sa, "split": True},
            )

        sub_schema = Schema(other_attrs)
        sub_transform = HNTransform(sub_schema)
        rho = sub_transform.generalized_sensitivity()
        magnitude = magnitude_for_epsilon(epsilon, 2.0 * rho)
        magnitudes = magnitude / weight_tensor(sub_transform.weight_vectors())

        # Move SA axes to the front, loop over their coordinates.
        other_axes = tuple(i for i in range(schema.dimensions) if i not in sa_axes)
        reordered = np.moveaxis(matrix.values, sa_axes, range(len(sa_axes)))
        out = np.empty_like(reordered)
        sa_shape = tuple(schema.shape[a] for a in sa_axes)
        for sa_coordinates in itertools.product(*(range(s) for s in sa_shape)):
            sub = reordered[sa_coordinates]
            coefficients = sub_transform.forward(sub)
            noisy = coefficients + laplace_noise(magnitudes, seed=rng)
            out[sa_coordinates] = sub_transform.inverse(noisy, refine=True)
        restored = np.moveaxis(out, range(len(sa_axes)), sa_axes)

        return PublishResult(
            release=DenseRelease(FrequencyMatrix(schema, restored)),
            epsilon=epsilon,
            noise_magnitude=magnitude,
            generalized_sensitivity=rho,
            variance_bound=self.variance_bound(schema, epsilon),
            details={"mechanism": self.name, "sa": sa, "split": True},
        )

    # ------------------------------------------------------------------
    def variance_bound(self, matrix_schema: Schema, epsilon: float) -> float:
        """Equation 7: ``(8/eps^2) * prod_SA |A| * prod_rest P(A)^2 H(A)``."""
        epsilon = self._check_epsilon(epsilon)
        transform = self._transform(matrix_schema)
        magnitude = magnitude_for_epsilon(epsilon, 2.0 * transform.generalized_sensitivity())
        return laplace_variance(magnitude) * transform.variance_bound_factor()

    def __repr__(self) -> str:
        return f"PriveletPlusMechanism(sa={self._sa_names!r})"

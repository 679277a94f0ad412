"""The Privelet publishing framework (paper §III) as a mechanism interface.

Every mechanism in this library is a :class:`PublishingMechanism`: it
takes a table (or its frequency matrix) plus a privacy budget and returns
a :class:`PublishResult` — a :class:`~repro.core.release.Release`
(the published data in either representation) together with the
accounting facts (ε, λ, sensitivity, variance bound) that the paper's
lemmas attach to it.

The framework's three steps (§III-A) appear as hooks so Basic, Privelet,
and Privelet+ share one code path:

1. ``transform`` the frequency matrix into coefficients;
2. add Laplace noise of magnitude ``lambda / W(c)`` per coefficient;
3. optionally ``refine`` (must depend only on noisy coefficients) and
   invert the transform.

Step 3's inversion is now optional end to end: ``materialize=False``
asks the mechanism to keep the release in coefficient space (a
:class:`~repro.core.release.CoefficientRelease`), skipping the inverse
transform at publish time; the release builds its serving tensor from
the coefficients on first use.
``result.matrix`` still works on either representation — it materializes
``M*`` on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.release import Release
from repro.data.frequency import FrequencyMatrix
from repro.data.table import Table
from repro.errors import PrivacyError
from repro.utils.validation import ensure_epsilon

__all__ = ["PublishResult", "PublishingMechanism"]


@dataclass(frozen=True)
class PublishResult:
    """A published release plus its privacy/utility facts."""

    #: The published data — dense ``M*`` or coefficient-space.
    release: Release
    #: The ε of the ε-differential-privacy guarantee.
    epsilon: float
    #: The Laplace parameter λ the mechanism used (before weighting).
    noise_magnitude: float
    #: Generalized sensitivity ρ of the transform w.r.t. its weights
    #: (1 for Basic, which has unweighted sensitivity 2 = 2ρ).
    generalized_sensitivity: float
    #: Worst-case noise variance of any range-count answer on the release
    #: (the paper's Lemma 3 / Lemma 5 / Theorem 3 / Corollary 1 bound).
    variance_bound: float
    #: Free-form mechanism details (e.g. the SA set used by Privelet+).
    details: dict = field(default_factory=dict)

    @property
    def matrix(self) -> FrequencyMatrix:
        """The noisy frequency matrix ``M*`` (entries may be negative).

        For a dense release this is the stored matrix; for a coefficient
        release it is materialized on demand (and *not* cached — see
        :meth:`repro.core.release.CoefficientRelease.to_matrix`).
        """
        return self.release.to_matrix()

    @property
    def representation(self) -> str:
        """Which release representation this result carries."""
        return self.release.representation


class PublishingMechanism:
    """Interface shared by Basic, Privelet, and Privelet+."""

    #: Human-readable mechanism name used in experiment reports.
    name: str = "mechanism"

    #: Whether ``materialize=False`` (coefficient-space releases) is
    #: implemented.  Baselines that publish through other means (e.g.
    #: Barak's marginals) leave this False.
    supports_coefficient_release: bool = False

    def publish(
        self, table: Table, epsilon: float, *, seed=None, materialize: bool = True
    ) -> PublishResult:
        """Publish ``table`` with ε-differential privacy.

        Equivalent to ``publish_matrix(table.frequency_matrix(), ...)``;
        mechanisms may override for efficiency.  ``materialize=False``
        requests a coefficient-space release (supported when
        :attr:`supports_coefficient_release` is True).
        """
        matrix = table.frequency_matrix()
        if materialize:
            return self.publish_matrix(matrix, epsilon, seed=seed)
        self._require_coefficient_support()
        return self.publish_matrix(matrix, epsilon, seed=seed, materialize=False)

    def publish_matrix(
        self, matrix: FrequencyMatrix, epsilon: float, *, seed=None
    ) -> PublishResult:
        """Publish a pre-computed frequency matrix with ε-DP."""
        raise NotImplementedError

    def variance_bound(self, matrix_schema, epsilon: float) -> float:
        """Closed-form worst-case noise variance per range-count answer."""
        raise NotImplementedError

    def _require_coefficient_support(self) -> None:
        if not self.supports_coefficient_release:
            raise PrivacyError(
                f"{self.name} cannot publish a coefficient-space release; "
                "use materialize=True"
            )

    @staticmethod
    def _check_epsilon(epsilon: float) -> float:
        return ensure_epsilon(epsilon)

    @staticmethod
    def _check_matrix(matrix: FrequencyMatrix) -> FrequencyMatrix:
        """Reject non-finite inputs before any noise is spent on them."""
        import numpy as np

        if not np.isfinite(matrix.values).all():
            raise PrivacyError("frequency matrix contains NaN or infinite entries")
        return matrix

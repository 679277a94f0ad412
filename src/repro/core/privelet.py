"""Privelet — the pure wavelet mechanism (paper §IV, §V, §VI-A/B/C).

Privelet is Privelet+ with ``SA = {}``: every dimension is wavelet
transformed (Haar for ordinal, nominal transform for nominal).  This
module also exposes convenience entry points for the paper's two
one-dimensional instantiations, which are what §IV-B and §V-B describe:

* :func:`publish_ordinal_vector` — Privelet with the 1-D HWT (§IV-B):
  ε-DP with ``lambda = 2 (1 + log2 m) / epsilon``; any range-count answer
  has noise variance at most ``(2 + log2 m)(2 + 2 log2 m)^2 / eps^2``
  (Equation 4).
* :func:`publish_nominal_vector` — Privelet with the nominal transform
  (§V-B): ε-DP with ``lambda = 2 h / epsilon``; any range-count answer
  has noise variance at most ``32 h^2 / eps^2`` (Equation 6).
"""

from __future__ import annotations

import numpy as np

from repro.core.laplace import laplace_noise, magnitude_for_epsilon
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.hierarchy import Hierarchy
from repro.errors import PrivacyError
from repro.transforms.haar import HaarTransform
from repro.transforms.nominal import NominalTransform
from repro.utils.validation import ensure_epsilon as _check_epsilon

__all__ = [
    "PriveletMechanism",
    "publish_ordinal_vector",
    "publish_nominal_vector",
]


class PriveletMechanism(PriveletPlusMechanism):
    """Privelet: the HN wavelet transform on *every* dimension (SA = {})."""

    def __init__(self):
        super().__init__(sa_names=())

    @property
    def name(self) -> str:
        return "Privelet"

    def __repr__(self) -> str:
        return "PriveletMechanism()"


def publish_ordinal_vector(counts, epsilon: float, *, seed=None) -> np.ndarray:
    """§IV-B: 1-D Privelet with the Haar wavelet transform.

    ``counts`` is the one-dimensional frequency vector of an ordinal
    attribute; the result is the noisy vector ``M*`` of the same length.
    """
    epsilon = _check_epsilon(epsilon)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1:
        raise PrivacyError("publish_ordinal_vector expects a 1-D frequency vector")
    transform = HaarTransform(len(counts))
    magnitude = magnitude_for_epsilon(epsilon, 2.0 * transform.sensitivity_factor())
    coefficients = transform.forward(counts)
    noisy = coefficients + laplace_noise(magnitude / transform.weight_vector(), seed=seed)
    return transform.inverse(noisy)


def publish_nominal_vector(
    counts, hierarchy: Hierarchy, epsilon: float, *, seed=None
) -> np.ndarray:
    """§V-B: 1-D Privelet with the nominal wavelet transform.

    ``counts`` is indexed by the hierarchy's DFS leaf order.  Includes the
    mean-subtraction refinement before reconstruction.
    """
    epsilon = _check_epsilon(epsilon)
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1:
        raise PrivacyError("publish_nominal_vector expects a 1-D frequency vector")
    transform = NominalTransform(hierarchy)
    if len(counts) != transform.input_length:
        raise PrivacyError(
            f"counts has length {len(counts)} but the hierarchy has "
            f"{transform.input_length} leaves"
        )
    magnitude = magnitude_for_epsilon(epsilon, 2.0 * transform.sensitivity_factor())
    coefficients = transform.forward(counts)
    noisy = coefficients + laplace_noise(magnitude / transform.weight_vector(), seed=seed)
    return transform.inverse(noisy, refine=True)

"""Laplace noise primitives (paper §II-B).

A Laplace noise of *magnitude* ``lambda`` has density
``Pr[eta = x] = exp(-|x|/lambda) / (2 lambda)`` (Equation 1) and variance
``2 lambda^2``.  Privelet draws per-coefficient noise with magnitude
``lambda / W(c)``; this module provides scalar and tensor-shaped draws
plus the small analytic helpers tests use (density ratios, variance).

A draw is unit Laplace noise scaled in place.  numpy computes each
Laplace variate as ``loc +/- scale * log(.)``, so under one seed this has
the bits of ``rng.laplace(0.0, magnitude, size=shape)`` while the
magnitudes stay in whatever broadcastable form the caller holds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PrivacyError
from repro.utils.rng import as_generator
from repro.utils.validation import ensure_positive

__all__ = [
    "laplace_noise",
    "laplace_variance",
    "laplace_log_density",
    "magnitude_for_epsilon",
    "epsilon_for_magnitude",
]


def laplace_noise(magnitude, shape=None, *, seed=None) -> np.ndarray:
    """Draw zero-mean Laplace noise.

    Parameters
    ----------
    magnitude:
        Scalar magnitude ``lambda``, or an array of per-entry magnitudes
        broadcastable to ``shape`` (e.g. ``lambda / W`` for a coefficient
        matrix, length 1 along axes whose weights are all one).  All
        entries must be positive.
    shape:
        Output shape; defaults to ``magnitude``'s shape when ``magnitude``
        is an array.
    """
    magnitude = np.asarray(magnitude, dtype=np.float64)
    if np.any(magnitude <= 0) or not np.all(np.isfinite(magnitude)):
        raise PrivacyError("noise magnitudes must be positive and finite")
    if shape is None:
        shape = magnitude.shape
    noise = as_generator(seed).laplace(size=shape)
    noise *= magnitude
    return noise


def laplace_variance(magnitude: float) -> float:
    """Variance ``2 lambda^2`` of a Laplace with magnitude ``lambda``."""
    magnitude = ensure_positive(magnitude, "magnitude")
    return 2.0 * magnitude * magnitude


def laplace_log_density(x, magnitude: float):
    """Log of Equation 1's density; used by the analytic DP ratio tests."""
    magnitude = ensure_positive(magnitude, "magnitude")
    x = np.asarray(x, dtype=np.float64)
    return -np.abs(x) / magnitude - np.log(2.0 * magnitude)


def magnitude_for_epsilon(epsilon: float, sensitivity: float) -> float:
    """``lambda = sensitivity / epsilon`` (Theorem 1 / Lemma 1 rearranged).

    For the unweighted mechanism the sensitivity is 2 (one tuple change
    moves two frequency-matrix entries by one); for Privelet it is
    ``2 * rho`` with ``rho`` the generalized sensitivity.
    """
    epsilon = ensure_positive(epsilon, "epsilon")
    sensitivity = ensure_positive(sensitivity, "sensitivity")
    return sensitivity / epsilon


def epsilon_for_magnitude(magnitude: float, sensitivity: float) -> float:
    """Inverse of :func:`magnitude_for_epsilon`."""
    magnitude = ensure_positive(magnitude, "magnitude")
    sensitivity = ensure_positive(sensitivity, "sensitivity")
    return sensitivity / magnitude

"""Small argument-validation helpers used across the library.

These helpers exist so error messages are consistent and so validation
logic (e.g. power-of-two padding used by the Haar transform) lives in one
place.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.errors import PrivacyError, QueryError


def integral_array(values):
    """``values`` as an int64 array, or ``None`` unless every entry is whole.

    Integer dtypes pass, and so do float dtypes whose entries are all
    finite and whole-valued (clients may well send ``18.0``).  Booleans,
    strings, objects and fractional values never do: truncating
    ``3.7`` to ``3`` would answer a *different* query without an error.
    """
    array = np.asarray(values)
    if array.dtype.kind == "f":
        if not (np.all(np.isfinite(array)) and np.array_equal(array, np.trunc(array))):
            return None
    elif array.dtype.kind not in "iu":
        return None
    return array.astype(np.int64, copy=False)


def ensure_boxes(lows, highs, shape):
    """Validate ``(n, d)`` half-open box-bound arrays against ``shape``.

    Returns the bounds as int64 arrays.  The one validator every bulk
    box-answering path shares (the prefix-sum oracle and the release
    backends), so shape/bounds errors read identically everywhere.
    Bounds must be whole numbers (:func:`integral_array`).  Raises
    :class:`repro.errors.QueryError`.
    """
    lows, highs = integral_array(lows), integral_array(highs)
    if lows is None or highs is None:
        raise QueryError(
            "box bounds must be whole numbers (integers or whole-valued "
            "floats; never booleans or fractions)"
        )
    if lows.ndim != 2 or lows.shape != highs.shape or lows.shape[1] != len(shape):
        raise QueryError(
            f"expected (n, {len(shape)}) box-bound arrays, got shapes "
            f"{lows.shape} and {highs.shape}"
        )
    # This runs on every engine call.  Read as unsigned, a negative
    # bound exceeds any size, so two comparisons check 0 <= lo <= hi <=
    # size on every axis at once; the failure path finds the axis.
    unsigned_highs = highs.view(np.uint64)
    if not (
        (lows.view(np.uint64) <= unsigned_highs)
        & (unsigned_highs <= np.asarray(shape, dtype=np.uint64))
    ).all():
        bad = (lows < 0) | (lows > highs) | (highs > np.asarray(shape, dtype=np.int64))
        axis = int(np.argmax(bad.any(axis=0)))
        raise QueryError(
            f"a range is out of bounds for axis {axis} of size {shape[axis]}"
        )
    return lows, highs


def ensure_confidence(confidence) -> float:
    """``confidence`` as a two-sided level in ``(0, 1)``.

    Only real numbers pass: a string such as ``"0.9"``, a boolean, a
    list or ``None`` is rejected rather than coerced, as is NaN.  The one
    check every interval path shares (the engine, the planner and the
    wire requests).  Raises :class:`repro.errors.QueryError`.
    """
    if isinstance(confidence, bool) or not isinstance(confidence, numbers.Real):
        raise QueryError(f"confidence must be a number, got {confidence!r}")
    confidence = float(confidence)
    if not 0.0 < confidence < 1.0:
        raise QueryError(f"confidence must be in (0, 1), got {confidence}")
    return confidence


def ensure_epsilon(epsilon) -> float:
    """Validate a differential-privacy budget ε (> 0), as a float.

    The single validator every mechanism shares (Basic, Privelet,
    Privelet+, and the vector entry points all used to carry copies of
    this check).  Raises :class:`repro.errors.PrivacyError` so the error
    a caller sees is the same regardless of the entry point.
    """
    if not (isinstance(epsilon, (int, float)) and epsilon > 0):
        raise PrivacyError(f"epsilon must be a positive number, got {epsilon!r}")
    return float(epsilon)


def ensure_positive(value, name: str) -> float:
    """Return ``value`` as a float, raising ``ValueError`` unless it is > 0."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def ensure_positive_int(value, name: str) -> int:
    """Return ``value`` as an int, raising unless it is a positive integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def ensure_in_range(value, name: str, low: float, high: float) -> float:
    """Return ``value`` as a float, raising unless ``low <= value <= high``."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def is_power_of_two(value: int) -> bool:
    """True if ``value`` is a positive power of two (1, 2, 4, 8, ...)."""
    return value >= 1 and (value & (value - 1)) == 0


def next_power_of_two(value: int) -> int:
    """Smallest power of two that is >= ``value`` (>= 1).

    The one-dimensional Haar transform requires input length ``2**l``; the
    paper pads shorter vectors with dummy (zero) entries, and this helper
    computes the padded length.
    """
    value = ensure_positive_int(value, "value")
    return 1 << (value - 1).bit_length()

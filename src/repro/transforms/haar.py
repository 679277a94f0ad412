"""One-dimensional Haar wavelet transform (paper §IV).

The HWT builds a full binary *decomposition tree* over ``2**l`` values:
each internal node's coefficient is half the difference of its subtree
averages, plus one *base coefficient* equal to the overall mean
(Figure 2).  Any value is recovered from the base coefficient and its
``l`` ancestors (Equation 3), which is why a range-count answer touches
only ``O(log m)`` noisy coefficients.

Layout
------
Coefficients are stored in level order with the base coefficient first::

    [c0 (base), c1 (root, level 1), level-2 nodes left-to-right, ...]

This is the ordering §VI-A prescribes for the multi-dimensional
transform ("sorted based on a level-order traversal ... the base
coefficient always ranks first").  With ``2**l`` inputs there are
``2**l - 1`` internal nodes, so the output also has length ``2**l``.

Weights (§IV-B)::

    W_Haar(c0)          = m          (the padded length 2**l)
    W_Haar(c at level i) = 2**(l-i+1)

Inputs whose length is not a power of two are zero-padded on the right
(the paper's "dummy values"); :meth:`HaarTransform.inverse` truncates the
padding away again.

Implementation: an ``O(m)`` iterative pairwise average/difference scheme
operating along axis 0, vectorized over trailing axes.  A slow, explicitly
tree-based implementation lives in :mod:`repro.transforms.tree` and is
used by the test suite as an oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TransformError
from repro.transforms.base import OneDimensionalTransform
from repro.utils.validation import ensure_positive_int, next_power_of_two

__all__ = ["HaarTransform", "haar_forward", "haar_inverse", "haar_weight_vector"]


def haar_forward(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Haar-transform axis 0 (length must be a power of two).

    Returns coefficients in level order, base coefficient first, written
    into ``out`` (any array of ``values``' shape, possibly a strided
    view) when one is given.
    """
    values = np.asarray(values, dtype=np.float64)
    length = values.shape[0]
    if length & (length - 1):
        raise TransformError(f"haar_forward needs a power-of-two length, got {length}")
    current = values
    levels = []  # details from the lowest tree level up to the root
    while current.shape[0] > 1:
        even = current[0::2]
        odd = current[1::2]
        levels.append((even - odd) / 2.0)
        current = (even + odd) / 2.0
    # current[0] is the base coefficient (overall mean).
    return np.concatenate([current] + levels[::-1], axis=0, out=out)


def haar_inverse(coefficients: np.ndarray) -> np.ndarray:
    """Invert :func:`haar_forward` (length must be a power of two)."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    length = coefficients.shape[0]
    if length & (length - 1):
        raise TransformError(f"haar_inverse needs a power-of-two length, got {length}")
    values = np.empty_like(coefficients)
    _haar_inverse_into(coefficients, values)
    return values


def _haar_inverse_into(coefficients: np.ndarray, out: np.ndarray) -> None:
    """Write the first ``len(out)`` values of :func:`haar_inverse` into ``out``.

    In-place lifting: a level's ``k`` subtree averages sit at stride
    ``m / k`` in ``out``.  Splitting one writes its right child half a
    stride along and its left child over itself, so no level allocates,
    and positions past ``len(out)`` (the padding) are never computed —
    every node's leaves start at its own position.  Each value is the
    same ``average +/- detail`` as a level-by-level rebuild, so the bits
    are the same too.
    """
    out[0] = coefficients[0]
    nodes, stride = 1, coefficients.shape[0]
    while stride > 1:
        half = stride // 2
        details = coefficients[nodes : 2 * nodes]
        left, right = out[0::stride], out[half::stride]
        np.subtract(left[: len(right)], details[: len(right)], out=right)
        np.add(left, details[: len(left)], out=left)
        nodes, stride = 2 * nodes, half


def haar_weight_vector(padded_length: int) -> np.ndarray:
    """``W_Haar`` aligned with the level-order coefficient layout.

    ``weights[0] = m`` for the base coefficient; a level-``i`` coefficient
    gets ``2**(l-i+1)``.  For ``m = 8``: ``[8, 8, 4, 4, 2, 2, 2, 2]``.
    """
    padded_length = ensure_positive_int(padded_length, "padded_length")
    if padded_length & (padded_length - 1):
        raise TransformError(f"padded_length must be a power of two, got {padded_length}")
    l = padded_length.bit_length() - 1
    weights = np.empty(padded_length, dtype=np.float64)
    weights[0] = float(padded_length)
    position = 1
    for level in range(1, l + 1):
        count = 1 << (level - 1)
        weights[position : position + count] = float(1 << (l - level + 1))
        position += count
    return weights


def _straddle_contribution(lows, highs, start, half):
    """Adjoint entry of the level nodes whose leaf blocks start at ``start``.

    Each block is ``2 * half`` leaves wide.  A leaf in the node's left
    half contributes ``+1`` to the node's coefficient in the
    reconstruction, a leaf in its right half ``-1``; the adjoint entry is
    therefore (left overlap) - (right overlap) with the query range.
    Blocks fully inside or outside the range cancel to zero, which is why
    only the two boundary nodes per level survive.  Broadcasts, so one
    call can cover every level at once.
    """
    mid = start + half
    stop = mid + half
    left = np.maximum(0, np.minimum(highs, mid) - np.maximum(lows, start))
    right = np.maximum(0, np.minimum(highs, stop) - np.maximum(lows, mid))
    return (left - right).astype(np.float64)


class HaarTransform(OneDimensionalTransform):
    """HWT over an ordinal domain of any size, with power-of-two padding."""

    def __init__(self, domain_size: int):
        self.input_length = ensure_positive_int(domain_size, "domain_size")
        self.padded_length = next_power_of_two(self.input_length)
        self.output_length = self.padded_length
        self._levels = self.padded_length.bit_length() - 1  # l
        # Per-level constants of the profile reader, level 1 (the root)
        # first: block widths 2**shift, their halves, squared weights.
        self._shifts = np.arange(self._levels, 0, -1, dtype=np.int64)
        self._halves = np.left_shift(1, self._shifts - 1)
        self._weights_sq = np.asarray(
            [float(1 << int(shift)) ** 2 for shift in self._shifts], dtype=np.float64
        )

    def forward_into(self, values: np.ndarray, out: np.ndarray) -> None:
        if self.padded_length != self.input_length:
            pad = [(0, self.padded_length - self.input_length)]
            pad += [(0, 0)] * (values.ndim - 1)
            values = np.pad(values, pad)
        haar_forward(values, out)

    def inverse_into(
        self, coefficients: np.ndarray, out: np.ndarray, *, refine: bool = False
    ) -> None:
        # The Haar instantiation has no refinement step; ``refine`` is
        # accepted for interface uniformity and ignored.
        _haar_inverse_into(coefficients, out)

    def weight_vector(self) -> np.ndarray:
        return haar_weight_vector(self.padded_length)

    def sensitivity_factor(self) -> float:
        """Lemma 2: generalized sensitivity ``1 + log2 m`` w.r.t. ``W_Haar``."""
        return 1.0 + float(self._levels)

    def variance_factor(self) -> float:
        """Lemma 3 / §VI-C: ``H(A) = (2 + log2 m) / 2``."""
        return (2.0 + float(self._levels)) / 2.0

    # ------------------------------------------------------------------
    # Closed-form range adjoints (no dense reconstruction)
    # ------------------------------------------------------------------
    # A range indicator decomposes over the dyadic tree: a level-i node
    # whose leaf block lies fully inside (or outside) the range
    # contributes zero, so only the <= 2 nodes per level straddling the
    # range boundaries appear in g — O(log m) nonzeros.  Padding needs no
    # special handling: ranges live in [0, input_length), the padded
    # leaves [input_length, 2**l) are simply never covered.

    def adjoint_range(self, lo: int, hi: int) -> np.ndarray:
        """Closed-form ``R^T r`` with ``O(log m)`` nonzero entries."""
        lo, hi = self._check_range(lo, hi)
        return self.adjoint_ranges([lo], [hi])[0]

    def adjoint_ranges(self, lows, highs) -> np.ndarray:
        """Batch adjoints, shape ``(n, 2**l)``; ``O(n log m)`` fill work."""
        lows, highs = self._check_ranges(lows, highs)
        count = lows.shape[0]
        adjoints = np.zeros((count, self.output_length), dtype=np.float64)
        nonempty = highs > lows
        adjoints[:, 0] = highs - lows
        rows = np.arange(count)[nonempty]
        level_lows = lows[nonempty]
        level_highs = highs[nonempty]
        last = level_highs - 1
        for level in range(1, self._levels + 1):
            shift = self._levels - level + 1
            offset = 1 << (level - 1)
            node_lo = level_lows >> shift
            node_hi = last >> shift
            half = 1 << (shift - 1)
            # When node_lo == node_hi the two writes coincide (same value).
            adjoints[rows, offset + node_lo] = _straddle_contribution(
                level_lows, level_highs, node_lo << shift, half
            )
            adjoints[rows, offset + node_hi] = _straddle_contribution(
                level_lows, level_highs, node_hi << shift, half
            )
        return adjoints

    def _read_profiles(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """``sum_j (g[j]/W[j])^2`` per range in ``O(log m)`` each.

        Never allocates a length-``m`` vector: only the boundary nodes of
        each level contribute, and their weights are ``2**(l-i+1)``.  All
        ``l`` levels of a batch are one ``(n, l)`` pass, and each row's
        terms are added one after another, base term first and then
        level 1 down to level ``l``, so a profile has the same bits in
        any batch.  An empty range's terms are all zero.
        """
        shifts = self._shifts
        lo, hi = lows[:, None], highs[:, None]
        node_lo = lo >> shifts
        # The clamp keeps an empty range's last leaf in bounds.
        node_hi = np.maximum(hi - 1, lo) >> shifts
        g_lo = _straddle_contribution(lo, hi, node_lo << shifts, self._halves)
        g_hi = _straddle_contribution(lo, hi, node_hi << shifts, self._halves)
        g_hi[node_hi == node_lo] = 0.0
        terms = np.empty((lows.shape[0], shifts.size + 1), dtype=np.float64)
        widths = (highs - lows).astype(np.float64)
        terms[:, 0] = (widths / float(self.padded_length)) ** 2
        np.divide(g_lo**2 + g_hi**2, self._weights_sq, out=terms[:, 1:])
        np.add.accumulate(terms, axis=1, out=terms)
        return terms[:, -1].copy()

    def __repr__(self) -> str:
        return (
            f"HaarTransform(domain={self.input_length}, "
            f"padded={self.padded_length})"
        )

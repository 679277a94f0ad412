"""Property tests for the matrix-free range adjoints.

Every transform's ``adjoint_range`` must agree with the dense oracle
``R^T r`` where ``R = inverse(identity, refine=True)`` — the exact
construction the old variance path materialized on every call.
"""

import numpy as np
import pytest

from repro.data.hierarchy import balanced_hierarchy, two_level_hierarchy
from repro.errors import TransformError
from repro.transforms.base import IdentityTransform, OneDimensionalTransform
from repro.transforms.haar import HaarTransform
from repro.transforms.nominal import NominalTransform


def dense_adjoint(transform, lo, hi):
    """Oracle: row-slice sum of the dense reconstruction matrix."""
    reconstruction = transform.inverse(
        np.eye(transform.output_length), refine=True
    )
    return reconstruction[lo:hi].sum(axis=0)


def random_ranges(transform, count, rng):
    pairs = np.sort(
        rng.integers(0, transform.input_length + 1, size=(count, 2)), axis=1
    )
    return pairs[:, 0], pairs[:, 1]


class TestHaarAdjoint:
    @pytest.mark.parametrize("domain", [1, 2, 3, 5, 8, 12, 16, 33, 100, 257])
    def test_matches_dense_oracle(self, domain, rng):
        """Closed form == dense, including non-power-of-two padding."""
        transform = HaarTransform(domain)
        lows, highs = random_ranges(transform, 25, rng)
        for lo, hi in zip(lows, highs):
            np.testing.assert_allclose(
                transform.adjoint_range(lo, hi),
                dense_adjoint(transform, lo, hi),
                atol=1e-12,
            )

    def test_padding_truncation(self):
        """With padding, only the real leaves feed the adjoint: the full
        range [0, input_length) is NOT the full padded tree."""
        transform = HaarTransform(5)  # padded to 8
        adjoint = transform.adjoint_range(0, 5)
        np.testing.assert_allclose(adjoint, dense_adjoint(transform, 0, 5))
        # The base coefficient sees 5 leaves, not 8.
        assert adjoint[0] == 5.0

    def test_log_m_sparsity(self):
        """At most 2 nonzeros per level plus the base coefficient."""
        transform = HaarTransform(1 << 12)
        adjoint = transform.adjoint_range(123, 3456)
        assert np.count_nonzero(adjoint) <= 1 + 2 * 12

    def test_batch_matches_singles(self, rng):
        transform = HaarTransform(100)
        lows, highs = random_ranges(transform, 40, rng)
        batch = transform.adjoint_ranges(lows, highs)
        profiles = transform.range_profiles(lows, highs)
        weights = transform.weight_vector()
        for row, (lo, hi) in enumerate(zip(lows, highs)):
            np.testing.assert_allclose(
                batch[row], transform.adjoint_range(lo, hi), atol=1e-12
            )
            assert profiles[row] == pytest.approx(
                float(np.sum((batch[row] / weights) ** 2))
            )

    def test_empty_range(self):
        transform = HaarTransform(16)
        assert np.all(transform.adjoint_range(7, 7) == 0.0)
        assert transform.range_profile(7, 7) == 0.0

    def test_bounds_rejected(self):
        transform = HaarTransform(16)
        with pytest.raises(TransformError):
            transform.adjoint_range(0, 17)
        with pytest.raises(TransformError):
            transform.adjoint_range(-1, 4)
        with pytest.raises(TransformError):
            transform.adjoint_ranges([0, 5], [4, 3])
        with pytest.raises(TransformError):
            transform.range_profiles([0], [[4]])


class TestNominalAdjoint:
    def hierarchies(self, unbalanced_hierarchy):
        return [
            two_level_hierarchy([3, 4, 2]),
            balanced_hierarchy(27, 3),
            unbalanced_hierarchy,  # leaves at mixed depths
        ]

    def test_matches_dense_oracle(self, unbalanced_hierarchy, rng):
        """Bottom-up pass + mean-subtraction adjoint == dense, including
        the refinement step (mean subtraction is symmetric)."""
        for hierarchy in self.hierarchies(unbalanced_hierarchy):
            transform = NominalTransform(hierarchy)
            lows, highs = random_ranges(transform, 30, rng)
            batch = transform.adjoint_ranges(lows, highs)
            for row, (lo, hi) in enumerate(zip(lows, highs)):
                expected = dense_adjoint(transform, lo, hi)
                np.testing.assert_allclose(
                    transform.adjoint_range(lo, hi), expected, atol=1e-12
                )
                np.testing.assert_allclose(batch[row], expected, atol=1e-12)

    def test_profile_matches_dense(self, figure3_hierarchy):
        transform = NominalTransform(figure3_hierarchy)
        weights = transform.weight_vector()
        for lo, hi in [(0, 3), (1, 5), (0, 6), (2, 2)]:
            expected = float(
                np.sum((dense_adjoint(transform, lo, hi) / weights) ** 2)
            )
            assert transform.range_profile(lo, hi) == pytest.approx(expected)


def all_ranges(transform):
    """Every ``lo <= hi`` pair of the transform's axis, as two arrays."""
    lows, highs = np.triu_indices(transform.input_length + 1)
    return lows.astype(np.int64), highs.astype(np.int64)


def haar_profiles_level_loop(transform, lows, highs):
    """The per-level loop ``HaarTransform`` read its profiles with before
    its one-pass reader: base term first, then levels 1 to ``l``."""
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    levels = transform.padded_length.bit_length() - 1
    widths = (highs - lows).astype(np.float64)
    profiles = (widths / float(transform.padded_length)) ** 2
    nonempty = highs > lows
    last = np.maximum(highs - 1, lows)
    for level in range(1, levels + 1):
        shift = levels - level + 1
        half = 1 << (shift - 1)
        weight_sq = float(1 << shift) ** 2
        node_lo, node_hi = lows >> shift, last >> shift
        g = []
        for nodes in (node_lo, node_hi):
            start = nodes << shift
            mid, stop = start + half, start + 2 * half
            left = np.maximum(0, np.minimum(highs, mid) - np.maximum(lows, start))
            right = np.maximum(0, np.minimum(highs, stop) - np.maximum(lows, mid))
            g.append((left - right).astype(np.float64))
        g_hi = np.where(node_hi != node_lo, g[1], 0.0)
        profiles += np.where(nonempty, (g[0] ** 2 + g_hi**2) / weight_sq, 0.0)
    return profiles


def dense_profiles(transform, lows, highs):
    """Oracle: ``sum_j (g[j] / W[j])^2`` from the dense reconstruction."""
    reconstruction = transform.inverse(
        np.eye(transform.output_length), refine=True
    )
    cumulative = np.concatenate(
        [np.zeros((1, transform.output_length)), np.cumsum(reconstruction, axis=0)]
    )
    adjoints = cumulative[highs] - cumulative[lows]
    return np.sum((adjoints / transform.weight_vector()) ** 2, axis=1)


class TestRangeProfiles:
    """A range's profile is a pure function of the range: one batched
    call equals one-range calls bit for bit, on every pair of the axis."""

    @pytest.fixture(
        params=[
            "two-level", "balanced", "mixed-depth",
            "haar-1", "haar-2", "haar-37", "haar-64", "identity-9",
        ]
    )
    def transform(self, request, unbalanced_hierarchy):
        return {
            "two-level": lambda: NominalTransform(two_level_hierarchy([3, 4, 2])),
            "balanced": lambda: NominalTransform(balanced_hierarchy(27, 3)),
            "mixed-depth": lambda: NominalTransform(unbalanced_hierarchy),
            "haar-1": lambda: HaarTransform(1),
            "haar-2": lambda: HaarTransform(2),
            "haar-37": lambda: HaarTransform(37),
            "haar-64": lambda: HaarTransform(64),
            "identity-9": lambda: IdentityTransform(9),
        }[request.param]()

    def test_batch_equals_single_ranges(self, transform):
        lows, highs = all_ranges(transform)
        batch = transform.range_profiles(lows, highs)
        singles = [transform.range_profile(lo, hi) for lo, hi in zip(lows, highs)]
        assert batch.tolist() == singles
        reversed_batch = transform.range_profiles(lows[::-1], highs[::-1])
        assert reversed_batch[::-1].tolist() == singles

    def test_matches_dense_oracle(self, transform):
        lows, highs = all_ranges(transform)
        np.testing.assert_allclose(
            transform.range_profiles(lows, highs),
            dense_profiles(transform, lows, highs),
            rtol=1e-12,
            atol=0.0,
        )

    @pytest.mark.parametrize("domain", [1, 2, 37, 64, 4096])
    def test_haar_reader_matches_level_loop(self, domain, rng):
        """The one-pass Haar reader == the per-level loop it replaced."""
        transform = HaarTransform(domain)
        if domain <= 64:
            lows, highs = all_ranges(transform)
        else:
            lows, highs = random_ranges(transform, 5000, rng)
            lows = np.concatenate([lows, [0, 0, domain, 17]])
            highs = np.concatenate([highs, [domain, 0, domain, 17]])
        expected = haar_profiles_level_loop(transform, lows, highs)
        assert transform.range_profiles(lows, highs).tolist() == expected.tolist()

    def test_nominal_table_is_built_once(self):
        transform = NominalTransform(two_level_hierarchy([3, 4, 2]))
        transform.range_profile(0, 9)
        table = transform._profile_table()
        transform.range_profiles([1, 2], [5, 9])
        assert transform._profile_table() is table
        assert table.shape == (10, 10)

    def test_nominal_bounds_rejected(self):
        transform = NominalTransform(two_level_hierarchy([3, 4, 2]))
        with pytest.raises(TransformError):
            transform.range_profiles([0], [10])
        with pytest.raises(TransformError):
            transform.range_profiles([5], [4])
        with pytest.raises(TransformError):
            transform.range_profile(-1, 3)


class TestIdentityAdjoint:
    def test_adjoint_is_indicator(self):
        transform = IdentityTransform(7)
        np.testing.assert_allclose(
            transform.adjoint_range(2, 5), [0, 0, 1, 1, 1, 0, 0]
        )
        np.testing.assert_allclose(
            transform.range_profiles([0, 2, 3], [7, 2, 4]), [7.0, 0.0, 1.0]
        )


class TestDenseFallback:
    """The base-class implementation all custom transforms inherit."""

    def test_matches_closed_forms(self, rng):
        for transform in [
            HaarTransform(13),
            NominalTransform(two_level_hierarchy([2, 3])),
            IdentityTransform(9),
        ]:
            lows, highs = random_ranges(transform, 10, rng)
            np.testing.assert_allclose(
                OneDimensionalTransform.adjoint_ranges(transform, lows, highs),
                transform.adjoint_ranges(lows, highs),
                atol=1e-12,
            )

    def test_reconstruction_cached_per_instance(self):
        transform = IdentityTransform(6)
        assert getattr(transform, "_cumulative_reconstruction_cache", None) is None
        OneDimensionalTransform.adjoint_range(transform, 1, 4)
        first = transform._cumulative_reconstruction_cache
        assert first is not None
        OneDimensionalTransform.adjoint_range(transform, 0, 6)
        assert transform._cumulative_reconstruction_cache is first

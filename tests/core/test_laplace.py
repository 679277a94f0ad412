"""Unit tests for repro.core.laplace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.laplace import (
    epsilon_for_magnitude,
    laplace_log_density,
    laplace_noise,
    laplace_variance,
    magnitude_for_epsilon,
)
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.census import BRAZIL, generate_census_table
from repro.errors import PrivacyError
from repro.transforms.base import IdentityTransform
from repro.transforms.haar import HaarTransform, haar_forward
from repro.transforms.multidim import HNTransform, weight_tensor


class TestNoise:
    def test_scalar_magnitude_shape(self, rng):
        noise = laplace_noise(2.0, (100,), seed=rng)
        assert noise.shape == (100,)

    def test_array_magnitude_shape_default(self, rng):
        magnitudes = np.array([[1.0, 2.0], [3.0, 4.0]])
        noise = laplace_noise(magnitudes, seed=rng)
        assert noise.shape == (2, 2)

    def test_zero_mean_and_variance(self):
        noise = laplace_noise(3.0, (200_000,), seed=42)
        assert abs(noise.mean()) < 0.05
        assert np.var(noise) == pytest.approx(laplace_variance(3.0), rel=0.05)

    def test_per_entry_magnitudes_respected(self):
        magnitudes = np.array([0.5, 5.0])
        draws = laplace_noise(magnitudes, (100_000, 2), seed=7)
        assert np.var(draws[:, 0]) == pytest.approx(laplace_variance(0.5), rel=0.05)
        assert np.var(draws[:, 1]) == pytest.approx(laplace_variance(5.0), rel=0.05)

    def test_deterministic_with_seed(self):
        np.testing.assert_array_equal(
            laplace_noise(1.0, (5,), seed=3), laplace_noise(1.0, (5,), seed=3)
        )

    def test_rejects_nonpositive_magnitude(self):
        with pytest.raises(PrivacyError):
            laplace_noise(0.0, (3,))
        with pytest.raises(PrivacyError):
            laplace_noise(np.array([1.0, -2.0]), (2,))
        with pytest.raises(PrivacyError):
            laplace_noise(np.inf, (2,))


class TestArithmetic:
    def test_variance_formula(self):
        assert laplace_variance(2.0) == 8.0

    def test_magnitude_epsilon_round_trip(self):
        magnitude = magnitude_for_epsilon(0.5, sensitivity=2.0)
        assert magnitude == 4.0
        assert epsilon_for_magnitude(magnitude, sensitivity=2.0) == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            magnitude_for_epsilon(0.0, 2.0)
        with pytest.raises(ValueError):
            magnitude_for_epsilon(1.0, -1.0)

    def test_log_density_normalized(self):
        """Integrate the density numerically: should be ~1."""
        xs = np.linspace(-60, 60, 200_001)
        density = np.exp(laplace_log_density(xs, 2.0))
        integral = np.trapezoid(density, xs)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_log_density_ratio_bounded_by_shift(self):
        """|log p(x) - log p(x - delta)| <= |delta| / lambda — the core of

        the Laplace-mechanism privacy proof (Theorem 1)."""
        xs = np.linspace(-10, 10, 1001)
        delta = 1.7
        magnitude = 2.5
        gap = np.abs(
            laplace_log_density(xs, magnitude) - laplace_log_density(xs - delta, magnitude)
        )
        assert gap.max() <= delta / magnitude + 1e-12


SHAPES = st.lists(st.integers(1, 6), max_size=3).map(tuple)
SEEDS = st.integers(0, 2**63 - 1)


def _broadcastable(shape, keep):
    """``shape`` with the axes ``keep`` rejects shrunk to length 1."""
    return tuple(size if kept else 1 for size, kept in zip(shape, keep))


class TestSameSeedSameNoise:
    """Unit draws scaled in place have the bits of numpy's scaled draws.

    Releases published before the in-place draw came from
    ``rng.laplace(0.0, magnitude, size=shape)``; under one seed the
    noise, and so every release, must be the same.
    """

    @given(SHAPES, SEEDS, st.floats(1e-6, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_scalar_magnitude(self, shape, seed, magnitude):
        expected = np.random.default_rng(seed).laplace(0.0, magnitude, size=shape)
        assert np.array_equal(laplace_noise(magnitude, shape, seed=seed), expected)

    @given(SHAPES, SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_full_shape_magnitudes(self, shape, seed):
        magnitudes = np.random.default_rng(seed ^ 1).uniform(1e-3, 1e3, size=shape)
        expected = np.random.default_rng(seed).laplace(0.0, magnitudes)
        assert np.array_equal(laplace_noise(magnitudes, seed=seed), expected)

    @given(SHAPES, st.lists(st.booleans(), min_size=3, max_size=3), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_broadcastable_magnitudes(self, shape, keep, seed):
        magnitudes = np.random.default_rng(seed ^ 1).uniform(
            1e-3, 1e3, size=_broadcastable(shape, keep)
        )
        expected = np.random.default_rng(seed).laplace(0.0, magnitudes, size=shape)
        assert np.array_equal(laplace_noise(magnitudes, shape, seed=seed), expected)

    @given(SHAPES, SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_shared_generator_ends_in_reference_state(self, shape, seed):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        laplace_noise(np.full(shape, 2.5), seed=ours)
        reference.laplace(0.0, np.full(shape, 2.5))
        assert ours.bit_generator.state == reference.bit_generator.state


EPSILON = 1.0


def _reference_forward(transform: HNTransform, values: np.ndarray) -> np.ndarray:
    """The HN forward as releases were first published, the bit reference.

    Every axis in turn, identity axes copied, and the nominal forward
    built from cumsum/gather leaf-sums.
    """
    for axis, one in enumerate(transform.transforms):
        moved = np.moveaxis(values, axis, 0)
        if isinstance(one, IdentityTransform):
            result = moved.copy()
        elif isinstance(one, HaarTransform):
            pad = [(0, one.padded_length - one.input_length)]
            result = haar_forward(np.pad(moved, pad + [(0, 0)] * (moved.ndim - 1)))
        else:
            hierarchy = one.hierarchy
            prefix = np.concatenate(
                [np.zeros((1,) + moved.shape[1:]), np.cumsum(moved, axis=0)], axis=0
            )
            sums = prefix[hierarchy.leaf_end_array] - prefix[hierarchy.leaf_start_array]
            result = np.empty_like(sums)
            result[0] = sums[0]
            parents = hierarchy.parent_array[1:]
            fanouts = hierarchy.fanout_array[parents].reshape(
                (-1,) + (1,) * (sums.ndim - 1)
            )
            result[1:] = sums[1:] - sums[parents] / fanouts
        values = np.moveaxis(result, 0, axis)
    return values


def _reference_publish(matrix, mechanism, seed):
    """``(transform, noisy coefficients)`` of the reference pipeline."""
    transform = HNTransform(matrix.schema, mechanism.sa_for(matrix.schema))
    magnitude = magnitude_for_epsilon(EPSILON, 2.0 * transform.generalized_sensitivity())
    coefficients = _reference_forward(transform, matrix.values)
    magnitudes = magnitude / weight_tensor(transform.weight_vectors())
    return transform, coefficients + np.random.default_rng(seed).laplace(0.0, magnitudes)


@pytest.fixture(scope="module")
def census_table():
    return generate_census_table(BRAZIL.scaled(0.05), 20_000, seed=5)


class TestSameSeedSameRelease:
    """``publish_matrix`` on integer counts is ``==`` the reference pipeline."""

    @pytest.mark.parametrize("dataset", ["mixed_table", "census_table"])
    @pytest.mark.parametrize("seed", [4, 2010])
    def test_releases_match_reference(self, request, dataset, seed):
        table = request.getfixturevalue(dataset)
        matrix = table.frequency_matrix()
        names = tuple(table.schema.names)
        choices = [(), "auto", names] + [(name,) for name in names]
        for sa in choices:
            mechanism = PriveletPlusMechanism(sa_names=sa)
            transform, expected = _reference_publish(matrix, mechanism, seed)
            coefficients = mechanism.publish_matrix(
                matrix, EPSILON, seed=seed, materialize=False
            ).release.coefficients
            assert np.array_equal(coefficients, expected), sa
            dense = mechanism.publish_matrix(matrix, EPSILON, seed=seed).matrix.values
            assert np.array_equal(dense, transform.inverse(expected, refine=True)), sa

"""Unit tests for the 1-D Haar wavelet transform (paper §IV)."""

import numpy as np
import pytest

from repro.errors import TransformError
from repro.transforms.haar import (
    HaarTransform,
    haar_forward,
    haar_inverse,
    haar_weight_vector,
)
from repro.transforms.tree import haar_forward_reference, haar_reconstruct_entry


class TestFigure2:
    """The paper's worked example: Figure 2 / Examples 1 and 2."""

    M = np.array([9.0, 3.0, 6.0, 2.0, 8.0, 4.0, 5.0, 7.0])

    def test_coefficients(self):
        coefficients = haar_forward(self.M)
        np.testing.assert_allclose(
            coefficients, [5.5, -0.5, 1.0, 0.0, 3.0, 2.0, 2.0, -1.0]
        )

    def test_example2_reconstruction(self):
        """v2 = c0 + c1 + c2 - c4 = 5.5 - 0.5 + 1 - 3 = 3."""
        c = haar_forward(self.M)
        assert c[0] + c[1] + c[2] - c[4] == pytest.approx(3.0)

    def test_weights_example(self):
        """§IV-B: weights 8, 8, 4, 2 for c0, c1, c2, c4."""
        w = haar_weight_vector(8)
        assert w[0] == 8.0  # base
        assert w[1] == 8.0  # c1 (level 1)
        assert w[2] == 4.0  # c2 (level 2)
        assert w[4] == 2.0  # c4 (level 3)

    @pytest.mark.parametrize(
        "lo,hi,profile",
        [
            # (1/8)^2 + (1/8)^2 + (1/4)^2 + (1/2)^2: one leaf straddles a
            # node on every level.
            (0, 1, 0.34375),
            # The whole domain: only the base coefficient, (8/8)^2.
            (0, 8, 1.0),
            # (4/8)^2 + 2 (2/4)^2: each level-2 node holds the range in
            # one half (g = -2 and +2); the root's halves cancel.
            (2, 6, 0.75),
            (3, 3, 0.0),
        ],
    )
    def test_range_profiles_known_answers(self, lo, hi, profile):
        """Exact binary fractions: (w/8)^2 plus (g/W)^2 over the nodes the
        range straddles, each with its §IV-B weight W."""
        assert HaarTransform(8).range_profile(lo, hi) == profile


class TestRipplesKnownAnswer:
    """SNIPPETS.md snippet 3's worked three-level Haar example: every
    value is an exact binary fraction, so forward and inverse are ``==``."""

    SIGNAL = [56.0, 40.0, 8.0, 24.0, 48.0, 48.0, 40.0, 16.0]
    COEFFICIENTS = [35.0, -3.0, 16.0, 10.0, 8.0, -8.0, 0.0, 12.0]

    def test_forward(self):
        assert HaarTransform(8).forward(np.asarray(self.SIGNAL)).tolist() == (
            self.COEFFICIENTS
        )

    def test_inverse(self):
        assert HaarTransform(8).inverse(np.asarray(self.COEFFICIENTS)).tolist() == (
            self.SIGNAL
        )


class TestForwardInverse:
    @pytest.mark.parametrize("length", [1, 2, 4, 8, 16, 64, 256])
    def test_round_trip(self, length, rng):
        values = rng.normal(size=length)
        np.testing.assert_allclose(haar_inverse(haar_forward(values)), values, atol=1e-12)

    def test_round_trip_2d(self, rng):
        values = rng.normal(size=(16, 7))
        np.testing.assert_allclose(haar_inverse(haar_forward(values)), values, atol=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(TransformError):
            haar_forward(np.zeros(6))
        with pytest.raises(TransformError):
            haar_inverse(np.zeros(6))

    def test_base_coefficient_is_mean(self, rng):
        values = rng.normal(size=32)
        assert haar_forward(values)[0] == pytest.approx(values.mean())

    def test_constant_vector_has_zero_details(self):
        coefficients = haar_forward(np.full(16, 3.25))
        assert coefficients[0] == pytest.approx(3.25)
        np.testing.assert_allclose(coefficients[1:], 0.0, atol=1e-12)

    def test_linearity(self, rng):
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        np.testing.assert_allclose(
            haar_forward(2.0 * a - 3.0 * b),
            2.0 * haar_forward(a) - 3.0 * haar_forward(b),
            atol=1e-12,
        )

    @pytest.mark.parametrize("length", [2, 4, 8, 16, 32])
    def test_matches_reference(self, length, rng):
        values = rng.normal(size=length)
        np.testing.assert_allclose(
            haar_forward(values), haar_forward_reference(values), atol=1e-12
        )

    @pytest.mark.parametrize("length", [2, 8, 16])
    def test_equation3_reconstruction(self, length, rng):
        """Per-entry reconstruction from ancestors matches the inverse."""
        values = rng.normal(size=length)
        coefficients = haar_forward(values)
        for index in range(length):
            assert haar_reconstruct_entry(coefficients, index) == pytest.approx(
                values[index]
            )


class TestWeights:
    def test_layout(self):
        np.testing.assert_array_equal(
            haar_weight_vector(8), [8, 8, 4, 4, 2, 2, 2, 2]
        )

    def test_length_one(self):
        np.testing.assert_array_equal(haar_weight_vector(1), [1.0])

    def test_rejects_non_power(self):
        with pytest.raises(TransformError):
            haar_weight_vector(6)

    def test_weight_sum_of_reciprocals(self):
        """sum 1/W over levels telescopes: base 1/m + sum 2^{i-1}/2^{l-i+1}."""
        w = haar_weight_vector(16)
        assert w[0] == 16


class TestHaarTransformClass:
    def test_padding_round_trip(self, rng):
        transform = HaarTransform(11)
        values = rng.normal(size=11)
        assert transform.padded_length == 16
        assert transform.output_length == 16
        np.testing.assert_allclose(
            transform.inverse(transform.forward(values)), values, atol=1e-12
        )

    def test_padding_round_trip_2d(self, rng):
        transform = HaarTransform(5)
        values = rng.normal(size=(5, 3))
        np.testing.assert_allclose(
            transform.inverse(transform.forward(values)), values, atol=1e-12
        )

    def test_padded_cells_are_zero(self):
        transform = HaarTransform(3)
        coefficients = transform.forward(np.array([1.0, 2.0, 3.0]))
        full = haar_inverse(coefficients)
        np.testing.assert_allclose(full[3:], 0.0, atol=1e-12)

    def test_shape_validation(self):
        transform = HaarTransform(8)
        with pytest.raises(TransformError):
            transform.forward(np.zeros(7))
        with pytest.raises(TransformError):
            transform.inverse(np.zeros(7))

    def test_sensitivity_factor(self):
        """Lemma 2: 1 + log2 m on the padded domain."""
        assert HaarTransform(8).sensitivity_factor() == 4.0
        assert HaarTransform(11).sensitivity_factor() == 5.0  # padded to 16
        assert HaarTransform(1).sensitivity_factor() == 1.0

    def test_variance_factor(self):
        assert HaarTransform(16).variance_factor() == 3.0

    def test_refine_flag_is_noop(self, rng):
        transform = HaarTransform(8)
        coefficients = transform.forward(rng.normal(size=8))
        np.testing.assert_array_equal(
            transform.inverse(coefficients, refine=True),
            transform.inverse(coefficients, refine=False),
        )

    def test_lemma2_exact_weighted_change(self):
        """Perturbing one entry changes coefficients by exactly the Lemma 2

        accounting: base moves delta/m, the level-i ancestor moves
        delta/2^(l-i+1); the weighted L1 change is (1 + log2 m) * delta.
        """
        transform = HaarTransform(16)
        weights = transform.weight_vector()
        delta = 1.0
        for position in range(16):
            bump = np.zeros(16)
            bump[position] = delta
            change = transform.forward(bump)
            weighted = float(np.abs(change * weights).sum())
            assert weighted == pytest.approx(transform.sensitivity_factor())

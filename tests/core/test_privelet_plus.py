"""Unit tests for Privelet+ (paper §VI-D / Figure 5)."""

import numpy as np
import pytest

from repro.core.basic import BasicMechanism
from repro.core.privelet_plus import PriveletPlusMechanism, select_sa
from repro.data.attributes import NominalAttribute, OrdinalAttribute
from repro.data.census import BRAZIL, census_schema
from repro.data.hierarchy import two_level_hierarchy
from repro.data.schema import Schema
from repro.errors import SchemaError


class TestSaSelection:
    def test_paper_census_choice(self):
        """§VII-A: SA = {Age, Gender} for the census schema."""
        schema = census_schema(BRAZIL)
        assert select_sa(schema) == ("Age", "Gender")

    def test_auto_resolution(self, mixed_schema):
        mechanism = PriveletPlusMechanism(sa_names="auto")
        # X(5): P=4, H=2.5 -> 40 >= 5; G(6,h3): 36 >= 6; Y(4): 18 >= 4
        assert mechanism.sa_for(mixed_schema) == ("X", "G", "Y")

    def test_explicit_sa_validated(self, mixed_schema):
        mechanism = PriveletPlusMechanism(sa_names=("Nope",))
        with pytest.raises(SchemaError):
            mechanism.sa_for(mixed_schema)

    def test_names(self):
        assert PriveletPlusMechanism(sa_names="auto").name == "Privelet+"
        assert PriveletPlusMechanism(sa_names=()).name == "Privelet"
        assert "Age" in PriveletPlusMechanism(sa_names=("Age",)).name


class TestPublish:
    def test_shape_preserved(self, mixed_table):
        result = PriveletPlusMechanism(sa_names=("X",)).publish(mixed_table, 1.0, seed=1)
        assert result.matrix.shape == mixed_table.schema.shape

    def test_accounting_matches_corollary1(self, mixed_table):
        """SA={X}: rho = P(G) P(Y) = 9; lambda = 2*9/eps."""
        result = PriveletPlusMechanism(sa_names=("X",)).publish(mixed_table, 1.0, seed=1)
        assert result.generalized_sensitivity == pytest.approx(9.0)
        assert result.noise_magnitude == pytest.approx(18.0)
        # variance bound: 2 lambda^2 * |X| * H(G) * H(Y) = 2*324*5*4*2
        assert result.variance_bound == pytest.approx(2 * 18.0**2 * 5 * 4 * 2)

    def test_sa_all_equals_basic_accounting(self, mixed_table):
        plus = PriveletPlusMechanism(sa_names=("X", "G", "Y"))
        result = plus.publish(mixed_table, 1.0, seed=1)
        assert result.noise_magnitude == pytest.approx(2.0)
        basic_bound = BasicMechanism().variance_bound(mixed_table.schema, 1.0)
        assert result.variance_bound == pytest.approx(basic_bound)

    def test_deterministic_with_seed(self, mixed_table):
        mech = PriveletPlusMechanism(sa_names=("X",))
        a = mech.publish(mixed_table, 1.0, seed=5)
        b = mech.publish(mixed_table, 1.0, seed=5)
        np.testing.assert_array_equal(a.matrix.values, b.matrix.values)

    def test_details_record_sa(self, mixed_table):
        result = PriveletPlusMechanism(sa_names=("X",)).publish(mixed_table, 1.0, seed=1)
        assert result.details["sa"] == ("X",)

    @pytest.mark.parametrize("sa", [(), ("X",), ("G",), ("Y",), ("X", "G", "Y")])
    @pytest.mark.parametrize("materialize", [False, True])
    def test_noise_never_lands_in_the_input(self, mixed_table, sa, materialize):
        """Noise is added to the forward's output in place, never to the
        caller's matrix, even when every axis is an identity axis."""
        matrix = mixed_table.frequency_matrix()
        before = matrix.values.copy()
        PriveletPlusMechanism(sa_names=sa).publish_matrix(
            matrix, 1.0, seed=3, materialize=materialize
        )
        assert np.array_equal(matrix.values, before)


class TestSplitEquivalence:
    """The vectorized implementation vs the literal Figure 5 loop."""

    def test_same_output_distribution_zero_noise(self, mixed_table):
        """At enormous epsilon both reduce to the exact matrix."""
        mech = PriveletPlusMechanism(sa_names=("X",))
        exact = mixed_table.frequency_matrix()
        vectorized = mech.publish_matrix(exact, 1e9, seed=1)
        split = mech.publish_matrix_by_splitting(exact, 1e9, seed=1)
        np.testing.assert_allclose(vectorized.matrix.values, exact.values, atol=1e-3)
        np.testing.assert_allclose(split.matrix.values, exact.values, atol=1e-3)

    def test_same_accounting(self, mixed_table):
        mech = PriveletPlusMechanism(sa_names=("X",))
        exact = mixed_table.frequency_matrix()
        vectorized = mech.publish_matrix(exact, 1.0, seed=1)
        split = mech.publish_matrix_by_splitting(exact, 1.0, seed=1)
        assert vectorized.noise_magnitude == pytest.approx(split.noise_magnitude)
        assert vectorized.generalized_sensitivity == pytest.approx(
            split.generalized_sensitivity
        )
        assert vectorized.variance_bound == pytest.approx(split.variance_bound)

    def test_split_with_all_sa(self, mixed_table):
        mech = PriveletPlusMechanism(sa_names=("X", "G", "Y"))
        exact = mixed_table.frequency_matrix()
        result = mech.publish_matrix_by_splitting(exact, 1.0, seed=2)
        assert result.matrix.shape == exact.shape
        assert result.noise_magnitude == pytest.approx(2.0)

    def test_split_statistics_match(self, mixed_table):
        """Across repeated runs, the per-cell noise variance of the two
        implementations agrees (same noise law)."""
        mech = PriveletPlusMechanism(sa_names=("X",))
        exact = mixed_table.frequency_matrix()
        reps = 60
        var_vec = np.zeros(exact.shape)
        var_split = np.zeros(exact.shape)
        for seed in range(reps):
            var_vec += (
                mech.publish_matrix(exact, 1.0, seed=seed).matrix.values - exact.values
            ) ** 2
            var_split += (
                mech.publish_matrix_by_splitting(exact, 1.0, seed=1000 + seed).matrix.values
                - exact.values
            ) ** 2
        # Compare the average variances over all cells (law of large numbers,
        # loose tolerance).
        assert var_vec.mean() / reps == pytest.approx(var_split.mean() / reps, rel=0.25)


class TestVarianceBound:
    def test_equation7(self):
        """Eq 7 on a concrete schema, computed by hand.

        Schema: A ordinal |A|=16 in SA; B nominal 8 leaves h=3.
        bound = 8/eps^2 * 16 * (3^2 * 4) = 8 * 16 * 36 = 4608 at eps=1.
        """
        schema = Schema(
            [
                OrdinalAttribute("A", 16),
                NominalAttribute("B", two_level_hierarchy([4, 4])),
            ]
        )
        mech = PriveletPlusMechanism(sa_names=("A",))
        assert mech.variance_bound(schema, 1.0) == pytest.approx(8 * 16 * 36)

    def test_good_sa_never_worse_than_both(self):
        """With the §VI-D rule, Eq 7 <= both Privelet's and Basic's bounds."""
        schema = census_schema(BRAZIL.scaled(0.1))
        eps = 1.0
        auto = PriveletPlusMechanism(sa_names="auto").variance_bound(schema, eps)
        privelet = PriveletPlusMechanism(sa_names=()).variance_bound(schema, eps)
        basic = BasicMechanism().variance_bound(schema, eps)
        assert auto <= privelet
        assert auto <= basic

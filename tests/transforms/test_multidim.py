"""Unit tests for the multi-dimensional HN transform (paper §VI)."""

import numpy as np
import pytest

from repro.data.attributes import NominalAttribute, OrdinalAttribute
from repro.data.hierarchy import flat_hierarchy
from repro.data.schema import Schema
from repro.errors import SchemaError, TransformError
from repro.transforms.base import IdentityTransform
from repro.transforms.haar import HaarTransform
from repro.transforms.multidim import (
    HNTransform,
    apply_along_axis,
    transform_for_attribute,
    weight_tensor,
)
from repro.transforms.nominal import NominalTransform
from repro.transforms.tree import haar_forward_reference, nominal_forward_reference
from repro.utils.validation import next_power_of_two


class TestFigure4:
    """The paper's worked 2-D example (Figure 4 / Example 4)."""

    def test_step_matrices(self):
        # Transform along axis 1 first to follow the paper's narration
        # (vectors <v11, v12>, <v21, v22> are the rows).
        M = np.array([[8.0, 4.0], [1.0, 5.0]])
        transform = HaarTransform(2)
        C1 = apply_along_axis(transform, M, 1)
        np.testing.assert_allclose(C1, [[6.0, 2.0], [3.0, -2.0]])
        C2 = apply_along_axis(transform, C1, 0)
        np.testing.assert_allclose(C2, [[4.5, 0.0], [1.5, 2.0]])

    def test_axis_order_commutes(self):
        """Standard decomposition: the final matrix is order-independent."""
        M = np.array([[8.0, 4.0], [1.0, 5.0]])
        transform = HaarTransform(2)
        rows_first = apply_along_axis(
            transform, apply_along_axis(transform, M, 1), 0
        )
        cols_first = apply_along_axis(
            transform, apply_along_axis(transform, M, 0), 1
        )
        np.testing.assert_allclose(rows_first, cols_first)

    def test_hn_class_matches(self):
        schema = Schema([OrdinalAttribute("r", 2), OrdinalAttribute("c", 2)])
        hn = HNTransform(schema)
        C = hn.forward(np.array([[8.0, 4.0], [1.0, 5.0]]))
        np.testing.assert_allclose(C, [[4.5, 0.0], [1.5, 2.0]])

    def test_example5_weight_product(self):
        """W_HN(c11) is the product of the two per-axis base weights.

        Note: the paper's Example 5 text quotes reciprocal values (1/2,
        1/4) relative to its own §IV-B definition (W_Haar(base) = m); the
        definitional convention — which Lemma 2's sensitivity accounting
        requires — gives 2 * 2 = 4.  The *noise magnitude* lambda/W is
        identical under both statements.
        """
        schema = Schema([OrdinalAttribute("r", 2), OrdinalAttribute("c", 2)])
        hn = HNTransform(schema)
        assert hn.weight_of((0, 0)) == 4.0


def mixed_hn(mixed_schema):
    return HNTransform(mixed_schema)


class TestRoundTrip:
    def test_mixed_schema(self, mixed_schema, rng):
        hn = HNTransform(mixed_schema)
        M = rng.normal(size=mixed_schema.shape)
        np.testing.assert_allclose(hn.inverse(hn.forward(M)), M, atol=1e-9)

    def test_output_shape(self, mixed_schema):
        hn = HNTransform(mixed_schema)
        # X: 5 -> padded 8; G: 6 leaves -> 9 nodes; Y: 4 -> 4
        assert hn.input_shape == (5, 6, 4)
        assert hn.output_shape == (8, 9, 4)

    def test_round_trip_with_sa(self, mixed_schema, rng):
        hn = HNTransform(mixed_schema, sa_names=("X",))
        M = rng.normal(size=mixed_schema.shape)
        np.testing.assert_allclose(hn.inverse(hn.forward(M)), M, atol=1e-9)
        assert hn.output_shape == (5, 9, 4)

    def test_all_sa_is_identity(self, mixed_schema, rng):
        hn = HNTransform(mixed_schema, sa_names=("X", "G", "Y"))
        M = rng.normal(size=mixed_schema.shape)
        np.testing.assert_allclose(hn.forward(M), M)

    def test_refine_false_still_inverts_exact(self, mixed_schema, rng):
        hn = HNTransform(mixed_schema)
        M = rng.normal(size=mixed_schema.shape)
        np.testing.assert_allclose(hn.inverse(hn.forward(M), refine=False), M, atol=1e-9)

    def test_linearity_proposition1(self, mixed_schema, rng):
        """Proposition 1: the HN transform is linear."""
        hn = HNTransform(mixed_schema)
        A = rng.normal(size=mixed_schema.shape)
        B = rng.normal(size=mixed_schema.shape)
        np.testing.assert_allclose(
            hn.forward(A + B), hn.forward(A) + hn.forward(B), atol=1e-9
        )

    def test_shape_validation(self, mixed_schema):
        hn = HNTransform(mixed_schema)
        with pytest.raises(TransformError):
            hn.forward(np.zeros((5, 6, 5)))
        with pytest.raises(TransformError):
            hn.inverse(np.zeros((5, 6, 4)))


def _oracle_forward(schema, sa, values):
    """Every wavelet axis through the tree oracles, one fiber at a time."""
    for axis, attribute in enumerate(schema):
        if attribute.name in sa:
            continue
        if isinstance(attribute, NominalAttribute):
            hierarchy = attribute.hierarchy
            values = np.apply_along_axis(
                lambda fiber: nominal_forward_reference(fiber, hierarchy), axis, values
            )
        else:
            padding = next_power_of_two(attribute.size) - attribute.size
            values = np.apply_along_axis(
                lambda fiber: haar_forward_reference(np.pad(fiber, (0, padding))),
                axis,
                values,
            )
    return values


class TestForwardParity:
    """One forward into one C-ordered tensor, checked against the oracles."""

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("sa", [(), ("X",), ("Y",)])
    def test_matches_tree_oracles(self, unbalanced_hierarchy, rng, position, sa):
        attributes = [OrdinalAttribute("X", 5), OrdinalAttribute("Y", 4)]
        attributes.insert(position, NominalAttribute("G", unbalanced_hierarchy))
        schema = Schema(attributes)
        hn = HNTransform(schema, sa_names=sa)
        values = rng.normal(size=schema.shape) * 10.0
        transposed = np.ascontiguousarray(values.T).T
        expected = _oracle_forward(schema, sa, values)
        for layout in (values, transposed):
            coefficients = hn.forward(layout)
            np.testing.assert_allclose(coefficients, expected, rtol=1e-12, atol=1e-12)
            assert coefficients.shape == hn.output_shape
            assert coefficients.flags.c_contiguous
        # Elementwise kernels only: the memory layout moves no bits.
        assert np.array_equal(hn.forward(values), hn.forward(transposed))

    @pytest.mark.parametrize("sa", [(), ("X",), ("G",), ("X", "G", "Y")])
    def test_never_returns_its_input(self, mixed_schema, rng, sa):
        hn = HNTransform(mixed_schema, sa_names=sa)
        values = rng.normal(size=mixed_schema.shape)
        coefficients = hn.forward(values)
        assert not np.shares_memory(coefficients, values)
        assert coefficients.flags.c_contiguous

    def test_one_dimensional_forward_into_matches_forward(self, unbalanced_hierarchy, rng):
        for transform in (
            HaarTransform(5),
            NominalTransform(unbalanced_hierarchy),
            IdentityTransform(4),
        ):
            # Both arguments strided views, as HNTransform passes them.
            values = np.moveaxis(rng.normal(size=(3, transform.input_length, 2)), 1, 0)
            out = np.empty((3, transform.output_length, 2))
            transform.forward_into(values, np.moveaxis(out, 1, 0))
            expected = transform.forward(np.ascontiguousarray(values))
            assert np.array_equal(np.moveaxis(out, 1, 0), expected)


class TestTransformSelection:
    def test_for_ordinal(self):
        assert isinstance(transform_for_attribute(OrdinalAttribute("A", 5)), HaarTransform)

    def test_for_nominal(self):
        attr = NominalAttribute("B", flat_hierarchy(4))
        assert isinstance(transform_for_attribute(attr), NominalTransform)

    def test_sa_uses_identity(self, mixed_schema):
        hn = HNTransform(mixed_schema, sa_names=("G",))
        assert isinstance(hn.transforms[1], IdentityTransform)

    def test_unknown_sa_name(self, mixed_schema):
        with pytest.raises(SchemaError):
            HNTransform(mixed_schema, sa_names=("Nope",))

    def test_duplicate_sa_name(self, mixed_schema):
        with pytest.raises(TransformError):
            HNTransform(mixed_schema, sa_names=("X", "X"))


class TestWeights:
    def test_weight_tensor_outer_product(self):
        w = weight_tensor([np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])])
        np.testing.assert_allclose(w, [[3, 4, 5], [6, 8, 10]])

    def test_weight_of_matches_tensor(self, mixed_schema):
        hn = HNTransform(mixed_schema)
        tensor = weight_tensor(hn.weight_vectors())
        assert tensor.shape == hn.output_shape
        assert hn.weight_of((0, 0, 0)) == pytest.approx(tensor[0, 0, 0])
        assert hn.weight_of((3, 5, 2)) == pytest.approx(tensor[3, 5, 2])

    def test_weight_of_arity_check(self, mixed_schema):
        with pytest.raises(TransformError):
            HNTransform(mixed_schema).weight_of((0, 0))

    def test_sa_axis_has_unit_weights(self, mixed_schema):
        hn = HNTransform(mixed_schema, sa_names=("X",))
        np.testing.assert_array_equal(hn.weight_vectors()[0], np.ones(5))


class TestFactors:
    def test_generalized_sensitivity_product(self, mixed_schema):
        """Theorem 2: rho = P(X) * P(G) * P(Y) = 4 * 3 * 3 = 36."""
        hn = HNTransform(mixed_schema)
        assert hn.generalized_sensitivity() == pytest.approx(4.0 * 3.0 * 3.0)

    def test_variance_factor_product(self, mixed_schema):
        """Theorem 3: H(X) * H(G) * H(Y) = 2.5 * 4 * 2 = 20."""
        hn = HNTransform(mixed_schema)
        assert hn.variance_bound_factor() == pytest.approx(2.5 * 4.0 * 2.0)

    def test_sa_changes_factors(self, mixed_schema):
        """Corollary 1: SA axes contribute 1 to rho and |A| to variance."""
        hn = HNTransform(mixed_schema, sa_names=("X",))
        assert hn.generalized_sensitivity() == pytest.approx(3.0 * 3.0)
        assert hn.variance_bound_factor() == pytest.approx(5.0 * 4.0 * 2.0)

    def test_theorem2_empirical(self, mixed_schema):
        """The closed-form rho is exactly the measured worst case."""
        from repro.core.sensitivity import empirical_generalized_sensitivity

        hn = HNTransform(mixed_schema)
        measured = empirical_generalized_sensitivity(hn)
        assert measured == pytest.approx(hn.generalized_sensitivity(), rel=1e-9)

    def test_theorem2_empirical_with_sa(self, mixed_schema):
        from repro.core.sensitivity import empirical_generalized_sensitivity

        hn = HNTransform(mixed_schema, sa_names=("Y",))
        measured = empirical_generalized_sensitivity(hn)
        assert measured == pytest.approx(hn.generalized_sensitivity(), rel=1e-9)


class TestIdentityTransform:
    def test_round_trip(self, rng):
        identity = IdentityTransform(6)
        values = rng.normal(size=(6, 2))
        np.testing.assert_array_equal(identity.inverse(identity.forward(values)), values)

    def test_factors(self):
        identity = IdentityTransform(6)
        assert identity.sensitivity_factor() == 1.0
        assert identity.variance_factor() == 6.0

    def test_rejects_bad_length(self):
        with pytest.raises(TransformError):
            IdentityTransform(0)

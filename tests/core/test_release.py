"""Tests for the release representations (dense vs coefficient-space)."""

import numpy as np
import pytest

from repro.core.basic import BasicMechanism
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.core.release import (
    REPRESENTATIONS,
    CoefficientRelease,
    DenseRelease,
    convert_result,
    infer_sa_names,
)
from repro.data.frequency import FrequencyMatrix
from repro.data.hierarchy import two_level_hierarchy
from repro.errors import PrivacyError, QueryError, TransformError
from repro.queries.workload import generate_workload


@pytest.fixture
def mixed_matrix(mixed_schema, rng):
    values = rng.integers(0, 25, size=mixed_schema.shape).astype(np.float64)
    return FrequencyMatrix(mixed_schema, values)


def random_boxes(schema, count, rng):
    lows = np.empty((count, schema.dimensions), dtype=np.int64)
    highs = np.empty((count, schema.dimensions), dtype=np.int64)
    for axis, size in enumerate(schema.shape):
        pairs = np.sort(rng.integers(0, size + 1, size=(count, 2)), axis=1)
        lows[:, axis], highs[:, axis] = pairs[:, 0], pairs[:, 1]
    return lows, highs


class TestDenseRelease:
    def test_answers_match_matrix_slices(self, mixed_matrix, rng):
        release = DenseRelease(mixed_matrix)
        lows, highs = random_boxes(mixed_matrix.schema, 30, rng)
        expected = [
            mixed_matrix.range_sum(list(zip(lo, hi))) for lo, hi in zip(lows, highs)
        ]
        np.testing.assert_allclose(release.answer_boxes(lows, highs), expected)

    def test_oracle_is_lazy(self, mixed_matrix):
        release = DenseRelease(mixed_matrix)
        base = release.nbytes()
        assert base == mixed_matrix.values.nbytes
        release.answer_box([(0, 2), (0, 6), (0, 1)])
        assert release.nbytes() > base  # prefix array now built

    def test_to_matrix_is_identity(self, mixed_matrix):
        assert DenseRelease(mixed_matrix).to_matrix() is mixed_matrix

    def test_marginal_delegates(self, mixed_matrix):
        release = DenseRelease(mixed_matrix)
        np.testing.assert_allclose(
            release.marginal(["X", "Y"]), mixed_matrix.marginal(["X", "Y"])
        )

    def test_rejects_non_matrix(self):
        with pytest.raises(QueryError):
            DenseRelease(np.zeros((2, 2)))


class TestCoefficientRelease:
    @pytest.mark.parametrize("sa", [(), ("X",), ("G",), ("X", "G", "Y")])
    def test_answers_match_dense_reconstruction(self, mixed_matrix, rng, sa):
        release = CoefficientRelease.from_matrix(mixed_matrix, sa)
        dense = DenseRelease(release.to_matrix())
        lows, highs = random_boxes(mixed_matrix.schema, 60, rng)
        np.testing.assert_allclose(
            release.answer_boxes(lows, highs),
            dense.answer_boxes(lows, highs),
            rtol=1e-9,
            atol=1e-8,
        )

    def test_from_matrix_round_trips_exactly(self, mixed_matrix):
        # inverse(forward(x)) = x: conversion preserves the dense matrix.
        release = CoefficientRelease.from_matrix(mixed_matrix, ("X",))
        np.testing.assert_allclose(
            release.to_matrix().values, mixed_matrix.values, atol=1e-9
        )

    def test_marginal_matches_dense(self, mixed_matrix):
        release = CoefficientRelease.from_matrix(mixed_matrix, ("X",))
        for names in (["X"], ["G", "Y"], ["Y", "X"], ["X", "G", "Y"]):
            np.testing.assert_allclose(
                release.marginal(names),
                mixed_matrix.marginal(names),
                rtol=1e-9,
                atol=1e-8,
            )

    def test_sa_names_in_schema_order(self, mixed_schema):
        coefficients = np.zeros(
            CoefficientRelease.from_matrix(
                FrequencyMatrix.zeros(mixed_schema), ("Y", "X")
            ).coefficients.shape
        )
        release = CoefficientRelease(mixed_schema, ("Y", "X"), coefficients)
        assert release.sa_names == ("X", "Y")

    def test_shape_checked(self, mixed_schema):
        with pytest.raises(TransformError):
            CoefficientRelease(mixed_schema, (), np.zeros((2, 2, 2)))

    def test_box_bounds_checked(self, mixed_matrix):
        release = CoefficientRelease.from_matrix(mixed_matrix, ())
        lows = np.asarray([[0, 0, 0]])
        highs = np.asarray([[99, 1, 1]])
        with pytest.raises(QueryError):
            release.answer_boxes(lows, highs)

    def test_empty_batch(self, mixed_matrix):
        release = CoefficientRelease.from_matrix(mixed_matrix, ())
        assert release.answer_boxes(
            np.empty((0, 3), dtype=np.int64), np.empty((0, 3), dtype=np.int64)
        ).shape == (0,)

    def test_chunking_consistent(self, mixed_matrix, rng, monkeypatch):
        # Force tiny chunks; answers must not depend on the chunk size.
        import repro.core.release as release_module

        release = CoefficientRelease.from_matrix(mixed_matrix, ("X",))
        lows, highs = random_boxes(mixed_matrix.schema, 40, rng)
        full = release.answer_boxes(lows, highs)
        monkeypatch.setattr(release_module, "_CHUNK_BUDGET", 1)
        np.testing.assert_allclose(release.answer_boxes(lows, highs), full)

    def test_nbytes_counts_serving_state(self, mixed_matrix):
        release = CoefficientRelease.from_matrix(mixed_matrix, ("X",))
        base = release.nbytes()
        assert base == release.coefficients.nbytes
        release.answer_box([(0, 1), (0, 6), (0, 4)])
        # An SA axis exists, so the prefix-summed serving tensor was built.
        assert release.nbytes() > base

    def test_no_identity_axes_serves_in_place(self, mixed_matrix):
        release = CoefficientRelease.from_matrix(mixed_matrix, ())
        release.answer_box([(0, 1), (0, 6), (0, 4)])
        assert release.nbytes() == release.coefficients.nbytes


class TestMaterializeSwitch:
    def test_same_seed_same_answers(self, mixed_matrix, rng):
        mechanism = PriveletPlusMechanism(sa_names=("X",))
        dense = mechanism.publish_matrix(mixed_matrix, 1.0, seed=11)
        coeff = mechanism.publish_matrix(mixed_matrix, 1.0, seed=11, materialize=False)
        assert dense.representation == "dense"
        assert coeff.representation == "coefficients"
        lows, highs = random_boxes(mixed_matrix.schema, 50, rng)
        np.testing.assert_allclose(
            coeff.release.answer_boxes(lows, highs),
            dense.release.answer_boxes(lows, highs),
            rtol=1e-9,
            atol=1e-8,
        )

    def test_basic_coefficients_are_the_cells(self, mixed_matrix):
        dense = BasicMechanism().publish_matrix(mixed_matrix, 1.0, seed=3)
        coeff = BasicMechanism().publish_matrix(
            mixed_matrix, 1.0, seed=3, materialize=False
        )
        np.testing.assert_array_equal(
            coeff.release.coefficients, dense.matrix.values
        )
        assert infer_sa_names(coeff) == mixed_matrix.schema.names

    def test_matrix_property_materializes(self, mixed_matrix):
        coeff = PriveletPlusMechanism(sa_names=()).publish_matrix(
            mixed_matrix, 1.0, seed=4, materialize=False
        )
        dense = PriveletPlusMechanism(sa_names=()).publish_matrix(
            mixed_matrix, 1.0, seed=4
        )
        np.testing.assert_allclose(
            coeff.matrix.values, dense.matrix.values, atol=1e-9
        )

    def test_unsupported_mechanism_refuses(self, mixed_table):
        from repro.core.framework import PublishingMechanism

        class NoCoefficients(PublishingMechanism):
            name = "stub"

        with pytest.raises(PrivacyError):
            NoCoefficients().publish(mixed_table, 1.0, materialize=False)


class TestConvertResult:
    def test_round_trip_preserves_answers(self, mixed_matrix, rng):
        result = PriveletPlusMechanism(sa_names=("X",)).publish_matrix(
            mixed_matrix, 1.0, seed=6, materialize=False
        )
        as_dense = convert_result(result, "dense")
        back = convert_result(as_dense, "coefficients")
        assert as_dense.representation == "dense"
        assert back.representation == "coefficients"
        lows, highs = random_boxes(mixed_matrix.schema, 30, rng)
        reference = result.release.answer_boxes(lows, highs)
        np.testing.assert_allclose(
            as_dense.release.answer_boxes(lows, highs), reference, rtol=1e-9, atol=1e-8
        )
        np.testing.assert_allclose(
            back.release.answer_boxes(lows, highs), reference, rtol=1e-9, atol=1e-8
        )
        # Accounting fields survive both conversions.
        assert back.epsilon == result.epsilon
        assert back.noise_magnitude == result.noise_magnitude

    def test_identity_conversion_returns_same_result(self, mixed_matrix):
        result = BasicMechanism().publish_matrix(mixed_matrix, 1.0, seed=1)
        assert convert_result(result, "dense") is result

    def test_unknown_representation_rejected(self, mixed_matrix):
        result = BasicMechanism().publish_matrix(mixed_matrix, 1.0, seed=1)
        with pytest.raises(QueryError):
            convert_result(result, "sparse")
        assert set(REPRESENTATIONS) == {"dense", "coefficients"}

    def test_sa_override_used_when_details_missing(self, mixed_matrix, rng):
        import dataclasses

        # A result whose metadata records nothing (e.g. a legacy archive):
        # conversion must honour an explicit SA set instead of failing.
        result = dataclasses.replace(
            PriveletPlusMechanism(sa_names=("X",)).publish_matrix(
                mixed_matrix, 1.0, seed=8
            ),
            details={},
        )
        with pytest.raises(QueryError):
            convert_result(result, "coefficients")
        converted = convert_result(result, "coefficients", sa_names=("X",))
        assert converted.release.sa_names == ("X",)
        lows, highs = random_boxes(mixed_matrix.schema, 20, rng)
        np.testing.assert_allclose(
            converted.release.answer_boxes(lows, highs),
            result.release.answer_boxes(lows, highs),
            rtol=1e-9,
            atol=1e-8,
        )


class TestOneDimensionalReleases:
    def test_ordinal_release_never_materializes(self, rng):
        counts = rng.integers(0, 5, size=1 << 12).astype(np.float64)
        result = publish(counts, 1.0, mechanism="privelet", seed=2)
        assert result.representation == "coefficients"
        schema = result.release.schema
        queries = generate_workload(schema, 40, seed=3)
        from repro.queries.engine import QueryEngine
        from repro.queries.oracle import RangeSumOracle

        engine = QueryEngine(result)
        np.testing.assert_allclose(
            engine.answer_all(queries),
            RangeSumOracle(result.matrix).answer_all(queries),
            rtol=1e-9,
            atol=1e-8,
        )

    def test_nominal_release(self, rng):
        hierarchy = two_level_hierarchy([3, 4, 2])
        counts = rng.integers(0, 9, size=hierarchy.num_leaves).astype(np.float64)
        result = publish(
            counts, 1.0, mechanism="privelet", hierarchy=hierarchy, seed=5
        )
        assert result.representation == "coefficients"
        total = result.release.answer_box([(0, hierarchy.num_leaves)])
        assert total == pytest.approx(float(result.matrix.values.sum()), abs=1e-8)

    def test_vector_shape_validated(self):
        with pytest.raises(PrivacyError):
            publish(np.zeros((2, 2)), 1.0, mechanism="privelet")

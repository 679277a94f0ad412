"""Tests for the release representations (dense vs coefficient-space)."""

import itertools
import math

import numpy as np
import pytest

from repro.core.basic import BasicMechanism
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.core.release import (
    REPRESENTATIONS,
    CoefficientRelease,
    DenseRelease,
    _corner_index,
    _corner_matrix,
    convert_result,
    infer_sa_names,
    prefix_tensor,
)
from repro.data.attributes import NominalAttribute, OrdinalAttribute
from repro.data.frequency import FrequencyMatrix
from repro.data.hierarchy import balanced_hierarchy, two_level_hierarchy
from repro.data.schema import Schema
from repro.errors import PrivacyError, QueryError, TransformError
from repro.queries.oracle import RangeSumOracle
from repro.queries.workload import generate_workload
from repro.transforms.multidim import HNTransform


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

    def test_nbytes_counts_serving_state(self, mixed_matrix):
        release = CoefficientRelease.from_matrix(mixed_matrix, ("X",))
        base = release.nbytes()
        assert base == release.coefficients.nbytes
        release.answer_box([(0, 1), (0, 6), (0, 4)])
        # The first answer built the prefix-sum serving tensor.
        assert release.nbytes() > base


class TestBoundValidation:
    """Box bounds must be whole numbers: truncation would answer a
    different box without an error."""

    @pytest.mark.parametrize("representation", ["dense", "coefficients"])
    def test_fractional_and_boolean_bounds_rejected(self, mixed_matrix, representation):
        release = DenseRelease(mixed_matrix)
        if representation == "coefficients":
            release = CoefficientRelease.from_matrix(mixed_matrix, ("X",))
        with pytest.raises(QueryError, match="whole numbers"):
            release.answer_boxes([[0.7, 0, 0]], [[1.9, 2, 4]])
        with pytest.raises(QueryError, match="whole numbers"):
            release.answer_boxes([[False, False, False]], [[True, True, True]])
        with pytest.raises(QueryError, match="whole numbers"):
            release.answer_boxes([["0", "0", "0"]], [["1", "1", "1"]])
        with pytest.raises(QueryError, match="whole numbers"):
            release.answer_box([(0.5, 2), (0, 6), (0, 4)])
        with pytest.raises(QueryError, match="whole numbers"):
            release.answer_boxes([[np.nan, 0, 0]], [[1, 2, 4]])

    @pytest.mark.parametrize("representation", ["dense", "coefficients"])
    def test_whole_valued_floats_accepted(self, mixed_matrix, representation):
        release = DenseRelease(mixed_matrix)
        if representation == "coefficients":
            release = CoefficientRelease.from_matrix(mixed_matrix, ("X",))
        lows, highs = [[1, 0, 0]], [[3, 2, 4]]
        expected = release.answer_boxes(lows, highs)
        np.testing.assert_array_equal(
            release.answer_boxes(np.asarray(lows, float), np.asarray(highs, float)),
            expected,
        )
        np.testing.assert_array_equal(
            release.answer_boxes(
                np.asarray(lows, np.uint8), np.asarray(highs, np.int32)
            ),
            expected,
        )


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

    @pytest.mark.parametrize("layout", ["sharded", "stream"])
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_composed_results_rejected(self, mixed_table, layout, representation):
        # A composed release serves as published; only leaves convert.
        if layout == "sharded":
            result = publish(mixed_table, 1.0, shard_by="X", shards=2, seed=8)
        else:
            stream = np.arange(mixed_table.num_rows) % 3
            result = publish(mixed_table, 1.0, stream=stream, seed=8)
        assert result.representation == layout
        with pytest.raises(QueryError, match="only leaf releases convert"):
            convert_result(result, representation)


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


# ----------------------------------------------------------------------
# Layout-parity grid: every axis kind x SA set x batch shape.
# ----------------------------------------------------------------------
#: The axis under test ("A"), beside a padded Haar axis and a nominal one.
#: Haar sizes cover power-of-two and padded domains; identity axes come
#: from the SA sets below.
AXIS_KINDS = {
    "haar1": lambda: OrdinalAttribute("A", 1),
    "haar5": lambda: OrdinalAttribute("A", 5),
    "haar8": lambda: OrdinalAttribute("A", 8),
    "haar33": lambda: OrdinalAttribute("A", 33),
    "haar257": lambda: OrdinalAttribute("A", 257),
    "nominal-two-level": lambda: NominalAttribute("A", two_level_hierarchy([3, 4, 2])),
    "nominal-balanced": lambda: NominalAttribute("A", balanced_hierarchy(9, 3)),
}
#: Three wavelet axes, two (twice), one (inverted straight into the
#: tensor, no temporary), none.
SA_SETS = [(), ("A",), ("B",), ("B", "C"), ("A", "B", "C")]
BATCHES = ["random", "full-domain", "single-cell", "empty-rows"]
#: Tolerance against the contraction ``g . c`` of the per-axis range
#: adjoints with the noisy coefficients: the same sum in another order,
#: as the former coefficient gather was (on census x0.2 the prefix tensor
#: and that gather differ by at most 6.8e-9 absolute over 12,288 boxes).
#: Against ``DenseRelease(to_matrix())`` the tolerance is zero: both build
#: the same tensor with the same code.
ADJOINT_RTOL, ADJOINT_ATOL = 1e-9, 1e-8


def _grid_batch(schema, kind, rng):
    shape = np.asarray(schema.shape)
    if kind == "full-domain":
        return np.zeros((1, shape.size), dtype=np.int64), shape[None, :].copy()
    if kind == "single-cell":
        lows = rng.integers(0, shape, size=(16, shape.size))
        return lows, lows + 1
    lows, highs = random_boxes(schema, 48, rng)
    if kind == "empty-rows":
        axes = rng.integers(0, shape.size, size=len(lows))
        highs[np.arange(len(lows)), axes] = lows[np.arange(len(lows)), axes]
    return lows, highs


def _adjoint_answers(release, lows, highs):
    """``g . c`` with ``g`` the outer product of per-axis range adjoints."""
    adjoints = [
        transform.adjoint_ranges(lows[:, axis], highs[:, axis])
        for axis, transform in enumerate(release.transform.transforms)
    ]
    return np.einsum("qa,qb,qc,abc->q", *adjoints, release.coefficients)


def _offset_copy(array, offset):
    """``array`` copied into a buffer ``offset`` floats past its start, the
    way a shared-memory attach places coefficients."""
    buffer = np.empty(array.size + offset)
    copy = buffer[offset : offset + array.size].reshape(array.shape)
    copy[...] = array
    return copy


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("sa", SA_SETS, ids=lambda sa: "SA=" + "".join(sa))
@pytest.mark.parametrize("axis_kind", list(AXIS_KINDS))
def test_layout_parity(axis_kind, sa, batch, rng):
    schema = Schema(
        [
            AXIS_KINDS[axis_kind](),
            OrdinalAttribute("B", 6),
            NominalAttribute("C", two_level_hierarchy([2, 3])),
        ]
    )
    values = rng.integers(0, 25, size=schema.shape).astype(np.float64)
    transform = HNTransform(schema, sa)
    noisy = transform.forward(values) + rng.laplace(size=transform.output_shape)
    release = CoefficientRelease(schema, sa, noisy)
    lows, highs = _grid_batch(schema, batch, rng)

    answers = release.answer_boxes(lows, highs)

    dense = DenseRelease(release.to_matrix())
    np.testing.assert_array_equal(answers, dense.answer_boxes(lows, highs))
    np.testing.assert_allclose(
        answers,
        _adjoint_answers(release, lows, highs),
        rtol=ADJOINT_RTOL,
        atol=ADJOINT_ATOL,
    )
    empty = np.any(lows == highs, axis=1)
    assert np.all(answers[empty] == 0.0)
    attached = CoefficientRelease(schema, sa, _offset_copy(noisy, 1))
    np.testing.assert_array_equal(attached.answer_boxes(lows, highs), answers)
    serving = np.prod([size + 1 for size in schema.shape]) * 8
    assert release.nbytes() == noisy.nbytes + serving


#: d = 1..5, with size-1 axes in every position that has one.
KERNEL_SHAPES = [(7,), (1,), (1, 5), (4, 1, 3), (3, 2, 1, 4), (2, 3, 1, 2, 3)]


def _kernel_batch(shape, kind, rows, rng):
    """``rows`` boxes of one ``BATCHES`` kind over ``shape``."""
    sizes = np.asarray(shape, dtype=np.int64)
    if kind == "full-domain":
        return np.zeros((rows, sizes.size), dtype=np.int64), np.tile(sizes, (rows, 1))
    if kind == "single-cell":
        lows = rng.integers(0, sizes, size=(rows, sizes.size))
        return lows, lows + 1
    pairs = np.sort(rng.integers(0, sizes + 1, size=(2, rows, sizes.size)), axis=0)
    lows, highs = pairs[0], pairs[1]
    if kind == "empty-rows":
        axes = rng.integers(0, sizes.size, size=rows)
        highs[np.arange(rows), axes] = lows[np.arange(rows), axes]
    return lows, highs


@pytest.mark.parametrize("rows", [0, 1, 256])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
def test_corner_kernel_matches_reference_loop(shape, batch, rows, rng, box_sums_reference):
    """Every leaf's one-gather kernel == the corner loop it replaced, bit
    for bit: coefficients attached at an offset (as shared memory places
    them), the dense conversion and the prefix-sum oracle."""
    schema = Schema([OrdinalAttribute(f"A{axis}", size) for axis, size in enumerate(shape)])
    transform = HNTransform(schema, ())
    noisy = transform.forward(rng.integers(0, 25, size=shape).astype(np.float64))
    noisy += rng.laplace(size=transform.output_shape)
    release = CoefficientRelease(schema, (), _offset_copy(noisy, 1))
    lows, highs = _kernel_batch(shape, batch, rows, rng)

    expected = box_sums_reference(
        prefix_tensor(shape, release._fill_prefix), lows, highs
    ).tolist()

    assert release.answer_boxes(lows, highs).tolist() == expected
    matrix = release.to_matrix()
    assert DenseRelease(matrix).answer_boxes(lows, highs).tolist() == expected
    assert RangeSumOracle(matrix).answer_boxes(lows, highs).tolist() == expected


def test_corner_index_is_exact_below_2_to_the_53(rng):
    """The float64 corner index equals Python-int arithmetic on strides
    whose products with the bounds approach 2^53: a C-order tensor of
    ``shape`` has just under 2^53 elements."""
    shape = (4093, 2097143, 1048573)
    assert 2**52 < math.prod(shape) < 2**53
    strides = (shape[1] * shape[2], shape[2], 1)
    sizes = np.asarray(shape, dtype=np.int64) - 1
    pairs = np.sort(rng.integers(0, sizes + 1, size=(2, 64, 3)), axis=0)
    lows = np.vstack([pairs[0], np.zeros((1, 3), dtype=np.int64), sizes - 1, sizes])
    highs = np.vstack([pairs[1], sizes, sizes, sizes])

    index, widths = _corner_index(_corner_matrix(strides), lows, highs)

    expected = [
        [
            sum((lo + bit * (hi - lo)) * stride
                for lo, hi, bit, stride in zip(low, high, bits, strides))
            for bits in itertools.product((0, 1), repeat=3)
        ]
        for low, high in zip(lows.tolist(), highs.tolist())
    ]
    assert index.dtype == np.int64
    assert index.tolist() == expected
    assert index.max() == math.prod(shape) - 1 > 2**52
    assert widths.tolist() == (highs - lows).tolist()

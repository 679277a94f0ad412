"""Property tests for release representations.

**Representation parity** — a mechanism published with the *same seed*
draws the same Laplace noise whether or not it materializes, and both
leaves reconstruct and prefix-sum through the same code, so the dense
and coefficient releases agree bit for bit: matrices, raw box answers,
engine estimates and noise stds.  That equality is why a release is
served in the representation it was published in and never converted
at serve time.  Archive fidelity for every release shape lives in
``tests/test_io.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basic import BasicMechanism
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.release import CoefficientRelease, DenseRelease
from repro.data.attributes import NominalAttribute, OrdinalAttribute
from repro.data.frequency import FrequencyMatrix
from repro.data.hierarchy import balanced_hierarchy, flat_hierarchy, two_level_hierarchy
from repro.data.schema import Schema
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload


@st.composite
def schema_matrix_sa(draw):
    """A small mixed schema, a counts matrix, and an SA subset."""
    d = draw(st.integers(1, 3))
    attributes = []
    for i in range(d):
        kind = draw(st.sampled_from(["ordinal", "flat", "two-level", "balanced"]))
        if kind == "ordinal":
            attributes.append(OrdinalAttribute(f"A{i}", draw(st.integers(1, 9))))
        elif kind == "flat":
            attributes.append(NominalAttribute(f"A{i}", flat_hierarchy(draw(st.integers(2, 6)))))
        elif kind == "two-level":
            groups = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
            attributes.append(NominalAttribute(f"A{i}", two_level_hierarchy(groups)))
        else:
            attributes.append(NominalAttribute(f"A{i}", balanced_hierarchy(4, 2)))
    schema = Schema(attributes)
    sa = tuple(
        attr.name for attr in schema if draw(st.booleans())
    )
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    matrix = FrequencyMatrix(
        schema, rng.integers(0, 30, size=schema.shape).astype(np.float64)
    )
    return schema, matrix, sa, seed


class TestRepresentationParity:
    """Same seed => bitwise-same draws => bitwise-same answers and stds."""

    @settings(max_examples=25, deadline=None)
    @given(case=schema_matrix_sa())
    def test_dense_and_coefficient_answers_match(self, case):
        schema, matrix, sa, seed = case
        mechanism = PriveletPlusMechanism(sa_names=sa)
        dense = mechanism.publish_matrix(matrix, 1.0, seed=seed)
        coeff = mechanism.publish_matrix(matrix, 1.0, seed=seed, materialize=False)
        assert isinstance(dense.release, DenseRelease)
        assert isinstance(coeff.release, CoefficientRelease)

        # Same Laplace draws: the coefficient tensor reconstructs to
        # exactly the dense matrix (the same inverse transform).
        np.testing.assert_array_equal(coeff.matrix.values, dense.matrix.values)

        queries = generate_workload(schema, 40, seed=seed + 1)
        dense_batch = QueryEngine(dense).answer_all_with_intervals(queries)
        coeff_batch = QueryEngine(coeff).answer_all_with_intervals(queries)
        np.testing.assert_array_equal(coeff_batch.estimates, dense_batch.estimates)
        np.testing.assert_array_equal(coeff_batch.noise_stds, dense_batch.noise_stds)

    @settings(max_examples=10, deadline=None)
    @given(case=schema_matrix_sa())
    def test_basic_parity(self, case):
        schema, matrix, _, seed = case
        dense = BasicMechanism().publish_matrix(matrix, 1.0, seed=seed)
        coeff = BasicMechanism().publish_matrix(
            matrix, 1.0, seed=seed, materialize=False
        )
        np.testing.assert_array_equal(
            coeff.release.coefficients, dense.matrix.values
        )
        queries = generate_workload(schema, 25, seed=seed + 1)
        np.testing.assert_array_equal(
            QueryEngine(coeff).answer_all(queries),
            QueryEngine(dense).answer_all(queries),
        )

    @settings(max_examples=20, deadline=None)
    @given(case=schema_matrix_sa())
    def test_degenerate_and_boundary_boxes_agree_exactly(self, case):
        """Empty boxes are an exact 0.0 on every backend.

        The raw ``answer_boxes`` path used to return 0.0 on the dense
        backend but a ~1e-16 float residue on the coefficient backend
        for ``lo == hi`` boxes; both must short-circuit to the exact
        zero, and every other box, boundary or not, must agree exactly.
        """
        schema, matrix, sa, seed = case
        mechanism = PriveletPlusMechanism(sa_names=sa)
        dense = mechanism.publish_matrix(matrix, 1.0, seed=seed)
        coeff = mechanism.publish_matrix(matrix, 1.0, seed=seed, materialize=False)
        rng = np.random.default_rng(seed + 3)
        shape = np.asarray(schema.shape, dtype=np.int64)
        n = 48
        lo_draw = rng.integers(0, shape + 1, size=(n, len(shape)))
        hi_draw = rng.integers(0, shape + 1, size=(n, len(shape)))
        lows = np.minimum(lo_draw, hi_draw)
        highs = np.maximum(lo_draw, hi_draw)
        # Force the interesting rows: degenerate at the domain edges and
        # mid-domain, the full domain, and empty on every axis at once.
        lows[0, 0] = highs[0, 0] = 0
        lows[1, 0] = highs[1, 0] = int(shape[0])
        lows[2, 0] = highs[2, 0] = int(shape[0]) // 2
        lows[3], highs[3] = 0, shape
        lows[4], highs[4] = shape, shape
        dense_answers = dense.release.answer_boxes(lows, highs)
        coeff_answers = coeff.release.answer_boxes(lows, highs)
        empty = np.any(lows == highs, axis=1)
        assert empty.any()
        assert np.all(dense_answers[empty] == 0.0)
        assert np.all(coeff_answers[empty] == 0.0)
        np.testing.assert_array_equal(coeff_answers, dense_answers)

    @settings(max_examples=10, deadline=None)
    @given(case=schema_matrix_sa())
    def test_uncertainty_is_representation_independent(self, case):
        schema, matrix, sa, seed = case
        mechanism = PriveletPlusMechanism(sa_names=sa)
        dense = mechanism.publish_matrix(matrix, 1.0, seed=seed)
        coeff = mechanism.publish_matrix(matrix, 1.0, seed=seed, materialize=False)
        queries = generate_workload(schema, 20, seed=seed + 2)
        np.testing.assert_array_equal(
            QueryEngine(coeff).noise_variances(queries),
            QueryEngine(dense).noise_variances(queries),
        )

"""Tests for the QueryEngine (answers + exact uncertainty)."""

import numpy as np
import pytest

from repro.core.basic import BasicMechanism
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.errors import QueryError
from repro.queries.engine import QueryAnswer, QueryEngine
from repro.queries.predicate import interval_predicate
from repro.queries.query import RangeCountQuery
from repro.queries.workload import generate_workload
from repro.utils.stats import gaussian_quantile


@pytest.fixture
def published(mixed_table):
    return PriveletPlusMechanism(sa_names=("X",)).publish(mixed_table, 1.0, seed=5)


@pytest.fixture
def published_coefficients(mixed_table):
    """The same publish as ``published`` without materializing ``M*``."""
    return PriveletPlusMechanism(sa_names=("X",)).publish(
        mixed_table, 1.0, seed=5, materialize=False
    )


class TestGaussianQuantile:
    @pytest.mark.parametrize("p,expected", [(0.5, 0.0), (0.975, 1.959964), (0.025, -1.959964)])
    def test_known_values(self, p, expected):
        assert gaussian_quantile(p) == pytest.approx(expected, abs=1e-5)

    def test_symmetry(self):
        assert gaussian_quantile(0.9) == pytest.approx(-gaussian_quantile(0.1), abs=1e-9)

    def test_bounds(self):
        with pytest.raises(QueryError):
            gaussian_quantile(0.0)


class TestEngine:
    def test_answers_match_oracle(self, published, mixed_table):
        from repro.queries.oracle import RangeSumOracle

        engine = QueryEngine(published)
        queries = generate_workload(mixed_table.schema, 50, seed=6)
        np.testing.assert_allclose(
            engine.answer_all(queries),
            RangeSumOracle(published.matrix).answer_all(queries),
        )

    def test_variance_below_published_bound(self, published, mixed_table):
        engine = QueryEngine(published)
        for query in generate_workload(mixed_table.schema, 50, seed=7):
            assert engine.noise_variance(query) <= published.variance_bound * (1 + 1e-9)

    def test_basic_result_inferred(self, mixed_table):
        result = BasicMechanism().publish(mixed_table, 1.0, seed=8)
        engine = QueryEngine(result)
        query = RangeCountQuery(mixed_table.schema)
        # Basic, full coverage: variance = m * 8 / eps^2 exactly.
        assert engine.noise_variance(query) == pytest.approx(
            8.0 * mixed_table.schema.num_cells
        )

    def test_unknown_configuration_rejected(self, published):
        from dataclasses import replace

        stripped = replace(published, details={})
        with pytest.raises(QueryError):
            QueryEngine(stripped)

    def test_interval_contains_estimate(self, published, mixed_table):
        engine = QueryEngine(published)
        query = generate_workload(mixed_table.schema, 1, seed=9)[0]
        answer = engine.answer_with_interval(query, confidence=0.9)
        assert isinstance(answer, QueryAnswer)
        assert answer.lower <= answer.estimate <= answer.upper
        assert answer.noise_std > 0
        assert answer.confidence == 0.9

    def test_interval_widens_with_confidence(self, published, mixed_table):
        engine = QueryEngine(published)
        query = generate_workload(mixed_table.schema, 1, seed=10)[0]
        narrow = engine.answer_with_interval(query, confidence=0.8)
        wide = engine.answer_with_interval(query, confidence=0.99)
        assert (wide.upper - wide.lower) > (narrow.upper - narrow.lower)

    def test_interval_coverage_monte_carlo(self, mixed_table):
        """Across repeated publishes, the 90% interval covers the exact
        answer ~90% of the time (within sampling slack)."""
        schema = mixed_table.schema
        exact_matrix = mixed_table.frequency_matrix()
        query = RangeCountQuery(
            schema, (interval_predicate(schema["X"], 1, 3),)
        )
        exact = query.evaluate(exact_matrix)
        mechanism = PriveletPlusMechanism(sa_names=("X",))
        covered = 0
        reps = 400
        for seed in range(reps):
            result = mechanism.publish_matrix(exact_matrix, 1.0, seed=seed)
            answer = QueryEngine(result).answer_with_interval(query, confidence=0.9)
            covered += answer.lower <= exact <= answer.upper
        assert covered / reps >= 0.85

    def test_confidence_bounds_validated(self, published, mixed_table):
        engine = QueryEngine(published)
        query = RangeCountQuery(mixed_table.schema)
        with pytest.raises(QueryError):
            engine.answer_with_interval(query, confidence=1.0)


class TestBatchAnswers:
    def test_matches_looped_single_queries(self, published, mixed_table):
        """The acceptance criterion: batch == loop, to float tolerance."""
        engine = QueryEngine(published)
        queries = generate_workload(mixed_table.schema, 60, seed=13)
        batch = engine.answer_all_with_intervals(queries, confidence=0.9)
        assert len(batch) == 60
        for index, query in enumerate(queries):
            single = engine.answer_with_interval(query, confidence=0.9)
            assert batch.estimates[index] == pytest.approx(single.estimate)
            assert batch.noise_stds[index] == pytest.approx(single.noise_std)
            assert batch.lowers[index] == pytest.approx(single.lower)
            assert batch.uppers[index] == pytest.approx(single.upper)

    def test_stds_match_independent_variance_path(self, published, mixed_table):
        """Cross-check against the module-level exact-variance function
        (a separate code path from the engine's compiled cache)."""
        from repro.analysis.exact import query_noise_variance

        engine = QueryEngine(published)
        queries = generate_workload(mixed_table.schema, 40, seed=14)
        batch = engine.answer_all_with_intervals(queries)
        for index, query in enumerate(queries):
            expected = query_noise_variance(
                engine._transform, query, published.noise_magnitude
            )
            assert batch.noise_stds[index] ** 2 == pytest.approx(expected)

    def test_getitem_and_iter(self, published, mixed_table):
        engine = QueryEngine(published)
        queries = generate_workload(mixed_table.schema, 5, seed=15)
        batch = engine.answer_all_with_intervals(queries, confidence=0.8)
        answers = list(batch)
        assert len(answers) == 5
        assert isinstance(batch[2], QueryAnswer)
        assert batch[2] == answers[2]
        assert answers[0].confidence == 0.8

    @pytest.mark.parametrize("fixture", ["published", "published_coefficients"])
    def test_fractional_bounds_rejected(self, fixture, request):
        # A fractional or boolean bound used to be truncated, answering a
        # different box without an error.
        engine = QueryEngine(request.getfixturevalue(fixture))
        for lows, highs in (
            ([[0.7, 0, 0]], [[1.9, 2, 4]]),
            ([[False, False, False]], [[True, True, True]]),
        ):
            with pytest.raises(QueryError, match="whole numbers"):
                engine.answer_columnar(lows, highs)
            with pytest.raises(QueryError, match="whole numbers"):
                engine.noise_variances_columnar(lows, highs)
        whole = engine.answer_columnar([[0.0, 0.0, 0.0]], [[1.0, 2.0, 4.0]])
        exact = engine.answer_columnar([[0, 0, 0]], [[1, 2, 4]])
        assert whole.estimates.tolist() == exact.estimates.tolist()

    def test_empty_batch(self, published):
        batch = QueryEngine(published).answer_all_with_intervals([])
        assert len(batch) == 0

    def test_confidence_validated(self, published, mixed_table):
        engine = QueryEngine(published)
        queries = generate_workload(mixed_table.schema, 2, seed=17)
        with pytest.raises(QueryError):
            engine.answer_all_with_intervals(queries, confidence=0.0)

    @pytest.mark.parametrize("confidence", ["0.9", None, [0.9], True, float("nan")])
    def test_non_number_confidence_is_a_query_error(
        self, published, mixed_table, confidence
    ):
        # Only real numbers pass; these used to raise a bare TypeError
        # (or, for a string, compare against floats at all).
        engine = QueryEngine(published)
        query = RangeCountQuery(mixed_table.schema)
        lows, highs = np.zeros((1, 3), dtype=np.int64), np.ones((1, 3), dtype=np.int64)
        with pytest.raises(QueryError, match="confidence"):
            engine.answer_columnar(lows, highs, confidence)
        with pytest.raises(QueryError, match="confidence"):
            engine.answer_with_interval(query, confidence)
        with pytest.raises(QueryError, match="confidence"):
            engine.answer_all_with_intervals([query], confidence)


class TestStdsArePureFunctionsOfTheBox:
    """A std depends on its box alone, never on the batch around it.

    Census Brazil x0.2 with Occupation left out of the SA set, so the
    nominal axis is a wavelet axis with 102 leaves.
    """

    @pytest.fixture(scope="class")
    def census(self):
        from repro.analysis.exact import query_boxes
        from repro.data.census import BRAZIL, generate_census_table

        table = generate_census_table(BRAZIL.scaled(0.2), 20_000, seed=0)
        result = PriveletPlusMechanism(sa_names=("Age", "Gender", "Income")).publish(
            table, 1.0, seed=1, materialize=False
        )
        queries = generate_workload(table.schema, 256, seed=3)
        return result, *query_boxes(queries, table.schema.shape)

    def test_batch_reversed_and_single_rows_agree(self, census):
        from repro.transforms.nominal import NominalTransform

        result, lows, highs = census
        engine = QueryEngine(result)
        occupation = engine.schema.axes_of(["Occupation"])[0]
        assert isinstance(engine.transform.transforms[occupation], NominalTransform)
        batch = engine.answer_columnar(lows, highs).noise_stds
        backwards = QueryEngine(result).answer_columnar(lows[::-1], highs[::-1])
        single = QueryEngine(result)
        alone = [
            single.answer_columnar(lows[row : row + 1], highs[row : row + 1])
            .noise_stds[0]
            for row in range(len(lows))
        ]
        assert backwards.noise_stds[::-1].tolist() == batch.tolist()
        assert alone == batch.tolist()


class TestCoefficientBackend:
    """The engine must behave identically on a coefficient release."""

    def test_backend_inferred_from_release(self, published_coefficients):
        engine = QueryEngine(published_coefficients)
        assert engine.release.representation == "coefficients"
        assert "backend=coefficients" in repr(engine)

    def test_answers_match_dense_engine(
        self, published, published_coefficients, mixed_table
    ):
        queries = generate_workload(mixed_table.schema, 80, seed=21)
        dense = QueryEngine(published).answer_all(queries)
        coeff = QueryEngine(published_coefficients).answer_all(queries)
        np.testing.assert_allclose(coeff, dense, rtol=1e-9, atol=1e-8)

    def test_intervals_match_dense_engine(
        self, published, published_coefficients, mixed_table
    ):
        queries = generate_workload(mixed_table.schema, 30, seed=22)
        dense = QueryEngine(published).answer_all_with_intervals(queries)
        coeff = QueryEngine(published_coefficients).answer_all_with_intervals(queries)
        np.testing.assert_allclose(coeff.estimates, dense.estimates, rtol=1e-9, atol=1e-8)
        np.testing.assert_allclose(coeff.noise_stds, dense.noise_stds, rtol=1e-12)
        np.testing.assert_allclose(coeff.lowers, dense.lowers, rtol=1e-9, atol=1e-8)

    def test_marginals_match_dense_engine(self, published, published_coefficients):
        dense_values, dense_stds = QueryEngine(published).marginal_with_std(["X", "G"])
        coeff_values, coeff_stds = QueryEngine(published_coefficients).marginal_with_std(
            ["X", "G"]
        )
        np.testing.assert_allclose(coeff_values, dense_values, rtol=1e-9, atol=1e-8)
        np.testing.assert_allclose(coeff_stds, dense_stds, rtol=1e-12)

    def test_single_answer_path(self, published_coefficients, mixed_table):
        engine = QueryEngine(published_coefficients)
        query = generate_workload(mixed_table.schema, 1, seed=23)[0]
        assert engine.answer(query) == pytest.approx(
            engine.answer_all([query])[0]
        )

    def test_schema_mismatch_rejected(self, published_coefficients):
        from repro.data.attributes import OrdinalAttribute
        from repro.data.schema import Schema

        other = Schema([OrdinalAttribute("Z", 3)])
        with pytest.raises(QueryError):
            QueryEngine(published_coefficients).answer(RangeCountQuery(other))


class TestMarginals:
    def test_values_match_matrix_marginal(self, published):
        engine = QueryEngine(published)
        values, stds = engine.marginal_with_std(["X", "Y"])
        np.testing.assert_allclose(
            values, published.matrix.marginal(["X", "Y"])
        )
        assert stds.shape == values.shape
        assert np.all(stds > 0)

    def test_stds_match_query_variances(self, published, mixed_table):
        """Every marginal cell's std^2 equals the exact variance of the
        corresponding range-count query."""
        engine = QueryEngine(published)
        schema = mixed_table.schema
        _, stds = engine.marginal_with_std(["X"])
        for i in range(schema["X"].size):
            query = RangeCountQuery(
                schema, (interval_predicate(schema["X"], i, i),)
            )
            assert stds[i] ** 2 == pytest.approx(engine.noise_variance(query))

    def test_axis_order_follows_request(self, published):
        engine = QueryEngine(published)
        values_xy, stds_xy = engine.marginal_with_std(["X", "Y"])
        values_yx, stds_yx = engine.marginal_with_std(["Y", "X"])
        np.testing.assert_allclose(values_yx, values_xy.T)
        np.testing.assert_allclose(stds_yx, stds_xy.T)

    def test_duplicates_rejected(self, published):
        with pytest.raises(QueryError):
            QueryEngine(published).marginal_with_std(["X", "X"])

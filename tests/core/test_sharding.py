"""Tests for sharded releases (parallel composition of shard publishes)."""

import numpy as np
import pytest

from repro.analysis.exact import query_boxes
from repro.core.basic import BasicMechanism
from repro.core.compose import ComposedPart, Partition
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.core.sharding import (
    partition_table,
    shard_bounds,
    shard_schema,
    shard_seeds,
)
from repro.data.census import BRAZIL, generate_census_table
from repro.errors import SchemaError
from repro.queries.engine import QueryEngine
from repro.queries.predicate import Predicate
from repro.queries.query import RangeCountQuery
from repro.queries.workload import generate_workload

SHARDS = 4


@pytest.fixture(scope="module")
def table():
    return generate_census_table(BRAZIL.scaled(0.1), 8_000, seed=0)


@pytest.fixture(scope="module")
def sharded(table):
    return publish(
        table,
        1.0,
        mechanism=PriveletPlusMechanism(sa_names="auto"),
        shard_by="Age",
        shards=SHARDS,
        seed=7,
        representation="coefficients",
    )


@pytest.fixture(scope="module")
def per_shard(table):
    """The same shards published one by one with the derived seeds."""
    bounds = shard_bounds(table.schema["Age"].size, SHARDS)
    tables = partition_table(table, "Age", bounds)
    mechanism = PriveletPlusMechanism(sa_names="auto")
    return bounds, [
        mechanism.publish(shard, 1.0, seed=seed, materialize=False)
        for shard, seed in zip(tables, shard_seeds(7, SHARDS))
    ]


def _clip(bounds, axis, lows, highs, index):
    """Clip a box batch to shard ``index``; returns (mask, lows, highs)."""
    lo_b, hi_b = bounds[index], bounds[index + 1]
    clip_lo = np.maximum(lows[:, axis], lo_b)
    clip_hi = np.minimum(highs[:, axis], hi_b)
    mask = clip_lo < clip_hi
    sub_lows = lows[mask].copy()
    sub_highs = highs[mask].copy()
    sub_lows[:, axis] = clip_lo[mask] - lo_b
    sub_highs[:, axis] = clip_hi[mask] - lo_b
    return mask, sub_lows, sub_highs


class TestPartitioning:
    def test_shard_bounds_are_balanced_and_cover(self):
        bounds = shard_bounds(101, 4)
        assert bounds[0] == 0 and bounds[-1] == 101
        widths = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        assert max(widths) - min(widths) <= 1

    def test_more_shards_than_values_rejected(self):
        with pytest.raises(SchemaError, match="non-empty"):
            shard_bounds(3, 5)

    def test_partition_is_disjoint_and_covers(self, table):
        bounds = shard_bounds(table.schema["Age"].size, SHARDS)
        shards = partition_table(table, "Age", bounds)
        assert sum(shard.num_rows for shard in shards) == table.num_rows
        axis = table.schema.index_of("Age")
        for index, shard in enumerate(shards):
            width = bounds[index + 1] - bounds[index]
            assert shard.schema["Age"].size == width
            if shard.num_rows:
                column = shard.rows[:, axis]
                assert column.min() >= 0 and column.max() < width

    def test_partition_frequencies_recompose(self, table):
        bounds = shard_bounds(table.schema["Age"].size, SHARDS)
        shards = partition_table(table, "Age", bounds)
        axis = table.schema.index_of("Age")
        stacked = np.concatenate(
            [shard.frequency_matrix().values for shard in shards], axis=axis
        )
        np.testing.assert_array_equal(
            stacked, table.frequency_matrix().values
        )

    def test_nominal_partition_attribute_rejected(self, table):
        with pytest.raises(SchemaError, match="ordinal"):
            partition_table(table, "Occupation", (0, 50, 100))

    def test_bad_bounds_rejected(self, table):
        size = table.schema["Age"].size
        for bounds in [(0, size), (1, size), (0, 50, 50, size), (0, size, 5)]:
            if bounds == (0, size):
                continue  # a single full-domain shard is legal
            with pytest.raises(SchemaError):
                partition_table(table, "Age", bounds)

    def test_shard_schema_restricts_one_attribute(self, table):
        sub = shard_schema(table.schema, "Age", 10, 30)
        assert sub["Age"].size == 20
        assert sub.names == table.schema.names
        assert sub.shape[1:] == table.schema.shape[1:]

    def test_shard_seeds_are_deterministic(self):
        first = shard_seeds(7, 3)
        second = shard_seeds(7, 3)
        for a, b in zip(first, second):
            assert a.entropy == b.entropy and a.spawn_key == b.spawn_key
        assert shard_seeds(None, 3) == [None, None, None]


class TestSameSeedParity:
    """ISSUE acceptance: sharded answers/variances == per-shard aggregation."""

    def test_estimates_match_per_shard_ground_truth(self, table, sharded, per_shard):
        bounds, results = per_shard
        queries = generate_workload(table.schema, 120, seed=3)
        lows, highs = query_boxes(queries, table.schema.shape)
        axis = table.schema.index_of("Age")
        expected = np.zeros(len(queries))
        for index, result in enumerate(results):
            mask, sub_lows, sub_highs = _clip(bounds, axis, lows, highs, index)
            expected[mask] += result.release.answer_boxes(sub_lows, sub_highs)
        actual = QueryEngine(sharded).answer_all(queries)
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-9)

    def test_noise_variances_sum_over_shards(self, table, sharded, per_shard):
        bounds, results = per_shard
        queries = generate_workload(table.schema, 80, seed=4)
        lows, highs = query_boxes(queries, table.schema.shape)
        axis = table.schema.index_of("Age")
        expected = np.zeros(len(queries))
        for index, result in enumerate(results):
            mask, sub_lows, sub_highs = _clip(bounds, axis, lows, highs, index)
            products = np.ones(len(sub_lows))
            for a, transform in enumerate(QueryEngine(result).transform.transforms):
                products *= transform.range_profiles(sub_lows[:, a], sub_highs[:, a])
            expected[mask] += 2.0 * result.noise_magnitude**2 * products
        actual = QueryEngine(sharded).noise_variances(queries)
        np.testing.assert_allclose(actual, expected, rtol=1e-12)

    def test_parallel_and_sequential_publish_agree(self, table):
        kwargs = dict(shard_by="Age", shards=3, seed=11, representation="coefficients")
        parallel = publish(table, 1.0, parallel=True, **kwargs)
        serial = publish(table, 1.0, parallel=False, **kwargs)
        queries = generate_workload(table.schema, 40, seed=5)
        np.testing.assert_array_equal(
            QueryEngine(parallel).answer_all(queries),
            QueryEngine(serial).answer_all(queries),
        )

    def test_republishing_one_shard_reproduces_its_noise(self, table, per_shard):
        bounds, results = per_shard
        tables = partition_table(table, "Age", bounds)
        again = PriveletPlusMechanism(sa_names="auto").publish(
            tables[2], 1.0, seed=shard_seeds(7, SHARDS)[2], materialize=False
        )
        np.testing.assert_array_equal(
            again.release.coefficients, results[2].release.coefficients
        )


class TestShardedRelease:
    def test_routing_touches_only_intersecting_shards(self, table, per_shard):
        bounds, results = per_shard
        slots = [
            ComposedPart(
                result.release.schema,
                result.release.sa_names,
                result.noise_magnitude,
                lambda result=result: result,
            )
            for result in results
        ]
        release = Partition(table.schema, "Age", bounds, slots)
        assert release.shards_loaded == 0
        narrow = RangeCountQuery(
            table.schema, (Predicate("Age", bounds[1], bounds[2]),)
        )
        release.answer_box(narrow.box())
        assert release.shards_loaded == 1
        # Exact variances need no payload at all.
        lows, highs = query_boxes(
            generate_workload(table.schema, 10, seed=9), table.schema.shape
        )
        release.noise_variances_boxes(lows, highs)
        assert release.shards_loaded == 1

    def test_degenerate_boxes_are_exactly_zero(self, table, sharded):
        d = table.schema.dimensions
        lows = np.zeros((3, d), dtype=np.int64)
        highs = np.asarray([list(table.schema.shape)] * 3, dtype=np.int64)
        lows[0, 0] = highs[0, 0] = 40          # empty on the partition axis
        lows[1, 1] = highs[1, 1] = 1           # empty on another axis
        answers = sharded.release.answer_boxes(lows, highs)
        assert answers[0] == 0.0 and answers[1] == 0.0
        variances = sharded.release.noise_variances_boxes(lows, highs)
        assert variances[0] == 0.0 and variances[1] == 0.0
        assert answers[2] != 0.0 and variances[2] > 0.0

    def test_to_matrix_concatenates_shards(self, table, sharded, per_shard):
        bounds, results = per_shard
        axis = table.schema.index_of("Age")
        expected = np.concatenate(
            [result.release.to_matrix().values for result in results], axis=axis
        )
        np.testing.assert_allclose(
            sharded.release.to_matrix().values, expected, rtol=1e-9, atol=1e-9
        )

    def test_marginal_matches_materialized_matrix(self, sharded):
        marginal = sharded.release.marginal(["Gender", "Age"])
        dense = sharded.release.to_matrix().marginal(["Gender", "Age"])
        np.testing.assert_allclose(marginal, dense, rtol=1e-9, atol=1e-6)

    def test_marginal_with_std_has_positive_stds(self, sharded):
        values, stds = QueryEngine(sharded).marginal_with_std(["Gender"])
        assert values.shape == stds.shape == (2,)
        assert np.all(stds > 0)

    def test_wrong_shard_count_rejected(self, table, per_shard):
        bounds, results = per_shard
        with pytest.raises(SchemaError, match="expected"):
            Partition(table.schema, "Age", bounds, results[:-1])

    def test_non_result_shard_rejected(self, table, per_shard):
        bounds, results = per_shard
        with pytest.raises(SchemaError, match="ComposedPart"):
            Partition(
                table.schema, "Age", bounds, [object()] + list(results[1:])
            )

    def test_accounting_aggregates(self, sharded, per_shard):
        _, results = per_shard
        assert sharded.epsilon == 1.0
        assert sharded.noise_magnitude == max(r.noise_magnitude for r in results)
        assert sharded.variance_bound == pytest.approx(
            sum(r.variance_bound for r in results)
        )
        assert sharded.details["sharded"] is True
        assert sharded.details["shards"] == SHARDS

    def test_intervals_cover_like_any_backend(self, sharded):
        queries = generate_workload(sharded.release.schema, 30, seed=8)
        batch = QueryEngine(sharded).answer_all_with_intervals(queries, 0.9)
        assert np.all(batch.lowers <= batch.estimates)
        assert np.all(batch.estimates <= batch.uppers)
        assert np.all(batch.noise_stds > 0)


class TestOtherMechanisms:
    @pytest.mark.parametrize("mechanism", [BasicMechanism(), PriveletPlusMechanism(sa_names=())])
    def test_sharding_works_per_mechanism(self, table, mechanism):
        result = publish(
            table, 1.0, mechanism=mechanism, shard_by="Age", shards=2, seed=3
        )
        queries = generate_workload(table.schema, 15, seed=2)
        batch = QueryEngine(result).answer_all_with_intervals(queries)
        assert np.all(np.isfinite(batch.estimates))
        assert np.all(batch.noise_stds > 0)

"""The unified publish() facade: every shape, seeded and validated."""

import numpy as np
import pytest

import repro
from repro.analysis.exact import query_boxes
from repro.core.compose import Partition, TimeTree
from repro.core.privelet import PriveletMechanism
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.core.sharding import shard_bounds, shard_schema
from repro.data.attributes import NominalAttribute
from repro.data.census import BRAZIL, census_schema, generate_census_table
from repro.data.frequency import FrequencyMatrix
from repro.data.hierarchy import balanced_hierarchy
from repro.data.schema import Schema
from repro.data.table import Table
from repro.errors import PrivacyError, StreamingError
from repro.queries.workload import generate_workload
from repro.streaming import StreamingPublisher

SPEC = BRAZIL.scaled(0.05)


def _assert_same_result(got, want):
    assert type(got.release) is type(want.release)
    np.testing.assert_array_equal(
        got.release.to_matrix().values, want.release.to_matrix().values
    )
    assert got.epsilon == want.epsilon
    assert got.noise_magnitude == want.noise_magnitude
    assert got.variance_bound == want.variance_bound


def _shape_publish(shape: str, seed: int):
    """One publish of each shape the facade composes, under ``seed``."""
    table = generate_census_table(SPEC, 600, seed=5)
    timestamps = np.arange(table.rows.shape[0]) % 3
    if shape == "ordinal vector":
        return publish(np.arange(32, dtype=np.float64), 0.5, seed=seed)
    if shape == "nominal vector":
        return publish(
            np.arange(27, dtype=np.float64),
            0.5,
            hierarchy=balanced_hierarchy(27, fanout=3),
            seed=seed,
        )
    if shape == "table":
        return publish(table, 1.0, seed=seed)
    if shape == "matrix":
        return publish(table.frequency_matrix(), 1.0, seed=seed)
    if shape == "sharded":
        return publish(table, 1.0, shard_by="Age", shards=3, seed=seed)
    if shape == "stream":
        return publish(table, 1.0, stream=timestamps, seed=seed)
    return publish(
        table, 1.0, shard_by="Age", shards=2, stream=timestamps, seed=seed
    )


SHAPES = (
    "ordinal vector", "nominal vector", "table", "matrix", "sharded", "stream",
    "sharded stream",
)


@pytest.mark.parametrize("shape", SHAPES)
def test_same_seed_same_noise(shape):
    first, again = _shape_publish(shape, 9), _shape_publish(shape, 9)
    other = _shape_publish(shape, 10)
    schema = first.release.schema
    lows, highs = query_boxes(generate_workload(schema, 30, seed=6), schema.shape)
    answers = first.release.answer_boxes(lows, highs)
    np.testing.assert_array_equal(answers, again.release.answer_boxes(lows, highs))
    assert not np.array_equal(answers, other.release.answer_boxes(lows, highs))


class TestLeafPublish:
    def test_nominal_vector_matches_mechanism_bitwise(self):
        hierarchy = balanced_hierarchy(27, fanout=3)
        counts = np.arange(27, dtype=np.float64)
        matrix = FrequencyMatrix(
            Schema([NominalAttribute("value", hierarchy)]), counts
        )
        want = PriveletMechanism().publish_matrix(
            matrix, 0.5, seed=4, materialize=False
        )
        got = publish(
            counts, 0.5, mechanism="privelet", hierarchy=hierarchy, seed=4
        )
        np.testing.assert_array_equal(
            got.release.coefficients, want.release.coefficients
        )
        _assert_same_result(got, want)

    def test_counts_default_to_coefficients(self):
        result = publish(np.ones(16), 1.0, seed=0)
        assert result.representation == "coefficients"
        dense = publish(np.ones(16), 1.0, seed=0, representation="dense")
        assert dense.representation == "dense"

    def test_table_publish_matches_mechanism(self):
        table = generate_census_table(SPEC, 500, seed=1)
        want = PriveletPlusMechanism(sa_names="auto").publish(
            table, 1.0, seed=2
        )
        got = publish(table, 1.0, seed=2)
        _assert_same_result(got, want)

    def test_matrix_publish_matches_mechanism(self):
        schema = census_schema(SPEC)
        matrix = generate_census_table(SPEC, 500, seed=1).frequency_matrix()
        want = PriveletPlusMechanism(sa_names="auto").publish_matrix(
            matrix, 1.0, seed=2
        )
        got = publish(matrix, 1.0, seed=2)
        assert isinstance(matrix, FrequencyMatrix)
        assert schema.shape == matrix.shape
        _assert_same_result(got, want)


class TestShardedPublish:
    def test_pool_matches_serial_bitwise(self):
        table = generate_census_table(SPEC, 1_000, seed=5)
        serial = publish(
            table, 1.0, shard_by="Age", shards=3, seed=11, parallel=False
        )
        pooled = publish(table, 1.0, shard_by="Age", shards=3, seed=11)
        queries = generate_workload(table.schema, 40, seed=6)
        lows, highs = query_boxes(queries, table.schema.shape)
        np.testing.assert_array_equal(
            pooled.release.answer_boxes(lows, highs),
            serial.release.answer_boxes(lows, highs),
        )
        assert pooled.details == serial.details

    def test_shard_by_requires_table(self):
        with pytest.raises(PrivacyError, match="requires a Table"):
            publish(np.ones(8), 1.0, shard_by="Age")


class TestStreamParity:
    def test_stream_matches_manual_publisher(self):
        table = generate_census_table(SPEC, 600, seed=7)
        timestamps = np.arange(table.rows.shape[0]) % 5
        got = publish(table, 1.0, stream=timestamps, seed=13)
        assert isinstance(got.release, TimeTree)
        assert got.release.epochs == 5

        publisher = StreamingPublisher(
            table.schema, PriveletPlusMechanism(sa_names="auto"), 1.0, seed=13
        )
        publisher.ingest(table, timestamps=timestamps)
        for _ in range(5):
            publisher.advance_epoch()
        want = publisher.result()
        queries = generate_workload(table.schema, 30, seed=8)
        lows, highs = query_boxes(queries, table.schema.shape)
        np.testing.assert_array_equal(
            got.release.answer_boxes(lows, highs),
            want.release.answer_boxes(lows, highs),
        )
        assert got.variance_bound == want.variance_bound

    def test_stream_dict_config(self):
        table = generate_census_table(SPEC, 200, seed=7)
        timestamps = np.arange(table.rows.shape[0]) % 6
        result = publish(
            table,
            1.0,
            stream={"timestamps": timestamps, "epoch_length": 2, "epochs": 4},
            seed=1,
        )
        assert result.release.epochs == 4
        assert result.details["epoch_length"] == 2

    def test_stream_requires_matching_timestamps(self):
        table = generate_census_table(SPEC, 100, seed=7)
        with pytest.raises(StreamingError, match="timestamps for"):
            publish(table, 1.0, stream=np.arange(3))

    def test_sharded_stream_composes(self):
        table = generate_census_table(SPEC, 800, seed=9)
        timestamps = np.arange(table.rows.shape[0]) % 4
        result = publish(
            table, 1.0, shard_by="Age", shards=2, stream=timestamps, seed=17
        )
        release = result.release
        assert isinstance(release, Partition)
        for index in range(release.num_parts):
            assert isinstance(release.part_result(index).release, TimeTree)
        assert result.details["sharded"] and result.details["stream"]

        # Per-shard noise is a pure function of (seed, shard): shard i
        # equals a standalone stream publish of its slice.
        schema = table.schema
        bounds = shard_bounds(schema[0].size, 2)
        lo, hi = bounds[0], bounds[1]
        mask = (table.rows[:, 0] >= lo) & (table.rows[:, 0] < hi)
        rows = table.rows[mask].copy()
        rows[:, 0] -= lo
        sub = Table(shard_schema(schema, "Age", lo, hi), rows)
        shard_seed = int(
            np.random.SeedSequence(entropy=17, spawn_key=(0,)).generate_state(
                1, dtype=np.uint64
            )[0]
        )
        solo = publish(
            sub,
            1.0,
            stream={"timestamps": timestamps[mask], "epochs": 4},
            seed=shard_seed,
        )
        queries = generate_workload(sub.schema, 20, seed=10)
        lows, highs = query_boxes(queries, sub.schema.shape)
        np.testing.assert_array_equal(
            release.part_result(0).release.answer_boxes(lows, highs),
            solo.release.answer_boxes(lows, highs),
        )


class TestValidation:
    def test_unknown_mechanism_rejected(self):
        with pytest.raises(PrivacyError, match="unknown mechanism"):
            publish(np.ones(4), 1.0, mechanism="laplace-tree")

    def test_non_string_mechanism_rejected(self):
        with pytest.raises(PrivacyError, match="PublishingMechanism"):
            publish(np.ones(4), 1.0, mechanism=42)

    def test_bad_representation_rejected(self):
        with pytest.raises(PrivacyError, match="representation"):
            publish(np.ones(4), 1.0, representation="sparse")

    def test_hierarchy_on_table_rejected(self):
        table = generate_census_table(SPEC, 50, seed=0)
        with pytest.raises(PrivacyError, match="1-D count vectors"):
            publish(table, 1.0, hierarchy=balanced_hierarchy(4, fanout=2))

    def test_stream_requires_table(self):
        with pytest.raises(StreamingError, match="requires a Table"):
            publish(np.ones(8), 1.0, stream=np.arange(8))

    def test_facade_is_exported(self):
        assert repro.publish is publish
        assert "publish" in repro.__all__

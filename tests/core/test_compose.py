"""Tests for the composition algebra: parity, nesting, windows, errors."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.exact import query_boxes
from repro.core.compose import Partition, TimeTree
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.core.sharding import shard_bounds, shard_schema
from repro.data.census import BRAZIL, census_schema, generate_census_table
from repro.data.table import Table
from repro.errors import StreamingError
from repro.io import load_result, save_result
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload
from repro.streaming import StreamingPublisher

SPEC = BRAZIL.scaled(0.05)
SHARD_BY = "Age"
EPOCHS = 5


@pytest.fixture(scope="module")
def schema():
    return census_schema(SPEC)


@pytest.fixture(scope="module", params=[True, False], ids=["dense", "coefficients"])
def sharded_result(request, schema):
    table = generate_census_table(SPEC, 2_000, seed=3)
    return publish(
        table,
        1.0,
        mechanism=PriveletPlusMechanism(sa_names="auto"),
        shard_by=SHARD_BY,
        shards=4,
        seed=7,
        representation="dense" if request.param else "coefficients",
        parallel=False,
    )


@pytest.fixture(scope="module")
def boxes(schema):
    queries = generate_workload(schema, 60, seed=11)
    return query_boxes(queries, schema.shape)


@pytest.fixture(scope="module")
def sharded_streams(schema):
    """A nested composition: shard x time, one stream per Age interval."""
    bounds = shard_bounds(schema[0].size, 2)
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        sub_schema = shard_schema(schema, SHARD_BY, lo, hi)
        publisher = StreamingPublisher(
            sub_schema, PriveletPlusMechanism(sa_names="auto"), 1.0, seed=500 + lo
        )
        for epoch in range(EPOCHS):
            table = generate_census_table(SPEC, 300, seed=1000 + 10 * lo + epoch)
            rows = table.rows
            keep = (rows[:, 0] >= lo) & (rows[:, 0] < hi)
            rows = rows[keep].copy()
            rows[:, 0] -= lo
            publisher.ingest(Table(sub_schema, rows))
            publisher.advance_epoch()
        parts.append(publisher.result())
    nested = Partition(schema, SHARD_BY, bounds, parts)
    return nested, bounds, parts


class TestAlgebraParity:
    def test_sharded_release_is_disjoint_union(self, sharded_result):
        release = sharded_result.release
        assert isinstance(release, Partition)

    def test_plain_union_matches_thin_subclass_bitwise(self, sharded_result, boxes):
        release = sharded_result.release
        results = [release.shard_result(i) for i in range(release.num_shards)]
        plain = Partition(
            release.schema, release.attribute, release.bounds, results
        )
        lows, highs = boxes
        np.testing.assert_array_equal(
            plain.answer_boxes(lows, highs), release.answer_boxes(lows, highs)
        )
        np.testing.assert_array_equal(
            plain.noise_variances_boxes(lows, highs),
            release.noise_variances_boxes(lows, highs),
        )

    def test_engine_paths_agree_bitwise(self, sharded_result, boxes):
        engine = QueryEngine(sharded_result)
        lows, highs = boxes
        batch = engine.answer_columnar(lows, highs)
        np.testing.assert_array_equal(
            batch.estimates, sharded_result.release.answer_boxes(lows, highs)
        )
        np.testing.assert_array_equal(
            batch.noise_stds,
            np.sqrt(engine.noise_variances_columnar(lows, highs)),
        )

    def test_degenerate_boxes_are_exact_zero(self, sharded_result, schema):
        lows = np.zeros((3, schema.dimensions), dtype=np.int64)
        highs = np.asarray([list(schema.shape)] * 3, dtype=np.int64)
        highs[1] = lows[1]  # fully degenerate row
        highs[2, 0] = 0  # degenerate on one axis only
        release = sharded_result.release
        answers = release.answer_boxes(lows, highs)
        variances = release.noise_variances_boxes(lows, highs)
        assert answers[1] == 0.0 and answers[2] == 0.0
        assert variances[1] == 0.0 and variances[2] == 0.0
        assert answers[0] != 0.0 and variances[0] > 0.0

    def test_archive_round_trip_of_plain_union(self, sharded_result, boxes, tmp_path):
        release = sharded_result.release
        plain = Partition(
            release.schema,
            release.attribute,
            release.bounds,
            [release.shard_result(i) for i in range(release.num_shards)],
        )
        path = tmp_path / "union.npz"
        save_result(path, dataclasses.replace(sharded_result, release=plain))
        loaded = load_result(path)
        lows, highs = boxes
        np.testing.assert_array_equal(
            loaded.release.answer_boxes(lows, highs),
            plain.answer_boxes(lows, highs),
        )


class TestNestedShardTime:
    def test_nested_answers_sum_per_shard_windows(self, sharded_streams, schema):
        nested, bounds, parts = sharded_streams
        queries = generate_workload(schema, 40, seed=21)
        lows, highs = query_boxes(queries, schema.shape)
        got = nested.answer_boxes(lows, highs)
        want = np.zeros(len(queries))
        for (lo, hi), part in zip(zip(bounds, bounds[1:]), parts):
            clip_lo = np.clip(lows[:, 0] - lo, 0, hi - lo)
            clip_hi = np.clip(highs[:, 0] - lo, 0, hi - lo)
            sub_lows, sub_highs = lows.copy(), highs.copy()
            sub_lows[:, 0], sub_highs[:, 0] = clip_lo, clip_hi
            want += part.release.answer_boxes(sub_lows, sub_highs)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_nested_window_queries_with_exact_variances(self, sharded_streams, schema):
        nested, bounds, parts = sharded_streams
        queries = generate_workload(schema, 30, seed=22)
        lows, highs = query_boxes(queries, schema.shape)
        for window in [(0, EPOCHS), (1, 4), (2, 3)]:
            view = nested.window(*window)
            assert isinstance(view, Partition)
            got = view.answer_boxes(lows, highs)
            variances = view.noise_variances_boxes(lows, highs)
            want = np.zeros(len(queries))
            want_var = np.zeros(len(queries))
            for (lo, hi), part in zip(zip(bounds, bounds[1:]), parts):
                clip_lo = np.clip(lows[:, 0] - lo, 0, hi - lo)
                clip_hi = np.clip(highs[:, 0] - lo, 0, hi - lo)
                sub_lows, sub_highs = lows.copy(), highs.copy()
                sub_lows[:, 0], sub_highs[:, 0] = clip_lo, clip_hi
                shard_window = part.release.window(*window)
                want += shard_window.answer_boxes(sub_lows, sub_highs)
                want_var += shard_window.noise_variances_boxes(sub_lows, sub_highs)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(variances, want_var, rtol=1e-9, atol=1e-9)

    def test_nested_parts_are_dyadic_merges(self, sharded_streams):
        nested, _, _ = sharded_streams
        for index in range(nested.num_parts):
            assert isinstance(nested.part_result(index).release, TimeTree)

    def test_window_on_static_shards_rejected(self, sharded_result):
        with pytest.raises(StreamingError, match="not time-aware"):
            sharded_result.release.window(0, 1)

    def test_nested_union_archives_as_v5(self, sharded_streams, schema, tmp_path):
        nested, _, _ = sharded_streams
        wrapped = publish_result_stub(nested)
        path = tmp_path / "nested.npz"
        save_result(path, wrapped)
        loaded = load_result(path)
        release = loaded.release
        assert isinstance(release, Partition)
        # Leaf-lazy: the manifest alone rebuilds the tree structure.
        for index in range(release.num_parts):
            inner = release.part_result(index).release
            assert isinstance(inner, TimeTree)
            assert inner.nodes_loaded == 0
        queries = generate_workload(schema, 40, seed=23)
        lows, highs = query_boxes(queries, schema.shape)
        np.testing.assert_array_equal(
            release.answer_boxes(lows, highs), nested.answer_boxes(lows, highs)
        )
        np.testing.assert_array_equal(
            release.noise_variances_boxes(lows, highs),
            nested.noise_variances_boxes(lows, highs),
        )
        assert loaded.epsilon == wrapped.epsilon

    def test_nested_union_round_trips_through_parts(self, sharded_streams, schema):
        from repro.io import result_from_parts, result_to_parts

        nested, _, _ = sharded_streams
        wrapped = publish_result_stub(nested)
        header, arrays = result_to_parts(wrapped)
        assert header["format"] == 5
        rebuilt = result_from_parts(header, arrays)
        queries = generate_workload(schema, 40, seed=24)
        lows, highs = query_boxes(queries, schema.shape)
        np.testing.assert_array_equal(
            rebuilt.release.answer_boxes(lows, highs),
            nested.answer_boxes(lows, highs),
        )
        np.testing.assert_array_equal(
            rebuilt.release.noise_variances_boxes(lows, highs),
            nested.noise_variances_boxes(lows, highs),
        )

    def test_nested_window_round_trips_as_v5(self, sharded_streams, schema, tmp_path):
        nested, _, _ = sharded_streams
        view = nested.window(1, 4)
        wrapped = publish_result_stub(view)
        path = tmp_path / "windowed.npz"
        save_result(path, wrapped)
        loaded = load_result(path)
        queries = generate_workload(schema, 20, seed=25)
        lows, highs = query_boxes(queries, schema.shape)
        np.testing.assert_array_equal(
            loaded.release.answer_boxes(lows, highs),
            view.answer_boxes(lows, highs),
        )


def publish_result_stub(release):
    from repro.core.framework import PublishResult

    return PublishResult(
        release=release,
        epsilon=1.0,
        noise_magnitude=1.0,
        generalized_sensitivity=1.0,
        variance_bound=1.0,
        details={"sharded": True},
    )

"""Tests for the cost-based batch planner: parity, pruning, views."""

import numpy as np
import pytest

from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.data.census import BRAZIL, census_schema, generate_census_table
from repro.io import load_result, save_result
from repro.queries.engine import QueryEngine
from repro.planner import QueryPlanner
from repro.serving.requests import QueryBatchRequest
from repro.serving.server import ReleaseServer
from repro.streaming import StreamingPublisher

SPEC = BRAZIL.scaled(0.05)


@pytest.fixture(scope="module")
def schema():
    return census_schema(SPEC)


@pytest.fixture(scope="module")
def sharded_result(schema):
    table = generate_census_table(SPEC, 2_000, seed=3)
    return publish(
        table,
        1.0,
        mechanism=PriveletPlusMechanism(sa_names="auto"),
        shard_by="Age",
        shards=4,
        seed=7,
        representation="coefficients",
        parallel=False,
    )


@pytest.fixture
def engine(sharded_result):
    return QueryEngine(sharded_result)


def skewed_boxes(schema, count, seed, duplicate_every=3):
    """A duplicate-heavy batch mixing range boxes and marginal cells."""
    rng = np.random.default_rng(seed)
    shape = np.asarray(schema.shape, dtype=np.int64)
    lows = np.empty((count, len(shape)), dtype=np.int64)
    highs = np.empty_like(lows)
    for axis, size in enumerate(shape):
        lo = rng.integers(0, size, count)
        width = rng.integers(1, size + 1, count)
        lows[:, axis] = lo
        highs[:, axis] = np.minimum(lo + width, size)
    lows[::duplicate_every] = lows[0]
    highs[::duplicate_every] = highs[0]
    # Marginal cells on axis 0: point on Age, full domain elsewhere.
    cells = rng.integers(0, shape[0], count // 4)
    marg_lows = np.zeros((len(cells), len(shape)), dtype=np.int64)
    marg_highs = np.tile(shape, (len(cells), 1))
    marg_lows[:, 0] = cells
    marg_highs[:, 0] = cells + 1
    return np.vstack([lows, marg_lows]), np.vstack([highs, marg_highs])


class TestPlannedParity:
    def test_planned_answers_bitwise_equal(self, engine, schema):
        planner = QueryPlanner(engine)
        lows, highs = skewed_boxes(schema, 200, seed=5)
        base = engine.answer_columnar(lows, highs)
        planned = planner.answer_columnar(lows, highs)
        np.testing.assert_array_equal(planned.estimates, base.estimates)
        np.testing.assert_array_equal(planned.noise_stds, base.noise_stds)
        np.testing.assert_array_equal(planned.lowers, base.lowers)
        np.testing.assert_array_equal(planned.uppers, base.uppers)
        assert planner.rows_deduped > 0

    def test_view_served_answers_bitwise_equal(self, engine, schema):
        planner = QueryPlanner(engine, view_cell_budget=schema.shape[0])
        lows, highs = skewed_boxes(schema, 300, seed=6)
        base = engine.answer_columnar(lows, highs)
        first = planner.answer_columnar(lows, highs)
        second = planner.answer_columnar(lows, highs)
        for planned in (first, second):
            np.testing.assert_array_equal(planned.estimates, base.estimates)
            np.testing.assert_array_equal(planned.noise_stds, base.noise_stds)
        assert planner.views_built >= 1
        assert planner.view_rows > 0
        assert planner.view_signatures == ((0,),)

    def test_response_order_is_request_order(self, engine, schema):
        rng = np.random.default_rng(8)
        lows, highs = skewed_boxes(schema, 120, seed=8)
        order = rng.permutation(len(lows))
        planner = QueryPlanner(engine)
        planned = planner.answer_columnar(lows[order], highs[order])
        base = engine.answer_columnar(lows, highs)
        np.testing.assert_array_equal(planned.estimates, base.estimates[order])
        np.testing.assert_array_equal(planned.noise_stds, base.noise_stds[order])

    def test_bad_confidence_rejected_before_bounds(self, engine):
        from repro.errors import QueryError

        planner = QueryPlanner(engine)
        with pytest.raises(QueryError, match="confidence"):
            planner.answer_columnar(
                np.zeros((1, 2), dtype=np.int64),  # wrong width too
                np.ones((1, 2), dtype=np.int64),
                confidence=1.5,
            )


class TestPlanIntrospection:
    def test_dedup_counts(self, engine, schema):
        planner = QueryPlanner(engine)
        lows = np.zeros((6, schema.dimensions), dtype=np.int64)
        highs = np.tile(np.asarray(schema.shape, dtype=np.int64), (6, 1))
        highs[3:, 0] = 1  # two distinct boxes, three copies each
        plan = planner.plan(lows, highs)
        assert plan.num_rows == 6
        assert plan.num_unique == 2
        assert plan.duplicate_rows == 4
        assert plan.naive_cost > plan.cost > 0

    def test_minimal_cover_prunes_lazy_shards(self, sharded_result, tmp_path):
        path = tmp_path / "sharded.npz"
        save_result(path, sharded_result)
        loaded = load_result(path)
        release = loaded.release
        engine = QueryEngine(loaded)
        planner = QueryPlanner(engine)
        lows = np.zeros((2, release.schema.dimensions), dtype=np.int64)
        highs = np.tile(
            np.asarray(release.schema.shape, dtype=np.int64), (2, 1)
        )
        highs[:, 0] = release.bounds[1]  # both rows inside shard 0
        plan = planner.plan(lows, highs)
        assert plan.cover == (0,)
        assert release.shards_loaded == 0  # planning touches no payload
        planner.answer_columnar(lows, highs)
        assert release.shards_loaded == 1  # answering loads only the cover

    def test_monolithic_backend_has_no_cover(self, schema):
        result = PriveletPlusMechanism(sa_names="auto").publish(
            generate_census_table(SPEC, 500, seed=4), 1.0, seed=5
        )
        planner = QueryPlanner(QueryEngine(result))
        lows = np.zeros((1, schema.dimensions), dtype=np.int64)
        highs = np.asarray([list(schema.shape)], dtype=np.int64)
        assert planner.plan(lows, highs).cover is None


class TestViews:
    def test_budget_blocks_materialization(self, engine, schema):
        planner = QueryPlanner(engine, view_cell_budget=1)
        lows, highs = skewed_boxes(schema, 300, seed=9)
        planner.answer_columnar(lows, highs)
        planner.answer_columnar(lows, highs)
        assert planner.views_built == 0

    def test_invalidate_drops_views_keeps_counters(self, engine, schema):
        planner = QueryPlanner(engine, view_cell_budget=schema.shape[0])
        lows, highs = skewed_boxes(schema, 300, seed=10)
        planner.answer_columnar(lows, highs)
        planner.answer_columnar(lows, highs)
        built = planner.views_built
        views_before = planner.num_views
        assert built >= 1
        assert planner.invalidate() == views_before
        assert planner.num_views == 0
        assert planner.views_built == built  # monotone

    def test_server_refresh_invalidates_views(self, tmp_path):
        path = tmp_path / "events.npz"
        publisher = StreamingPublisher(
            census_schema(SPEC),
            PriveletPlusMechanism(sa_names="auto"),
            1.0,
            seed=20100301,
            archive_path=path,
        )
        for epoch in range(2):
            publisher.ingest(generate_census_table(SPEC, 200, seed=100 + epoch))
            publisher.advance_epoch()
        age_size = publisher.schema[0].size
        request = QueryBatchRequest(
            "events",
            {
                "Age": {
                    "lo": list(range(age_size)) * 3,
                    "hi": [cell + 1 for cell in range(age_size)] * 3,
                }
            },
        )
        with ReleaseServer(watch_streams=False) as server:
            server.register_archive(path)
            first = server.query_columnar(request)
            stats = server.stats()
            assert stats.planner_views_built >= 1
            assert stats.planner_deduped_rows > 0
            publisher.ingest(generate_census_table(SPEC, 200, seed=300))
            publisher.advance_epoch()
            assert server.refresh("events") is True
            assert len(server.plan_cache) == 0  # plan (and views) dropped
            second = server.query_columnar(request)
            # The new epoch changed the marginal; stale views would have
            # returned the old estimates.
            assert not np.array_equal(second.estimates, first.estimates)
            after = server.stats()
            assert after.planner_views_built >= stats.planner_views_built
            assert after.planner_deduped_rows >= stats.planner_deduped_rows

    def test_planner_disabled_server_matches(self, sharded_result):
        request = QueryBatchRequest(
            "census", {"Age": {"lo": [0, 0, 0], "hi": [5, 5, 5]}}
        )
        with ReleaseServer(planner=False) as plain, ReleaseServer() as planned:
            plain.register("census", sharded_result)
            planned.register("census", sharded_result)
            base = plain.query_columnar(request)
            fast = planned.query_columnar(request)
            np.testing.assert_array_equal(base.estimates, fast.estimates)
            np.testing.assert_array_equal(base.noise_stds, fast.noise_stds)
            assert plain.stats().planner_deduped_rows == 0
            assert planned.stats().planner_deduped_rows == 2

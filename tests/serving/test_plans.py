"""Tests for the columnar plan cache: reuse, eviction, invalidation."""

import numpy as np
import pytest

from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.census import BRAZIL, generate_census_table
from repro.errors import ServingError
from repro.serving.plans import PlanCache
from repro.serving import server as server_module
from repro.serving.requests import QueryBatchRequest
from repro.serving.server import ReleaseServer

SPEC = BRAZIL.scaled(0.05)


@pytest.fixture(scope="module")
def census_result():
    table = generate_census_table(SPEC, 2_000, seed=0)
    return PriveletPlusMechanism(sa_names="auto").publish(
        table, 1.0, seed=1, materialize=False
    )


@pytest.fixture
def server(census_result):
    with ReleaseServer() as srv:
        srv.register("census", census_result)
        yield srv


def _request(names, row=(0, 2)):
    return QueryBatchRequest(
        "census", {name: {"lo": [row[0]], "hi": [row[1]]} for name in names}
    )


class TestPlanReuse:
    def test_same_shape_hits_once_compiled(self, server):
        request = _request(("Age",))
        server.query_columnar(request)
        server.query_columnar(_request(("Age",), row=(5, 20)))
        cache = server.plan_cache
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.hit_rate == 0.5
        assert len(cache) == 1

    def test_distinct_shapes_compile_separately(self, server):
        server.query_columnar(_request(("Age",)))
        server.query_columnar(_request(("Income",)))
        server.query_columnar(_request(("Age", "Income")))
        assert server.plan_cache.misses == 3
        assert len(server.plan_cache) == 3

    def test_attribute_order_normalizes_to_one_plan(self, server):
        a = QueryBatchRequest(
            "census", {"Age": {"lo": [0], "hi": [10]}, "Income": {"lo": [1], "hi": [2]}}
        )
        b = QueryBatchRequest(
            "census", {"Income": {"lo": [1], "hi": [2]}, "Age": {"lo": [0], "hi": [10]}}
        )
        assert a.plan_key == b.plan_key
        server.query_columnar(a)
        server.query_columnar(b)
        assert server.plan_cache.misses == 1
        assert server.plan_cache.hits == 1

    def test_plan_pins_engine_and_profile_state(self, server):
        server.query_columnar(_request(("Age",)))
        plan = server.plan_cache.plan(("census", ("Age",), None))
        assert plan.engine is server.engine("census")
        assert plan.axes == (0,)

    def test_failing_shape_never_poisons_the_cache(self, server):
        with pytest.raises(ServingError):
            server.query_columnar(_request(("Age",), row=(0, 10**6)))
        # Binding failed but the plan itself is valid and cached ...
        assert len(server.plan_cache) == 1
        # ... while an unknown release never enters the cache at all.
        bad = QueryBatchRequest("missing", {"Age": {"lo": [0], "hi": [1]}})
        with pytest.raises(Exception):
            server.query_columnar(bad)
        assert len(server.plan_cache) == 1


class TestEviction:
    def test_bound_held_under_shape_churn(self, census_result, monkeypatch):
        names = ("Age", "Gender", "Occupation", "Income")
        monkeypatch.setattr(server_module, "MAX_PLANS", 3)
        with ReleaseServer() as srv:
            srv.register("census", census_result)
            # 15 distinct shapes (every non-empty subset), far over the bound.
            import itertools

            shapes = [
                combo
                for r in range(1, 5)
                for combo in itertools.combinations(names, r)
            ]
            for shape in shapes:
                srv.query_columnar(_request(shape))
            cache = srv.plan_cache
            assert len(cache) <= 3
            assert cache.evictions == len(shapes) - 3
            assert cache.misses == len(shapes)

    def test_evicted_plan_recompiles_identically(self, census_result, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_PLANS", 1)
        with ReleaseServer() as srv:
            srv.register("census", census_result)
            request = _request(("Age",), row=(3, 42))
            first = srv.query_columnar(request)
            srv.query_columnar(_request(("Income",)))  # evicts the Age plan
            assert srv.plan_cache.evictions == 1
            again = srv.query_columnar(request)  # recompiles
            assert srv.plan_cache.misses == 3
            assert np.array_equal(first.estimates, again.estimates)
            assert np.array_equal(first.noise_stds, again.noise_stds)
            assert np.array_equal(first.lowers, again.lowers)
            assert np.array_equal(first.uppers, again.uppers)

    def test_lru_order_keeps_recently_used(self, census_result, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_PLANS", 2)
        with ReleaseServer() as srv:
            srv.register("census", census_result)
            srv.query_columnar(_request(("Age",)))
            srv.query_columnar(_request(("Income",)))
            srv.query_columnar(_request(("Age",)))  # refresh Age
            srv.query_columnar(_request(("Gender",)))  # evicts Income, not Age
            srv.query_columnar(_request(("Age",)))
            # Age hit twice (pre- and post-eviction of Income); Gender's
            # arrival evicted Income, the least recently used, not Age.
            assert srv.plan_cache.hits == 2
            assert srv.plan_cache.evictions == 1
            assert srv.plan_cache.misses == 3


class TestInvalidation:
    def test_invalidate_drops_only_that_release(self, census_result):
        with ReleaseServer() as srv:
            srv.register("census", census_result)
            srv.register("other", census_result)
            srv.query_columnar(_request(("Age",)))
            srv.query_columnar(
                QueryBatchRequest("other", {"Age": {"lo": [0], "hi": [10]}})
            )
            assert len(srv.plan_cache) == 2
            assert srv.plan_cache.invalidate("census") == 1
            assert len(srv.plan_cache) == 1
            # The surviving plan still answers.
            srv.query_columnar(
                QueryBatchRequest("other", {"Age": {"lo": [0], "hi": [10]}})
            )
            assert srv.plan_cache.hits == 1

    def test_counters_survive_clear(self, server):
        server.query_columnar(
            QueryBatchRequest("census", {"Age": {"lo": [0, 0], "hi": [2, 2]}})
        )
        server.plan_cache.clear()
        assert len(server.plan_cache) == 0
        assert server.plan_cache.misses == 1
        server.query_columnar(
            QueryBatchRequest("census", {"Age": {"lo": [0], "hi": [2]}})
        )
        assert (server.plan_cache.hits, server.plan_cache.misses) == (0, 2)
        # Plans answer through the engine: no row is deduplicated.
        assert server.stats().planner_deduped_rows == 0

    def test_rejects_nonpositive_bound(self, server):
        with pytest.raises(Exception):
            PlanCache(server.engine, max_plans=0)


class TestStats:
    def test_server_stats_surface_plan_counters(self, server):
        server.query_columnar(_request(("Age",)))
        server.query_columnar(_request(("Age",), row=(5, 9)))
        stats = server.stats()
        assert stats.plan_cache_misses == 1
        assert stats.plan_cache_hits == 1
        assert stats.plan_cache_hit_rate == 0.5
        assert stats.plan_cache_evictions == 0
        assert stats.columnar_rows == 2
        assert stats.requests == 2

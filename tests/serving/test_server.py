"""Tests for the multi-release server: correctness, batching, stats."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.data.census import BRAZIL, generate_census_table
from repro.errors import QueryError, ServingError
from repro.io import save_result
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload
from repro.serving.requests import QueryRequest
from repro.serving.server import ReleaseServer


@pytest.fixture(scope="module")
def census_result():
    table = generate_census_table(BRAZIL.scaled(0.05), 2_000, seed=0)
    return PriveletPlusMechanism(sa_names="auto").publish(
        table, 1.0, seed=1, materialize=False
    )


@pytest.fixture(scope="module")
def ordinal_result():
    return publish(np.arange(64, dtype=np.float64), 1.0, mechanism="privelet", seed=2)


@pytest.fixture
def server(census_result, ordinal_result):
    with ReleaseServer(max_linger_seconds=0.001) as srv:
        srv.register("census", census_result)
        srv.register("ordinal", ordinal_result)
        yield srv


class TestAnswers:
    def test_matches_direct_engine(self, server, census_result):
        engine = QueryEngine(census_result)
        request = QueryRequest("census", {"Age": (10, 40)}, confidence=0.9)
        response = server.query(request)
        direct = engine.answer_with_interval(
            request.to_query(engine.schema), confidence=0.9
        )
        assert response.estimate == pytest.approx(direct.estimate)
        assert response.noise_std == pytest.approx(direct.noise_std)
        assert response.lower == pytest.approx(direct.lower)
        assert response.upper == pytest.approx(direct.upper)
        assert response.release == "census"

    def test_full_range_request(self, server, ordinal_result):
        response = server.query(QueryRequest("ordinal"))
        total = ordinal_result.release.answer_box([(0, 64)])
        assert response.estimate == pytest.approx(total)

    def test_mixed_confidences_in_one_batch(self, server):
        narrow = QueryRequest("ordinal", {"value": (0, 32)}, confidence=0.5)
        wide = QueryRequest("ordinal", {"value": (0, 32)}, confidence=0.99)
        responses = server.query_many([narrow, wide])
        assert responses[0].estimate == pytest.approx(responses[1].estimate)
        width = lambda r: r.upper - r.lower  # noqa: E731
        assert width(responses[1]) > width(responses[0])
        assert responses[0].confidence == 0.5

    def test_query_many_matches_engine_batch(self, server, census_result):
        engine = QueryEngine(census_result)
        queries = generate_workload(engine.schema, 40, seed=3)
        requests = [
            QueryRequest(
                "census",
                {p.attribute_name: (p.lo, p.hi) for p in query.predicates},
            )
            for query in queries
        ]
        responses = server.query_many(requests)
        # The request's sorted ranges must describe the same box.
        expected = [
            engine.answer(request.to_query(engine.schema))
            for request in requests
        ]
        np.testing.assert_allclose(
            [response.estimate for response in responses], expected, atol=1e-6
        )

    def test_concurrent_multi_release_traffic(self, server, census_result, ordinal_result):
        engines = {
            "census": QueryEngine(census_result),
            "ordinal": QueryEngine(ordinal_result),
        }
        requests = []
        for lo in range(0, 60, 3):
            requests.append(QueryRequest("ordinal", {"value": (lo, 64)}))
            requests.append(QueryRequest("census", {"Age": (0, lo + 1)}))
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(server.query, requests))
        for request, response in zip(requests, responses):
            engine = engines[request.release]
            expected = engine.answer(request.to_query(engine.schema))
            assert response.estimate == pytest.approx(expected, abs=1e-6)


class TestErrors:
    def test_unknown_release(self, server):
        with pytest.raises(ServingError) as excinfo:
            server.query(QueryRequest("missing"))
        assert excinfo.value.code == "unknown-release"

    def test_bad_request_is_isolated_from_batchmates(self, server, ordinal_result):
        good = server.submit(QueryRequest("ordinal", {"value": (0, 8)}))
        bad = server.submit(QueryRequest("ordinal", {"nope": (0, 1)}))
        unknown = server.submit(QueryRequest("missing"))
        expected = ordinal_result.release.answer_box([(0, 8)])
        assert good.result(timeout=5).estimate == pytest.approx(expected)
        with pytest.raises(QueryError):
            bad.result(timeout=5)
        with pytest.raises(ServingError):
            unknown.result(timeout=5)

    def test_submit_rejects_non_request(self, server):
        with pytest.raises(ServingError, match="QueryRequest"):
            server.submit({"release": "census"})

    def test_closed_server_rejects_submits(self, census_result):
        server = ReleaseServer()
        server.register("census", census_result)
        server.close()
        with pytest.raises(ServingError) as excinfo:
            server.query(QueryRequest("census"))
        assert excinfo.value.code == "closed"


class TestRepresentation:
    def test_conversion_preserves_answers(self, census_result):
        """The representation is chosen at publish time and served as is.

        A dense publish of the same seed is the coefficient release
        converted; the server answers both identically.
        """
        table = generate_census_table(BRAZIL.scaled(0.05), 2_000, seed=0)
        dense_result = PriveletPlusMechanism(sa_names="auto").publish(
            table, 1.0, seed=1
        )
        with ReleaseServer() as server:
            server.register("coefficients", census_result)
            server.register("dense", dense_result)
            stored = server.query(QueryRequest("coefficients", {"Age": (5, 25)}))
            dense = server.query(QueryRequest("dense", {"Age": (5, 25)}))
            for name in ("coefficients", "dense"):
                assert server.engine(name).release.representation == name
        assert dense.estimate == stored.estimate
        assert dense.noise_std == stored.noise_std


class TestArchivesAndStats:
    def test_archive_registration_is_lazy(self, tmp_path, ordinal_result):
        path = tmp_path / "lazy.npz"
        save_result(path, ordinal_result)
        with ReleaseServer() as server:
            server.register_archive(path)
            assert server.names == ("lazy",)
            assert server.describe("lazy")["loaded"] is False
            assert server.stats().engines_built == 0
            response = server.query(QueryRequest("lazy", {"value": (0, 16)}))
            assert server.describe("lazy")["loaded"] is True
            assert server.stats().engines_built == 1
            expected = ordinal_result.release.answer_box([(0, 16)])
            assert response.estimate == pytest.approx(expected)

    def test_stats_counters_and_warm_hit_rate(self, census_result):
        with ReleaseServer() as server:
            server.register("census", census_result)
            requests = [
                QueryRequest("census", {"Age": (lo, lo + 10)}) for lo in range(20)
            ]
            server.query_many(requests)
            cold = server.stats()
            server.query_many(requests)
            warm = server.stats()
        assert cold.requests == 20 and warm.requests == 40
        assert warm.errors == 0
        assert warm.batches >= 2
        assert warm.p50_latency_seconds <= warm.p99_latency_seconds
        assert warm.releases == ("census",)

    def test_profile_counters_read_zero(self, census_result):
        # Profiles are stateless; the counters stay (always 0) for
        # readers of the retired memo's hit rate.
        sharded = publish(
            generate_census_table(BRAZIL.scaled(0.05), 500, seed=2), 1.0,
            shard_by="Age", shards=2, seed=3, representation="coefficients",
        )
        with ReleaseServer() as server:
            server.register("flat", census_result)
            server.register("sharded", sharded)
            for name in ("flat", "sharded"):
                server.query_many(
                    [QueryRequest(name, {"Age": (lo, lo + 5)}) for lo in range(8)] * 2
                )
                cache = server.engine(name).profile_cache
                assert cache.hits == cache.misses == 0
            stats = server.stats()
        assert stats.requests == 32
        assert stats.profile_cache_hits == stats.profile_cache_misses == 0

    def test_error_counter(self, server):
        before = server.stats().errors
        with pytest.raises(ServingError):
            server.query(QueryRequest("missing"))
        assert server.stats().errors == before + 1


class TestShardedArchives:
    def test_sharded_archive_serves_as_one_release(self, tmp_path):
        table = generate_census_table(BRAZIL.scaled(0.05), 2_000, seed=4)
        result = publish(
            table,
            1.0,
            mechanism=PriveletPlusMechanism(sa_names="auto"),
            shard_by="Age",
            shards=3,
            seed=6,
            representation="coefficients",
        )
        path = tmp_path / "sharded.npz"
        save_result(path, result)
        with ReleaseServer(max_linger_seconds=0.001) as server:
            server.register_archive(path, name="census")
            description = server.describe("census")
            assert description["representation"] == "sharded"
            direct = QueryEngine(result)
            requests = [
                QueryRequest("census", {"Age": (lo, lo + 15)}, request_id=lo)
                for lo in range(0, 60, 5)
            ]
            responses = server.query_many(requests)
            for request, response in zip(requests, responses):
                expected = direct.answer_with_interval(
                    request.to_query(direct.schema)
                )
                assert response.estimate == pytest.approx(expected.estimate)
                assert response.noise_std == pytest.approx(expected.noise_std)
            stats = server.stats()
            assert stats.engines_built == 1
            # Narrow requests only touched the shards they intersect.
            engine = server.engine("census")
            assert engine.release.shards_loaded >= 1


class TestCloseReporting:
    def test_close_returns_true_after_clean_drain(self, census_result):
        server = ReleaseServer()
        server.register("census", census_result)
        server.query(QueryRequest("census"))
        assert server.close() is True

    def test_close_surfaces_timed_out_drain(self, census_result, monkeypatch):
        import threading

        release = threading.Event()
        started = threading.Event()
        server = ReleaseServer(max_linger_seconds=0.0)
        server.register("census", census_result)
        inner = server._handle_batch

        def slow_handler(payloads):
            started.set()
            release.wait(timeout=10)
            return inner(payloads)

        monkeypatch.setattr(server._batcher, "_handler", slow_handler)
        future = server.submit(QueryRequest("census"))
        assert started.wait(timeout=5)
        # The drain thread is wedged inside the handler: the server must
        # report the timed-out join instead of silently returning.
        assert server.close(timeout=0.05) is False
        release.set()
        assert server.close(timeout=5.0) is True
        assert future.result(timeout=5).release == "census"


class TestColumnarServing:
    def test_mixed_scalar_and_columnar_in_one_session(self, server):
        from repro.serving.requests import QueryBatchRequest

        batch_future = server.submit(
            QueryBatchRequest("census", {"Age": {"lo": [10], "hi": [40]}})
        )
        scalar_future = server.submit(QueryRequest("census", {"Age": (10, 40)}))
        batch, scalar = batch_future.result(), scalar_future.result()
        assert batch.estimates[0] == scalar.estimate
        assert batch.noise_stds[0] == scalar.noise_std
        assert batch.lowers[0] == scalar.lower
        assert batch.uppers[0] == scalar.upper

    def test_submit_columnar_rejects_scalar_request(self, server):
        with pytest.raises(ServingError, match="QueryBatchRequest"):
            server.submit_columnar(QueryRequest("census"))
        with pytest.raises(ServingError, match="QueryRequest"):
            server.submit(object())

    def test_columnar_batch_counts_rows_toward_max_batch(self, census_result):
        from repro.serving.requests import QueryBatchRequest

        with ReleaseServer(max_batch=8, max_linger_seconds=0.001) as srv:
            srv.register("census", census_result)
            request = QueryBatchRequest(
                "census", {"Age": {"lo": [0] * 6, "hi": [10] * 6}}
            )
            srv.query_columnar(request)
            assert srv._batcher.items == 6
            assert srv._batcher.largest_batch == 6

    def test_columnar_error_isolated_per_wire_item(self, server):
        from repro.serving.requests import QueryBatchRequest

        bad = server.submit(
            QueryBatchRequest("census", {"Age": {"lo": [0], "hi": [500]}})
        )
        good = server.submit(
            QueryBatchRequest("census", {"Age": {"lo": [0], "hi": [10]}})
        )
        with pytest.raises(ServingError, match="exceeds the domain"):
            bad.result()
        assert len(good.result()) == 1

    def test_refresh_invalidates_plans(self, tmp_path, census_result):
        from repro.serving.requests import QueryBatchRequest

        path = tmp_path / "census.npz"
        save_result(path, census_result)
        with ReleaseServer(max_linger_seconds=0.001) as srv:
            srv.register_archive(path)
            srv.query_columnar(
                QueryBatchRequest("census", {"Age": {"lo": [0], "hi": [10]}})
            )
            assert len(srv.plan_cache) == 1
            # Touch the archive so the registry re-opens it on refresh.
            save_result(path, census_result)
            assert srv.refresh("census") is True
            assert len(srv.plan_cache) == 0
            # The next batch recompiles against the fresh engine.
            srv.query_columnar(
                QueryBatchRequest("census", {"Age": {"lo": [0], "hi": [10]}})
            )
            assert srv.plan_cache.misses == 2

"""Tests for the multi-release server: correctness, grouped passes, stats."""

import threading
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
    with ReleaseServer() as srv:
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
        good, bad, unknown = server.answer_requests(
            [
                QueryRequest("ordinal", {"value": (0, 8)}),
                QueryRequest("ordinal", {"nope": (0, 1)}),
                QueryRequest("missing"),
            ]
        )
        expected = ordinal_result.release.answer_box([(0, 8)])
        assert good.estimate == pytest.approx(expected)
        assert isinstance(bad, QueryError)
        assert isinstance(unknown, ServingError)
        assert server.stats().errors == 2

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
        with ReleaseServer() as server:
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
    def test_close_rejects_every_later_call(self, census_result):
        server = ReleaseServer()
        server.register("census", census_result)
        server.query(QueryRequest("census"))
        assert server.close() is None
        server.close()  # idempotent
        calls = (
            lambda: server.query(QueryRequest("census")),
            lambda: server.submit(QueryRequest("census")),
            lambda: server.query_many([QueryRequest("census")]),
            lambda: server.answer_requests([QueryRequest("census")]),
        )
        for call in calls:
            with pytest.raises(ServingError) as excinfo:
                call()
            assert excinfo.value.code == "closed"
        assert server.stats().requests == 1

    def test_close_lets_an_in_flight_pass_finish(self, census_result, monkeypatch):
        """A pass already running on another thread when ``close()`` is
        called returns its answer; only calls made after it are refused."""
        server = ReleaseServer()
        server.register("census", census_result)
        engine = server.engine("census")
        expected = engine.answer_with_interval(
            QueryRequest("census", {"Age": (10, 40)}).to_query(engine.schema), 0.95
        )
        entered, resume = threading.Event(), threading.Event()
        answer_all = engine.answer_all_with_intervals

        def held(queries, confidence):
            entered.set()
            assert resume.wait(timeout=10)
            return answer_all(queries, confidence)

        monkeypatch.setattr(engine, "answer_all_with_intervals", held)
        with ThreadPoolExecutor(max_workers=1) as pool:
            in_flight = pool.submit(
                server.query, QueryRequest("census", {"Age": (10, 40)})
            )
            assert entered.wait(timeout=10)
            server.close()
            resume.set()
            response = in_flight.result(timeout=10)
        assert (response.estimate, response.noise_std) == (
            expected.estimate,
            expected.noise_std,
        )
        assert (response.lower, response.upper) == (expected.lower, expected.upper)
        with pytest.raises(ServingError) as excinfo:
            server.query(QueryRequest("census"))
        assert excinfo.value.code == "closed"
        assert server.stats().requests == 1


def _single_threaded_answer(engine, request):
    """``request`` answered by ``engine`` directly, as the server would."""
    from repro.serving.requests import QueryBatchRequest

    if isinstance(request, QueryBatchRequest):
        lows, highs = request.bind(engine.schema)
        return engine.answer_columnar(lows, highs, request.confidence)
    return engine.answer_with_interval(
        request.to_query(engine.schema), request.confidence
    )


class TestConcurrentCallers:
    def test_eight_threads_on_a_cold_server(self, tmp_path, census_result, monkeypatch):
        """Callers answer on their own threads: every answer equals a
        single-threaded engine's, no counter update is lost, and each
        leaf builds its prefix tensor once."""
        import sys
        import threading

        import repro.core.release as release_module
        from repro.io import load_result
        from repro.serving.requests import QueryBatchRequest

        sharded = publish(
            generate_census_table(BRAZIL.scaled(0.05), 2_000, seed=4), 1.0,
            shard_by="Age", shards=3, seed=6, representation="coefficients",
        )
        paths = {"flat": tmp_path / "flat.npz", "sharded": tmp_path / "sharded.npz"}
        save_result(paths["flat"], census_result)
        save_result(paths["sharded"], sharded)
        engines = {name: QueryEngine(load_result(path)) for name, path in paths.items()}
        per_thread = []
        for caller in range(8):
            requests = []
            for step in range(6):
                lo = (7 * caller + 5 * step) % 90
                name = ("flat", "sharded")[(caller + step) % 2]
                if step % 2:
                    requests.append(QueryBatchRequest(
                        name, {"Age": {"lo": [lo, 0, lo], "hi": [lo + 11, 101, lo + 1]}},
                        confidence=0.9,
                    ))
                else:
                    requests.append(QueryRequest(name, {"Age": (lo, 101)}))
            per_thread.append(requests)
        truths = [
            [_single_threaded_answer(engines[request.release], request) for request in requests]
            for requests in per_thread
        ]

        builds = []
        real_prefix_tensor = release_module.prefix_tensor

        def counting_prefix_tensor(shape, fill):
            builds.append(tuple(shape))
            return real_prefix_tensor(shape, fill)

        monkeypatch.setattr(release_module, "prefix_tensor", counting_prefix_tensor)
        answers = [None] * len(per_thread)
        errors = []
        barrier = threading.Barrier(len(per_thread))

        def run(index):
            try:
                barrier.wait(timeout=10)
                answers[index] = [
                    server.query_columnar(request)
                    if isinstance(request, QueryBatchRequest)
                    else server.query(request)
                    for request in per_thread[index]
                ]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ReleaseServer() as server:
                for name, path in paths.items():
                    server.register_archive(path, name=name)
                threads = [
                    threading.Thread(target=run, args=(index,))
                    for index in range(len(per_thread))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        expected_rows = 0
        for requests, responses, truth in zip(per_thread, answers, truths):
            for request, response, expected in zip(requests, responses, truth):
                if isinstance(request, QueryBatchRequest):
                    for field in ("estimates", "noise_stds", "lowers", "uppers"):
                        assert np.array_equal(
                            getattr(response, field), getattr(expected, field)
                        )
                    expected_rows += len(request)
                else:
                    for field in ("estimate", "noise_std", "lower", "upper"):
                        assert getattr(response, field) == getattr(expected, field)
                    expected_rows += 1
        assert stats.requests == expected_rows
        assert stats.errors == 0
        # One flat leaf and three shard leaves, each built exactly once.
        assert len(builds) == 1 + sharded.release.num_shards


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

    def test_answer_requests_rejects_non_request(self, server):
        with pytest.raises(ServingError, match="QueryRequest"):
            server.answer_requests([QueryRequest("census"), {"release": "census"}])
        with pytest.raises(ServingError, match="QueryRequest"):
            server.submit(object())
        assert server.stats().batches == 0

    def test_columnar_rows_and_passes_are_counted(self, census_result):
        from repro.serving.requests import QueryBatchRequest

        with ReleaseServer() as srv:
            srv.register("census", census_result)
            request = QueryBatchRequest(
                "census", {"Age": {"lo": [0] * 6, "hi": [10] * 6}}
            )
            srv.query_columnar(request)
            stats = srv.stats()
            assert (stats.requests, stats.columnar_rows, stats.batches) == (6, 6, 1)
            srv.query_many([request, QueryRequest("census"), request])
            stats = srv.stats()
            assert (stats.requests, stats.columnar_rows, stats.batches) == (19, 18, 2)

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
        with ReleaseServer() as srv:
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

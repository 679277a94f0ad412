"""Tests for serving live streams: time_range requests and auto-refresh."""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.census import BRAZIL, census_schema, generate_census_table
from repro.errors import ServingError
from repro.queries.engine import QueryEngine
from repro.serving import server as server_module
from repro.serving.requests import QueryRequest
from repro.serving.server import ReleaseServer
from repro.streaming import StreamingPublisher

SPEC = BRAZIL.scaled(0.05)
EPOCHS = 4


@pytest.fixture
def stream_archive(tmp_path):
    path = tmp_path / "events.npz"
    publisher = StreamingPublisher(
        census_schema(SPEC),
        PriveletPlusMechanism(sa_names="auto"),
        1.0,
        seed=20100301,
        archive_path=path,
    )
    for epoch in range(EPOCHS):
        publisher.ingest(generate_census_table(SPEC, 200, seed=100 + epoch))
        publisher.advance_epoch()
    return path


@pytest.fixture
def flat_archive(tmp_path):
    from repro.io import save_result

    path = tmp_path / "flat.npz"
    result = PriveletPlusMechanism(sa_names="auto").publish(
        generate_census_table(SPEC, 200, seed=1), 1.0, seed=2, materialize=False
    )
    save_result(path, result)
    return path


class TestTimeRangeRequests:
    def test_window_request_matches_engine(self, stream_archive):
        from repro.io import load_result

        with ReleaseServer() as server:
            server.register_archive(stream_archive)
            response = server.query(
                QueryRequest(
                    release="events", ranges={"Age": (10, 50)}, time_range=(1, 3)
                )
            )
            import dataclasses

            loaded = load_result(stream_archive)
            engine = QueryEngine(
                dataclasses.replace(loaded, release=loaded.release.window(1, 3))
            )
            request = QueryRequest(
                release="events", ranges={"Age": (10, 50)}, time_range=(1, 3)
            )
            answer = engine.answer_with_interval(request.to_query(engine.schema))
            assert response.estimate == pytest.approx(answer.estimate)
            assert response.noise_std == pytest.approx(answer.noise_std)

    def test_open_ended_window_means_latest(self, stream_archive):
        with ReleaseServer() as server:
            server.register_archive(stream_archive)
            full = server.query(QueryRequest(release="events"))
            open_ended = server.query(
                QueryRequest(release="events", time_range=(0, None))
            )
            assert open_ended.estimate == pytest.approx(full.estimate)

    def test_batched_windows_group_separately(self, stream_archive):
        with ReleaseServer() as server:
            server.register_archive(stream_archive)
            requests = [
                QueryRequest(
                    release="events",
                    ranges={"Age": (0, 40)},
                    time_range=(epoch, epoch + 1),
                )
                for epoch in range(EPOCHS)
            ] * 3
            responses = server.query_many(requests)
            # Per-epoch answers sum to the full-stream answer.
            total = server.query(
                QueryRequest(release="events", ranges={"Age": (0, 40)})
            )
            per_epoch = sum(r.estimate for r in responses[:EPOCHS])
            assert per_epoch == pytest.approx(total.estimate, abs=1e-6)

    def test_time_range_on_flat_release_is_bad_request(self, flat_archive):
        with ReleaseServer() as server:
            server.register_archive(flat_archive, name="flat")
            with pytest.raises(ServingError, match="not a stream") as excinfo:
                server.query(QueryRequest(release="flat", time_range=(0, 1)))
            assert excinfo.value.code == "bad-request"

    def test_window_past_closed_prefix_is_bad_request(self, stream_archive):
        with ReleaseServer() as server:
            server.register_archive(stream_archive)
            with pytest.raises(ServingError) as excinfo:
                server.query(
                    QueryRequest(release="events", time_range=(0, EPOCHS + 5))
                )
            assert excinfo.value.code == "bad-request"

    def test_window_engines_are_lru_bounded(self, stream_archive, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_WINDOW_ENGINES", 2)
        with ReleaseServer() as server:
            server.register_archive(stream_archive)
            for epoch in range(EPOCHS):
                server.query(
                    QueryRequest(release="events", time_range=(epoch, epoch + 1))
                )
            assert server.stats().engines_built <= 2


class TestLiveRefresh:
    def append_epoch(self, path, seed):
        publisher = StreamingPublisher.open(path)
        publisher.ingest(generate_census_table(SPEC, 200, seed=seed))
        publisher.advance_epoch()

    def test_server_sees_appended_epochs(self, stream_archive):
        with ReleaseServer() as server:
            server.register_archive(stream_archive)
            before = server.query(QueryRequest(release="events", time_range=(0, None)))
            self.append_epoch(stream_archive, seed=100 + EPOCHS)
            fresh = server.query(
                QueryRequest(release="events", time_range=(EPOCHS, EPOCHS + 1))
            )
            after = server.query(QueryRequest(release="events", time_range=(0, None)))
            assert after.estimate == pytest.approx(
                before.estimate + fresh.estimate, abs=1e-6
            )

    def test_unchanged_archive_keeps_engine(self, stream_archive):
        with ReleaseServer() as server:
            server.register_archive(stream_archive)
            server.query(QueryRequest(release="events"))
            engine = server.engine("events")
            server.query(QueryRequest(release="events"))
            assert server.engine("events") is engine

    def test_watch_streams_off_requires_manual_refresh(self, stream_archive):
        with ReleaseServer(watch_streams=False) as server:
            server.register_archive(stream_archive)
            server.query(QueryRequest(release="events"))
            self.append_epoch(stream_archive, seed=100 + EPOCHS)
            with pytest.raises(ServingError, match="outside the closed prefix"):
                server.query(
                    QueryRequest(release="events", time_range=(EPOCHS, EPOCHS + 1))
                )
            assert server.refresh("events") is True
            response = server.query(
                QueryRequest(release="events", time_range=(EPOCHS, EPOCHS + 1))
            )
            assert np.isfinite(response.estimate)

    def test_static_archives_never_swap(self, flat_archive):
        with ReleaseServer() as server:
            server.register_archive(flat_archive, name="flat")
            server.query(QueryRequest(release="flat"))
            engine = server.engine("flat")
            # Touch the file: stale stat, but not a stream -> no swap.
            flat_archive.touch()
            server.query(QueryRequest(release="flat"))
            assert server.engine("flat") is engine


class TestServeCliTimeRange:
    def test_jsonl_loop_serves_windows(self, stream_archive, capsys, monkeypatch):
        lines = [
            json.dumps(
                {
                    "id": 1,
                    "release": "events",
                    "ranges": {"Age": [0, 30]},
                    "time_range": [1, 3],
                }
            ),
            json.dumps({"id": 2, "release": "events", "time_range": [0, None]}),
            json.dumps({"id": 3, "release": "events", "time_range": [9, 99]}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", str(stream_archive)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        responses = {json.loads(line)["id"]: json.loads(line) for line in out}
        assert responses[1]["ok"] is True
        assert responses[2]["ok"] is True
        assert responses[3]["ok"] is False
        assert responses[3]["code"] == "bad-request"

"""Shared-memory hygiene: round-trips, unlink discipline, crash sweeps.

Segments are the one resource the fleet owns outside its own process
tree, so their lifecycle is tested directly:

* publish → attach reproduces the release bit for bit, with the mapped
  arrays enforced read-only;
* a cleanly closed fleet leaves ``/dev/shm`` empty of its prefix;
* segments orphaned by a *crashed* parent (pid no longer alive) are
  swept on the next server start — live owners' segments are never
  touched;
* a stream-release refresh republishes fresh segments, every worker
  re-attaches, and not a single concurrent query is dropped.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.census import BRAZIL, census_schema, generate_census_table
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload
from repro.serving.network import NetworkServer
from repro.serving.shm import (
    attach_result_from_shm,
    publish_result_to_shm,
    sweep_stale_segments,
)
from repro.streaming import StreamingPublisher

from _network_helpers import JsonLineClient, hard_deadline

SPEC = BRAZIL.scaled(0.05)
SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="POSIX shared memory not mounted"
)


def _segments(prefix):
    return sorted(n for n in os.listdir(SHM_DIR) if n.startswith(prefix))


@pytest.fixture(scope="module")
def table():
    return generate_census_table(SPEC, 1_000, seed=0)


@pytest.fixture(scope="module")
def result(table):
    return PriveletPlusMechanism(sa_names="auto").publish(
        table, 1.0, seed=1, materialize=False
    )


class TestPublishAttachRoundTrip:
    def test_round_trip_is_bit_identical_and_read_only(self, result):
        prefix = f"shmtest-rt-{os.getpid()}"
        publication = publish_result_to_shm(result, prefix=prefix)
        try:
            assert _segments(prefix) == sorted(publication.segment_names)
            attachment = attach_result_from_shm(publication.manifest)
            mirrored = attachment.result
            assert mirrored.epsilon == result.epsilon
            assert mirrored.noise_magnitude == result.noise_magnitude
            assert np.array_equal(
                np.asarray(mirrored.release.coefficients),
                np.asarray(result.release.coefficients),
            )
            queries = generate_workload(result.release.schema, 8, seed=3)
            truth = QueryEngine(result).answer_all_with_intervals(queries, 0.95)
            mirror = QueryEngine(mirrored).answer_all_with_intervals(queries, 0.95)
            assert np.array_equal(truth.estimates, mirror.estimates)
            assert np.array_equal(truth.noise_stds, mirror.noise_stds)
            with pytest.raises((ValueError, RuntimeError)):
                np.asarray(mirrored.release.coefficients)[0] = 1.0
            attachment.close()
        finally:
            publication.close()
            publication.unlink()
        assert _segments(prefix) == []

    def test_unlink_is_idempotent(self, result):
        prefix = f"shmtest-idem-{os.getpid()}"
        publication = publish_result_to_shm(result, prefix=prefix)
        publication.close()
        publication.unlink()
        publication.unlink()
        assert _segments(prefix) == []


class TestCleanShutdownHygiene:
    def test_fleet_close_unlinks_every_segment(self, result):
        prefix = f"shmtest-clean-{os.getpid()}"
        server = NetworkServer(workers=2, shm_prefix=prefix)
        server.register("census", result)
        with hard_deadline(120):
            address = server.start()
            assert _segments(prefix)  # published while serving
            with JsonLineClient(address) as client:
                assert client.request(
                    {"op": "query", "release": "census", "ranges": {"Age": [0, 5]}}
                )["ok"]
            server.close()
        assert _segments(prefix) == []


class TestCrashSweep:
    def test_dead_owner_segments_swept_live_ones_kept(self):
        prefix = "shmtest-sweep"
        # A child creates prefix-named segments and exits: its pid is
        # dead, its segments are orphans — the simulated parent crash.
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                (
                    "import os\n"
                    "from multiprocessing import resource_tracker, shared_memory\n"
                    f"for i in range(2):\n"
                    f"    s = shared_memory.SharedMemory(\n"
                    f"        name=f'{prefix}-{{os.getpid()}}-dead-{{i}}',\n"
                    "        create=True, size=16)\n"
                    "    resource_tracker.unregister(s._name, 'shared_memory')\n"
                    "    s.close()\n"
                    "print(os.getpid())\n"
                ),
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(child.stdout)
        orphans = [f"{prefix}-{dead_pid}-dead-{i}" for i in range(2)]
        assert set(orphans) <= set(_segments(prefix))
        # This process is alive: its segment must survive the sweep.
        from multiprocessing import resource_tracker, shared_memory

        live = shared_memory.SharedMemory(
            name=f"{prefix}-{os.getpid()}-live-0", create=True, size=16
        )
        resource_tracker.unregister(live._name, "shared_memory")
        try:
            removed = sweep_stale_segments(prefix=prefix)
            assert sorted(removed) == sorted(orphans)
            assert _segments(prefix) == [f"{prefix}-{os.getpid()}-live-0"]
        finally:
            live.close()
            try:
                live.unlink()
            except FileNotFoundError:
                pass

    def test_server_start_sweeps_previous_crash(self, result):
        prefix = "shmtest-restart"
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                (
                    "import os\n"
                    "from multiprocessing import resource_tracker, shared_memory\n"
                    f"s = shared_memory.SharedMemory(name=f'{prefix}-{{os.getpid()}}-x-0',\n"
                    "    create=True, size=16)\n"
                    "resource_tracker.unregister(s._name, 'shared_memory')\n"
                    "s.close()\n"
                    "print(os.getpid())\n"
                ),
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        orphan = f"{prefix}-{int(child.stdout)}-x-0"
        assert orphan in _segments(prefix)
        server = NetworkServer(workers=1, shm_prefix=prefix)
        server.register("census", result)
        with hard_deadline(120):
            server.start()
            assert orphan not in _segments(prefix)  # swept at startup
            server.close()
        assert _segments(prefix) == []


class TestStreamRefresh:
    def test_refresh_republishes_and_no_query_drops(self, tmp_path):
        prefix = f"shmtest-stream-{os.getpid()}"
        archive = tmp_path / "events.npz"
        publisher = StreamingPublisher(
            census_schema(SPEC),
            PriveletPlusMechanism(sa_names="auto"),
            1.0,
            seed=7,
            archive_path=archive,
        )
        for epoch in range(2):
            publisher.ingest(generate_census_table(SPEC, 200, seed=50 + epoch))
            publisher.advance_epoch()
        server = NetworkServer(
            workers=2,
            shm_prefix=prefix,
            watch_streams=False,
        )
        server.register_archive(archive, name="stream")
        failures = []
        answered = []
        stop = threading.Event()

        def spam():
            with JsonLineClient(server.address, timeout=30.0) as client:
                while not stop.is_set():
                    answer = client.request(
                        {
                            "op": "query",
                            "release": "stream",
                            "ranges": {"Age": [0, 10]},
                        }
                    )
                    if answer is None or not answer["ok"]:
                        failures.append(answer)
                        return
                    answered.append(answer["estimate"])

        with hard_deadline(180):
            server.start()
            try:
                before = set(_segments(prefix))
                spammers = [threading.Thread(target=spam) for _ in range(3)]
                for thread in spammers:
                    thread.start()
                # Grow the stream on disk, then republish its segments.
                publisher.ingest(generate_census_table(SPEC, 200, seed=99))
                publisher.advance_epoch()
                server.refresh("stream")
                after = set(_segments(prefix))
                # Fresh segments exist; the old generation is unlinked.
                assert after and after.isdisjoint(before)
                with JsonLineClient(server.address) as client:
                    windowed = client.request(
                        {
                            "op": "query",
                            "release": "stream",
                            "ranges": {"Age": [0, 10]},
                            "time_range": [2, 3],  # the epoch just added
                        }
                    )
                assert windowed["ok"] is True
                stop.set()
                for thread in spammers:
                    thread.join()
            finally:
                stop.set()
                server.close()
        # Zero dropped or failed queries across the refresh.
        assert failures == []
        assert answered  # traffic actually flowed throughout
        assert _segments(prefix) == []

    def test_watcher_refreshes_from_disk(self, tmp_path):
        """watch_streams=True notices an appended epoch by itself."""
        prefix = f"shmtest-watch-{os.getpid()}"
        archive = tmp_path / "watched.npz"
        publisher = StreamingPublisher(
            census_schema(SPEC),
            PriveletPlusMechanism(sa_names="auto"),
            1.0,
            seed=11,
            archive_path=archive,
        )
        publisher.ingest(generate_census_table(SPEC, 200, seed=1))
        publisher.advance_epoch()
        server = NetworkServer(
            workers=1,
            shm_prefix=prefix,
            watch_streams=True,
            stream_poll_seconds=0.05,
        )
        server.register_archive(archive, name="stream")
        with hard_deadline(180):
            server.start()
            try:
                publisher.ingest(generate_census_table(SPEC, 200, seed=2))
                publisher.advance_epoch()
                with JsonLineClient(server.address, timeout=30.0) as client:
                    # Poll until the watcher has republished epoch 1.
                    while True:
                        answer = client.request(
                            {
                                "op": "query",
                                "release": "stream",
                                "ranges": {"Age": [0, 10]},
                                "time_range": [1, 2],
                            }
                        )
                        assert answer is not None
                        if answer["ok"]:
                            break
                        assert answer["code"] == "bad-request"
            finally:
                server.close()
        assert _segments(prefix) == []

    def test_close_lets_an_in_flight_refresh_finish(self, result, monkeypatch):
        """A refresh running when close() starts completes and is torn
        down: neither generation of its segments outlives the fleet."""
        import repro.serving.network as network

        prefix = f"shmtest-closing-{os.getpid()}"
        server = NetworkServer(workers=1, shm_prefix=prefix, watch_streams=False)
        server.register("census", result)
        entered, published = threading.Event(), threading.Event()

        def slow_publish(*args, **kwargs):
            entered.set()
            # Still publishing after close() has started.
            threading.Event().wait(0.5)
            publication = publish_result_to_shm(*args, **kwargs)
            published.set()
            return publication

        def refresh():
            try:
                server.refresh("census", result)
            except Exception:  # noqa: BLE001 - only the segments matter here
                pass

        with hard_deadline(120):
            server.start()
            monkeypatch.setattr(network, "publish_result_to_shm", slow_publish)
            refresher = threading.Thread(target=refresh)
            refresher.start()
            try:
                assert entered.wait(timeout=30)
            finally:
                server.close()
            refresher.join(timeout=30)
            assert not refresher.is_alive()
            assert published.wait(timeout=30)
        assert _segments(prefix) == []

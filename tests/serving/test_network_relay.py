"""The fleet as a byte relay: big replies, the strict codec, and order.

The front-end decodes each frame only to route it; a worker answers the
raw line and sends back its reply already encoded, over length-prefixed
frames on a socketpair that the front-end's event loop reads.  These
tests pin what the relay must keep:

* a reply larger than one socket read (a 4,096-row batch, ~300 KB)
  reaches the client intact, bit for bit with the in-process engine;
* a frame only a lenient decoder accepts closes only its connection;
* ``stats`` and ``list`` replies encode, and keep their place among
  pipelined queries on one connection;
* a running fleet adds one thread, its event loop, whatever its size;
* ``close()`` stops a worker even when another process holds a copy of
  its socket (what the ``fork`` start method leaves behind).
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.census import BRAZIL, generate_census_table
from repro.queries.engine import QueryEngine
from repro.serving.network import NetworkServer, _frame, _take_frames

from _network_helpers import JsonLineClient, hard_deadline

SPEC = BRAZIL.scaled(0.05)
BIG_BATCH = 4_096
#: The most one read of a worker pipe returns on the front-end's loop.
SOCKET_READ = 256 * 1024
LENIENT = {
    "NaN": b'{"id": 1, "release": "census", "confidence": NaN}\n',
    "Infinity": b'{"id": Infinity, "release": "census"}\n',
    "lone-surrogate": b'{"id": "\\ud800", "release": "census"}\n',
}


@pytest.fixture(scope="module")
def result():
    table = generate_census_table(SPEC, 2_000, seed=0)
    return PriveletPlusMechanism(sa_names="auto").publish(
        table, 1.0, seed=3, materialize=False
    )


@pytest.fixture(scope="module")
def fleet(result):
    server = NetworkServer(workers=2)
    server.register("census", result)
    with hard_deadline(120):
        address = server.start()
    yield address
    with hard_deadline(60):
        server.close()


def _query(identifier):
    return {"op": "query", "release": "census", "ranges": {"Age": [0, 10]}, "id": identifier}


def _random_boxes(schema, rng, count):
    lows = np.stack([rng.integers(0, a.size, size=count) for a in schema], axis=1)
    highs = np.stack(
        [rng.integers(lows[:, axis] + 1, a.size + 1) for axis, a in enumerate(schema)],
        axis=1,
    )
    return lows, highs


def _batch_frame(schema, lows, highs, identifier=None):
    return {
        "op": "query_batch",
        "release": "census",
        "id": identifier,
        "ranges": {
            a.name: {"lo": lows[:, axis].tolist(), "hi": highs[:, axis].tolist()}
            for axis, a in enumerate(schema)
        },
    }


class TestFrames:
    def test_any_chunking_yields_the_same_frames(self):
        frames = [(0, b'{"id":1}\n'), (1, b""), (0, b"x" * 300), (1, b"\x00\xff")]
        stream = b"".join(_frame(tag, body) for tag, body in frames)
        for step in (1, 2, 5, 7, 64, len(stream)):
            buffer, taken = bytearray(), []
            for start in range(0, len(stream), step):
                buffer += stream[start:start + step]
                taken.extend(_take_frames(buffer))
            assert [(tag, bytes(body)) for tag, body in taken] == frames
            assert not buffer


class TestRelay:
    def test_big_batch_reply_crosses_the_pipe_bit_for_bit(self, fleet, result):
        schema = result.release.schema
        lows, highs = _random_boxes(schema, np.random.default_rng(4096), BIG_BATCH)
        with hard_deadline(120), JsonLineClient(fleet) as client:
            client.send(_batch_frame(schema, lows, highs, identifier="big"))
            raw = client.file.readline()
        assert len(raw) > SOCKET_READ
        reply = json.loads(raw)
        truth = QueryEngine(result).answer_columnar(lows, highs)
        assert reply["ok"] is True and reply["id"] == "big"
        assert reply["count"] == BIG_BATCH
        assert reply["estimates"] == truth.estimates.tolist()
        assert reply["noise_stds"] == truth.noise_stds.tolist()
        assert reply["lowers"] == truth.lowers.tolist()
        assert reply["uppers"] == truth.uppers.tolist()

    @pytest.mark.parametrize("line", LENIENT.values(), ids=LENIENT.keys())
    def test_lenient_json_closes_only_its_connection(self, fleet, line):
        json.loads(line)  # the stdlib decoder takes it
        with hard_deadline(60):
            bad, good = JsonLineClient(fleet), JsonLineClient(fleet)
            try:
                bad.send(line)
                answer = bad.recv()
                assert answer["ok"] is False and answer["code"] == "bad-request"
                assert "malformed JSON" in answer["error"]
                assert bad.recv() is None  # closed
                assert good.request(_query("good"))["ok"] is True  # untouched
            finally:
                bad.close()
                good.close()

    def test_stats_and_list_keep_their_place_among_pipelined_queries(
        self, fleet, result
    ):
        schema = result.release.schema
        lows, highs = _random_boxes(schema, np.random.default_rng(7), 64)
        plan = [
            _query(0),
            _query(1),
            {"op": "stats", "id": "stats"},
            _batch_frame(schema, lows, highs, identifier=2),
            _query(3),
            {"op": "list", "id": "list"},
            _query(4),
            {"op": "stats", "id": "again"},
            _query(5),
        ]
        with hard_deadline(90), JsonLineClient(fleet) as client:
            for frame in plan:
                client.send(frame)
            answers = [client.recv() for _ in plan]
        assert [answer["id"] for answer in answers] == [frame["id"] for frame in plan]
        assert all(answer["ok"] for answer in answers)
        stats = answers[2]["stats"]
        assert stats["frontend"]["workers_alive"] == 2
        assert stats["releases"] == ["census"]
        assert isinstance(stats["p50_latency_seconds"], float)
        assert answers[3]["count"] == 64
        assert [entry["name"] for entry in answers[5]["releases"]] == ["census"]
        assert answers[5]["releases"][0]["shape"] == list(schema.shape)


def test_a_running_fleet_adds_only_its_event_loop_thread(result):
    before = set(threading.enumerate())
    server = NetworkServer(workers=2)
    server.register("census", result)
    with hard_deadline(120):
        address = server.start()
        try:
            with JsonLineClient(address) as client:
                for index in range(8):
                    assert client.request(_query(index))["ok"] is True
            started = [t.name for t in threading.enumerate() if t not in before]
            assert started == ["repro-net-loop"]
        finally:
            server.close()


def test_close_stops_a_worker_whose_socket_has_another_holder(result):
    """Under ``fork``, a later worker inherits copies of earlier workers'
    sockets, so closing one delivers no EOF; the stop frame must end it
    before ``close()`` falls back to its 5 s join and a kill."""
    server = NetworkServer(workers=2)
    server.register("census", result)
    with hard_deadline(120):
        server.start()
        workers = list(server._workers)
        copies = [os.dup(worker.sock.fileno()) for worker in workers]
        try:
            began = time.monotonic()
            server.close()
            elapsed = time.monotonic() - began
        finally:
            for fd in copies:
                os.close(fd)
    assert elapsed < 4.0
    assert not any(worker.process.is_alive() for worker in workers)
    assert all(worker.process.exitcode == 0 for worker in workers)

"""Property: the TCP fleet ≡ the in-process JSONL loop, bit for bit.

The network front-end must be a pure *transport* change: for every
backend the serving layer supports — dense, coefficient, sharded,
stream — a request answered over the socket (through shared-memory
workers in other processes) must carry the exact float64 values the
same seed produces through an in-process :class:`ReleaseServer`,
scalar and columnar, including ``time_range`` windows on the stream
backend.  JSON's float round-trip is exact (``repr`` ↔ parse), so the
comparison really is bit for bit.
"""

import numpy as np
import pytest

from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.data.census import BRAZIL, census_schema, generate_census_table
from repro.serving.network import NetworkServer
from repro.serving.requests import QueryBatchRequest, QueryRequest
from repro.serving.server import ReleaseServer
from repro.streaming import StreamingPublisher

from _network_helpers import JsonLineClient, hard_deadline

SPEC = BRAZIL.scaled(0.05)
NAMES = ("Age", "Income")
BATCH = 32
BACKENDS = ("dense", "coefficient", "sharded", "stream")


def _random_ranges(schema, rng, count):
    """Columnar lo/hi arrays over NAMES with lo < hi."""
    ranges = {}
    for name in NAMES:
        size = schema[name].size
        lo = rng.integers(0, size, size=count)
        hi = rng.integers(lo + 1, size + 1)
        ranges[name] = {"lo": lo.tolist(), "hi": hi.tolist()}
    return ranges


def _scalar_boxes(ranges, count):
    return [
        {name: [spec["lo"][row], spec["hi"][row]] for name, spec in ranges.items()}
        for row in range(count)
    ]


def _publish_backends(table, stream_archive):
    mechanism = PriveletPlusMechanism(sa_names="auto")
    return {
        "dense": mechanism.publish(table, 1.0, seed=1, materialize=True),
        "coefficient": mechanism.publish(table, 1.0, seed=2, materialize=False),
        "sharded": publish(
            table, 1.0, mechanism=mechanism, shard_by="Age", shards=3, seed=3
        ),
        "stream": stream_archive,
    }


@pytest.fixture(scope="module")
def table():
    return generate_census_table(SPEC, 2_000, seed=0)


@pytest.fixture(scope="module")
def stream_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "events.npz"
    publisher = StreamingPublisher(
        census_schema(SPEC),
        PriveletPlusMechanism(sa_names="auto"),
        1.0,
        seed=20100301,
        archive_path=path,
    )
    for epoch in range(4):
        publisher.ingest(generate_census_table(SPEC, 300, seed=100 + epoch))
        publisher.advance_epoch()
    return path


@pytest.fixture(scope="module")
def reference(table, stream_archive):
    """The in-process ground truth: one ReleaseServer, same releases."""
    backends = _publish_backends(table, stream_archive)
    with ReleaseServer() as server:
        for name in ("dense", "coefficient", "sharded"):
            server.register(name, backends[name])
        server.register_archive(backends["stream"], name="stream")
        yield server


@pytest.fixture(scope="module")
def fleet(table, stream_archive):
    """The TCP fleet under test: 2 workers over shared memory."""
    backends = _publish_backends(table, stream_archive)
    server = NetworkServer(workers=2)
    for name in ("dense", "coefficient", "sharded"):
        server.register(name, backends[name])
    server.register_archive(backends["stream"], name="stream")
    with hard_deadline(120):
        address = server.start()
    yield address
    with hard_deadline(60):
        server.close()


class TestNetworkParity:
    @pytest.mark.parametrize("release", BACKENDS)
    def test_scalar_requests_bit_for_bit(self, fleet, reference, release):
        schema = reference.engine(release).schema
        rng = np.random.default_rng(BACKENDS.index(release))
        ranges = _random_ranges(schema, rng, BATCH)
        boxes = _scalar_boxes(ranges, BATCH)
        with hard_deadline(90), JsonLineClient(fleet) as client:
            for box in boxes:
                client.send(
                    {"op": "query", "release": release, "ranges": box}
                )
            answers = [client.recv() for _ in boxes]
        truth = reference.query_many(
            [QueryRequest(release, box) for box in boxes]
        )
        for wire, scalar in zip(answers, truth):
            assert wire["ok"] is True
            assert wire["release"] == release
            assert wire["estimate"] == scalar.estimate
            assert wire["noise_std"] == scalar.noise_std
            assert wire["lower"] == scalar.lower
            assert wire["upper"] == scalar.upper
            assert wire["confidence"] == scalar.confidence

    @pytest.mark.parametrize("release", BACKENDS)
    def test_columnar_batches_bit_for_bit(self, fleet, reference, release):
        schema = reference.engine(release).schema
        rng = np.random.default_rng(10 + BACKENDS.index(release))
        ranges = _random_ranges(schema, rng, BATCH)
        with hard_deadline(90), JsonLineClient(fleet) as client:
            wire = client.request(
                {
                    "op": "query_batch",
                    "release": release,
                    "ranges": ranges,
                    "confidence": 0.9,
                }
            )
        truth = reference.query_columnar(
            QueryBatchRequest(release, ranges, confidence=0.9)
        )
        assert wire["ok"] is True and wire["count"] == BATCH
        assert wire["estimates"] == truth.estimates.tolist()
        assert wire["noise_stds"] == truth.noise_stds.tolist()
        assert wire["lowers"] == truth.lowers.tolist()
        assert wire["uppers"] == truth.uppers.tolist()

    @pytest.mark.parametrize("window", [(0, 2), (1, 4)])
    def test_time_windows_bit_for_bit(self, fleet, reference, window):
        schema = reference.engine("stream").schema
        rng = np.random.default_rng(sum(window))
        ranges = _random_ranges(schema, rng, 16)
        boxes = _scalar_boxes(ranges, 16)
        with hard_deadline(90), JsonLineClient(fleet) as client:
            batch_wire = client.request(
                {
                    "op": "query_batch",
                    "release": "stream",
                    "ranges": ranges,
                    "time_range": list(window),
                }
            )
            scalar_wire = [
                client.request(
                    {
                        "op": "query",
                        "release": "stream",
                        "ranges": box,
                        "time_range": list(window),
                    }
                )
                for box in boxes
            ]
        truth = reference.query_columnar(
            QueryBatchRequest("stream", ranges, time_range=window)
        )
        assert batch_wire["ok"] is True
        assert batch_wire["estimates"] == truth.estimates.tolist()
        assert batch_wire["noise_stds"] == truth.noise_stds.tolist()
        for row, wire in enumerate(scalar_wire):
            assert wire["ok"] is True
            assert wire["estimate"] == truth.estimates[row]
            assert wire["noise_std"] == truth.noise_stds[row]
            assert wire["lower"] == truth.lowers[row]
            assert wire["upper"] == truth.uppers[row]

    def test_requests_interleaved_across_releases(self, fleet, reference):
        """One connection mixing every backend still answers in order."""
        rng = np.random.default_rng(99)
        plan = []
        for release in BACKENDS * 2:
            schema = reference.engine(release).schema
            box = _scalar_boxes(_random_ranges(schema, rng, 1), 1)[0]
            plan.append((release, box))
        with hard_deadline(90), JsonLineClient(fleet) as client:
            for index, (release, box) in enumerate(plan):
                client.send(
                    {
                        "op": "query",
                        "release": release,
                        "ranges": box,
                        "id": index,
                    }
                )
            answers = [client.recv() for _ in plan]
        for index, ((release, box), wire) in enumerate(zip(plan, answers)):
            truth = reference.query(QueryRequest(release, box))
            assert wire["id"] == index and wire["release"] == release
            assert wire["estimate"] == truth.estimate
            assert wire["noise_std"] == truth.noise_std

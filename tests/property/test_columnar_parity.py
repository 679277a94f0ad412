"""Property: the columnar batch path ≡ the scalar path, bit for bit.

The columnar fast path (QueryBatchRequest → PlanCache → answer_columnar)
must be a pure *representation* change: for every backend the serving
layer supports — dense, coefficient, sharded, stream — a columnar batch
must produce the exact float64 bit patterns (estimates, noise stds,
interval bounds) the per-request scalar path produces for the same
boxes, including full-domain boxes and time-windowed stream queries.
Degenerate rows (lo == hi), which the scalar Predicate cannot express,
are pinned against the engine-level ground truth instead: an empty box
answers exactly 0.0 with noise std exactly 0.0.
"""

import numpy as np
import pytest

from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.data.census import BRAZIL, census_schema, generate_census_table
from repro.serving.requests import QueryBatchRequest, QueryRequest
from repro.serving.server import ReleaseServer
from repro.streaming import StreamingPublisher

SPEC = BRAZIL.scaled(0.05)
NAMES = ("Age", "Income")
BATCH = 64


def _random_ranges(schema, rng, count, *, degenerate=False):
    """Per-attribute lo/hi columns over NAMES (lo < hi unless degenerate)."""
    ranges = {}
    for name in NAMES:
        size = schema[name].size
        if degenerate:
            lo = rng.integers(0, size + 1, size=count)
            hi = lo
        else:
            lo = rng.integers(0, size, size=count)
            hi = rng.integers(lo + 1, size + 1)
        ranges[name] = {"lo": lo.tolist(), "hi": hi.tolist()}
    return ranges


def _scalar_requests(release, ranges, count, time_range=None):
    return [
        QueryRequest(
            release,
            {name: (spec["lo"][row], spec["hi"][row]) for name, spec in ranges.items()},
            time_range=time_range,
        )
        for row in range(count)
    ]


def _assert_bitwise_equal(batch_response, scalar_responses):
    for row, scalar in enumerate(scalar_responses):
        assert batch_response.estimates[row] == scalar.estimate
        assert batch_response.noise_stds[row] == scalar.noise_std
        assert batch_response.lowers[row] == scalar.lower
        assert batch_response.uppers[row] == scalar.upper


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
def server(table, stream_archive):
    mechanism = PriveletPlusMechanism(sa_names="auto")
    with ReleaseServer() as srv:
        srv.register(
            "dense", mechanism.publish(table, 1.0, seed=1, materialize=True)
        )
        srv.register(
            "coefficient", mechanism.publish(table, 1.0, seed=2, materialize=False)
        )
        srv.register(
            "sharded",
            publish(
                table, 1.0, mechanism=mechanism, shard_by="Age", shards=3, seed=3
            ),
        )
        srv.register_archive(stream_archive, name="stream")
        yield srv


BACKENDS = ("dense", "coefficient", "sharded", "stream")


class TestColumnarScalarParity:
    @pytest.mark.parametrize("release", BACKENDS)
    def test_random_boxes_bit_for_bit(self, server, release):
        schema = server.engine(release).schema
        rng = np.random.default_rng(BACKENDS.index(release))
        ranges = _random_ranges(schema, rng, BATCH)
        batch = server.query_columnar(QueryBatchRequest(release, ranges))
        scalars = server.query_many(_scalar_requests(release, ranges, BATCH))
        _assert_bitwise_equal(batch, scalars)

    @pytest.mark.parametrize("release", BACKENDS)
    def test_full_domain_boxes_bit_for_bit(self, server, release):
        schema = server.engine(release).schema
        ranges = {
            name: {"lo": [0, 0], "hi": [schema[name].size] * 2} for name in NAMES
        }
        batch = server.query_columnar(QueryBatchRequest(release, ranges))
        scalars = server.query_many(_scalar_requests(release, ranges, 2))
        _assert_bitwise_equal(batch, scalars)
        # Both rows are the same box: identical answers, bit for bit.
        assert batch.estimates[0] == batch.estimates[1]
        assert batch.noise_stds[0] == batch.noise_stds[1]

    @pytest.mark.parametrize("release", BACKENDS)
    def test_degenerate_boxes_answer_exact_zero(self, server, release):
        schema = server.engine(release).schema
        rng = np.random.default_rng(7)
        ranges = _random_ranges(schema, rng, 16, degenerate=True)
        batch = server.query_columnar(QueryBatchRequest(release, ranges))
        assert np.array_equal(batch.estimates, np.zeros(16))
        assert np.array_equal(batch.noise_stds, np.zeros(16))
        assert np.array_equal(batch.lowers, np.zeros(16))
        assert np.array_equal(batch.uppers, np.zeros(16))

    def test_time_windowed_boxes_bit_for_bit(self, server):
        schema = server.engine("stream").schema
        rng = np.random.default_rng(11)
        for window in ((0, 2), (1, 4)):
            ranges = _random_ranges(schema, rng, 24)
            batch = server.query_columnar(
                QueryBatchRequest("stream", ranges, time_range=window)
            )
            scalars = server.query_many(
                _scalar_requests("stream", ranges, 24, time_range=window)
            )
            _assert_bitwise_equal(batch, scalars)

    @pytest.mark.parametrize("release", BACKENDS)
    def test_mixed_degenerate_and_proper_rows(self, server, release):
        """Degenerate rows ride in the same batch without perturbing others."""
        schema = server.engine(release).schema
        rng = np.random.default_rng(13)
        proper = _random_ranges(schema, rng, 8)
        ranges = {
            name: {
                "lo": proper[name]["lo"] + [0, 5],
                "hi": proper[name]["hi"] + [0, 5],
            }
            for name in NAMES
        }
        batch = server.query_columnar(QueryBatchRequest(release, ranges))
        scalars = server.query_many(_scalar_requests(release, proper, 8))
        _assert_bitwise_equal(batch, scalars)
        assert batch.estimates[8] == 0.0 and batch.estimates[9] == 0.0
        assert batch.noise_stds[8] == 0.0 and batch.noise_stds[9] == 0.0

    def test_engine_answer_columnar_matches_scalar_intervals(self, server):
        """Below the wire: answer_columnar ≡ answer_all_with_intervals."""
        from repro.analysis.exact import query_boxes
        from repro.queries.workload import generate_workload

        engine = server.engine("coefficient")
        queries = generate_workload(engine.schema, 50, seed=17)
        lows, highs = query_boxes(queries, engine.schema.shape)
        scalar = engine.answer_all_with_intervals(queries, 0.9)
        columnar = engine.answer_columnar(lows, highs, 0.9)
        assert np.array_equal(scalar.estimates, columnar.estimates)
        assert np.array_equal(scalar.noise_stds, columnar.noise_stds)
        assert np.array_equal(scalar.lowers, columnar.lowers)
        assert np.array_equal(scalar.uppers, columnar.uppers)

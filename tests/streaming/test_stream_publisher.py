"""Tests for the streaming publisher (ingest, epochs, leaves, archives)."""

import numpy as np
import pytest

from repro.core.basic import BasicMechanism
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.census import BRAZIL, census_schema, generate_census_table
from repro.data.schema import Schema
from repro.data.attributes import OrdinalAttribute
from repro.data.table import Table
from repro.errors import StreamingError
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload
from repro.streaming import StreamingPublisher, epoch_seed

SPEC = BRAZIL.scaled(0.05)
EPS = 1.0


@pytest.fixture
def schema():
    return census_schema(SPEC)


@pytest.fixture
def publisher(schema):
    return StreamingPublisher(
        schema, PriveletPlusMechanism(sa_names="auto"), EPS, seed=20100301
    )


def epoch_table(seed: int, rows: int = 300) -> Table:
    return generate_census_table(SPEC, rows, seed=seed)


class TestIngest:
    def test_rows_buffer_into_open_epoch(self, publisher):
        assert publisher.ingest(epoch_table(1)) == 300
        assert publisher.pending_rows == 300
        assert publisher.closed_epochs == 0

    def test_timestamps_route_to_future_epochs(self, publisher):
        table = epoch_table(1, rows=10)
        stamps = np.asarray([0, 0, 1, 1, 1, 2, 5, 5, 5, 5])
        publisher.ingest(table, stamps)
        assert publisher.pending_rows == 10
        publisher.advance_epoch()  # epoch 0: two rows
        publisher.advance_epoch()  # epoch 1: three rows
        assert publisher.pending_rows == 5

    def test_epoch_length_buckets_timestamps(self, schema):
        publisher = StreamingPublisher(
            schema, PriveletPlusMechanism(sa_names="auto"), EPS,
            epoch_length=10, seed=0,
        )
        table = epoch_table(2, rows=4)
        publisher.ingest(table, [0, 9, 10, 25])
        publisher.advance_epoch()
        # timestamps 0 and 9 belong to epoch 0; 10 and 25 still pending.
        assert publisher.pending_rows == 2

    def test_late_arrival_rejected(self, publisher):
        publisher.advance_epoch()
        with pytest.raises(StreamingError, match="after that epoch was published"):
            publisher.ingest(epoch_table(1, rows=2), [0, 1])

    def test_wrong_schema_rejected(self, publisher):
        other = Table(Schema([OrdinalAttribute("x", 4)]), [[1], [2]])
        with pytest.raises(StreamingError, match="does not match the stream's"):
            publisher.ingest(other)

    def test_mismatched_timestamps_rejected(self, publisher):
        with pytest.raises(StreamingError, match="timestamps must have shape"):
            publisher.ingest(epoch_table(1, rows=3), [0, 1])
        with pytest.raises(StreamingError, match="non-negative"):
            publisher.ingest(epoch_table(1, rows=2), [-1, 0])


class TestAdvance:
    def test_empty_epochs_publish_noise_only(self, publisher):
        leaf = publisher.advance_epoch()
        assert publisher.closed_epochs == 1
        # Noise-only: the release answers, with nonzero variance.
        engine = QueryEngine(leaf)
        query = generate_workload(publisher.schema, 1, seed=1)[0]
        assert engine.noise_variance(query) > 0.0

    def test_advance_to(self, publisher):
        assert publisher.advance_to(5) == 5
        assert publisher.current_epoch == 5
        with pytest.raises(StreamingError, match="cannot rewind"):
            publisher.advance_to(3)

    def test_same_seed_reproduces_the_stream(self, schema):
        answers = []
        for _ in range(2):
            publisher = StreamingPublisher(
                schema, PriveletPlusMechanism(sa_names="auto"), EPS, seed=7
            )
            for epoch in range(3):
                publisher.ingest(epoch_table(20 + epoch))
                publisher.advance_epoch()
            queries = generate_workload(schema, 20, seed=3)
            answers.append(QueryEngine(publisher.result()).answer_all(queries))
        np.testing.assert_array_equal(answers[0], answers[1])

    def test_epoch_seed_is_pure_function(self):
        a = epoch_seed(5, 3)
        b = epoch_seed(5, 3)
        assert np.random.default_rng(a).random() == np.random.default_rng(b).random()
        assert epoch_seed(None, 3) is None
        with pytest.raises(StreamingError, match="invalid epoch"):
            epoch_seed(5, -1)

    def test_dense_stream_merges_too(self, schema):
        """A dense stream's window over both epochs answers the sum of
        its two leaves."""
        publisher = StreamingPublisher(
            schema, BasicMechanism(), EPS, seed=1, materialize=True
        )
        for epoch in range(2):
            publisher.ingest(epoch_table(30 + epoch))
            publisher.advance_epoch()
        release = publisher.release()
        assert [leaf.representation for leaf in release.leaves] == ["dense"] * 2
        queries = generate_workload(schema, 10, seed=4)
        window = QueryEngine(publisher.result()).answer_all(queries)
        leaves = sum(
            QueryEngine(release.part_result(epoch)).answer_all(queries)
            for epoch in range(2)
        )
        np.testing.assert_allclose(window, leaves, atol=1e-8)


class TestResult:
    def test_result_accounting(self, publisher):
        for epoch in range(3):
            publisher.ingest(epoch_table(40 + epoch))
            publisher.advance_epoch()
        result = publisher.result()
        leaf = publisher.release().part_result(0)
        assert result.epsilon == EPS
        assert result.noise_magnitude == pytest.approx(leaf.noise_magnitude)
        assert result.variance_bound == pytest.approx(3 * leaf.variance_bound)
        assert result.details["stream"] is True
        assert result.details["epochs"] == 3

    def test_zero_epoch_result(self, publisher):
        result = publisher.result()
        assert result.epsilon == EPS
        assert result.noise_magnitude == 0.0
        assert result.release.epochs == 0


class TestArchiveLifecycle:
    def test_append_and_resume_matches_continuous_run(self, schema, tmp_path):
        path = tmp_path / "stream.npz"
        publisher = StreamingPublisher(
            schema, PriveletPlusMechanism(sa_names="auto"), EPS,
            seed=11, archive_path=path,
        )
        for epoch in range(2):
            publisher.ingest(epoch_table(50 + epoch))
            publisher.advance_epoch()

        resumed = StreamingPublisher.open(path)
        assert resumed.current_epoch == 2
        assert resumed.epsilon == EPS
        resumed.ingest(epoch_table(52))
        resumed.advance_epoch()

        continuous = StreamingPublisher(
            schema, PriveletPlusMechanism(sa_names="auto"), EPS, seed=11
        )
        for epoch in range(3):
            continuous.ingest(epoch_table(50 + epoch))
            continuous.advance_epoch()

        queries = generate_workload(schema, 25, seed=5)
        from repro.io import load_result

        np.testing.assert_array_equal(
            QueryEngine(load_result(path)).answer_all(queries),
            QueryEngine(continuous.result()).answer_all(queries),
        )

    def test_existing_archive_rejected(self, schema, tmp_path):
        path = tmp_path / "stream.npz"
        StreamingPublisher(
            schema, PriveletPlusMechanism(sa_names="auto"), EPS, archive_path=path
        )
        with pytest.raises(Exception, match="already exists"):
            StreamingPublisher(
                schema, PriveletPlusMechanism(sa_names="auto"), EPS,
                archive_path=path,
            )

    def test_open_non_stream_archive_rejected(self, schema, tmp_path):
        from repro.io import save_result

        path = tmp_path / "flat.npz"
        result = PriveletPlusMechanism(sa_names="auto").publish(
            epoch_table(1), EPS, seed=0
        )
        save_result(path, result)
        with pytest.raises(Exception, match="not a stream archive"):
            StreamingPublisher.open(path)


    def test_open_window_view_rejected(self, schema, tmp_path):
        """A saved window records its bounds in a tree no append rewrites,
        so it cannot resume as a live stream."""
        import dataclasses

        from repro.io import save_result

        publisher = StreamingPublisher(
            schema, PriveletPlusMechanism(sa_names="auto"), EPS, seed=3
        )
        publisher.advance_to(4)
        stream = publisher.result()
        path = tmp_path / "window.npz"
        window = dataclasses.replace(stream, release=stream.release.window(1, 3))
        save_result(path, window)
        with pytest.raises(StreamingError, match="only a whole stream resumes"):
            StreamingPublisher.open(path)


class TestDenseArchiveResume:
    def test_dense_stream_resumes_dense(self, schema, tmp_path):
        """Regression: open() must read the per-leaf representation, not
        the archive-level 'stream' representation, so a dense stream
        keeps publishing dense leaves after a resume (a coefficient leaf
        would not share the stream's representation)."""
        path = tmp_path / "dense.npz"
        publisher = StreamingPublisher(
            schema, BasicMechanism(), EPS, seed=2, materialize=True,
            archive_path=path,
        )
        publisher.ingest(epoch_table(60))
        publisher.advance_epoch()

        resumed = StreamingPublisher.open(path)
        resumed.ingest(epoch_table(61))
        leaf = resumed.advance_epoch()
        assert leaf.representation == "dense"
        assert resumed.release().part_result(1).representation == "dense"

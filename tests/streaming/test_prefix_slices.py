"""A stream's running prefix: slices shared by its views, carried over appends."""

import dataclasses
import os
import sys
import threading
import zipfile

import numpy as np
import pytest

from repro.analysis.exact import query_boxes
from repro.core.compose import TimeTree
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.data.attributes import NominalAttribute, OrdinalAttribute
from repro.data.hierarchy import flat_hierarchy
from repro.data.schema import Schema
from repro.data.table import Table
from repro.io import load_result
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload
from repro.serving.requests import QueryBatchRequest
from repro.serving.server import ReleaseServer
from repro.streaming import StreamingPublisher

SCHEMA = Schema([
    OrdinalAttribute("value", 48),
    NominalAttribute("kind", flat_hierarchy([f"k{i}" for i in range(5)])),
])
ROWS = 60
APPENDS = 20


def _rows(seed: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table(SCHEMA, np.stack(
        [rng.integers(0, 48, ROWS), rng.integers(0, 5, ROWS)], axis=1
    ))


def _publisher(path=None, *, seed=5, materialize=False) -> StreamingPublisher:
    return StreamingPublisher(
        SCHEMA, PriveletPlusMechanism(sa_names="auto"), 1.0, seed=seed,
        materialize=materialize, archive_path=path,
    )


def _advance(publisher, epochs: int, first_seed: int) -> None:
    for epoch in range(epochs):
        publisher.ingest(_rows(first_seed + epoch))
        publisher.advance_epoch()


@pytest.fixture(scope="module")
def boxes():
    queries = generate_workload(SCHEMA, 24, seed=3)
    return query_boxes(queries, SCHEMA.shape)


def _ranges(lows, highs) -> dict:
    return {
        attribute.name: {"lo": lows[:, axis].tolist(), "hi": highs[:, axis].tolist()}
        for axis, attribute in enumerate(SCHEMA)
    }


def _fresh(path, window, lows, highs):
    """A fresh load's answers over ``window``: the reference every served
    answer must equal bit for bit."""
    result = load_result(path)
    view = result.release.window(*window)
    engine = QueryEngine(dataclasses.replace(result, release=view))
    return engine.answer_columnar(lows, highs, 0.9)


def _assert_same(served, fresh) -> None:
    np.testing.assert_array_equal(served.estimates, fresh.estimates)
    np.testing.assert_array_equal(served.noise_stds, fresh.noise_stds)
    np.testing.assert_array_equal(served.lowers, fresh.lowers)
    np.testing.assert_array_equal(served.uppers, fresh.uppers)


def _serve(server, window, lows, highs):
    return server.query_columnar(QueryBatchRequest(
        "events", _ranges(lows, highs), confidence=0.9, time_range=window
    ))


def _slices_of(server):
    return server.registry.get("events").release.slices


class TestLiveServing:
    def test_appended_stream_serves_like_a_fresh_load(self, tmp_path, boxes):
        lows, highs = boxes
        path = tmp_path / "events.npz"
        publisher = _publisher(path)
        _advance(publisher, 1, 100)
        rng = np.random.default_rng(8)
        with ReleaseServer(watch_streams=True) as server:
            server.register_archive(path, name="events")
            _serve(server, (0, 1), lows, highs)
            slices = _slices_of(server)
            for append in range(APPENDS):
                _advance(publisher, 1, 200 + append)
                newest = append + 2
                lo = int(rng.integers(0, newest))
                windows = [(0, newest), (lo, newest), (lo, max(lo, newest - 1))]
                for window in windows:
                    _assert_same(
                        _serve(server, window, lows, highs),
                        _fresh(path, window, lows, highs),
                    )
                # The refresh continued the one running prefix.
                assert _slices_of(server) is slices
                assert len(slices) == newest + 1

    def test_recreated_archive_starts_a_fresh_prefix(self, tmp_path, boxes):
        lows, highs = boxes
        path = tmp_path / "events.npz"
        _advance(_publisher(path, seed=5), 4, 100)
        with ReleaseServer(watch_streams=True) as server:
            server.register_archive(path, name="events")
            _serve(server, (0, 4), lows, highs)
            before = _slices_of(server)
            os.unlink(path)
            # Same schema, same header, other noise: no leaf's CRC matches.
            _advance(_publisher(path, seed=6), 5, 100)
            server.refresh("events")
            after = _slices_of(server)
            assert after is not before
            for window in [(0, 4), (1, 5), (0, 5)]:
                _assert_same(
                    _serve(server, window, lows, highs),
                    _fresh(path, window, lows, highs),
                )

    def test_window_answered_during_refresh(self, tmp_path, boxes):
        """More query threads than cores, switching often, race the
        refreshes and the folds they trigger; a lost or doubled fold
        would break the slice count or an answer."""
        lows, highs = boxes
        path = tmp_path / "events.npz"
        publisher = _publisher(path)
        _advance(publisher, 2, 100)
        published = [2]
        done = threading.Event()
        answers = []
        errors = []

        def query(seed):
            rng = np.random.default_rng(seed)
            try:
                while not done.is_set():
                    newest = published[0]
                    lo = int(rng.integers(0, newest))
                    window = (lo, newest)
                    answers.append((window, _serve(server, window, lows, highs)))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ReleaseServer(watch_streams=True) as server:
                server.register_archive(path, name="events")
                threads = [
                    threading.Thread(target=query, args=(seed,))
                    for seed in range(2 * (os.cpu_count() or 1) + 1)
                ]
                for thread in threads:
                    thread.start()
                try:
                    for append in range(8):
                        _advance(publisher, 1, 300 + append)
                        published[0] += 1
                finally:
                    done.set()
                    for thread in threads:
                        thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                _serve(server, (0, 10), lows, highs)
                slices = _slices_of(server)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert answers
        assert len(slices) == 11 and len(slices.sources) == 10
        fresh = {}
        for window, served in answers:
            if window not in fresh:
                fresh[window] = _fresh(path, window, lows, highs)
            _assert_same(served, fresh[window])


class TestSlices:
    @pytest.mark.parametrize("materialize", [False, True], ids=["coefficients", "dense"])
    def test_slices_across_refreshes_equal_slices_from_scratch(
        self, tmp_path, boxes, materialize
    ):
        lows, highs = boxes
        path = tmp_path / "events.npz"
        publisher = _publisher(path, materialize=materialize)
        _advance(publisher, 1, 100)
        with ReleaseServer(watch_streams=True) as server:
            server.register_archive(path, name="events")
            for append in range(6):
                _serve(server, (0, append + 1), lows, highs)
                _advance(publisher, 1, 200 + append)
            _serve(server, (0, 7), lows, highs)
            carried = server.registry.get("events").release
        scratch = load_result(path).release
        assert len(carried.slices) == 8
        for epoch in range(8):
            np.testing.assert_array_equal(
                carried.slices.kernel(epoch, carried.nodes).flat,
                scratch.slices.kernel(epoch, scratch.nodes).flat,
            )

    def test_answering_reads_leaves_once_and_keeps_none(self, tmp_path, boxes):
        lows, highs = boxes
        path = tmp_path / "events.npz"
        _advance(_publisher(path), 7, 100)
        release = load_result(path).release
        reads = []
        for key, node in release.nodes.items():
            loader = node._loader
            node._loader = lambda key=key, loader=loader: reads.append(key) or loader()
        for window in [(2, 5), (0, 7), (3, 3), (1, 6), (0, 1)]:
            release.window(*window).answer_boxes(lows, highs)
        assert sorted(reads) == [(0, epoch) for epoch in range(7)]
        assert release.nodes_loaded == 0
        assert release.nbytes() == 8 * release.slices.kernel(0, release.nodes).nbytes

    def test_empty_window_builds_nothing(self, boxes):
        lows, highs = boxes
        publisher = _publisher()
        _advance(publisher, 3, 100)
        view = publisher.release(2, 2)
        assert np.all(view.answer_boxes(lows, highs) == 0.0)
        assert len(view.slices) == 0

    def test_publisher_snapshots_share_one_prefix(self, boxes):
        lows, highs = boxes
        publisher = _publisher()
        _advance(publisher, 2, 100)
        first = publisher.release()
        first.answer_boxes(lows, highs)
        _advance(publisher, 2, 200)
        second = publisher.release(1, 4)
        assert second.slices is first.slices
        assert publisher.result().release.slices is first.slices
        second.answer_boxes(lows, highs)
        assert len(first.slices) == 5

    def test_views_share_the_root_transform(self, boxes):
        publisher = _publisher()
        _advance(publisher, 4, 100)
        root = publisher.release()
        view = root.window(1, 3)
        assert view.transform is root.transform
        assert view.slices is root.slices

    def test_partition_windows_share_each_part_transform(self):
        table = _rows(9)
        result = publish(
            table, 1.0, shard_by="value", shards=2,
            stream=np.arange(table.num_rows) % 4, seed=4,
        )
        union = result.release
        windowed = union.window(1, 3)
        for index in range(union.num_parts):
            root = union.part_result(index).release
            view = windowed.part_result(index).release
            assert isinstance(view, TimeTree)
            assert view.transform is root.transform
            assert view.slices is root.slices


class TestArchiveReader:
    def _members(self, path) -> dict:
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}

    def _assert_reads_match(self, release, path) -> None:
        expected = self._members(path)
        for key, node in release.nodes.items():
            member = f"node_{key[0]}_{key[1]}"
            got = node.read().release
            payload = (
                got.coefficients if hasattr(got, "coefficients")
                else got.to_matrix().values
            )
            np.testing.assert_array_equal(payload, expected[member])

    def test_reads_after_appends_match_np_load(self, tmp_path):
        path = tmp_path / "events.npz"
        publisher = _publisher(path)
        _advance(publisher, 2, 100)
        release = load_result(path).release
        _advance(publisher, 5, 200)
        # The reader parsed the 2-epoch directory; every member it lists
        # still reads at its recorded offset after five appends.
        self._assert_reads_match(release, path)
        self._assert_reads_match(load_result(path).release, path)

    def test_reads_after_recreate_match_np_load(self, tmp_path):
        path = tmp_path / "events.npz"
        _advance(_publisher(path, seed=5), 3, 100)
        release = load_result(path).release
        os.unlink(path)
        _advance(_publisher(path, seed=6), 4, 100)
        # Same names, other bytes: the CRC check fails and the reader
        # parses the new directory.
        self._assert_reads_match(release, path)

    def test_compressed_members_read_through_zipfile(self, tmp_path):
        path = tmp_path / "events.npz"
        _advance(_publisher(path), 3, 100)
        deflated = tmp_path / "deflated.npz"
        with zipfile.ZipFile(path) as source, zipfile.ZipFile(
            deflated, "w", compression=zipfile.ZIP_DEFLATED
        ) as target:
            for name in source.namelist():
                target.writestr(name, source.read(name))
        self._assert_reads_match(load_result(deflated).release, deflated)

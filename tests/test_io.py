"""Tests for result persistence: one archive layout for every release."""

import dataclasses
import json
import os
import stat
import struct
import subprocess
import sys
import threading
import time
import zipfile

import numpy as np
import pytest

import repro.io
from repro.analysis.exact import query_boxes
from repro.core.compose import Partition, TimeTree
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.core.release import convert_result
from repro.data.attributes import OrdinalAttribute
from repro.data.census import BRAZIL, census_schema, generate_census_table
from repro.data.schema import Schema
from repro.data.table import Table
from repro.errors import QueryError, ReproError
from repro.io import (
    ResultHandle,
    append_stream_nodes,
    create_stream_archive,
    load_result,
    open_result,
    result_from_parts,
    result_to_parts,
    save_result,
    schema_from_dict,
    schema_to_dict,
)
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload
from repro.streaming import StreamingPublisher

SPEC = BRAZIL.scaled(0.05)
MECHANISM = PriveletPlusMechanism(sa_names="auto")


class TestSchemaRoundTrip:
    def test_census_schema(self):
        schema = census_schema(BRAZIL.scaled(0.05))
        rebuilt = schema_from_dict(schema_to_dict(schema))
        assert rebuilt.names == schema.names
        assert rebuilt.shape == schema.shape
        for original, copy in zip(schema, rebuilt):
            assert original.is_ordinal == copy.is_ordinal
            if original.is_nominal:
                assert copy.hierarchy.height == original.hierarchy.height
                assert copy.hierarchy.num_nodes == original.hierarchy.num_nodes
                # Leaf order (and hence the coded domain) is preserved.
                assert copy.hierarchy.leaf_labels() == original.hierarchy.leaf_labels()

    def test_mixed_schema(self, mixed_schema):
        rebuilt = schema_from_dict(schema_to_dict(mixed_schema))
        assert rebuilt.shape == mixed_schema.shape

    def test_version_checked(self, mixed_schema):
        payload = schema_to_dict(mixed_schema)
        payload["version"] = 99
        with pytest.raises(ReproError):
            schema_from_dict(payload)

    def test_unknown_kind_rejected(self, mixed_schema):
        payload = schema_to_dict(mixed_schema)
        payload["attributes"][0]["kind"] = "mystery"
        with pytest.raises(ReproError):
            schema_from_dict(payload)


def _stream_publisher(path=None, seed=13):
    return StreamingPublisher(
        census_schema(SPEC), MECHANISM, 1.0, seed=seed, archive_path=path
    )


def _close_epochs(publisher, epochs, first_seed):
    for epoch in range(epochs):
        publisher.ingest(generate_census_table(SPEC, 150, seed=first_seed + epoch))
        publisher.advance_epoch()


def _release_shapes(directory) -> dict:
    """``name -> result`` for every release shape."""
    table = generate_census_table(SPEC, 800, seed=3)
    dense = publish(table, 1.0, seed=4)
    partition = publish(
        table, 1.0, shard_by="Age", shards=3, seed=5, representation="coefficients"
    )
    release = partition.release
    mixed = Partition(
        release.schema,
        release.attribute,
        release.bounds,
        [convert_result(release.part_result(0), "dense")]
        + [release.part_result(i) for i in range(1, release.num_parts)],
    )
    stream = _stream_publisher()
    _close_epochs(stream, 5, 40)
    resumed = _stream_publisher(directory / "resumed.npz")
    _close_epochs(resumed, 3, 60)
    resumed = StreamingPublisher.open(directory / "resumed.npz")
    _close_epochs(resumed, 2, 63)
    return {
        "dense leaf": dense,
        "coefficient leaf": publish(
            table, 1.0, seed=6, representation="coefficients"
        ),
        # Records no SA set: it answers boxes but has no variance model.
        "dense leaf without SA": dataclasses.replace(dense, details={}),
        "mixed partition": dataclasses.replace(partition, release=mixed),
        "stream": stream.result(),
        "zero-epoch stream": _stream_publisher().result(),
        "resumed stream": resumed.result(),
        "window": dataclasses.replace(
            stream.result(), release=stream.result().release.window(1, 4)
        ),
        "partition of streams": publish(
            table,
            1.0,
            shard_by="Age",
            shards=2,
            stream=np.arange(table.num_rows) % 4,
            seed=7,
        ),
    }


@pytest.fixture(scope="module")
def release_shapes(tmp_path_factory):
    return _release_shapes(tmp_path_factory.mktemp("shapes"))


def _loaded_payloads(release) -> int:
    """Leaf or node payloads a composed release has read so far."""
    if isinstance(release, TimeTree):
        return sum(node.loaded for node in release.nodes.values())
    if isinstance(release, Partition):
        return sum(
            _loaded_payloads(part.result().release) if part.composed else part.loaded
            for part in release.parts
        )
    return 0


def _routed_payloads(release) -> int:
    """Payloads a full-domain box keeps loaded: every partition leaf it
    routes to, and no stream node (a stream folds its level-0 leaves into
    running-prefix slices and keeps none of them)."""
    if isinstance(release, TimeTree):
        return 0
    if isinstance(release, Partition):
        return sum(
            _routed_payloads(part.result().release) if part.composed else 1
            for part in release.parts
        )
    return 0


def _time_trees(release) -> list:
    """Every stream in a release: itself, or a partition's stream parts."""
    if isinstance(release, TimeTree):
        return [release]
    if isinstance(release, Partition):
        return [
            tree
            for part in release.parts
            if part.composed
            for tree in _time_trees(part.result().release)
        ]
    return []


def _transport(transport, result, path):
    """Send ``result`` through one transport; returns (header, loaded)."""
    if transport == "parts":
        header, arrays = result_to_parts(result)
        # The shared-memory handoff ships the header as JSON.
        header = json.loads(json.dumps(header))
        return header, result_from_parts(header, arrays)
    save_result(path, result)
    if transport == "save/load":
        return open_result(path).header, load_result(path)
    handle = open_result(path)
    assert not handle.loaded
    return handle.header, handle.load()


@pytest.mark.parametrize("transport", ["save/load", "open_result", "parts"])
@pytest.mark.parametrize(
    "shape",
    [
        "dense leaf",
        "coefficient leaf",
        "dense leaf without SA",
        "mixed partition",
        "stream",
        "zero-epoch stream",
        "resumed stream",
        "window",
        "partition of streams",
    ],
)
def test_archive_round_trip(release_shapes, shape, transport, tmp_path):
    result = release_shapes[shape]
    header, loaded = _transport(transport, result, tmp_path / "release.npz")
    assert header["format"] == 5
    assert header["representation"] == result.representation
    assert loaded.representation == result.representation

    schema = result.release.schema
    queries = generate_workload(schema, 30, seed=1)
    lows, highs = query_boxes(queries, schema.shape)
    if shape == "dense leaf without SA":
        # Served as published, a release with no SA set has no variance
        # model, so the engine refuses it on either side of the trip.
        for unmodelled in (result, loaded):
            with pytest.raises(QueryError, match="no SA set"):
                QueryEngine(unmodelled)
    else:
        original = QueryEngine(result)
        reloaded = QueryEngine(loaded)
        np.testing.assert_array_equal(
            reloaded.noise_variances(queries), original.noise_variances(queries)
        )
        if transport != "parts":
            # A path load reads no leaf or node before a query routes to
            # it; exact variances need none at all.
            assert _loaded_payloads(loaded.release) == 0
        np.testing.assert_array_equal(
            reloaded.answer_all(queries), original.answer_all(queries)
        )
    np.testing.assert_array_equal(
        loaded.release.answer_boxes(lows, highs),
        result.release.answer_boxes(lows, highs),
    )
    if transport != "parts":
        # Answering keeps exactly the partition parts it routes to; a
        # stream reads each leaf below its window's end once, into its
        # running prefix, and keeps no node.
        full = np.asarray([schema.shape], dtype=np.int64)
        loaded.release.answer_boxes(np.zeros_like(full), full)
        assert _loaded_payloads(loaded.release) == _routed_payloads(loaded.release)
        for tree in _time_trees(loaded.release):
            lo, hi = tree.window_bounds
            assert len(tree.slices) == (hi + 1 if lo < hi else 0)
            assert len(tree.slices.sources) == max(len(tree.slices) - 1, 0)
            assert None not in tree.slices.sources

    assert loaded.epsilon == result.epsilon
    assert loaded.noise_magnitude == result.noise_magnitude
    assert loaded.generalized_sensitivity == result.generalized_sensitivity
    assert loaded.variance_bound == result.variance_bound
    # JSON stores tuples as lists.
    assert loaded.details == json.loads(json.dumps(result.details))
    if isinstance(result.release, TimeTree):
        assert loaded.release.epochs == result.release.epochs
        assert loaded.release.window_bounds == result.release.window_bounds


class TestRejectedArchives:
    def test_corrupt_archive_rejected(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ReproError):
            load_result(path)

    @pytest.mark.parametrize(
        "version, members",
        [
            (None, {"values": np.zeros((2, 3))}),
            (4, {"stream_manifest_0": np.zeros(3, dtype=np.uint8)}),
            (99, {"leaf": np.zeros((2, 3))}),
        ],
        ids=["v1", "v4", "future"],
    )
    def test_earlier_formats_rejected_by_name(self, tmp_path, version, members):
        header = {
            "schema": schema_to_dict(census_schema(SPEC)),
            "epsilon": 1.0,
            "noise_magnitude": 2.0,
            "generalized_sensitivity": 1.0,
            "variance_bound": 160.0,
        }
        if version is not None:
            header["format"] = version
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
            **members,
        )
        name = f"format {version or 1}"
        for load in (load_result, open_result):
            with pytest.raises(ReproError, match=name):
                load(path)
        with pytest.raises(ReproError, match=name):
            result_from_parts(header, members)


def test_corrupt_tree_entry_rejected(mixed_table):
    result = PriveletPlusMechanism(sa_names=("X",)).publish(
        mixed_table, 1.0, seed=7, materialize=False
    )
    header, arrays = result_to_parts(result)
    del header["tree"]["sa"]  # a coefficient leaf cannot rebuild its transform
    with pytest.raises(ReproError, match="corrupt result archive"):
        result_from_parts(header, arrays)


class TestResultHandle:
    @pytest.fixture
    def coefficient_archive(self, mixed_table, tmp_path):
        result = PriveletPlusMechanism(sa_names=("X",)).publish(
            mixed_table, 1.0, seed=7, materialize=False
        )
        path = tmp_path / "coeff.npz"
        save_result(path, result)
        return path, result

    def test_header_without_payload(self, coefficient_archive):
        path, result = coefficient_archive
        handle = open_result(path)
        assert isinstance(handle, ResultHandle)
        assert not handle.loaded
        assert handle.representation == "coefficients"
        assert handle.epsilon == 1.0
        assert handle.schema() == result.release.schema
        assert not handle.loaded  # header reads never load the payload

    def test_load_is_cached(self, coefficient_archive):
        path, result = coefficient_archive
        handle = open_result(path)
        loaded = handle.load()
        assert handle.loaded
        assert handle.load() is loaded
        np.testing.assert_array_equal(
            loaded.release.coefficients, result.release.coefficients
        )

    def test_missing_file_fails_fast(self, tmp_path):
        with pytest.raises(ReproError, match="no such archive"):
            open_result(tmp_path / "absent.npz")

    def test_non_archive_fails_fast(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(ReproError, match="not a repro result archive"):
            open_result(path)

    def test_truncated_zip_fails_fast(self, tmp_path):
        """Zip magic followed by garbage (a truncated download) raises
        BadZipFile inside numpy; it must surface as ReproError."""
        path = tmp_path / "truncated.npz"
        path.write_bytes(b"PK\x03\x04" + b"\x00" * 40)
        with pytest.raises(ReproError, match="not a repro result archive"):
            open_result(path)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_failed_opens_close_their_files(self, tmp_path):
        """Re-registering a corrupt archive must not leak a descriptor per
        attempt, even while the errors (and their tracebacks) are kept."""
        path = tmp_path / "truncated.npz"
        path.write_bytes(b"PK\x03\x04" + b"\x00" * 40)
        before = len(os.listdir("/proc/self/fd"))
        errors = []
        for _ in range(50):
            with pytest.raises(ReproError) as caught:
                open_result(path)
            errors.append(caught.value)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_repr_shows_laziness(self, coefficient_archive):
        path, _ = coefficient_archive
        handle = open_result(path)
        assert "lazy" in repr(handle)
        handle.load()
        assert "loaded" in repr(handle)


def _without(source, target, keep) -> None:
    """Copy the zip ``source`` to ``target`` keeping members ``keep`` accepts."""
    with zipfile.ZipFile(source) as src, zipfile.ZipFile(target, "w") as dst:
        for name in src.namelist():
            if keep(name):
                dst.writestr(name, src.read(name))


class TestStreamArchives:
    """Append-able stream archives: node members plus tree versions."""

    @pytest.fixture
    def stream_publisher(self, tmp_path):
        publisher = _stream_publisher(tmp_path / "stream.npz")
        _close_epochs(publisher, 5, 40)
        return publisher

    def test_append_only_members(self, stream_publisher):
        path = stream_publisher.archive_path
        with zipfile.ZipFile(path) as archive:
            before = {info.filename: info for info in archive.infolist()}
        # No duplicate members, one tree version per epoch count 0..5.
        assert len(before) == len(set(before))
        versions = sorted(name for name in before if name.startswith("tree_"))
        assert versions == [f"tree_{t}.npy" for t in range(6)]

        stream_publisher.ingest(generate_census_table(SPEC, 150, seed=45))
        stream_publisher.advance_epoch()  # epoch 5 completes node (1, 2)
        with zipfile.ZipFile(path) as archive:
            after = {info.filename: info for info in archive.infolist()}
        assert set(after) - set(before) == {
            "node_0_5.npy", "node_1_2.npy", "tree_6.npy",
        }
        # Existing members are neither rewritten nor moved, and every
        # member is stored: noise does not deflate.
        for name, info in before.items():
            kept = after[name]
            assert (kept.CRC, kept.header_offset, kept.file_size) == (
                info.CRC, info.header_offset, info.file_size,
            )
        assert {info.compress_type for info in after.values()} == {
            zipfile.ZIP_STORED
        }

    def test_duplicate_node_append_rejected(self, stream_publisher):
        node = stream_publisher.release().node_result(0, 0)
        with pytest.raises(ReproError, match="append-only"):
            append_stream_nodes(
                stream_publisher.archive_path,
                stream_publisher.result(),
                {(0, 0): node},
            )

    def test_missing_node_member_rejected(self, stream_publisher, tmp_path):
        clipped = tmp_path / "clipped.npz"
        _without(stream_publisher.archive_path, clipped, lambda n: n != "node_2_0.npy")
        with pytest.raises(ReproError, match="missing members"):
            load_result(clipped)

    def test_missing_part_member_rejected(self, tmp_path):
        table = generate_census_table(SPEC, 400, seed=8)
        path = tmp_path / "sharded.npz"
        save_result(path, publish(table, 1.0, shard_by="Age", shards=3, seed=5))
        clipped = tmp_path / "clipped.npz"
        _without(path, clipped, lambda n: n != "p1_leaf.npy")
        with pytest.raises(ReproError, match="missing members"):
            open_result(clipped)

    def test_corrupt_tree_rejected(self, stream_publisher, tmp_path):
        broken = tmp_path / "broken.npz"
        _without(
            stream_publisher.archive_path, broken, lambda n: not n.startswith("tree_")
        )
        with pytest.raises(ReproError, match="no tree member"):
            load_result(broken)

    def test_stale_tracks_appends(self, stream_publisher):
        handle = open_result(stream_publisher.archive_path)
        assert handle.stale is False
        resumed = StreamingPublisher.open(stream_publisher.archive_path)
        resumed.advance_epoch()
        assert handle.stale is True
        fresh = open_result(stream_publisher.archive_path)
        assert fresh.stale is False
        assert fresh.load().release.epochs == 6

    def test_zero_epoch_archive_loads(self, tmp_path):
        path = tmp_path / "empty.npz"
        create_stream_archive(
            path,
            census_schema(SPEC),
            epsilon=1.0,
            mechanism={"kind": "privelet+", "sa": ["Age", "Gender"]},
        )
        loaded = load_result(path)
        assert loaded.release.epochs == 0
        assert loaded.noise_magnitude == 0.0
        with pytest.raises(ReproError, match="already exists"):
            create_stream_archive(path, census_schema(SPEC), epsilon=1.0)


#: A second writer process: resume the stream archive ``argv[1]`` and
#: close one epoch per row block of the ``.npy`` file ``argv[2]``.
#: ``argv[3]`` says where it dies with ``os._exit(17)``: ``write<N>``
#: right after its N-th member write (flushed), ``fail<N>`` where a
#: failure raised after its N-th member write would be rolled back (the
#: zip's close on the way out has written a directory of its own),
#: ``unlink`` where it would delete its undo record, or ``none``.
_WRITER = """
import os
import sys

import numpy as np

import repro.io
from repro.data.table import Table
from repro.streaming import StreamingPublisher

path, blocks, kill = sys.argv[1:]
write_member, unlink, writes = repro.io._write_member, os.unlink, []


def write_member_or_die(archive, name, array):
    write_member(archive, name, array)
    writes.append(name)
    if kill == f"write{len(writes)}":
        archive.fp.flush()
        os._exit(17)
    if kill == f"fail{len(writes)}":
        raise OSError("injected write failure")


def restore_or_die(file, start, saved):
    os._exit(17)


def unlink_or_die(target):
    if kill == "unlink" and target.endswith(".undo"):
        os._exit(17)
    unlink(target)


repro.io._write_member = write_member_or_die
if kill.startswith("fail"):
    repro.io._restore = restore_or_die
os.unlink = unlink_or_die
publisher = StreamingPublisher.open(path)
for rows in np.load(blocks):
    publisher.ingest(Table(publisher.schema, rows))
    publisher.advance_epoch()
"""

SMALL = Schema([OrdinalAttribute("value", 256), OrdinalAttribute("kind", 8)])


def _blocks(epochs, first, rows=500) -> np.ndarray:
    """``(epochs, rows, 2)`` seeded row blocks, one per epoch."""
    rng = np.random.default_rng(first)
    return np.stack(
        [rng.integers(0, 256, (epochs, rows)), rng.integers(0, 8, (epochs, rows))],
        axis=2,
    )


def _writer(path, blocks, kill="none") -> list[str]:
    """The :data:`_WRITER` command line over ``blocks`` (saved beside ``path``)."""
    target = os.path.join(os.path.dirname(path), "blocks.npy")
    np.save(target, blocks)
    return [
        sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
        "-c", _WRITER, str(path), target, kill,
    ]


def _env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.io.__file__)))
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


def _close(publisher, blocks) -> None:
    for rows in blocks:
        publisher.ingest(Table(SMALL, rows))
        publisher.advance_epoch()


def _start_dir(path) -> int:
    with zipfile.ZipFile(path) as archive:
        return archive.start_dir


class TestInPlaceAppends:
    """An epoch close appends to the archive file itself, under a lock,
    with a rollback and an undo record for a killed writer."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "stream.npz"
        publisher = StreamingPublisher(
            SMALL, MECHANISM, 1.0, seed=29, archive_path=path
        )
        _close(publisher, _blocks(3, 100))
        return str(path)

    @staticmethod
    def _continuous(blocks):
        """The fixture's stream closed in one process, then ``blocks``."""
        publisher = StreamingPublisher(SMALL, MECHANISM, 1.0, seed=29)
        _close(publisher, _blocks(3, 100))
        _close(publisher, blocks)
        return publisher.result()

    @staticmethod
    def _assert_same_stream(loaded, expected):
        assert loaded.release.epochs == expected.release.epochs
        queries = generate_workload(SMALL, 40, seed=6)
        np.testing.assert_array_equal(
            QueryEngine(loaded).answer_all(queries),
            QueryEngine(expected).answer_all(queries),
        )

    def test_appends_in_place(self, path):
        publisher = StreamingPublisher.open(path)
        inode = os.stat(path).st_ino
        handle = open_result(path)
        for rows in _blocks(4, 200):
            start = _start_dir(path)
            with open(path, "rb") as file:
                before = file.read(start)
            publisher.ingest(Table(SMALL, rows))
            publisher.advance_epoch()
            assert os.stat(path).st_ino == inode
            with open(path, "rb") as file:
                assert file.read(start) == before
            assert handle.stale is True
            handle = open_result(path)
            assert handle.stale is False
            assert handle.load().release.epochs == publisher.closed_epochs
            leftovers = [
                name for name in os.listdir(os.path.dirname(path))
                if name.endswith((".undo", ".appending", ".tmp"))
            ]
            assert leftovers == []

    def test_failed_append_rolls_back(self, path, monkeypatch):
        with open(path, "rb") as file:
            before = file.read()
        write_member = repro.io._write_member

        def write_then_fail(archive, name, array):
            write_member(archive, name, array)
            raise OSError("injected write failure")

        monkeypatch.setattr(repro.io, "_write_member", write_then_fail)
        publisher = StreamingPublisher.open(path)
        publisher.ingest(Table(SMALL, _blocks(1, 200)[0]))
        with pytest.raises(OSError, match="injected write failure"):
            publisher.advance_epoch()
        monkeypatch.undo()
        with open(path, "rb") as file:
            assert file.read() == before
        assert not os.path.exists(path + ".undo")
        assert StreamingPublisher.open(path).current_epoch == 3

    @pytest.mark.parametrize("kill", ["write1", "write4"])
    def test_killed_writer_is_repaired(self, path, kill):
        """Killed after its first member write (the old end record still
        closes the file) or after its tree member (the file grew past it)."""
        with open(path, "rb") as file:
            before = file.read()
        blocks = _blocks(2, 200)
        child = subprocess.run(
            _writer(path, blocks[:1], kill), env=_env(), capture_output=True,
            text=True, timeout=120,
        )
        assert child.returncode == 17, child.stderr
        assert os.path.exists(path + ".undo")
        for read in (open_result, load_result):
            start = time.perf_counter()
            with pytest.raises(ReproError, match="append was interrupted"):
                read(path)
            assert time.perf_counter() - start < 0.5  # no retry, no sleep

        resumed = StreamingPublisher.open(path)
        with open(path, "rb") as file:
            assert file.read() == before
        assert not os.path.exists(path + ".undo")
        assert resumed.current_epoch == 3
        _close(resumed, blocks)
        self._assert_same_stream(load_result(path), self._continuous(blocks))

    def test_record_after_completed_append_keeps_epoch(self, path):
        """Killed between its new end record and deleting the record."""
        blocks = _blocks(1, 200)
        child = subprocess.run(
            _writer(path, blocks, "unlink"), env=_env(), capture_output=True,
            text=True, timeout=120,
        )
        assert child.returncode == 17, child.stderr
        assert os.path.exists(path + ".undo")
        assert open_result(path).load().release.epochs == 4
        resumed = StreamingPublisher.open(path)
        assert not os.path.exists(path + ".undo")
        assert resumed.current_epoch == 4
        self._assert_same_stream(load_result(path), self._continuous(blocks))

    def test_writer_killed_during_rollback_is_repaired(self, path):
        """Killed after a failed append's zip close wrote a directory of
        its own (two new node members under the old trees), before the
        rollback: the archive parses but lacks the record's tree version,
        so ``open`` restores the pre-append bytes."""
        with open(path, "rb") as file:
            before = file.read()
        with zipfile.ZipFile(path) as archive:
            members = len(archive.namelist())
        blocks = _blocks(2, 200)
        child = subprocess.run(
            _writer(path, blocks[:1], "fail2"), env=_env(), capture_output=True,
            text=True, timeout=120,
        )
        assert child.returncode == 17, child.stderr
        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
        assert len(names) == members + 2 and "tree_4.npy" not in names
        resumed = StreamingPublisher.open(path)
        with open(path, "rb") as file:
            assert file.read() == before
        assert not os.path.exists(path + ".undo")
        assert resumed.current_epoch == 3
        _close(resumed, blocks)
        self._assert_same_stream(load_result(path), self._continuous(blocks))

    def test_damaged_record_is_refused(self, path):
        """A record too short for an end record, or pointing past the end
        of the file, raises and leaves the archive and the record alone."""
        with open(path, "rb") as file:
            before = file.read()
        past_end = struct.pack("<QQ", len(before) + 1, 4) + bytes(22)
        for record in (bytes(5), past_end):
            with open(path + ".undo", "wb") as file:
                file.write(record)
            with pytest.raises(ReproError, match="undo record .* is damaged"):
                StreamingPublisher.open(path)
            with open(path, "rb") as file:
                assert file.read() == before
            with open(path + ".undo", "rb") as file:
                assert file.read() == record

    def test_record_is_durable_before_the_archive_changes(self, path, monkeypatch):
        """The record and its directory entry reach the disk before the
        first member write, and the archive before the record goes."""
        fsync, write_member, unlink = os.fsync, repro.io._write_member, os.unlink
        events = []

        def logged_fsync(descriptor):
            status = os.fstat(descriptor)
            events.append(
                "sync directory" if stat.S_ISDIR(status.st_mode)
                else "sync archive" if os.path.samestat(status, os.stat(path))
                else "sync record"
            )
            fsync(descriptor)

        def logged_write(archive, name, array):
            events.append("write")
            write_member(archive, name, array)

        def logged_unlink(target):
            events.append("unlink record" if target == path + ".undo" else "unlink")
            unlink(target)

        publisher = StreamingPublisher.open(path)
        publisher.ingest(Table(SMALL, _blocks(1, 200)[0]))
        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(os, "unlink", logged_unlink)
        monkeypatch.setattr(repro.io, "_write_member", logged_write)
        publisher.advance_epoch()
        writes = events.count("write")
        assert writes >= 2
        assert events == (
            ["sync record", "sync directory"] + ["write"] * writes
            + ["sync archive", "unlink record"]
        )

    def test_handle_opened_mid_append_is_fresh_after_it(self, path, monkeypatch):
        """A handle whose open waited out an append in flight describes the
        appended file: its stat is taken under the parse's shared lock, not
        before it, so it is not stale once the append completes."""
        write_member, readers, handles = repro.io._write_member, [], []

        def write_then_open(archive, name, array):
            write_member(archive, name, array)
            if not readers:
                archive.fp.flush()  # the file has changed mid-append
                reader = threading.Thread(
                    target=lambda: handles.append(open_result(path))
                )
                readers.append(reader)
                reader.start()
                reader.join(0.2)
                assert reader.is_alive()  # waiting for the append's lock

        publisher = StreamingPublisher.open(path)
        publisher.ingest(Table(SMALL, _blocks(1, 200)[0]))
        monkeypatch.setattr(repro.io, "_write_member", write_then_open)
        publisher.advance_epoch()
        readers[0].join(60)
        (handle,) = handles
        assert handle.stale is False
        assert handle.load().release.epochs == 4

    def test_readers_racing_a_writer(self, path):
        """A second process closes 40 epochs while this one re-opens the
        archive and answers windows: no open fails, the epoch count never
        decreases, and every answer is the final archive's."""
        lows, highs = query_boxes(generate_workload(SMALL, 64, seed=8), SMALL.shape)
        rng = np.random.default_rng(9)
        answers, counts = [], [3]
        with subprocess.Popen(
            _writer(path, _blocks(40, 300)), env=_env(), stderr=subprocess.PIPE,
            text=True,
        ) as child:
            while child.poll() is None:
                tree = open_result(path).load().release
                assert tree.epochs >= counts[-1]
                counts.append(tree.epochs)
                lo = int(rng.integers(0, tree.epochs))
                hi = int(rng.integers(lo + 1, tree.epochs + 1))
                answers.append((lo, hi, tree.window(lo, hi).answer_boxes(lows, highs)))
            _, errors = child.communicate(timeout=120)
        assert child.returncode == 0, errors
        assert "ResourceWarning" not in errors
        final = load_result(path).release
        assert final.epochs == 43
        assert len(set(counts)) > 2  # the opens overlapped the appends
        for lo, hi, answer in answers:
            np.testing.assert_array_equal(
                final.window(lo, hi).answer_boxes(lows, highs), answer
            )

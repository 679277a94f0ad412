"""Tests for result persistence: one archive layout for every release."""

import dataclasses
import functools
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
from repro.errors import QueryError, ReproError, StreamingError
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
    """Leaf payloads a composed release has read so far."""
    if isinstance(release, TimeTree):
        return sum(leaf.loaded for leaf in release.leaves)
    if isinstance(release, Partition):
        return sum(
            _loaded_payloads(part.result().release) if part.composed else part.loaded
            for part in release.parts
        )
    return 0


def _routed_payloads(release) -> int:
    """Payloads a full-domain box keeps loaded: every partition leaf it
    routes to, and no stream leaf (a stream folds its leaves into
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
    assert header["format"] == 6
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
            # A path load reads no leaf before a query routes to it;
            # exact variances need none at all.
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
        # running prefix, and keeps none.
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
            (5, {"tree_0": np.zeros(3, dtype=np.uint8)}),
            (99, {"leaf": np.zeros((2, 3))}),
        ],
        ids=["v1", "v4", "v5", "future"],
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


class _Altered(PriveletPlusMechanism):
    """Privelet+ whose results differ from a coefficient stream's leaves in
    one accounting field: doubled λ or ρ, or a dense representation."""

    def __init__(self, field):
        super().__init__(sa_names="auto")
        self.field = field

    def publish(self, table, epsilon, *, seed=None, materialize=True):
        dense = self.field == "representation"
        result = super().publish(table, epsilon, seed=seed, materialize=dense)
        if dense:
            return result
        return dataclasses.replace(
            result, **{self.field: 2 * getattr(result, self.field)}
        )


class TestStreamArchives:
    """Append-able stream archives: one leaf member per epoch."""

    @pytest.fixture
    def stream_publisher(self, tmp_path):
        publisher = _stream_publisher(tmp_path / "stream.npz")
        _close_epochs(publisher, 5, 40)
        return publisher

    def test_append_only_members(self, stream_publisher):
        path = stream_publisher.archive_path
        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
            before = {info.filename: info for info in archive.infolist()}
        # The header, one tree and one leaf member per epoch 0..4, once each.
        assert sorted(names) == sorted(
            ["header.npy", "tree.npy"] + [f"epoch_{e}.npy" for e in range(5)]
        )

        stream_publisher.ingest(generate_census_table(SPEC, 150, seed=45))
        stream_publisher.advance_epoch()
        with zipfile.ZipFile(path) as archive:
            after = {info.filename: info for info in archive.infolist()}
        assert set(after) - set(before) == {"epoch_5.npy"}
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
        path = stream_publisher.archive_path
        with open(path, "rb") as file:
            before = file.read()
        # The stream's newest leaf, epoch 4, is in the archive already.
        with pytest.raises(ReproError, match="append-only"):
            append_stream_nodes(path, stream_publisher.result())
        with open(path, "rb") as file:
            assert file.read() == before

    def test_missing_node_member_rejected(self, stream_publisher, tmp_path):
        clipped = tmp_path / "clipped.npz"
        _without(stream_publisher.archive_path, clipped, lambda n: n != "epoch_2.npy")
        with pytest.raises(ReproError, match="missing members"):
            load_result(clipped)

    @pytest.mark.parametrize("transport", ["archive", "parts"])
    def test_epoch_gap_names_the_missing_member(self, transport, tmp_path):
        """Epoch members must run from 0 without a gap, in an archive and
        in :func:`result_to_parts`'s arrays alike."""
        table = generate_census_table(SPEC, 400, seed=8)
        result = publish(
            table, 1.0, shard_by="Age", shards=2, stream=np.arange(400) % 4, seed=7
        )
        if transport == "parts":
            header, arrays = result_to_parts(result)
            del arrays["p1_epoch_1"]
            load = functools.partial(result_from_parts, header, arrays)
        else:
            save_result(tmp_path / "nested.npz", result)
            _without(
                tmp_path / "nested.npz", tmp_path / "clipped.npz",
                lambda n: n != "p1_epoch_1.npy",
            )
            load = functools.partial(load_result, tmp_path / "clipped.npz")
        with pytest.raises(ReproError, match=r"missing members \['p1_epoch_1'\]"):
            load()

    @pytest.mark.parametrize(
        "mechanism",
        [
            _Altered("noise_magnitude"),
            _Altered("generalized_sensitivity"),
            _Altered("representation"),
            PriveletPlusMechanism(sa_names=()),
        ],
        ids=["lambda", "rho", "representation", "sa"],
    )
    def test_leaf_with_other_accounting_rejected(self, stream_publisher, mechanism):
        """A close whose leaf does not share the stream's λ, ρ, SA set or
        representation is refused before any byte is written, and its
        rows stay buffered."""
        path = stream_publisher.archive_path
        with open(path, "rb") as file:
            before = file.read()
        resumed = StreamingPublisher.open(path, mechanism=mechanism)
        resumed.ingest(generate_census_table(SPEC, 150, seed=45))
        with pytest.raises(StreamingError, match="per-leaf accounting"):
            resumed.advance_epoch()
        with open(path, "rb") as file:
            assert file.read() == before
        assert (resumed.closed_epochs, resumed.pending_rows) == (5, 150)

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
        _without(stream_publisher.archive_path, broken, lambda n: n != "tree.npy")
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
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == ["header.npy"]
        assert loaded.release.epochs == 0
        assert loaded.noise_magnitude == 0.0
        with pytest.raises(ReproError, match="already exists"):
            create_stream_archive(path, census_schema(SPEC), epsilon=1.0)

    def test_saved_zero_epoch_stream_resumes(self, tmp_path):
        """A saved stream with no epoch keeps its tree inline in the header,
        so a resumed publisher's first close writes the ``tree`` member."""
        path = tmp_path / "saved.npz"
        save_result(path, _stream_publisher().result())
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == ["header.npy"]
        resumed = StreamingPublisher.open(path)
        _close_epochs(resumed, 2, 70)
        with zipfile.ZipFile(path) as archive:
            assert archive.namelist() == [
                "header.npy", "tree.npy", "epoch_0.npy", "epoch_1.npy",
            ]
        queries = generate_workload(census_schema(SPEC), 20, seed=4)
        np.testing.assert_array_equal(
            QueryEngine(load_result(path)).answer_all(queries),
            QueryEngine(resumed.result()).answer_all(queries),
        )


#: A second writer process: resume the stream archive ``argv[1]`` and
#: close one epoch per row block of the ``.npy`` file ``argv[2]``.
#: ``argv[3]`` says where it dies with ``os._exit(17)``: ``write<N>``
#: right after its N-th member write (flushed), ``fail<N>`` where the
#: rollback would run after its N-th member write stopped halfway with
#: an error (the zip's close on the way out has listed the partial
#: member in a directory of its own), ``unlink`` where it would delete
#: its undo record, or ``none``.
_WRITER = """
import os
import sys

import numpy as np

import repro.io
from repro.data.table import Table
from repro.streaming import StreamingPublisher

path, blocks, kill = sys.argv[1:]
write_member, unlink, writes = repro.io._write_member, os.unlink, []


def write_member_or_die(archive, name, data):
    writes.append(name)
    if kill == f"fail{len(writes)}":
        write_member(archive, name, data[: len(data) // 2])
        raise OSError("injected write failure")
    write_member(archive, name, data)
    if kill == f"write{len(writes)}":
        archive.fp.flush()
        os._exit(17)


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

    def test_failed_close_is_retried_by_the_next(self, path, monkeypatch):
        """A close whose append fails commits nothing: the publisher stays
        at its archive's epoch count with the epoch's rows still buffered,
        so the next close on the same object publishes them."""
        write_member = repro.io._write_member

        def write_then_fail(archive, name, array):
            write_member(archive, name, array)
            raise OSError("injected write failure")

        blocks = _blocks(2, 200)
        publisher = StreamingPublisher.open(path)
        publisher.ingest(Table(SMALL, blocks[0]))
        monkeypatch.setattr(repro.io, "_write_member", write_then_fail)
        with pytest.raises(OSError, match="injected write failure"):
            publisher.advance_epoch()
        monkeypatch.undo()
        assert publisher.closed_epochs == 3
        assert publisher.pending_rows == len(blocks[0])
        publisher.advance_epoch()
        _close(publisher, blocks[1:])
        loaded = load_result(path)
        assert loaded.release.epochs == publisher.closed_epochs == 5
        lows, highs = query_boxes(generate_workload(SMALL, 8, seed=3), SMALL.shape)
        for lo in range(6):
            for hi in range(lo, 6):
                loaded.release.window(lo, hi).answer_boxes(lows, highs)
        self._assert_same_stream(loaded, self._continuous(blocks))

    @pytest.mark.parametrize("kill", ["write1", "write4"])
    def test_killed_writer_is_repaired(self, path, kill):
        """Killed right after the leaf member of its first close, or of its
        fourth (three closes completed), before the new directory: the
        leaf wrote over the old one, so the archive is torn until a
        resume restores it to the last completed close."""
        done = int(kill.removeprefix("write")) - 1
        with open(path, "rb") as file:
            before = file.read()
        blocks = _blocks(done + 2, 200)
        child = subprocess.run(
            _writer(path, blocks[:done + 1], kill), env=_env(), capture_output=True,
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
        if not done:
            with open(path, "rb") as file:
                assert file.read() == before
        assert not os.path.exists(path + ".undo")
        assert resumed.current_epoch == 3 + done
        _close(resumed, blocks[done:])
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
        its own, listing the leaf whose write stopped halfway, before the
        rollback: the archive parses but does not list the leaf with the
        record's size and CRC-32, so ``open`` restores the pre-append
        bytes."""
        with open(path, "rb") as file:
            before = file.read()
        with zipfile.ZipFile(path) as archive:
            members = len(archive.namelist())
        blocks = _blocks(2, 200)
        child = subprocess.run(
            _writer(path, blocks[:1], "fail1"), env=_env(), capture_output=True,
            text=True, timeout=120,
        )
        assert child.returncode == 17, child.stderr
        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
        assert len(names) == members + 1 and "epoch_3.npy" in names
        resumed = StreamingPublisher.open(path)
        with open(path, "rb") as file:
            assert file.read() == before
        assert not os.path.exists(path + ".undo")
        assert resumed.current_epoch == 3
        _close(resumed, blocks)
        self._assert_same_stream(load_result(path), self._continuous(blocks))

    @pytest.mark.parametrize("fresh", [False, True], ids=["later", "first"])
    def test_partial_leaf_is_never_served(self, path, tmp_path, fresh):
        """A writer killed after a failed append's zip close listed a
        partial leaf: until the repair restores the archive, a reader
        either raises or serves the epochs closed before; none serves the
        partial one.  The first close of a new archive (its tree member
        written, its leaf cut short) is covered too."""
        if fresh:
            path = str(tmp_path / "fresh.npz")
            StreamingPublisher(SMALL, MECHANISM, 1.0, seed=29, archive_path=path)
        kill, closed = ("fail2", 0) if fresh else ("fail1", 3)
        with open(path, "rb") as file:
            before = file.read()
        earlier = open_result(path)
        child = subprocess.run(
            _writer(path, _blocks(1, 200), kill), env=_env(), capture_output=True,
            text=True, timeout=120,
        )
        assert child.returncode == 17, child.stderr
        with zipfile.ZipFile(path) as archive:
            assert f"epoch_{closed}.npy" in archive.namelist()
        for read in (open_result, load_result):
            with pytest.raises(ReproError, match="append was interrupted"):
                read(path)
        assert earlier.load().release.epochs == closed
        StreamingPublisher.open(path)
        with open(path, "rb") as file:
            assert file.read() == before
        assert open_result(path).load().release.epochs == closed

    def test_damaged_record_is_refused(self, path):
        """A record too short for an end record, or pointing past the end
        of the file, raises and leaves the archive and the record alone."""
        with open(path, "rb") as file:
            before = file.read()
        past_end = struct.pack("<QQQI", len(before) + 1, 3, 0, 0) + bytes(22)
        for record in (bytes(5), past_end):
            with open(path + ".undo", "wb") as file:
                file.write(record)
            for read in (StreamingPublisher.open, open_result, load_result):
                with pytest.raises(ReproError, match="undo record .* is damaged"):
                    read(path)
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
        # A close writes one member: its leaf.
        assert events == [
            "sync record", "sync directory", "write", "sync archive", "unlink record",
        ]

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

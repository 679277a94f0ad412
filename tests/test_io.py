"""Tests for result persistence: one archive layout for every release."""

import dataclasses
import json
import os
import zipfile

import numpy as np
import pytest

from repro.analysis.exact import query_boxes
from repro.core.compose import Partition, TimeTree
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.core.release import convert_result
from repro.data.census import BRAZIL, census_schema, generate_census_table
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

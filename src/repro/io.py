"""Persistence for published results: one archive layout for every release.

A data publisher runs the mechanism once and distributes the release;
consumers need to reload it with its schema and privacy accounting
intact.  Every :class:`~repro.core.framework.PublishResult` — a leaf
(dense or coefficient release), a :class:`~repro.core.compose.Partition`,
a :class:`~repro.core.compose.TimeTree`, or any nesting of them — is a
schema, its accounting and a tree of noisy tensors, so all of them share
one ``.npz`` (zip) layout, **format 6**:

* ``header`` — the static header: format, root representation, schema
  and root ε, plus (when the root is a stream) the epoch length,
  mechanism spec, base seed and per-leaf representation a resuming
  :class:`~repro.streaming.publisher.StreamingPublisher` needs;
* ``tree`` — the release tree, written once.  Every entry carries its
  subtree's accounting; ``partition`` entries add their attribute, cut
  points and children, ``leaf`` entries name the array member holding
  their payload, and ``stream`` entries record their SA set, window,
  member prefix and the accounting every one of their leaves shares
  (ε, λ, ρ, variance bound, details and representation) — a stream's
  epoch count is the number of its epoch members, so no entry changes
  when an epoch is added.  An archive that holds no payload yet (a
  zero-epoch stream) carries its tree inline under ``header["tree"]``;
* one stored (``ZIP_STORED``: noise does not deflate) array member per
  leaf — ``leaf`` at the root, ``epoch_<e>`` for a stream's epoch ``e``
  (``0`` to ``T - 1``, without a gap), and ``p<i>_`` prefixed inside
  partition part ``i``.

A live stream's archive is created with only its header by
:func:`create_stream_archive`, and every epoch close
(:func:`append_stream_nodes`) appends that epoch's one leaf member — the
first close also writes the tree — to the archive file itself, over its
old zip directory, under an exclusive ``flock``.  Existing members are
never rewritten or moved; readers parse a directory under a shared
``flock``, so they always see a whole zip, and an ``<archive>.undo``
record lets :func:`repair_stream_archive` restore an archive whose
writer was killed mid-append.  :func:`result_to_parts` is the same
layout without the archive — the tree rides inline under
``header["tree"]`` — which is how the shared-memory serving fleet ships
a release.

Loading from a filesystem path is **lazy**: the header and tree alone
rebuild routing and exact variances for the whole release, and each
partition part's payload is read when the first query routes to it; a
stream's leaves are read once each, as its running prefix folds them.
:func:`open_result` returns a :class:`ResultHandle` that reads only the
header (and tree) until :meth:`ResultHandle.load`.  A path's zip
directory is parsed once per open and each member read at its recorded
offset (``_ArchiveReader``), so a read costs the same at any member
count; the directory also gives every stream leaf its ``source`` token
(member name, CRC-32, size), which :meth:`ResultHandle.load` compares
before a re-opened stream continues an earlier load's running prefix.
Archives of the earlier formats 1–5 are rejected with a
:class:`~repro.errors.ReproError` naming their format.

Hierarchies are serialized by their parent arrays + labels, which is
enough to rebuild an identical :class:`~repro.data.hierarchy.Hierarchy`
(level-order ids and DFS leaf order are deterministic functions of the
tree shape).
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import json
import os
import struct
import threading
import zipfile
import zlib
from io import BytesIO

import numpy as np

from repro.core.compose import ComposedPart, Partition, TimeTree, shard_schema
from repro.core.framework import PublishResult
from repro.core.release import CoefficientRelease, DenseRelease, infer_sa_names
from repro.data.attributes import NominalAttribute, OrdinalAttribute
from repro.data.frequency import FrequencyMatrix
from repro.data.hierarchy import Hierarchy, Node
from repro.data.schema import Schema
from repro.errors import QueryError, ReproError
from repro.streaming.release import StreamNode, _wrap_stream_result

__all__ = [
    "save_result",
    "load_result",
    "result_to_parts",
    "result_from_parts",
    "open_result",
    "ResultHandle",
    "schema_to_dict",
    "schema_from_dict",
    "create_stream_archive",
    "append_stream_nodes",
    "repair_stream_archive",
]

#: The archive layout version every writer emits and every reader accepts.
_FORMAT = 6
#: Version of the :func:`schema_to_dict` payload.
_SCHEMA_VERSION = 1
#: Member-name stem of a stream's leaves: ``epoch_<e>``.
_EPOCH = "epoch_"
#: A zip local file header: signature, 22 bytes this reader skips, then
#: the name and extra-field lengths.
_LOCAL_HEADER = struct.Struct("<4s22xHH")
#: Suffix of the record an append keeps beside the archive until it
#: completes (written as ``<suffix>.tmp``, synced, then renamed): the old
#: directory's offset, the epoch whose leaf the append writes and that
#: member's size and CRC-32, then every byte from that offset to the end
#: of the file.
_UNDO_SUFFIX = ".undo"
_UNDO_HEAD = struct.Struct("<QQQI")
#: A zip end record without a comment: the shortest tail an undo record saves.
_END_RECORD_SIZE = 22


def _hierarchy_to_dict(hierarchy: Hierarchy) -> dict:
    return {
        "labels": [hierarchy.node_label(i) for i in range(hierarchy.num_nodes)],
        "parents": hierarchy.parent_array.tolist(),
    }


def _hierarchy_from_dict(payload: dict) -> Hierarchy:
    labels = payload["labels"]
    parents = payload["parents"]
    if len(labels) != len(parents):
        raise ReproError("corrupt hierarchy payload: labels/parents length mismatch")
    nodes = [Node(label) for label in labels]
    for node_id, parent in enumerate(parents):
        if parent == -1:
            continue
        nodes[parent].children.append(nodes[node_id])
    return Hierarchy(nodes[0])


def schema_to_dict(schema: Schema) -> dict:
    """JSON-serializable description of a schema."""
    attributes = []
    for attr in schema:
        if isinstance(attr, OrdinalAttribute):
            attributes.append(
                {"kind": "ordinal", "name": attr.name, "size": attr.size}
            )
        elif isinstance(attr, NominalAttribute):
            attributes.append(
                {
                    "kind": "nominal",
                    "name": attr.name,
                    "hierarchy": _hierarchy_to_dict(attr.hierarchy),
                }
            )
        else:  # pragma: no cover - no other kinds exist
            raise ReproError(f"unsupported attribute type {type(attr).__name__}")
    return {"version": _SCHEMA_VERSION, "attributes": attributes}


def schema_from_dict(payload: dict) -> Schema:
    """Rebuild a schema from :func:`schema_to_dict` output."""
    if payload.get("version") != _SCHEMA_VERSION:
        raise ReproError(f"unsupported schema format version {payload.get('version')!r}")
    attributes = []
    for entry in payload["attributes"]:
        if entry["kind"] == "ordinal":
            attributes.append(OrdinalAttribute(entry["name"], entry["size"]))
        elif entry["kind"] == "nominal":
            attributes.append(
                NominalAttribute(entry["name"], _hierarchy_from_dict(entry["hierarchy"]))
            )
        else:
            raise ReproError(f"unknown attribute kind {entry['kind']!r}")
    return Schema(attributes)


# ----------------------------------------------------------------------
# Encoder: result -> (header, tree, arrays)
# ----------------------------------------------------------------------
def _details(details: dict) -> dict:
    return {k: _jsonable(v) for k, v in details.items()}


def _accounting(result: PublishResult) -> dict:
    return {
        "epsilon": result.epsilon,
        "noise_magnitude": result.noise_magnitude,
        "generalized_sensitivity": result.generalized_sensitivity,
        "variance_bound": result.variance_bound,
        "details": _details(result.details),
    }


def _payload(result: PublishResult) -> np.ndarray:
    """The array a leaf's member stores."""
    release = result.release
    if isinstance(release, CoefficientRelease):
        return release.coefficients
    if isinstance(release, DenseRelease):
        return release.to_matrix().values
    raise ReproError(f"cannot archive a leaf of type {type(release).__name__}")


def _leaf_entry(result: PublishResult, arrays: dict, prefix: str) -> dict:
    """A leaf's tree entry; its payload goes to ``arrays``."""
    member = prefix + "leaf"
    arrays[member] = _payload(result)
    entry = {
        **_accounting(result),
        "kind": "leaf",
        "member": member,
        "representation": result.representation,
    }
    try:
        entry["sa"] = list(infer_sa_names(result))
    except QueryError:
        # A dense leaf whose details record no SA set still answers;
        # like the in-memory result, it just has no variance model.
        pass
    return entry


def _stream_entry(result: PublishResult, prefix: str) -> dict:
    """A stream's tree entry, whose leaves are the ``<prefix>epoch_<e>``
    members: it records their shared accounting and holds at any epoch
    count (a window over the whole stream is recorded as ``None``)."""
    release = result.release
    lo, hi = release.window_bounds
    leaf = None
    if release.leaves:
        accounting = release.leaves[0].accounting
        leaf = {**accounting, "details": _details(accounting["details"])}
    return {
        "kind": "stream",
        "epsilon": result.epsilon,
        "sa": list(release.sa_names),
        "window": None if (lo, hi) == (0, release.epochs) else [lo, hi],
        "members": prefix + _EPOCH,
        "details": _details(
            {key: value for key, value in result.details.items() if key != "epochs"}
        ),
        "leaf": leaf,
    }


def _entry(result: PublishResult, arrays: dict, prefix: str = "") -> dict:
    """The tree entry of ``result`` (recursive); payloads go to ``arrays``."""
    release = result.release
    if isinstance(release, TimeTree):
        for epoch, leaf in enumerate(release.leaves):
            arrays[f"{prefix}{_EPOCH}{epoch}"] = _payload(leaf.read())
        return _stream_entry(result, prefix)
    if isinstance(release, Partition):
        return {
            **_accounting(result),
            "kind": "partition",
            "attribute": release.attribute,
            "bounds": list(release.bounds),
            "children": [
                _entry(release.part_result(i), arrays, f"{prefix}p{i}_")
                for i in range(release.num_parts)
            ],
        }
    return _leaf_entry(result, arrays, prefix)


def _header(result: PublishResult, **stream) -> dict:
    """The static header; a stream root also records how to resume it.

    ``stream`` overrides the resume fields a snapshot derives from the
    result (a publisher knows its mechanism spec and seed exactly).
    """
    release = result.release
    header = {
        "format": _FORMAT,
        "representation": release.representation,
        "schema": schema_to_dict(release.schema),
        "epsilon": result.epsilon,
    }
    if isinstance(release, TimeTree):
        header.update(
            epoch_length=int(result.details.get("epoch_length", 1)),
            # Privelet+ with an explicit SA set reproduces every standard
            # mechanism's noise structure, so a snapshot stays resumable.
            mechanism={"kind": "privelet+", "sa": list(release.sa_names)},
            mechanism_name=str(result.details.get("mechanism", "stream")),
            seed=None,
            node_representation=(
                release.leaves[0].representation if release.leaves else "coefficients"
            ),
        )
        header.update(stream)
    return header


def _npy(array):
    """The ``.npy`` bytes of ``array`` (what ``np.load`` reads back)."""
    buffer = BytesIO()
    np.lib.format.write_array(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getbuffer()


def _json_npy(payload: dict):
    return _npy(np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8))


def _write_member(archive: zipfile.ZipFile, name: str, data) -> None:
    """Write the ``.npy`` bytes ``data`` as the stored member ``name``."""
    with archive.open(name + ".npy", "w", force_zip64=True) as member:
        member.write(data)


def result_to_parts(result: PublishResult) -> tuple[dict, dict]:
    """Split a result into a JSON header plus its raw array payloads.

    This is the archive layout without the archive: the same header an
    archive stores, with the release tree inline under
    ``header["tree"]``, plus one array per leaf or stream epoch — usable
    anywhere the two halves travel separately, e.g. the shared-memory
    publisher, which ships the header as JSON and each array as a named
    segment.  :func:`result_from_parts` inverts it exactly.

    Parameters
    ----------
    result:
        Any :class:`PublishResult` (a leaf or any composition).  Lazy
        archive-backed parts are loaded.

    Returns
    -------
    tuple
        ``(header, arrays)`` — ``header`` is JSON-serializable,
        ``arrays`` maps member names to ``np.ndarray`` payloads.
    """
    arrays: dict = {}
    tree = _entry(result, arrays)
    return {**_header(result), "tree": tree}, arrays


def save_result(path, result: PublishResult) -> None:
    """Write a published result to ``path`` as a format-6 archive.

    The header, the tree and one stored member per leaf or stream epoch;
    every part is loaded to be written.  A result with no payload (a
    zero-epoch stream) keeps its tree inline in the header, as a new
    stream archive does.  A saved stream records no base seed, so
    resuming it with :meth:`~repro.streaming.publisher.
    StreamingPublisher.open` draws fresh entropy — prefer the
    publisher's own ``archive_path`` for live streams.

    Parameters
    ----------
    path:
        Destination path or writable binary file object; an existing
        file is overwritten.
    result:
        Any :class:`PublishResult`.
    """
    header, arrays = result_to_parts(result)
    tree = header.pop("tree") if arrays else None
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        _write_member(archive, "header", _json_npy(header))
        if tree is not None:
            _write_member(archive, "tree", _json_npy(tree))
        for member, payload in arrays.items():
            _write_member(archive, member, _npy(payload))


def create_stream_archive(
    path,
    schema: Schema,
    *,
    epsilon: float,
    epoch_length: int = 1,
    mechanism: dict | None = None,
    mechanism_name: str = "stream",
    seed=None,
    representation: str = "coefficients",
) -> None:
    """Create an empty (zero-epoch) stream archive at ``path``.

    The archive holds only its header, which is static for the
    archive's whole life and carries the zero-epoch tree inline; the
    first :func:`append_stream_nodes` writes the ``tree`` member with
    the accounting every leaf shares, and each append adds one leaf.
    Refuses to overwrite an existing file — a stream archive is
    append-only.

    Parameters
    ----------
    path:
        Where to create the archive (conventionally ``.npz``).
    schema:
        The stream's released schema.
    epsilon:
        The per-epoch (and overall) privacy budget.
    epoch_length:
        Timestamp units per epoch.
    mechanism:
        The JSON mechanism spec :meth:`repro.streaming.publisher.
        StreamingPublisher.open` rebuilds the mechanism from.
    mechanism_name:
        Human-readable mechanism name (display only).
    seed:
        The base seed to record, or ``None``; recording it makes resumes
        bit-reproducible at the cost of making the noise recomputable
        by anyone holding the archive.
    representation:
        The per-leaf representation the stream publishes
        (``"coefficients"`` or ``"dense"``).
    """
    mechanism = mechanism or {}
    result = _wrap_stream_result(
        TimeTree(schema, tuple(mechanism.get("sa", ())), ()),
        epsilon=epsilon,
        mechanism=mechanism_name,
        epoch_length=int(epoch_length),
    )
    header = _header(
        result,
        mechanism=mechanism,
        mechanism_name=str(mechanism_name),
        seed=_jsonable(seed),
        node_representation=representation,
    )
    header["tree"] = _entry(result, {})
    try:
        with zipfile.ZipFile(path, "x", compression=zipfile.ZIP_STORED) as archive:
            _write_member(archive, "header", _json_npy(header))
    except FileExistsError as exc:
        raise ReproError(
            f"stream archive {path} already exists; resume it with "
            "StreamingPublisher.open instead"
        ) from exc


def append_stream_nodes(path, result: PublishResult) -> None:
    """Append an epoch close: the stream's newest leaf, as one member.

    The first close also writes the ``tree`` member, which records the
    accounting every leaf shares; no later close rewrites it.
    Append-only at the *member* level (existing members are never
    rewritten or moved) and **in place** at the *file* level, so a close
    costs its own bytes, not the archive's.  Under an exclusive
    ``flock`` on the archive, the new member is written over its old zip
    directory, then a new directory and end record.  Readers parse a
    directory only under a shared ``flock``, so a concurrent reader —
    e.g. a serving process whose ``watch_streams`` probe fires
    mid-append — sees either the old or the new directory, never a
    half-written one.  Before the first byte is written, the old
    directory's offset, the new leaf's epoch, size and CRC-32 and every
    byte from that offset on go to ``<path>.undo``, synced to disk with
    its directory entry: a failure writes them back (the file is then
    byte-identical to what it was) and deletes the record, and a writer
    killed mid-append, or a machine that went down during one, leaves it
    for :func:`repair_stream_archive`, which every append (and
    :meth:`~repro.streaming.publisher.StreamingPublisher.open`) runs
    first.  The archive is synced before the record goes.  The caller is
    the single writer (the stream's publisher), which has checked that
    the leaf shares the stream's accounting.

    Parameters
    ----------
    path:
        A stream archive created by :func:`create_stream_archive`.
    result:
        The stream's whole result after the close (a
        :class:`~repro.core.compose.TimeTree` root): its newest leaf is
        appended, and its first close's accounting becomes the tree.
    """
    path = os.fspath(path)
    undo = path + _UNDO_SUFFIX
    release = result.release
    epoch = release.epochs - 1
    leaf = _npy(_payload(release.leaves[epoch].read()))
    members = {f"{_EPOCH}{epoch}": leaf}
    if epoch == 0:
        members = {"tree": _json_npy(_stream_entry(result, "")), **members}
    with open(path, "r+b") as file:
        fcntl.flock(file, fcntl.LOCK_EX)  # released when the file closes
        _repair(file, path)
        archive = zipfile.ZipFile(file, "a", compression=zipfile.ZIP_STORED)
        start = archive.start_dir
        file.seek(start)
        saved = file.read()
        try:
            with archive:  # closing writes the new directory and end record
                held = _epoch_count(
                    [name.removesuffix(".npy") for name in archive.namelist()], _EPOCH
                )
                if held != epoch:
                    raise ReproError(
                        f"stream archive {path} holds epochs [0, {held}), so it "
                        f"cannot take epoch {epoch}: leaves are append-only"
                    )
                _write_durably(
                    undo,
                    _UNDO_HEAD.pack(start, epoch, len(leaf), zlib.crc32(leaf)) + saved,
                )
                for name, data in members.items():
                    _write_member(archive, name, data)
            os.fsync(file.fileno())
        except BaseException:
            # Closing on the way out wrote an end record of its own; the
            # saved bytes replace it and everything after the old members.
            _restore(file, start, saved)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(undo)
            raise
        os.unlink(undo)


def _write_durably(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a synced temporary file, then
    sync the directory, so ``path`` never names partial data."""
    with open(path + ".tmp", "wb") as file:
        file.write(data)
        file.flush()
        os.fsync(file.fileno())
    os.replace(path + ".tmp", path)
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _restore(file, start: int, saved: bytes) -> None:
    """Write ``saved`` back at ``start``, cut the file there and sync it."""
    file.seek(start)
    file.write(saved)
    file.truncate()
    file.flush()
    os.fsync(file.fileno())


def _undo_record(path: str, size: int):
    """The undo record beside the archive ``path`` of ``size`` bytes.

    ``None`` without a record; else ``(head, saved)``, ``head`` being
    the old directory's offset and the appended leaf's epoch, size and
    CRC-32, and ``saved`` the bytes from that offset on.  A record too
    short to hold an end record, or whose offset lies past the end of
    the archive, raises :class:`~repro.errors.ReproError`.
    """
    undo = path + _UNDO_SUFFIX
    try:
        with open(undo, "rb") as handle:
            record = handle.read()
    except FileNotFoundError:
        return None
    if len(record) < _UNDO_HEAD.size + _END_RECORD_SIZE or (
        _UNDO_HEAD.unpack_from(record)[0] > size
    ):
        raise ReproError(
            f"cannot repair stream archive {path}: its undo record {undo} is "
            f"damaged ({len(record)} bytes for an archive of {size} bytes)"
        )
    return _UNDO_HEAD.unpack_from(record), record[_UNDO_HEAD.size:]


def _vouched(archive: zipfile.ZipFile, head) -> bool:
    """Whether ``archive`` lists the leaf an undo record names with the
    record's size and CRC-32, i.e. the append completed.  A write that
    raised mid-way is listed too once the zip closes, with its partial
    size, so being listed alone proves nothing."""
    _, epoch, size, crc = head
    try:
        info = archive.getinfo(f"{_EPOCH}{epoch}.npy")
    except KeyError:
        return False
    return (info.file_size, info.CRC) == (size, crc)


def _repair(file, path: str) -> None:
    """Settle the append a killed writer left; the caller holds ``LOCK_EX``.

    Nothing to do unless ``<path>.undo`` exists.  An archive that parses
    and lists the record's leaf with the record's size and CRC-32 was
    completed, and stays as it is (a reader may already have served the
    new epoch).  Any other archive, torn or holding a failed append's
    partial members, gets the record's bytes back at the record's
    offset, which makes it byte-identical to the file before the
    interrupted append.  Either way the record goes.  A damaged record
    raises :class:`~repro.errors.ReproError` and leaves both files
    alone.  The parse runs through ``file`` itself: a second
    descriptor's shared lock would wait forever for this one's.
    """
    record = _undo_record(path, os.fstat(file.fileno()).st_size)
    if record is None:
        return
    head, saved = record
    try:
        with zipfile.ZipFile(file) as archive:
            completed = _vouched(archive, head)
    except zipfile.BadZipFile:
        completed = False
    if not completed:
        _restore(file, head[0], saved)
    os.unlink(path + _UNDO_SUFFIX)


def repair_stream_archive(path) -> None:
    """Repair a stream archive whose writer was killed mid-append.

    A reader of such an archive raises :class:`~repro.errors.ReproError`
    naming the interrupted append.  Under the archive's exclusive lock,
    an archive that lists the new leaf with the size and CRC-32 its
    record names (the writer died after its new end record) keeps its
    new epoch, and any other is restored byte for byte from its
    ``<path>.undo`` record; the record is then deleted.  A damaged
    record raises :class:`~repro.errors.ReproError`.  Without a record
    nothing is locked or touched.
    :meth:`~repro.streaming.publisher.StreamingPublisher.open` calls
    this first, and every :func:`append_stream_nodes` runs the same
    repair under its own lock.

    Parameters
    ----------
    path:
        A stream archive created by :func:`create_stream_archive`.
    """
    path = os.fspath(path)
    if not os.path.exists(path + _UNDO_SUFFIX):
        return
    with open(path, "r+b") as file:
        fcntl.flock(file, fcntl.LOCK_EX)  # released when the file closes
        _repair(file, path)


# ----------------------------------------------------------------------
# Decoder: (header, tree, member reader) -> result
# ----------------------------------------------------------------------
def _check_format(header: dict) -> None:
    version = header.get("format", 1)
    if version != _FORMAT:
        raise ReproError(
            f"unsupported result archive format {version!r}: only format "
            f"{_FORMAT} loads; re-publish the release with this version"
        )


def _epoch_count(members, stem: str) -> int:
    """How many ``<stem><e>`` members ``members`` names (without ``.npy``);
    they must run from 0 without a gap."""
    epochs = sorted(
        int(name[len(stem):])
        for name in members
        if name.startswith(stem) and name[len(stem):].isdigit()
    )
    for expected, epoch in enumerate(epochs):
        if epoch != expected:
            raise ReproError(
                f"corrupt result archive: missing members {[f'{stem}{expected}']}"
            )
    return len(epochs)


def _resolve(entry: dict, members) -> None:
    """Check the members a tree entry names, and set each stream entry's
    ``epochs`` to the count of its epoch members (recursive)."""
    if "member" in entry and entry["member"] not in members:
        raise ReproError(
            f"corrupt result archive: missing members {[entry['member']]}"
        )
    if entry.get("kind") == "stream":
        entry["epochs"] = _epoch_count(members, entry["members"])
        if entry["epochs"] and entry["leaf"] is None:
            raise ReproError(
                f"corrupt result archive: {entry['epochs']} epoch members but "
                "no tree member recording their accounting"
            )
    for child in entry.get("children", []):
        _resolve(child, members)


def _decode_json(array) -> dict:
    return json.loads(bytes(np.asarray(array).tobytes()).decode("utf-8"))


def _read_header(read, members) -> dict:
    """An archive's header with its tree under ``"tree"``.

    ``read`` maps a member name to its array and ``members`` lists the
    names (without ``.npy``).  The tree is the ``tree`` member, or the
    header's inline one when the archive holds no payload yet.
    """
    try:
        header = _decode_json(read("header"))
    except KeyError as exc:
        raise ReproError(f"not a repro result archive: missing {exc}") from exc
    _check_format(header)
    members = set(members)
    if "tree" in members:
        header["tree"] = _decode_json(read("tree"))
    elif "tree" not in header:
        raise ReproError("corrupt result archive: no tree member")
    _resolve(header["tree"], members)
    return header


@contextlib.contextmanager
def _locked_archive(path: str):
    """``(ZipFile, fstat)`` of the archive at ``path``, under a shared ``flock``.

    The lock is held from before the directory parse until the block
    ends, so an ``<path>.undo`` record seen under it was left by a
    killed writer, whose lock died with it.  Unless the archive parses
    and lists the leaf the record names with the record's size and
    CRC-32 (the append completed), that raises
    :class:`~repro.errors.ReproError` at once: the archive is torn or
    lists a partial leaf, and no reader counts it.
    """
    with open(path, "rb") as file:
        fcntl.flock(file, fcntl.LOCK_SH)  # released when the file closes
        stat = os.fstat(file.fileno())
        record = _undo_record(path, stat.st_size)
        try:
            archive = zipfile.ZipFile(file)
        except zipfile.BadZipFile as exc:
            if record is None:
                raise
            raise _interrupted(path) from exc
        with archive:
            if record is not None and not _vouched(archive, record[0]):
                raise _interrupted(path)
            yield archive, stat


def _interrupted(path: str) -> ReproError:
    return ReproError(
        f"stream archive {path} is torn: an append was interrupted; "
        "resume the stream's publisher (StreamingPublisher.open, or "
        "`repro advance-epoch`) to repair it"
    )


class _ArchiveReader:
    """Reads the members of the archive at ``path`` at their recorded offsets.

    The zip directory is parsed once, on construction, and kept: an
    append writes its members over the old directory, after every
    existing member, so each member the directory lists stays where it
    was.  Every parse holds a shared ``flock``, which waits out an
    append in flight (it holds the exclusive one), so it never sees a
    half-written directory; :attr:`stat` is the ``fstat`` taken under
    the first parse's lock, so it describes exactly the bytes that parse
    read.  Member reads take no lock.  A read checks
    the local header's name and the data's CRC-32 against the directory;
    when either check fails or the member is unknown (the path now holds
    another archive), the directory is parsed again and the read retried,
    and a member that still fails the fast path (a compressed one) is
    read through :mod:`zipfile`.  The file is opened per read and always
    closed.  An archive that does not parse while an ``<path>.undo``
    record lies beside it was torn by a killed writer: the parse raises
    :class:`~repro.errors.ReproError` at once, naming the repair.
    """

    def __init__(self, path):
        self._path = os.fspath(path)
        self._directory, self.stat = self._parse()

    def _parse(self) -> tuple[dict, os.stat_result]:
        with _locked_archive(self._path) as (archive, stat):
            return {info.filename: info for info in archive.infolist()}, stat

    @property
    def members(self) -> list[str]:
        """Every member name in the parsed directory, without ``.npy``."""
        return [name.removesuffix(".npy") for name in self._directory]

    def source(self, member: str):
        """``(name, CRC-32, size)`` of ``member`` in the parsed directory."""
        info = self._directory.get(member + ".npy")
        return None if info is None else (info.filename, info.CRC, info.file_size)

    def __call__(self, member: str) -> np.ndarray:
        name = member + ".npy"
        data = self._stored_bytes(self._directory.get(name))
        if data is None:
            self._directory, _ = self._parse()
            if name not in self._directory:
                raise KeyError(member)
            data = self._stored_bytes(self._directory[name])
        if data is None:
            with _locked_archive(self._path) as (archive, _):
                with archive.open(name) as stream:
                    return np.lib.format.read_array(stream, allow_pickle=False)
        return np.lib.format.read_array(BytesIO(data), allow_pickle=False)

    def _stored_bytes(self, info) -> bytes | None:
        """A stored member's data, or ``None`` unless every check passes."""
        if info is None or info.compress_type != zipfile.ZIP_STORED:
            return None
        with open(self._path, "rb") as file:
            file.seek(info.header_offset)
            local = file.read(_LOCAL_HEADER.size)
            if len(local) != _LOCAL_HEADER.size:
                return None
            signature, name_length, extra_length = _LOCAL_HEADER.unpack(local)
            if signature != b"PK\x03\x04" or (
                file.read(name_length) != info.filename.encode("utf-8")
            ):
                return None
            file.seek(extra_length, os.SEEK_CUR)
            data = file.read(info.compress_size)
        if len(data) != info.compress_size or zlib.crc32(data) != info.CRC:
            return None
        return data


def _continues(slices, schema: Schema, sa_names, leaves) -> bool:
    """Whether a re-opened stream may continue an earlier running prefix.

    Only when its schema and SA set are the same and every leaf the
    prefix folded is stored under the same member name, CRC-32 and size
    in the re-opened archive.  An append never rewrites a member, so an
    appended archive passes; an archive deleted and re-created at the
    same path holds other bytes under those names and starts afresh.
    """
    if slices.transform.schema != schema or set(slices.sa_names) != set(sa_names):
        return False
    sources = slices.sources
    return len(sources) <= len(leaves) and all(
        source is not None and leaf.source == source
        for leaf, source in zip(leaves, sources)
    )


def _leaf_result(entry: dict, sa, member: str, schema: Schema, read) -> PublishResult:
    """A leaf read from ``member``, with ``entry``'s accounting."""
    payload = read(member)
    if entry["representation"] == "coefficients":
        release = CoefficientRelease(schema, tuple(sa), payload)
    else:
        release = DenseRelease(FrequencyMatrix(schema, payload))
    return PublishResult(
        release=release,
        epsilon=float(entry["epsilon"]),
        noise_magnitude=float(entry["noise_magnitude"]),
        generalized_sensitivity=float(entry["generalized_sensitivity"]),
        variance_bound=float(entry["variance_bound"]),
        details=entry.get("details", {}),
    )


def _stream_result(entry: dict, schema: Schema, read, lazy: bool, slices) -> PublishResult:
    """A stream over its ``entry["epochs"]`` epoch members."""
    leaf, sa = entry["leaf"], entry["sa"]
    source = getattr(read, "source", None)
    leaves = []
    for epoch in range(entry["epochs"]):
        member = f"{entry['members']}{epoch}"
        load = functools.partial(_leaf_result, leaf, sa, member, schema, read)
        leaves.append(
            StreamNode(leaf, load, source(member) if source else None)
            if lazy
            else StreamNode.from_result(load())
        )
    if slices is not None and not _continues(slices, schema, sa, leaves):
        slices = None
    release = TimeTree(schema, tuple(sa), leaves, window=entry["window"], slices=slices)
    return _wrap_stream_result(release, epsilon=entry["epsilon"], **entry["details"])


def _result(
    entry: dict, schema: Schema, read, lazy: bool, slices=None
) -> PublishResult:
    """Rebuild the result one tree entry describes (recursive).

    Combinator structure is rebuilt at once; when ``lazy`` each
    partition leaf and stream leaf gets a loader instead of its payload,
    so nothing is read until a query needs it.  A stream entry continues
    ``slices`` when :func:`_continues` allows it.
    """
    kind = entry.get("kind")
    if kind == "leaf":
        return _leaf_result(entry, entry.get("sa"), entry["member"], schema, read)
    if kind == "stream":
        return _stream_result(entry, schema, read, lazy, slices)
    if kind != "partition":
        raise ReproError(f"corrupt result archive: unknown tree entry kind {kind!r}")
    attribute = entry["attribute"]
    bounds = [int(b) for b in entry["bounds"]]
    children = entry["children"]
    if len(bounds) != len(children) + 1:
        raise ReproError(
            f"corrupt result archive: {len(children)} parts but "
            f"{len(bounds)} cut points"
        )
    parts = []
    for lo, hi, child in zip(bounds, bounds[1:], children):
        sub_schema = shard_schema(schema, attribute, lo, hi)
        if lazy and child.get("kind") == "leaf":
            parts.append(
                ComposedPart(
                    sub_schema,
                    child["sa"],
                    child["noise_magnitude"],
                    functools.partial(_result, child, sub_schema, read, lazy),
                )
            )
        else:
            parts.append(_result(child, sub_schema, read, lazy))
    return PublishResult(
        release=Partition(schema, attribute, bounds, parts),
        epsilon=float(entry["epsilon"]),
        noise_magnitude=float(entry["noise_magnitude"]),
        generalized_sensitivity=float(entry["generalized_sensitivity"]),
        variance_bound=float(entry["variance_bound"]),
        details=entry.get("details", {}),
    )


def _decode(header: dict, read, lazy: bool, slices=None) -> PublishResult:
    """The result a header (with its tree) describes."""
    try:
        return _result(
            header["tree"], schema_from_dict(header["schema"]), read, lazy, slices
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"corrupt result archive: {exc!r}") from exc


def result_from_parts(header: dict, arrays: dict) -> PublishResult:
    """Rebuild a :class:`PublishResult` from :func:`result_to_parts`.

    Reconstruction is **eager** (every array is already in hand) and
    runs the same decoder as :func:`load_result`, so a result
    round-tripped through parts answers every query bit-for-bit like
    the original — the guarantee the shared-memory serving workers rely
    on.

    Parameters
    ----------
    header:
        The JSON header half of :func:`result_to_parts`.
    arrays:
        The array payloads half; shared-memory consumers pass read-only
        views mapped straight from the published segments.
    """
    _check_format(header)
    if "tree" not in header:
        raise ReproError("incomplete result parts: missing 'tree'")
    _resolve(header["tree"], arrays)
    return _decode(header, arrays.__getitem__, lazy=False)


def load_result(path) -> PublishResult:
    """Reload a result written by :func:`save_result` or a stream publisher.

    From a filesystem path every partition part and stream leaf stays
    lazy: only the zip directory, the header and the tree are parsed
    now, and each payload is read when a query first needs it.  File
    objects load eagerly.

    Parameters
    ----------
    path:
        A format-6 archive path or readable binary file object.
    """
    if not isinstance(path, (str, os.PathLike)):
        with np.load(path) as archive:
            header = _read_header(archive.__getitem__, archive.files)
            return _decode(header, archive.__getitem__, lazy=False)
    reader = _ArchiveReader(path)
    return _decode(_read_header(reader, reader.members), reader, lazy=True)


class ResultHandle:
    """A lazy handle on a result archive: header now, payload on touch.

    ``.npz`` archives are zip files, so the JSON header and release tree
    can be read without touching the (much larger) array members.  A
    server registered over dozens of archives therefore learns every
    release's schema, representation, and privacy accounting at
    registration time; :meth:`load` (cached and thread-safe) rebuilds the
    release from that header alone; each partition leaf's payload is
    read when the first query routes to it, and each stream leaf's once,
    when the stream's running prefix folds it.

    Parameters
    ----------
    path:
        An archive written by :func:`save_result` or a stream publisher.
    """

    def __init__(self, path):
        self._path = str(path)
        self._header: dict | None = None
        self._result: PublishResult | None = None
        self._reader: _ArchiveReader | None = None
        self._stat: tuple[int, int] | None = None
        self._lock = threading.Lock()

    @property
    def path(self) -> str:
        """The archive path this handle reads from."""
        return self._path

    @property
    def loaded(self) -> bool:
        """True once :meth:`load` has materialized the full result."""
        return self._result is not None

    @property
    def header(self) -> dict:
        """The archive's header, with its release tree under ``"tree"``
        (read without any array payload; each stream entry's ``epochs``
        counts its epoch members)."""
        if self._header is None:
            with self._lock:
                if self._header is None:
                    reader = _ArchiveReader(self._path)
                    self._header = _read_header(reader, reader.members)
                    self._reader = reader
                    self._stat = (reader.stat.st_mtime_ns, reader.stat.st_size)
        return self._header

    @property
    def stale(self) -> bool:
        """Whether the file changed on disk since the header was read.

        Pure ``stat`` comparison — no I/O on the archive itself.  Only
        stream archives legitimately change in place (each epoch close
        appends); a serving layer uses this to decide when to re-resolve
        a live stream.
        """
        if self._stat is None:
            return False
        try:
            stat = os.stat(self._path)
        except OSError:
            return False
        return (stat.st_mtime_ns, stat.st_size) != self._stat

    @property
    def representation(self) -> str:
        """The root release's representation (``dense``, ``coefficients``,
        ``sharded`` or ``stream``)."""
        return self.header["representation"]

    @property
    def epsilon(self) -> float:
        """The archive's ε without loading the payload."""
        return float(self.header["epsilon"])

    def schema(self) -> Schema:
        """The released schema, rebuilt from the header alone."""
        return schema_from_dict(self.header["schema"])

    def load(self, slices=None) -> PublishResult:
        """The full :class:`PublishResult`, loaded once and cached.

        Parameters
        ----------
        slices:
            An earlier load's :class:`~repro.core.compose.PrefixSlices`
            for a stream root to continue.  Adopted only when every leaf
            it folded is stored in this archive under the same member
            name, CRC-32 and size (read from the zip directory the
            handle already parsed); otherwise the root starts a new
            running prefix.  Ignored once the result is loaded.

        Returns
        -------
        PublishResult
            Built from the header's tree like :func:`load_result`;
            repeated calls return the same object.
        """
        if self._result is None:
            header = self.header
            with self._lock:
                if self._result is None:
                    self._result = _decode(header, self._reader, lazy=True, slices=slices)
        return self._result

    def __repr__(self) -> str:
        state = "loaded" if self.loaded else "lazy"
        return f"ResultHandle({self._path!r}, {state})"


def open_result(path) -> ResultHandle:
    """Open an archive lazily — header metadata now, payload on demand.

    Parameters
    ----------
    path:
        An archive written by :func:`save_result` or a stream publisher.

    Returns
    -------
    ResultHandle
        Raises :class:`~repro.errors.ReproError` immediately if the file
        is missing, is not a result archive, or is not format 6 (the
        header is validated eagerly so registration fails fast).
    """
    handle = ResultHandle(path)
    try:
        handle.header
    except FileNotFoundError as exc:
        raise ReproError(f"no such archive: {path}") from exc
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        # BadZipFile subclasses Exception directly, so it must be named:
        # a truncated download starts with zip magic yet fails to parse.
        raise ReproError(f"not a repro result archive: {path} ({exc})") from exc
    return handle


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)

"""Persistence for published results: one archive layout for every release.

A data publisher runs the mechanism once and distributes the release;
consumers need to reload it with its schema and privacy accounting
intact.  Every :class:`~repro.core.framework.PublishResult` — a leaf
(dense or coefficient release), a :class:`~repro.core.compose.Partition`,
a :class:`~repro.core.compose.TimeTree`, or any nesting of them — is a
schema, its accounting and a tree of noisy tensors, so all of them share
one ``.npz`` (zip) layout, **format 5**:

* ``header`` — the static header: format, root representation, schema
  and root ε, plus (when the root is a stream) the epoch length,
  mechanism spec, base seed and per-node representation a resuming
  :class:`~repro.streaming.publisher.StreamingPublisher` needs;
* ``tree_<v>`` — versioned copies of the release tree.  Every entry
  carries its subtree's full accounting; ``partition`` entries add
  their attribute, cut points and children, ``stream`` entries their
  SA set, epoch count, window and tree nodes, and ``leaf`` entries (a
  stream node is a leaf entry with ``level``/``index``) name the array
  member holding their payload.  Readers use the newest version;
* one stored (``ZIP_STORED``: noise does not deflate) array member per
  leaf or node — ``leaf`` at the root, ``node_<level>_<index>`` for a
  stream's nodes, and ``p<i>_`` prefixed inside partition part ``i``.

:func:`save_result` writes version 0.  A live stream's archive is
created empty by :func:`create_stream_archive`, and every epoch close
(:func:`append_stream_nodes`) appends its new node members plus the
next tree version to a copy that then atomically replaces the archive,
so existing members are never rewritten and readers always see a whole
zip.  :func:`result_to_parts` is the same layout without the archive —
the tree rides inline under ``header["tree"]`` — which is how the
shared-memory serving fleet ships a release.

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
Archives of the earlier formats 1–4 are rejected with a
:class:`~repro.errors.ReproError` naming their format.

Hierarchies are serialized by their parent arrays + labels, which is
enough to rebuild an identical :class:`~repro.data.hierarchy.Hierarchy`
(level-order ids and DFS leaf order are deterministic functions of the
tree shape).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import struct
import tempfile
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
    "stream_node_key",
]

#: The archive layout version every writer emits and every reader accepts.
_FORMAT = 5
#: Version of the :func:`schema_to_dict` payload.
_SCHEMA_VERSION = 1
#: Member-name prefix of the versioned release trees.
_TREE_PREFIX = "tree_"
#: A zip local file header: signature, 22 bytes this reader skips, then
#: the name and extra-field lengths.
_LOCAL_HEADER = struct.Struct("<4s22xHH")


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


def stream_node_key(level: int, index: int) -> str:
    """The archive member name holding a root stream's tree node.

    Inside partition part ``i`` the member carries the part's ``p<i>_``
    prefix.

    Parameters
    ----------
    level, index:
        The node's dyadic-tree coordinates.
    """
    return f"node_{int(level)}_{int(index)}"


# ----------------------------------------------------------------------
# Encoder: result -> (header, tree, arrays)
# ----------------------------------------------------------------------
def _accounting(result: PublishResult) -> dict:
    return {
        "epsilon": result.epsilon,
        "noise_magnitude": result.noise_magnitude,
        "generalized_sensitivity": result.generalized_sensitivity,
        "variance_bound": result.variance_bound,
        "details": {k: _jsonable(v) for k, v in result.details.items()},
    }


def _leaf_entry(result: PublishResult, arrays: dict, prefix: str, node=None) -> dict:
    """A leaf's tree entry; its payload goes to ``arrays``.

    ``node`` is the ``(level, index)`` of a stream node, which is a leaf
    entry plus its tree coordinates.
    """
    release = result.release
    if isinstance(release, CoefficientRelease):
        payload = release.coefficients
    elif isinstance(release, DenseRelease):
        payload = release.to_matrix().values
    else:
        raise ReproError(f"cannot archive a leaf of type {type(release).__name__}")
    member = prefix + ("leaf" if node is None else stream_node_key(*node))
    arrays[member] = payload
    entry = {
        **_accounting(result),
        "kind": "leaf",
        "member": member,
        "representation": release.representation,
    }
    try:
        entry["sa"] = list(infer_sa_names(result))
    except QueryError:
        # A dense leaf whose details record no SA set still answers;
        # like the in-memory result, it just has no variance model.
        pass
    if node is not None:
        entry["level"], entry["index"] = node
    return entry


def _stream_entry(result: PublishResult, nodes: list) -> dict:
    """A stream's tree entry over already-encoded ``nodes``."""
    release = result.release
    return {
        **_accounting(result),
        "kind": "stream",
        "sa": list(release.sa_names),
        "epochs": release.epochs,
        "window": list(release.window_bounds),
        "nodes": nodes,
    }


def _entry(result: PublishResult, arrays: dict, prefix: str = "") -> dict:
    """The tree entry of ``result`` (recursive); payloads go to ``arrays``."""
    release = result.release
    if isinstance(release, TimeTree):
        return _stream_entry(
            result,
            [
                _leaf_entry(node.result(), arrays, prefix, key)
                for key, node in sorted(release.nodes.items())
            ],
        )
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
        nodes = list(release.nodes.values())
        header.update(
            epoch_length=int(result.details.get("epoch_length", 1)),
            # Privelet+ with an explicit SA set reproduces every standard
            # mechanism's noise structure, so a snapshot stays resumable.
            mechanism={"kind": "privelet+", "sa": list(release.sa_names)},
            mechanism_name=str(result.details.get("mechanism", "stream")),
            seed=None,
            node_representation=(
                nodes[0].representation if nodes else "coefficients"
            ),
        )
        header.update(stream)
    return header


def _write_member(archive: zipfile.ZipFile, name: str, array) -> None:
    """Write one stored ``.npy`` member (what ``np.load`` reads back)."""
    with archive.open(name + ".npy", "w", force_zip64=True) as member:
        np.lib.format.write_array(
            member, np.ascontiguousarray(array), allow_pickle=False
        )


def _json_array(payload: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8)


def _write(archive: zipfile.ZipFile, arrays: dict, tree: dict, version: int) -> None:
    """Write payload members, then tree version ``version``."""
    for member, payload in arrays.items():
        _write_member(archive, member, payload)
    _write_member(archive, f"{_TREE_PREFIX}{version}", _json_array(tree))


def result_to_parts(result: PublishResult) -> tuple[dict, dict]:
    """Split a result into a JSON header plus its raw array payloads.

    This is the archive layout without the archive: the same header an
    archive stores, with the release tree inline under
    ``header["tree"]``, plus one array per leaf or stream node — usable
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
    """Write a published result to ``path`` as a format-5 archive.

    One stored member per leaf or stream node plus tree version 0;
    every part is loaded to be written.  A saved stream records no base
    seed, so resuming it with :meth:`~repro.streaming.publisher.
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
    tree = header.pop("tree")
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        _write_member(archive, "header", _json_array(header))
        _write(archive, arrays, tree, 0)


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

    The header written here is static for the archive's whole life;
    the tree (nodes, epoch count, accounting) evolves through the
    versions :func:`append_stream_nodes` adds.  Refuses to overwrite an
    existing file — a stream archive is append-only.

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
        The per-node representation the stream publishes
        (``"coefficients"`` or ``"dense"``).
    """
    mechanism = mechanism or {}
    result = _wrap_stream_result(
        TimeTree(schema, tuple(mechanism.get("sa", ())), 0, {}),
        [],
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
    try:
        with zipfile.ZipFile(path, "x", compression=zipfile.ZIP_STORED) as archive:
            _write_member(archive, "header", _json_array(header))
            _write(archive, {}, _entry(result, {}), 0)
    except FileExistsError as exc:
        raise ReproError(
            f"stream archive {path} already exists; resume it with "
            "StreamingPublisher.open instead"
        ) from exc


def append_stream_nodes(path, result: PublishResult, nodes: dict) -> None:
    """Append an epoch close: its new node members plus the next tree.

    Append-only at the *member* level (existing members are never
    rewritten, every earlier tree version stays parseable) and
    **atomic** at the *file* level: the new members are appended to a
    temporary copy in the same directory which then replaces the
    archive via ``os.replace``, so a concurrent reader — e.g. a serving
    process whose ``watch_streams`` probe fires mid-append — always
    opens either the old or the new archive, never a zip whose central
    directory is being rewritten.  The caller is the single writer (the
    stream's publisher).  Only the new nodes are encoded: the earlier
    nodes' entries come from the archive's newest tree, so resumed
    streams never load old payloads.

    Parameters
    ----------
    path:
        A stream archive created by :func:`create_stream_archive`.
    result:
        The stream's whole result after the close (a
        :class:`~repro.core.compose.TimeTree` root), whose accounting,
        SA set and epoch count the new tree version records.
    nodes:
        ``(level, index) -> PublishResult`` for each node completed by
        this close.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    descriptor, scratch = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".appending"
    )
    os.close(descriptor)
    try:
        shutil.copyfile(path, scratch)
        with zipfile.ZipFile(scratch, "a", compression=zipfile.ZIP_STORED) as archive:
            existing = {name.removesuffix(".npy") for name in archive.namelist()}
            version = _newest_version(existing)
            with archive.open(f"{_TREE_PREFIX}{version}.npy") as member:
                previous = _decode_json(np.lib.format.read_array(member))
            arrays: dict = {}
            entries = previous["nodes"] + [
                _leaf_entry(node, arrays, "", key) for key, node in nodes.items()
            ]
            duplicates = sorted(existing.intersection(arrays))
            if duplicates:
                raise ReproError(
                    f"stream archive {path} already holds {duplicates}; nodes "
                    "are append-only"
                )
            _write(archive, arrays, _stream_entry(result, entries), version + 1)
        os.replace(scratch, path)
    except BaseException:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        raise


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


def _tree_members(entry: dict):
    """Every payload member a tree entry references (recursive)."""
    if "member" in entry:
        yield entry["member"]
    for child in entry.get("children", []) + entry.get("nodes", []):
        yield from _tree_members(child)


def _check_members(tree: dict, available) -> None:
    missing = sorted(set(_tree_members(tree)) - set(available))
    if missing:
        raise ReproError(f"corrupt result archive: missing members {missing}")


def _newest_version(names) -> int:
    versions = [
        int(name[len(_TREE_PREFIX):])
        for name in names
        if name.startswith(_TREE_PREFIX) and name[len(_TREE_PREFIX):].isdigit()
    ]
    if not versions:
        raise ReproError("corrupt result archive: no tree member")
    return max(versions)


def _decode_json(array) -> dict:
    return json.loads(bytes(np.asarray(array).tobytes()).decode("utf-8"))


def _read_header(read, members) -> dict:
    """An archive's header with its newest tree under ``"tree"``.

    ``read`` maps a member name to its array and ``members`` lists the
    names (without ``.npy``).
    """
    try:
        header = _decode_json(read("header"))
    except KeyError as exc:
        raise ReproError(f"not a repro result archive: missing {exc}") from exc
    _check_format(header)
    tree = _decode_json(read(f"{_TREE_PREFIX}{_newest_version(members)}"))
    _check_members(tree, members)
    header["tree"] = tree
    return header


class _ArchiveReader:
    """Reads the members of the archive at ``path`` at their recorded offsets.

    The zip directory is parsed once, on construction, and kept: an
    append copies the archive and adds members after the existing ones,
    so every member it already lists stays where it was.  A read checks
    the local header's name and the data's CRC-32 against the directory;
    when either check fails or the member is unknown (the path now holds
    another archive), the directory is parsed again and the read retried,
    and a member that still fails the fast path (a compressed one) is
    read through :mod:`zipfile`.  The file is opened per read and always
    closed, so an append's ``os.replace`` never races an open handle.
    """

    def __init__(self, path):
        self._path = os.fspath(path)
        self._directory = self._parse()

    def _parse(self) -> dict:
        with open(self._path, "rb") as file, zipfile.ZipFile(file) as archive:
            return {info.filename: info for info in archive.infolist()}

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
            self._directory = self._parse()
            if name not in self._directory:
                raise KeyError(member)
            data = self._stored_bytes(self._directory[name])
        if data is None:
            with open(self._path, "rb") as file, zipfile.ZipFile(file) as archive:
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


def _continues(slices, schema: Schema, sa_names, nodes) -> bool:
    """Whether a re-opened stream may continue an earlier running prefix.

    Only when its schema and SA set are the same and every leaf the
    prefix folded is stored under the same member name, CRC-32 and size
    in the re-opened archive.  An append never rewrites a member, so an
    appended archive passes; an archive deleted and re-created at the
    same path holds other bytes under those names and starts afresh.
    """
    if slices.transform.schema != schema or set(slices.sa_names) != set(sa_names):
        return False
    return all(
        source is not None
        and getattr(nodes.get((0, epoch)), "source", None) == source
        for epoch, source in enumerate(slices.sources)
    )


def _result(
    entry: dict, schema: Schema, read, lazy: bool, slices=None
) -> PublishResult:
    """Rebuild the result one tree entry describes (recursive).

    Combinator structure is rebuilt at once; when ``lazy`` each
    partition leaf and stream node gets a loader instead of its payload,
    so nothing is read until a query needs it.  A stream entry continues
    ``slices`` when :func:`_continues` allows it.
    """
    kind = entry.get("kind")
    if kind == "leaf":
        payload = read(entry["member"])
        if entry["representation"] == "coefficients":
            release = CoefficientRelease(schema, tuple(entry["sa"]), payload)
        else:
            release = DenseRelease(FrequencyMatrix(schema, payload))
    elif kind == "partition":
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
        release = Partition(schema, attribute, bounds, parts)
    elif kind == "stream":
        nodes = {}
        source = getattr(read, "source", None)
        for node in entry["nodes"]:
            key = (int(node["level"]), int(node["index"]))
            load = functools.partial(_result, node, schema, read, lazy)
            nodes[key] = (
                StreamNode(
                    *key, node["noise_magnitude"], load, node["representation"],
                    source(node["member"]) if source else None,
                )
                if lazy
                else StreamNode.from_result(*key, load())
            )
        if slices is not None and not _continues(slices, schema, entry["sa"], nodes):
            slices = None
        lo, hi = entry["window"]
        release = TimeTree(
            schema, tuple(entry["sa"]), int(entry["epochs"]), nodes, window=(lo, hi),
            slices=slices,
        )
    else:
        raise ReproError(f"corrupt result archive: unknown tree entry kind {kind!r}")
    return PublishResult(
        release=release,
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
    _check_members(header["tree"], arrays)
    return _decode(header, arrays.__getitem__, lazy=False)


def load_result(path) -> PublishResult:
    """Reload a result written by :func:`save_result` or a stream publisher.

    From a filesystem path every partition part and stream node stays
    lazy: only the zip directory, the header and the newest tree are
    parsed now, and each payload is read when a query first needs it.
    File objects load eagerly.

    Parameters
    ----------
    path:
        A format-5 archive path or readable binary file object.
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
        """The archive's header, with its newest release tree under
        ``"tree"`` (read without any array payload)."""
        if self._header is None:
            with self._lock:
                if self._header is None:
                    stat = os.stat(self._path)
                    reader = _ArchiveReader(self._path)
                    self._header = _read_header(reader, reader.members)
                    self._reader = reader
                    self._stat = (stat.st_mtime_ns, stat.st_size)
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
        is missing, is not a result archive, or is not format 5 (the
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

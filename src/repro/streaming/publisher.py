"""Streaming ingestion: timestamped rows in, temporal releases out.

:class:`StreamingPublisher` turns the one-shot publish pipeline into a
continuously running one.  Time is cut into fixed-length **epochs**;
rows buffer in their epoch until it closes, and closing an epoch
publishes exactly that epoch's frequency matrix through the configured
mechanism at the **full** ε — sound because epochs are disjoint in rows
(each row has one timestamp), which is the hypothesis of DP parallel
composition, the same argument :mod:`repro.core.sharding` makes along an
ordinal attribute.

A stream is exactly its per-epoch leaves.  The wavelet pipeline is
linear and the leaves' noise independent, so a window ``[lo, hi)``
answers the sum of its leaves — read as the difference of two
running-prefix slices folded from them
(:class:`~repro.core.compose.PrefixSlices`) — with exact variance
``2 (hi - lo) λ² · ∏ profile``, every leaf sharing one λ.  (Contrast
with the binary-tree mechanism for continual observation, which draws
fresh noise per tree node at a split budget; here the per-epoch ε is
fixed, and a window answer's variance is the sum of its epochs'.)

Reproducibility follows the sharding convention: epoch ``e``'s noise is
a pure function of ``(seed, e)``, so re-running — or resuming a stream
archive with :meth:`StreamingPublisher.open` — reproduces the exact
releases.  When an ``archive_path`` is configured, every epoch close
appends its one leaf member to the stream archive (:mod:`repro.io`),
which is what a live
:class:`~repro.serving.server.ReleaseServer` re-resolves on.  The
archive stores the base seed when one was given (the library's usual
explicit-reproducibility trade-off; omit the seed for production use).
"""

from __future__ import annotations

import numpy as np

from repro.core.basic import BasicMechanism
from repro.core.compose import PrefixSlices, TimeTree
from repro.core.framework import PublishResult
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.release import infer_sa_names
from repro.data.schema import Schema
from repro.data.table import Table
from repro.errors import StreamingError
from repro.streaming.release import StreamNode, _wrap_stream_result
from repro.utils.validation import ensure_epsilon, ensure_positive_int

__all__ = ["StreamingPublisher", "epoch_seed"]


def epoch_seed(seed, epoch: int):
    """The independent, reproducible seed for one epoch's publish.

    Parameters
    ----------
    seed:
        The stream's base seed; ``None`` means every epoch draws fresh
        entropy.
    epoch:
        The epoch index; the draw is a pure function of ``(seed,
        epoch)``, mirroring :func:`repro.core.sharding.shard_seeds`.
    """
    epoch = int(epoch)
    if epoch < 0:
        raise StreamingError(f"invalid epoch index {epoch}")
    if seed is None:
        return None
    return np.random.SeedSequence(entropy=seed, spawn_key=(epoch,))


def _shared(leaf: StreamNode, sa) -> tuple:
    """What every leaf of one stream shares: λ, ρ, representation, SA set."""
    return (
        leaf.noise_magnitude,
        leaf.accounting["generalized_sensitivity"],
        leaf.representation,
        tuple(sa),
    )


def _mechanism_spec(mechanism, schema: Schema) -> dict:
    """A JSON description from which :meth:`StreamingPublisher.open` can
    rebuild the mechanism (standard mechanisms only)."""
    if isinstance(mechanism, BasicMechanism):
        return {"kind": "basic"}
    if isinstance(mechanism, PriveletPlusMechanism):
        # Privelet is Privelet+ with SA = {}; resolving the (schema-
        # deterministic) "auto" rule now keeps resumed streams on the
        # exact SA set the first epoch used.
        return {"kind": "privelet+", "sa": list(mechanism.sa_for(schema))}
    return {"kind": mechanism.name}


def _mechanism_from_spec(spec: dict):
    """Rebuild a standard mechanism from :func:`_mechanism_spec` output."""
    kind = spec.get("kind")
    if kind == "basic":
        return BasicMechanism()
    if kind == "privelet+":
        return PriveletPlusMechanism(sa_names=tuple(spec.get("sa", ())))
    raise StreamingError(
        f"cannot rebuild mechanism {kind!r} from the archive header; "
        "pass the mechanism explicitly to StreamingPublisher.open"
    )


class StreamingPublisher:
    """Ingest timestamped row batches; publish each epoch as one leaf.

    Parameters
    ----------
    schema:
        The stream's released schema (time is not an attribute; rows
        are bucketed by their timestamps instead).
    mechanism:
        Any :class:`~repro.core.framework.PublishingMechanism`; applied
        once per epoch close.  Every epoch must come out with the same
        λ, ρ, SA set and representation (all standard mechanisms do:
        λ depends only on the schema, the SA set and ε), because a
        window's exact variance reads one λ for all its leaves.
    epsilon:
        The privacy budget — every epoch gets all of it (parallel
        composition over disjoint epochs).
    epoch_length:
        Timestamp units per epoch; row timestamp ``t`` lands in epoch
        ``t // epoch_length``.
    seed:
        Base seed; epoch ``e``'s noise is a pure function of ``(seed,
        e)`` (see :func:`epoch_seed`).
    materialize:
        Per-epoch representation: the default ``False`` keeps every
        leaf in coefficient space.
    archive_path:
        Optional path of a stream archive to create now and append
        each epoch close to.  Must not already exist — resume an
        existing archive with :meth:`open` instead.
    """

    def __init__(
        self,
        schema: Schema,
        mechanism,
        epsilon: float,
        *,
        epoch_length: int = 1,
        seed=None,
        materialize: bool = False,
        archive_path=None,
    ):
        if not isinstance(schema, Schema):
            raise StreamingError("schema must be a Schema instance")
        self._schema = schema
        self._mechanism = mechanism
        self._epsilon = ensure_epsilon(epsilon)
        self._epoch_length = ensure_positive_int(epoch_length, "epoch_length")
        self._seed = seed
        self._materialize = bool(materialize)
        self._buffers: dict[int, list[np.ndarray]] = {}
        # The closed epochs' leaves; a tuple, so a release() snapshot
        # keeps the epochs closed when it was taken.
        self._leaves: tuple[StreamNode, ...] = ()
        self._sa: tuple[str, ...] | None = None
        # The running prefix every release() snapshot shares.
        self._slices: PrefixSlices | None = None
        self._archive_path = None
        if archive_path is not None:
            # Imported here: repro.io imports repro.streaming.release.
            from repro.io import create_stream_archive

            self._archive_path = str(archive_path)
            create_stream_archive(
                self._archive_path,
                schema,
                epsilon=self._epsilon,
                epoch_length=self._epoch_length,
                mechanism=_mechanism_spec(mechanism, schema),
                mechanism_name=mechanism.name,
                seed=seed,
                representation="dense" if self._materialize else "coefficients",
            )

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path, *, mechanism=None) -> "StreamingPublisher":
        """Resume publishing onto an existing stream archive.

        The publishing configuration (schema, ε, epoch length, mechanism,
        base seed) is read back from the archive header, the leaves from
        its epoch members (they stay lazy — resuming loads no payload),
        and the next :meth:`advance_epoch` continues the
        stream exactly where it stopped, with the same per-epoch noise
        stream when a base seed was recorded.  An archive whose previous
        writer was killed mid-append is repaired first
        (:func:`repro.io.repair_stream_archive`): it resumes at the last
        epoch whose append completed.

        Parameters
        ----------
        path:
            A stream archive created by a publisher with ``archive_path``
            (or by :func:`repro.io.save_result` on a whole stream's
            result; a saved window raises
            :class:`~repro.errors.StreamingError`).
        mechanism:
            Override for the mechanism; required when the archive was
            produced by a non-standard mechanism the header cannot
            describe.

        Returns
        -------
        StreamingPublisher
            Positioned at the first unclosed epoch.
        """
        from repro.io import open_result, repair_stream_archive

        repair_stream_archive(path)
        handle = open_result(path)
        header = handle.header
        if header["representation"] != "stream":
            raise StreamingError(
                f"{path} is not a stream archive (its root is a "
                f"{header['representation']!r} release)"
            )
        stream = handle.load()
        tree = stream.release
        if tree.window_bounds != (0, tree.epochs):
            raise StreamingError(
                f"{path} holds the window {list(tree.window_bounds)} of a "
                f"{tree.epochs}-epoch stream; only a whole stream resumes"
            )
        if mechanism is None:
            mechanism = _mechanism_from_spec(header["mechanism"])
        publisher = cls(
            tree.schema,
            mechanism,
            float(header["epsilon"]),
            epoch_length=int(header["epoch_length"]),
            seed=header["seed"],
            materialize=header["node_representation"] == "dense",
        )
        publisher._archive_path = str(path)
        publisher._leaves = tree.leaves
        if tree.leaves:
            publisher._sa = tree.sa_names
        return publisher

    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The stream's released schema."""
        return self._schema

    @property
    def epsilon(self) -> float:
        """The per-epoch (and overall) privacy budget."""
        return self._epsilon

    @property
    def epoch_length(self) -> int:
        """Timestamp units per epoch."""
        return self._epoch_length

    @property
    def current_epoch(self) -> int:
        """The open (not yet published) epoch's index."""
        return len(self._leaves)

    @property
    def closed_epochs(self) -> int:
        """How many epochs have been published (``T``)."""
        return len(self._leaves)

    @property
    def pending_rows(self) -> int:
        """Rows buffered across the open and future epochs."""
        return sum(
            batch.shape[0] for batches in self._buffers.values() for batch in batches
        )

    @property
    def archive_path(self) -> str | None:
        """The stream archive this publisher appends to, if any."""
        return self._archive_path

    # ------------------------------------------------------------------
    def ingest(self, table: Table, timestamps=None) -> int:
        """Buffer one batch of rows into their epochs.

        Parameters
        ----------
        table:
            Rows over the stream's schema (names and shape must match).
        timestamps:
            Per-row integer timestamps; row ``i`` lands in epoch
            ``timestamps[i] // epoch_length``.  ``None`` buffers the
            whole batch into the open epoch.  Timestamps inside an
            already-published epoch raise
            :class:`~repro.errors.StreamingError` — a released epoch is
            immutable, late arrivals must be handled upstream.

        Returns
        -------
        int
            How many rows were buffered.
        """
        if not isinstance(table, Table):
            raise StreamingError(f"ingest needs a Table, got {type(table).__name__}")
        if (
            table.schema.names != self._schema.names
            or table.schema.shape != self._schema.shape
        ):
            raise StreamingError(
                f"table schema {table.schema!r} does not match the stream's "
                f"{self._schema!r}"
            )
        rows = table.rows
        if timestamps is None:
            if rows.shape[0]:
                self._buffers.setdefault(self.current_epoch, []).append(rows)
            return int(rows.shape[0])
        timestamps = np.asarray(timestamps, dtype=np.int64)
        if timestamps.shape != (rows.shape[0],):
            raise StreamingError(
                f"timestamps must have shape ({rows.shape[0]},), "
                f"got {timestamps.shape}"
            )
        if timestamps.size == 0:
            return 0
        if timestamps.min() < 0:
            raise StreamingError("timestamps must be non-negative")
        epochs = timestamps // self._epoch_length
        if epochs.min() < self.current_epoch:
            raise StreamingError(
                f"rows timestamped for epoch {int(epochs.min())} arrived "
                f"after that epoch was published (current epoch is "
                f"{self.current_epoch})"
            )
        for epoch in np.unique(epochs):
            self._buffers.setdefault(int(epoch), []).append(rows[epochs == epoch])
        return int(rows.shape[0])

    def advance_epoch(self) -> PublishResult:
        """Close the open epoch: publish it as the stream's next leaf.

        The epoch's buffered rows (possibly none — empty epochs publish
        noise-only releases, so the row count itself is protected)
        become one frequency matrix, published at the full ε with the
        epoch's derived seed.  A leaf whose λ, ρ, SA set or
        representation differs from the stream's raises
        :class:`~repro.errors.StreamingError`.  When an archive is
        attached, the leaf is appended to it
        (:func:`repro.io.append_stream_nodes`) before the close commits:
        if publishing or appending fails, the epoch stays open with its
        rows buffered, and the archive is as it was.

        Returns
        -------
        PublishResult
            The closed epoch's own (leaf) release.
        """
        epoch = self.current_epoch
        batches = self._buffers.pop(epoch, [])
        try:
            return self._close(epoch, batches)
        except BaseException:
            if batches:
                self._buffers[epoch] = batches
            raise

    def _close(self, epoch: int, batches: list) -> PublishResult:
        """Publish and append epoch ``epoch``, then commit it to memory."""
        rows = (
            np.concatenate(batches, axis=0)
            if batches
            else np.empty((0, self._schema.dimensions), dtype=np.int64)
        )
        leaf = self._mechanism.publish(
            Table(self._schema, rows),
            self._epsilon,
            seed=epoch_seed(self._seed, epoch),
            materialize=self._materialize,
        )
        sa = tuple(
            name for name in self._schema.names if name in infer_sa_names(leaf)
        )
        node = StreamNode.from_result(leaf)
        if self._leaves:
            ours, stream = _shared(node, sa), _shared(self._leaves[0], self._sa)
            if ours != stream:
                raise StreamingError(
                    f"epoch {epoch} changed the stream's per-leaf accounting: "
                    f"(λ, ρ, representation, SA set) {ours} != {stream}"
                )
        leaves = self._leaves + (node,)
        if self._archive_path is not None:
            from repro.io import append_stream_nodes

            append_stream_nodes(self._archive_path, self._result(sa, leaves))
        self._sa, self._leaves = sa, leaves
        return leaf

    def advance_to(self, epoch: int) -> int:
        """Close epochs until ``epoch`` is the open one.

        Parameters
        ----------
        epoch:
            The target open-epoch index; epochs without buffered rows
            publish as noise-only empties along the way.

        Returns
        -------
        int
            How many epochs were closed.
        """
        epoch = int(epoch)
        if epoch < self.current_epoch:
            raise StreamingError(
                f"cannot rewind to epoch {epoch}; epoch "
                f"{self.current_epoch - 1} is already published"
            )
        closed = 0
        while self.current_epoch < epoch:
            self.advance_epoch()
            closed += 1
        return closed

    # ------------------------------------------------------------------
    def release(self, lo: int = 0, hi: int | None = None) -> TimeTree:
        """The stream's answer backend over epochs ``[lo, hi)``.

        Parameters
        ----------
        lo:
            First epoch of the window (default 0).
        hi:
            One past the last epoch; ``None`` means every closed epoch.

        Returns
        -------
        TimeTree
            A snapshot view: it shares leaf payloads and one running
            prefix with every other snapshot, but its epoch count is
            fixed at call time (live serving re-resolves through the
            archive instead).
        """
        return self._release(self._sa_hint(), self._leaves, (lo, hi))

    def result(self) -> PublishResult:
        """The stream wrapped as a :class:`PublishResult` over ``[0, T)``.

        Accounting reads the leaves' shared accounting without loading
        any payload: ε, λ and ρ are the leaves', and the variance bound
        is the per-leaf bound times ``T``.
        """
        return self._result(self._sa_hint(), self._leaves)

    def _release(self, sa, leaves, window) -> TimeTree:
        if self._slices is None or set(self._slices.sa_names) != set(sa):
            self._slices = PrefixSlices(self._schema, sa)
        if window[1] is None:
            window = (window[0], len(leaves))
        return TimeTree(self._schema, sa, leaves, window=window, slices=self._slices)

    def _result(self, sa, leaves) -> PublishResult:
        return _wrap_stream_result(
            self._release(sa, leaves, (0, None)),
            epsilon=self._epsilon,
            mechanism=self._mechanism.name,
            epoch_length=self._epoch_length,
        )

    # ------------------------------------------------------------------
    def _sa_hint(self) -> tuple[str, ...]:
        if self._sa is not None:
            return self._sa
        if isinstance(self._mechanism, PriveletPlusMechanism):
            return self._mechanism.sa_for(self._schema)
        if isinstance(self._mechanism, BasicMechanism):
            return tuple(self._schema.names)
        return ()

    def __repr__(self) -> str:
        return (
            f"StreamingPublisher(epochs={self.closed_epochs}, "
            f"pending_rows={self.pending_rows}, "
            f"archive={self._archive_path!r})"
        )

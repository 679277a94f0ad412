"""Streaming ingestion: timestamped rows in, temporal releases out.

:class:`StreamingPublisher` turns the one-shot publish pipeline into a
continuously running one.  Time is cut into fixed-length **epochs**;
rows buffer in their epoch until it closes, and closing an epoch
publishes exactly that epoch's frequency matrix through the configured
mechanism at the **full** ε — sound because epochs are disjoint in rows
(each row has one timestamp), which is the hypothesis of DP parallel
composition, the same argument :mod:`repro.core.sharding` makes along an
ordinal attribute.

After each close, completed sibling nodes merge up the dyadic tree
(:func:`repro.streaming.tree.merge_path`): a level-``k`` node covering
epochs ``[i * 2**k, (i+1) * 2**k)`` is the element-wise *sum* of its
children's payloads — post-processing of already-published releases, so
the merge draws no noise and spends no budget.  A window's exact variance
sums the λ² of only the ``O(log T)`` nodes of its canonical cover, and
its answer reads two running-prefix slices folded from the leaves
(:class:`~repro.core.compose.PrefixSlices`).  (Contrast
with the binary-tree mechanism for continual observation, which draws
fresh noise per node at a split budget; here the per-epoch ε is fixed
and the tree buys *compute*, not accuracy — a window answer's variance
equals the sum of its epochs' variances either way.)

Reproducibility follows the sharding convention: epoch ``e``'s noise is
a pure function of ``(seed, e)``, so re-running — or resuming a stream
archive with :meth:`StreamingPublisher.open` — reproduces the exact
releases.  When an ``archive_path`` is configured, every epoch close
appends the new node payloads and the next release tree to the stream
archive (:mod:`repro.io`), which is what a live
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
from repro.streaming.release import StreamNode, _wrap_stream_result, merge_results
from repro.streaming.tree import merge_path
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
    """Ingest timestamped row batches; publish each epoch into a dyadic tree.

    Parameters
    ----------
    schema:
        The stream's released schema (time is not an attribute; rows
        are bucketed by their timestamps instead).
    mechanism:
        Any :class:`~repro.core.framework.PublishingMechanism`; applied
        once per epoch close.  Its SA choice must be deterministic per
        schema (all standard mechanisms are), because tree merges
        require every epoch to share one coefficient space.
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
        node in coefficient space, which is also what makes merges an
        ``O(m)`` tensor add with no inverse transform.
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
        self._epoch = 0
        self._buffers: dict[int, list[np.ndarray]] = {}
        self._nodes: dict[tuple[int, int], StreamNode] = {}
        # Accounting of the closed epochs' leaves (see result()).
        self._leaves: list = []
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
        base seed) is read back from the archive header, the tree from
        its newest version (nodes stay lazy — resuming loads no
        payload), and the next :meth:`advance_epoch` continues the
        stream exactly where it stopped, with the same per-epoch noise
        stream when a base seed was recorded.  An archive whose previous
        writer was killed mid-append is repaired first
        (:func:`repro.io.repair_stream_archive`): it resumes at the last
        epoch whose append completed.

        Parameters
        ----------
        path:
            A stream archive created by a publisher with ``archive_path``
            (or by :func:`repro.io.save_result` on a stream result).
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
        publisher._epoch = tree.epochs
        publisher._nodes = dict(tree.nodes)
        if tree.epochs:
            publisher._sa = tree.sa_names
            # The closed epochs enter the accounting as one aggregated
            # leaf: result() takes maxima and a left-to-right sum, so
            # this is exact and loads no node.
            publisher._leaves = [stream]
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
        return self._epoch

    @property
    def closed_epochs(self) -> int:
        """How many epochs have been published (``T``)."""
        return self._epoch

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
                self._buffers.setdefault(self._epoch, []).append(rows)
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
        if epochs.min() < self._epoch:
            raise StreamingError(
                f"rows timestamped for epoch {int(epochs.min())} arrived "
                f"after that epoch was published (current epoch is "
                f"{self._epoch})"
            )
        for epoch in np.unique(epochs):
            self._buffers.setdefault(int(epoch), []).append(rows[epochs == epoch])
        return int(rows.shape[0])

    def advance_epoch(self) -> PublishResult:
        """Close the open epoch: publish it and merge completed nodes.

        The epoch's buffered rows (possibly none — empty epochs publish
        noise-only releases, so the row count itself is protected)
        become one frequency matrix, published at the full ε with the
        epoch's derived seed.  Every tree node completed by this close
        (:func:`repro.streaming.tree.merge_path`) is then materialized
        by summing its children's payloads, and — when an archive is
        attached — the new nodes plus the next release tree are appended.

        Returns
        -------
        PublishResult
            The closed epoch's own (leaf) release.
        """
        epoch = self._epoch
        batches = self._buffers.pop(epoch, [])
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
        if self._sa is None:
            self._sa = sa
        elif sa != self._sa:
            raise StreamingError(
                f"mechanism changed its SA set mid-stream ({self._sa} -> "
                f"{sa}); tree merges need one shared coefficient space"
            )
        fresh = {(0, epoch): leaf}
        for level, index in merge_path(epoch)[1:]:
            left = self._node_result(level - 1, 2 * index, fresh)
            right = self._node_result(level - 1, 2 * index + 1, fresh)
            fresh[(level, index)] = merge_results(left, right)
        for (level, index), result in fresh.items():
            self._nodes[(level, index)] = StreamNode.from_result(level, index, result)
        self._leaves.append(leaf)
        self._epoch = epoch + 1
        if self._archive_path is not None:
            from repro.io import append_stream_nodes

            append_stream_nodes(self._archive_path, self.result(), fresh)
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
        if epoch < self._epoch:
            raise StreamingError(
                f"cannot rewind to epoch {epoch}; epoch {self._epoch - 1} "
                "is already published"
            )
        closed = 0
        while self._epoch < epoch:
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
            A snapshot view: it shares node payloads and one running
            prefix with every other snapshot, but its epoch count is
            fixed at call time (live serving re-resolves through the
            archive instead).
        """
        if hi is None:
            hi = self._epoch
        sa = self._sa_hint()
        if self._slices is None or set(self._slices.sa_names) != set(sa):
            self._slices = PrefixSlices(self._schema, sa)
        return TimeTree(
            self._schema, sa, self._epoch, self._nodes, window=(lo, hi),
            slices=self._slices,
        )

    def result(self) -> PublishResult:
        """The stream wrapped as a :class:`PublishResult` over ``[0, T)``.

        Accounting aggregates the leaves without loading any payload:
        ε is shared, λ and ρ are per-leaf maxima, and the variance bound
        is the per-leaf sum.
        """
        return _wrap_stream_result(
            self.release(),
            self._leaves,
            epsilon=self._epsilon,
            mechanism=self._mechanism.name,
            epoch_length=self._epoch_length,
        )

    # ------------------------------------------------------------------
    def _node_result(self, level, index, fresh) -> PublishResult:
        key = (level, index)
        if key in fresh:
            return fresh[key]
        try:
            return self._nodes[key].result()
        except KeyError:
            raise StreamingError(f"stream is missing tree node {key}") from None

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
            f"StreamingPublisher(epochs={self._epoch}, "
            f"pending_rows={self.pending_rows}, "
            f"nodes={len(self._nodes)}, "
            f"archive={self._archive_path!r})"
        )

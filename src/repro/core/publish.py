"""One front door for every publishing shape: :func:`publish`.

The library grew four parallel entry points — 1-D ordinal and nominal
count vectors, horizontally sharded tables, and timestamped streams —
each with its own function and slightly different conventions.  Under
the composition algebra they are all the *same* operation: publish some
leaves, then combine them with :class:`~repro.core.compose.Partition`
(disjoint domain shards) and/or :class:`~repro.core.compose.TimeTree`
(disjoint epochs).  :func:`publish` exposes exactly that: the input's
shape plus ``shard_by``/``stream`` picks the composition, and every
path returns the standard
:class:`~repro.core.framework.PublishResult`.

Every path derives per-shard and per-epoch noise from one base seed, so
the same seed always reproduces the same release.
"""

from __future__ import annotations

import numpy as np

from repro.core.basic import BasicMechanism
from repro.core.compose import Partition, _partition_axis, shard_schema
from repro.core.framework import PublishingMechanism, PublishResult
from repro.core.privelet import PriveletMechanism
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.sharding import _publish_sharded, shard_bounds
from repro.data.attributes import NominalAttribute, OrdinalAttribute
from repro.data.frequency import FrequencyMatrix
from repro.data.schema import Schema
from repro.data.table import Table
from repro.errors import PrivacyError, StreamingError

__all__ = ["publish"]

#: String names :func:`publish` resolves to mechanism instances.
_MECHANISMS = ("basic", "privelet", "privelet+")


def _resolve_mechanism(mechanism, sa_names):
    """A :class:`PublishingMechanism` from a name or an instance."""
    if isinstance(mechanism, PublishingMechanism):
        return mechanism
    if not isinstance(mechanism, str):
        raise PrivacyError(
            f"mechanism must be one of {_MECHANISMS} or a "
            f"PublishingMechanism, got {type(mechanism).__name__}"
        )
    key = mechanism.lower()
    if key == "basic":
        return BasicMechanism()
    if key == "privelet":
        return PriveletMechanism()
    if key == "privelet+":
        return PriveletPlusMechanism(sa_names=sa_names)
    raise PrivacyError(
        f"unknown mechanism {mechanism!r}; expected one of {_MECHANISMS}"
    )


def _check_representation(representation) -> None:
    if representation not in (None, "dense", "coefficients"):
        raise PrivacyError(
            f"representation must be 'dense', 'coefficients', or None, "
            f"got {representation!r}"
        )


def _counts_matrix(data, hierarchy, name: str) -> FrequencyMatrix:
    """A 1-D frequency matrix from a raw count vector."""
    counts = np.asarray(data, dtype=np.float64)
    if counts.ndim != 1:
        raise PrivacyError(
            f"expected a Table, FrequencyMatrix, or 1-D count vector, "
            f"got a {counts.ndim}-D array"
        )
    if hierarchy is not None:
        attribute = NominalAttribute(name, hierarchy)
    else:
        attribute = OrdinalAttribute(name, len(counts))
    return FrequencyMatrix(Schema([attribute]), counts)


def _stream_config(stream, epoch_length: int):
    """Normalize the ``stream`` argument to (timestamps, epoch_length,
    explicit epoch count or None)."""
    epochs = None
    if isinstance(stream, dict):
        if "timestamps" not in stream:
            raise StreamingError("stream dict needs a 'timestamps' entry")
        epoch_length = int(stream.get("epoch_length", epoch_length))
        if "epochs" in stream:
            epochs = int(stream["epochs"])
        stream = stream["timestamps"]
    timestamps = np.asarray(stream, dtype=np.int64)
    if timestamps.ndim != 1:
        raise StreamingError("stream timestamps must be a 1-D array")
    if timestamps.size and timestamps.min() < 0:
        raise StreamingError("stream timestamps must be non-negative")
    return timestamps, epoch_length, epochs


def _closed_epochs(timestamps, epoch_length: int, epochs) -> int:
    """How many epochs to close so every row's epoch is published."""
    needed = (
        int(timestamps.max()) // epoch_length + 1 if timestamps.size else 0
    )
    if epochs is None:
        return needed
    if epochs < needed:
        raise StreamingError(
            f"stream asks for {epochs} epochs but the newest timestamp "
            f"needs {needed}"
        )
    return epochs


def _stream_seed(seed, shard: int):
    """An integer per-shard base seed (pure function of ``(seed, shard)``).

    :func:`~repro.core.sharding.shard_seeds` hands out
    ``SeedSequence`` objects, which :func:`~repro.streaming.publisher.
    epoch_seed` cannot nest as entropy — so sharded streams derive one
    integer per shard from the same ``(entropy, spawn_key)`` scheme and
    let each stream spawn its per-epoch sequences from it.
    """
    if seed is None:
        return None
    return int(
        np.random.SeedSequence(entropy=seed, spawn_key=(shard,)).generate_state(
            1, dtype=np.uint64
        )[0]
    )


def _publish_stream(
    table, mechanism, epsilon, *, timestamps, epoch_length, epochs, seed,
    materialize,
) -> PublishResult:
    """Publish one table as a closed stream of ``epochs`` epochs."""
    from repro.streaming.publisher import StreamingPublisher

    publisher = StreamingPublisher(
        table.schema,
        mechanism,
        epsilon,
        epoch_length=epoch_length,
        seed=seed,
        materialize=materialize,
    )
    if table.rows.shape[0]:
        publisher.ingest(table, timestamps=timestamps)
    for _ in range(epochs):
        publisher.advance_epoch()
    return publisher.result()


def publish(
    data,
    epsilon: float,
    *,
    mechanism="privelet+",
    representation: str | None = None,
    shard_by: str | None = None,
    stream=None,
    seed=None,
    shards: int = 4,
    bounds=None,
    hierarchy=None,
    name: str = "value",
    sa_names="auto",
    epoch_length: int = 1,
    parallel: bool = True,
) -> PublishResult:
    """Publish ``data`` under ε-differential privacy, composing as asked.

    One entry point for every release shape the library produces.  The
    composition is chosen by the keywords: ``shard_by`` partitions the
    domain (disjoint shards, each at full ε — DP parallel composition),
    ``stream`` buckets rows into epochs, one leaf each, and giving both
    publishes one stream per shard and joins them with
    :class:`~repro.core.compose.Partition` — a nested composition that
    archives and serves like any other release.

    Parameters
    ----------
    data:
        A :class:`~repro.data.table.Table`, a
        :class:`~repro.data.frequency.FrequencyMatrix`, or a 1-D count
        vector (ordinal domain, or nominal when ``hierarchy`` is given).
    epsilon:
        The privacy budget.  Every shard and every epoch receives the
        full budget (parallel composition over disjoint data).
    mechanism:
        ``"privelet+"`` (default), ``"privelet"``, ``"basic"``, or any
        :class:`~repro.core.framework.PublishingMechanism` instance.
    representation:
        ``"dense"``, ``"coefficients"``, or ``None`` for each path's
        default — dense for tables and matrices, coefficients for count
        vectors and streams (the shapes whose domains are expected to
        be large).
    shard_by:
        Ordinal attribute to partition a table along.
    stream:
        Per-row timestamps (aligned with the table's rows), or a dict
        ``{"timestamps": ..., "epoch_length": ..., "epochs": ...}``;
        rows land in epoch ``t // epoch_length`` and every epoch up to
        the newest timestamp is closed.
    seed:
        Base seed.  Shard ``i`` and epoch ``e`` draw noise as pure
        functions of ``(seed, i)`` / ``(seed, e)``, so the same seed
        reproduces the same release bit for bit.
    shards:
        Number of balanced shards (ignored when ``bounds`` is given).
    bounds:
        Explicit ascending cut points for ``shard_by``.  **Must be
        chosen independently of the table's contents**: parallel
        composition covers any *fixed* disjoint partition, but cut
        points tuned to the private data make the partition itself
        leak, voiding the ε guarantee.
    hierarchy:
        Nominal hierarchy for a 1-D count vector.
    name:
        Attribute name for a 1-D count vector's released schema.
    sa_names:
        Privelet+ SA configuration when ``mechanism`` is a string
        (default ``"auto"``).
    epoch_length:
        Timestamp units per epoch (``stream`` dicts may override).
    parallel:
        Publish static shards on a thread pool; ``False`` publishes
        them one after another on the calling thread.

    Returns
    -------
    PublishResult
        The standard result; its release is a leaf, a
        :class:`~repro.core.compose.Partition`, a
        :class:`~repro.core.compose.TimeTree`, or a nesting of the two.
    """
    _check_representation(representation)
    mech = _resolve_mechanism(mechanism, sa_names)
    if hierarchy is not None and isinstance(data, (Table, FrequencyMatrix)):
        raise PrivacyError(
            "hierarchy applies only to 1-D count vectors; tables and "
            "matrices carry their hierarchies in their schema"
        )

    if stream is not None:
        if not isinstance(data, Table):
            raise StreamingError("stream publishing requires a Table input")
        timestamps, epoch_length, explicit = _stream_config(stream, epoch_length)
        if timestamps.shape[0] != data.rows.shape[0]:
            raise StreamingError(
                f"{timestamps.shape[0]} timestamps for "
                f"{data.rows.shape[0]} rows"
            )
        epochs = _closed_epochs(timestamps, epoch_length, explicit)
        materialize = representation == "dense"
        if shard_by is None:
            return _publish_stream(
                data,
                mech,
                epsilon,
                timestamps=timestamps,
                epoch_length=epoch_length,
                epochs=epochs,
                seed=seed,
                materialize=materialize,
            )
        schema = data.schema
        axis = _partition_axis(schema, shard_by)
        if bounds is None:
            bounds = shard_bounds(schema[axis].size, shards)
        results = []
        for index, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            mask = (data.rows[:, axis] >= lo) & (data.rows[:, axis] < hi)
            rows = data.rows[mask].copy()
            rows[:, axis] -= lo
            results.append(
                _publish_stream(
                    Table(shard_schema(schema, shard_by, lo, hi), rows),
                    mech,
                    epsilon,
                    timestamps=timestamps[mask],
                    epoch_length=epoch_length,
                    epochs=epochs,
                    seed=_stream_seed(seed, index),
                    materialize=materialize,
                )
            )
        release = Partition(schema, shard_by, bounds, results)
        return PublishResult(
            release=release,
            epsilon=float(results[0].epsilon),
            noise_magnitude=max(r.noise_magnitude for r in results),
            generalized_sensitivity=max(
                r.generalized_sensitivity for r in results
            ),
            variance_bound=sum(r.variance_bound for r in results),
            details={
                "mechanism": mech.name,
                "sharded": True,
                "shard_by": shard_by,
                "bounds": list(bounds),
                "shards": len(results),
                "stream": True,
                "epochs": epochs,
                "epoch_length": epoch_length,
            },
        )

    if shard_by is not None:
        if not isinstance(data, Table):
            raise PrivacyError("shard_by publishing requires a Table input")
        return _publish_sharded(
            data,
            mech,
            epsilon,
            shard_by=shard_by,
            shards=shards,
            bounds=bounds,
            seed=seed,
            materialize=representation != "coefficients",
            parallel=parallel,
        )

    if isinstance(data, Table):
        return mech.publish(
            data, epsilon, seed=seed,
            materialize=representation != "coefficients",
        )
    if isinstance(data, FrequencyMatrix):
        matrix = data
        materialize = representation != "coefficients"
    else:
        matrix = _counts_matrix(data, hierarchy, name)
        materialize = representation == "dense"
    if materialize:
        return mech.publish_matrix(matrix, epsilon, seed=seed)
    return mech.publish_matrix(matrix, epsilon, seed=seed, materialize=False)

"""Sharded releases: disjoint horizontal partitions, each at full ε.

Privelet's guarantee is stated *per frequency matrix*: two tables
differing in one tuple produce matrices differing in one cell.  Split a
table into disjoint horizontal shards along one ordinal attribute and
the changed tuple lives in exactly one shard — so publishing every
shard with the full ε budget is still ε-differentially private overall
(DP **parallel composition**).  The paper's Laplace-in-coefficient-space
analysis then applies shard by shard unchanged: each shard is just a
smaller frequency matrix with its own HN transform, λ, and exact
variance profile.

That observation buys two scaling axes at once:

* **publish time** — shards share nothing (separate matrices, separate
  transforms, separate noise draws), so ``repro.publish(...,
  shard_by=...)`` runs them on a thread pool and the wall clock drops
  with cores;
* **serve time** — the resulting :class:`~repro.core.compose.Partition`
  keeps every shard in its own (coefficient-space, if asked) release,
  so even a partitioned domain far too large for one dense matrix stays
  matrix-free, and a box query touches only the shards its
  partition-axis range intersects.

All routing and accounting live in :class:`~repro.core.compose.
Partition`, the parallel-composition combinator of
:mod:`repro.core.compose`.  This module keeps the partitioning utilities
(:func:`shard_bounds`, :func:`partition_table`, :func:`shard_seeds`) and
the parallel shard publisher behind :func:`repro.publish`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.compose import (
    Partition,
    _check_bounds,
    _partition_axis,
    shard_schema,
)
from repro.core.framework import PublishResult
from repro.data.table import Table
from repro.errors import SchemaError
from repro.utils.validation import ensure_positive_int

__all__ = [
    "shard_bounds",
    "shard_schema",
    "shard_seeds",
    "partition_table",
]


def shard_bounds(size: int, shards: int) -> tuple[int, ...]:
    """Balanced contiguous cut points splitting ``[0, size)`` into ``shards``.

    Parameters
    ----------
    size:
        The partition attribute's coded domain size.
    shards:
        How many contiguous intervals to cut the domain into; must not
        exceed ``size`` (every shard needs at least one coded value).

    Returns
    -------
    tuple[int, ...]
        ``shards + 1`` ascending cut points starting at 0 and ending at
        ``size``; shard ``i`` covers ``[bounds[i], bounds[i+1])`` and
        interval lengths differ by at most one.
    """
    size = ensure_positive_int(size, "size")
    shards = ensure_positive_int(shards, "shards")
    if shards > size:
        raise SchemaError(
            f"cannot cut a domain of size {size} into {shards} non-empty shards"
        )
    return tuple(int(round(i * size / shards)) for i in range(shards + 1))


def shard_seeds(seed, shards: int) -> list:
    """Independent, reproducible per-shard seeds derived from ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (every shard draws fresh entropy) or an integer; the
        per-shard streams are spawned from one
        :class:`numpy.random.SeedSequence`, so shard ``i``'s noise is a
        pure function of ``(seed, i)`` — republishing shard 2 alone
        reproduces exactly the noise it drew inside the sharded publish.
    shards:
        How many per-shard seeds to derive.

    Returns
    -------
    list
        One seed per shard, each acceptable anywhere the library takes
        a ``seed``.
    """
    shards = ensure_positive_int(shards, "shards")
    if seed is None:
        return [None] * shards
    return [
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        for index in range(shards)
    ]


def partition_table(table: Table, attribute: str, bounds) -> list[Table]:
    """Split ``table`` into disjoint shards along one ordinal ``attribute``.

    Shard ``i`` keeps exactly the rows whose ``attribute`` value lies in
    ``[bounds[i], bounds[i+1])``, re-coded onto the shard's restricted
    schema (values shifted down by ``bounds[i]``).  The shards are
    disjoint and cover the table, which is the hypothesis of DP parallel
    composition.

    Parameters
    ----------
    table:
        The table to partition.
    attribute:
        An ordinal attribute of the table's schema.
    bounds:
        Ascending cut points from 0 to the attribute's domain size
        (:func:`shard_bounds` builds balanced ones).

    Returns
    -------
    list[Table]
        One table per shard, over :func:`shard_schema` schemas.
    """
    schema = table.schema
    axis = _partition_axis(schema, attribute)
    bounds = _check_bounds(bounds, schema[axis].size)
    column = table.rows[:, axis]
    shards = []
    for lo, hi in zip(bounds, bounds[1:]):
        rows = table.rows[(column >= lo) & (column < hi)].copy()
        rows[:, axis] -= lo
        shards.append(Table(shard_schema(schema, attribute, lo, hi), rows))
    return shards


def _publish_shard(mechanism, table, epsilon, seed, materialize):
    """Publish one shard (the pool's work item)."""
    return mechanism.publish(table, epsilon, seed=seed, materialize=materialize)


def _publish_sharded(
    table: Table,
    mechanism,
    epsilon: float,
    *,
    shard_by: str,
    shards: int = 4,
    bounds=None,
    seed=None,
    materialize: bool = True,
    parallel: bool = True,
) -> PublishResult:
    """Partition, publish every shard at full ε, and wrap the results.

    Each shard is a disjoint horizontal slice of ``table`` (see
    :func:`partition_table`), so by DP parallel composition the combined
    release is ε-differentially private even though every shard spends
    the whole budget.  Shards share nothing — per-shard transforms,
    noise draws, and (optionally skipped) inversions run concurrently on
    a thread pool of ``min(shards, cpu_count)`` workers.

    Parameters
    ----------
    table:
        The table to publish.
    mechanism:
        Any :class:`~repro.core.framework.PublishingMechanism` (it is
        applied per shard; ``sa_names="auto"`` re-selects per shard
        schema).
    epsilon:
        The privacy budget — each shard gets all of it.
    shard_by:
        The ordinal attribute to partition along.
    shards:
        Number of balanced shards (ignored when ``bounds`` is given).
    bounds:
        Explicit ascending cut points; defaults to :func:`shard_bounds`
        of the attribute's domain.  **Must be chosen independently of
        the table's contents**: parallel composition covers any *fixed*
        disjoint partition, but cut points tuned to the private data
        (e.g. eyeballing the attribute's histogram to balance shards)
        make the partition itself leak, voiding the ε guarantee.  Use
        the uniform default, public knowledge, or a separately budgeted
        DP quantile estimate.
    seed:
        Base seed; per-shard seeds come from :func:`shard_seeds`, so the
        draw in shard ``i`` is a pure function of ``(seed, i)``.
    materialize:
        Per-shard representation: ``False`` keeps every shard in
        coefficient space (never inverts, never densifies).
    parallel:
        ``False`` publishes shards sequentially on the calling thread
        (the benchmark's baseline).

    Returns
    -------
    PublishResult
        Carries a :class:`~repro.core.compose.Partition`;
        ``noise_magnitude`` and ``generalized_sensitivity`` are the
        per-shard maxima,
        ``variance_bound`` the per-shard sum (a query may span every
        shard), and ``details`` records the partition.
    """
    schema = table.schema
    axis = _partition_axis(schema, shard_by)
    if bounds is None:
        bounds = shard_bounds(schema[axis].size, shards)
    else:
        bounds = _check_bounds(bounds, schema[axis].size)
    tables = partition_table(table, shard_by, bounds)
    seeds = shard_seeds(seed, len(tables))
    jobs = [
        (mechanism, shard_table, epsilon, shard_seed, materialize)
        for shard_table, shard_seed in zip(tables, seeds)
    ]
    if parallel and len(jobs) > 1:
        workers = min(len(jobs), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_publish_shard, *zip(*jobs)))
    else:
        results = [_publish_shard(*job) for job in jobs]
    release = Partition(schema, shard_by, bounds, results)
    return PublishResult(
        release=release,
        epsilon=float(results[0].epsilon),
        noise_magnitude=max(result.noise_magnitude for result in results),
        generalized_sensitivity=max(
            result.generalized_sensitivity for result in results
        ),
        variance_bound=sum(result.variance_bound for result in results),
        details={
            "mechanism": mechanism.name,
            "sharded": True,
            "shard_by": shard_by,
            "bounds": list(bounds),
            "shards": len(results),
        },
    )

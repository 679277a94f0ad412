"""Benchmark: batch deduplication on a nested shard x time release.

The planner's promise, measured on the hardest composed backend the
algebra can build — a :class:`~repro.core.compose.Partition` of
per-shard :class:`~repro.core.compose.TimeTree` streams (16 shards
by Age, 64 epochs each; CI smoke: 4 x 8).  A skewed dashboard-style
workload (Zipf-weighted duplicate boxes plus repeated Age-marginal
cells) is answered twice over the same engine:

* **unplanned** — every row straight through
  :meth:`~repro.queries.engine.QueryEngine.answer_columnar`;
* **planned** — through :class:`~repro.planner.QueryPlanner`:
  duplicates collapse to one engine pass and answers scatter back
  bit-for-bit identical (asserted on every run).

Recorded: sustained rows/sec for both paths and the speedup, and the
planner's dedup counters.  Set
``BENCH_SMOKE=1`` for the CI-sized run (no timing assertion —
shared-runner clocks are too noisy to gate on); either way the numbers
land in ``results/BENCH_planner.json`` with a provenance block.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from benchmarks.provenance import provenance
from repro.core.compose import Partition
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.framework import PublishResult
from repro.core.sharding import shard_bounds, shard_schema
from repro.data.census import BRAZIL, census_schema, generate_census_table
from repro.data.table import Table
from repro.queries.engine import QueryEngine
from repro.planner import QueryPlanner
from repro.streaming import StreamingPublisher

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
SEED = 20100301
SHARD_BY = "Age"


def _smoke() -> bool:
    from benchmarks.conftest import bench_smoke

    return bench_smoke()


def _dimensions() -> tuple[int, int, int, int]:
    """(shards, epochs, rows per epoch, batch rows)."""
    return (4, 8, 150, 800) if _smoke() else (16, 64, 400, 20_000)


def _build_nested(schema, shards: int, epochs: int, rows: int):
    """One stream per Age shard, composed under a Partition."""
    bounds = shard_bounds(schema[SHARD_BY].size, shards)
    parts = []
    for index, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        sub_schema = shard_schema(schema, SHARD_BY, lo, hi)
        publisher = StreamingPublisher(
            sub_schema,
            PriveletPlusMechanism(sa_names="auto"),
            1.0,
            seed=SEED + index,
        )
        for epoch in range(epochs):
            table = generate_census_table(
                BRAZIL.scaled(0.05), rows, seed=SEED + 100 * index + epoch
            )
            data = table.rows
            keep = (data[:, 0] >= lo) & (data[:, 0] < hi)
            data = data[keep].copy()
            data[:, 0] -= lo
            publisher.ingest(Table(sub_schema, data))
            publisher.advance_epoch()
        parts.append(publisher.result())
    return Partition(schema, SHARD_BY, bounds, parts)


def _skewed_batch(schema, count: int, seed: int):
    """Zipf-weighted duplicates over few distinct boxes + marginal cells."""
    rng = np.random.default_rng(seed)
    shape = np.asarray(schema.shape, dtype=np.int64)
    distinct = max(count // 20, 8)
    lows = np.empty((distinct, len(shape)), dtype=np.int64)
    highs = np.empty_like(lows)
    for axis, size in enumerate(shape):
        lo = rng.integers(0, size, distinct)
        width = rng.integers(1, size + 1, distinct)
        lows[:, axis] = lo
        highs[:, axis] = np.minimum(lo + width, size)
    weights = 1.0 / np.arange(1, distinct + 1) ** 1.2
    picks = rng.choice(distinct, size=count, p=weights / weights.sum())
    lows, highs = lows[picks], highs[picks]
    # A quarter of the traffic sweeps the Age marginal cell by cell.
    cells = rng.integers(0, shape[0], count // 4)
    marg_lows = np.zeros((len(cells), len(shape)), dtype=np.int64)
    marg_highs = np.tile(shape, (len(cells), 1))
    marg_lows[:, 0] = cells
    marg_highs[:, 0] = cells + 1
    lows = np.vstack([lows, marg_lows])
    highs = np.vstack([highs, marg_highs])
    order = rng.permutation(len(lows))
    return lows[order], highs[order]


def _timed(answer, lows, highs) -> tuple[float, object]:
    start = time.perf_counter()
    batch = answer(lows, highs)
    return time.perf_counter() - start, batch


def test_planner_speedup(record_result):
    shards, epochs, rows, batch_rows = _dimensions()
    schema = census_schema(BRAZIL.scaled(0.05))
    release = _build_nested(schema, shards, epochs, rows)
    result = PublishResult(
        release=release,
        epsilon=1.0,
        noise_magnitude=1.0,
        generalized_sensitivity=1.0,
        variance_bound=1.0,
        details={"sharded": True},
    )
    engine = QueryEngine(result)
    planner = QueryPlanner(engine)
    lows, highs = _skewed_batch(schema, batch_rows, seed=SEED + 9)

    # Load payloads and build serving tensors so both paths measure
    # steady state.
    engine.answer_columnar(lows, highs)
    planner.answer_columnar(lows, highs)

    unplanned_seconds, base = _timed(engine.answer_columnar, lows, highs)
    planned_seconds, planned = _timed(planner.answer_columnar, lows, highs)
    # The refactor contract, asserted under benchmark load too.
    np.testing.assert_array_equal(base.estimates, planned.estimates)
    np.testing.assert_array_equal(base.noise_stds, planned.noise_stds)

    total_rows = len(lows)
    speedup = unplanned_seconds / planned_seconds
    payload = {
        "smoke": _smoke(),
        "provenance": provenance(
            seed=SEED,
            shards=shards,
            epochs=epochs,
            rows_per_epoch=rows,
            batch_rows=total_rows,
            cpu_count=os.cpu_count(),
            domain_shape=list(schema.shape),
        ),
        "planned_vs_unplanned": {
            "batch_rows": total_rows,
            "unplanned_seconds": unplanned_seconds,
            "unplanned_qps": total_rows / unplanned_seconds,
            "planned_seconds": planned_seconds,
            "planned_qps": total_rows / planned_seconds,
            "planned_speedup": speedup,
        },
        "plan": {
            "rows_planned": planner.rows_planned,
            "rows_deduped": planner.rows_deduped,
            "dedup_fraction": planner.rows_deduped / planner.rows_planned,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_planner.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    timing = payload["planned_vs_unplanned"]
    record_result(
        "planner",
        "\n".join(
            [
                f"{shards} shards x {epochs} epochs over {tuple(schema.shape)} "
                f"({total_rows} skewed rows/batch)",
                f"unplanned: {timing['unplanned_qps']:>10.0f} rows/s",
                f"planned  : {timing['planned_qps']:>10.0f} rows/s "
                f"(speedup {speedup:.2f}x)",
                f"dedup    : {payload['plan']['dedup_fraction']:.0%} of rows",
            ]
        ),
        meta={"seed": SEED, "shards": shards, "epochs": epochs},
    )

    assert payload["plan"]["dedup_fraction"] > 0.5  # the workload is skewed
    if _smoke():
        return
    assert speedup > 1.0, (
        f"planned path {timing['planned_qps']:.0f} rows/s did not beat "
        f"unplanned {timing['unplanned_qps']:.0f} rows/s"
    )

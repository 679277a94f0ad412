"""Benchmark: sharded publishing and cross-shard serving.

Sharding's two promises, measured:

* **parallel publish** — disjoint shards share nothing, so
  ``repro.publish(..., shard_by=...)`` runs per-shard transforms and
  noise draws on a thread pool.  This benchmark times a sequential
  publish against the pooled one over the same shards (same seeds, so
  the outputs are identical) and records the wall-clock speedup.  The
  speedup gate runs in full mode on multi-core hosts only — on one core
  a pool cannot beat a loop, and shared-runner clocks are too noisy to
  gate on (the same policy as the serving benchmark).
* **cross-shard batch queries** — a mixed workload whose boxes span
  several shards is answered through the engine's batch API on the
  sharded release and on an equivalent unsharded one, recording
  sustained queries/sec for both, plus how a *routed* workload (every
  box inside one shard) compares.

Set ``BENCH_SMOKE=1`` for a CI-sized run (small table, no timing
assertions).  Either way the numbers land in
``results/BENCH_sharding.json`` with a provenance block.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from benchmarks.provenance import provenance
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.core.publish import publish
from repro.core.sharding import shard_bounds
from repro.data.census import BRAZIL, generate_census_table
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
SEED = 20100301
NUM_SHARDS = 6
MIN_PARALLEL_SPEEDUP = 1.1
ATTEMPTS = 3


def _smoke() -> bool:
    from benchmarks.conftest import bench_smoke

    return bench_smoke()


def _scale_rows_queries() -> tuple[float, int, int]:
    """(census scale, table rows, batch queries)."""
    return (0.05, 2_000, 200) if _smoke() else (0.35, 120_000, 2_000)


def _publish(table, *, parallel: bool):
    return publish(
        table,
        1.0,
        mechanism=PriveletPlusMechanism(sa_names="auto"),
        shard_by="Age",
        shards=NUM_SHARDS,
        seed=SEED,
        representation="coefficients",
        parallel=parallel,
    )


def _timed_publish(table, *, parallel: bool) -> tuple[float, object]:
    start = time.perf_counter()
    result = _publish(table, parallel=parallel)
    return time.perf_counter() - start, result


def _timed_batch(engine, queries) -> float:
    start = time.perf_counter()
    engine.answer_all_with_intervals(queries)
    return time.perf_counter() - start


def test_sharding_scalability(record_result):
    scale, rows, num_queries = _scale_rows_queries()
    table = generate_census_table(BRAZIL.scaled(scale), rows, seed=1)
    age_size = table.schema["Age"].size

    # ---- publish: sequential vs pooled (same seeds, identical output)
    serial_seconds, sharded = _timed_publish(table, parallel=False)
    parallel_seconds, pooled = _timed_publish(table, parallel=True)
    for _ in range(ATTEMPTS - 1):
        if serial_seconds / parallel_seconds >= MIN_PARALLEL_SPEEDUP:
            break
        serial_seconds = min(serial_seconds, _timed_publish(table, parallel=False)[0])
        parallel_seconds = min(
            parallel_seconds, _timed_publish(table, parallel=True)[0]
        )
    speedup = serial_seconds / parallel_seconds

    # Same seeds => the pooled publish answers identically.
    probe = generate_workload(table.schema, 50, seed=SEED + 2)
    np.testing.assert_array_equal(
        QueryEngine(sharded).answer_all(probe), QueryEngine(pooled).answer_all(probe)
    )

    # ---- cross-shard batch queries: sharded vs unsharded backend
    unsharded = PriveletPlusMechanism(sa_names="auto").publish(
        table, 1.0, seed=SEED, materialize=False
    )
    mixed = generate_workload(table.schema, num_queries, seed=SEED + 3)
    sharded_engine = QueryEngine(sharded)
    unsharded_engine = QueryEngine(unsharded)
    # Warm both engines' serving tensors, then measure the steady state.
    _timed_batch(sharded_engine, mixed[:50])
    _timed_batch(unsharded_engine, mixed[:50])
    sharded_seconds = _timed_batch(sharded_engine, mixed)
    unsharded_seconds = _timed_batch(unsharded_engine, mixed)

    # A routed workload: every box inside one shard's Age interval.
    bounds = shard_bounds(age_size, NUM_SHARDS)
    routed = [
        query
        for query in generate_workload(table.schema, 4 * num_queries, seed=SEED + 4)
        if bounds[0] <= query.box()[0][0] and query.box()[0][1] <= bounds[1]
    ][:num_queries] or mixed[:1]
    routed_seconds = _timed_batch(sharded_engine, routed)

    payload = {
        "smoke": _smoke(),
        "provenance": provenance(
            seed=SEED,
            census_scale=scale,
            table_rows=rows,
            num_shards=NUM_SHARDS,
            batch_queries=num_queries,
            cpu_count=os.cpu_count(),
            domain_shape=list(table.schema.shape),
        ),
        "publish": {
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "parallel_speedup": speedup,
        },
        "batch_query": {
            "queries": len(mixed),
            "sharded_seconds": sharded_seconds,
            "sharded_qps": len(mixed) / sharded_seconds,
            "sharded_latency_us": 1e6 * sharded_seconds / len(mixed),
            "unsharded_seconds": unsharded_seconds,
            "unsharded_qps": len(mixed) / unsharded_seconds,
            "routed_queries": len(routed),
            "routed_latency_us": 1e6 * routed_seconds / len(routed),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sharding.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    batch = payload["batch_query"]
    record_result(
        "sharding",
        "\n".join(
            [
                f"{NUM_SHARDS} shards by Age over {table.schema.shape} "
                f"({rows} rows, {os.cpu_count()} cpus)",
                f"publish serial  : {serial_seconds:.3f} s",
                f"publish parallel: {parallel_seconds:.3f} s "
                f"(speedup {speedup:.2f}x)",
                f"mixed batch     : {batch['sharded_qps']:>10.0f} q/s sharded, "
                f"{batch['unsharded_qps']:>10.0f} q/s unsharded",
                f"routed batch    : {batch['routed_latency_us']:.1f} us/query "
                f"({batch['routed_queries']} single-shard queries)",
            ]
        ),
        meta={"seed": SEED, "census_scale": scale, "num_shards": NUM_SHARDS},
    )

    if _smoke():
        return
    # The acceptance gate needs real parallel hardware; one core cannot
    # beat a sequential loop, so (like every timing gate here) it only
    # runs where the measurement is meaningful.
    if (os.cpu_count() or 1) >= 2:
        assert speedup >= MIN_PARALLEL_SPEEDUP, (
            f"parallel publish speedup {speedup:.2f}x below the "
            f"{MIN_PARALLEL_SPEEDUP:.1f}x bar after {ATTEMPTS} attempts"
        )

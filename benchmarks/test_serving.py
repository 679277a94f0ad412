"""Benchmark: sustained query throughput through :class:`ReleaseServer`.

The serving layer's pitch is that a long-lived server answering
dashboard-style traffic (the same ranges re-asked all day, across many
releases) gets two compounding wins: archives load lazily once (and
each engine and its serving tensor build once), and concurrent
requests coalesce into vectorized engine batches.  This benchmark
measures both on two census releases served *from coefficient
archives*:

* **cold vs warm** — a fresh server answers a dashboard workload once
  and closes (pays archive load, engine build, the serving-tensor
  prefix pass and the nominal profile tables), against the same
  workload on one long-lived, warmed server.  The two alternate in
  :func:`benchmarks.conftest.paired_ratio`'s reference-bracketed pairs
  and the gate reads the median ratio: warm >= 2x faster.
* **batch sizes 1 / 16 / 256** — the same workload submitted in
  pipelined chunks of each size, measuring sustained queries/sec (a
  chunk bounds how much the micro-batcher can coalesce).
* **two releases concurrently** — both releases are queried from
  parallel threads and every answer is checked against a direct
  single-release engine.
* **columnar vs dict wire path** — the same traffic submitted as
  ``QueryBatchRequest`` structure-of-arrays batches (one wire item per
  chunk, plan-cache reuse, zero-copy engine handoff) against the
  per-request dict path, plus the raw ``answer_columnar`` engine
  ceiling.  Full mode asserts columnar >= 5x the dict path at batch
  256 and within 5x of the raw engine.

Set ``BENCH_SMOKE=1`` for a CI-sized run (tiny tables, no
timing assertions — shared-runner clocks are too noisy to gate on).  In
full mode the columnar gates are re-measured up to three times before
failing.  Either way the numbers land in ``results/BENCH_serving.json``
with a provenance block, so the throughput trajectory accumulates run
over run.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import pathlib
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from benchmarks.conftest import frozen_heap, paired_ratio
from benchmarks.provenance import provenance
from repro.analysis.exact import query_boxes
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.census import BRAZIL, US, generate_census_table
from repro.io import save_result
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload
from repro.serving.requests import QueryBatchRequest, QueryRequest
from repro.serving.server import ReleaseServer

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
SEED = 20100301
BATCH_SIZES = (1, 16, 256)
MIN_WARM_SPEEDUP = 2.0
#: Full-mode bar: columnar serving qps vs the dict path at batch 256.
MIN_COLUMNAR_SPEEDUP = 5.0
#: Full-mode bar: the raw engine may be at most this much faster than
#: columnar serving at batch 256.
MAX_ENGINE_GAP = 5.0
ATTEMPTS = 3


def _smoke() -> bool:
    from benchmarks.conftest import bench_smoke

    return bench_smoke()


def _scale_rows_queries() -> tuple[float, int, int]:
    """(census scale, table rows, distinct queries per release)."""
    return (0.05, 2_000, 120) if _smoke() else (0.2, 50_000, 600)


def _publish_archives(tmp_path) -> dict:
    """Two coefficient-space census archives, name -> (path, result)."""
    scale, rows, _ = _scale_rows_queries()
    archives = {}
    for name, spec, seed in (("brazil", BRAZIL, 1), ("us", US, 2)):
        table = generate_census_table(spec.scaled(scale), rows, seed=seed)
        result = PriveletPlusMechanism(sa_names="auto").publish(
            table, epsilon=1.0, seed=seed + 10, materialize=False
        )
        path = tmp_path / f"{name}.npz"
        save_result(path, result)
        archives[name] = (path, result)
    return archives


def _dashboard_requests(archives, repeats: int) -> list[QueryRequest]:
    """A dashboard-style workload: distinct queries per release, repeated.

    Repeats model widgets re-rendering.
    """
    _, _, distinct = _scale_rows_queries()
    per_release = []
    for index, (name, (_, result)) in enumerate(sorted(archives.items())):
        schema = result.release.schema
        queries = generate_workload(schema, distinct, seed=SEED + index)
        per_release.append(
            [
                QueryRequest(
                    name,
                    {p.attribute_name: (p.lo, p.hi) for p in query.predicates},
                )
                for query in queries
            ]
        )
    # Interleave the releases so every slice of traffic is mixed (the
    # batcher then splits each coalesced batch per release).
    interleaved = [
        request for group in zip(*per_release) for request in group
    ]
    return interleaved * repeats


def _fresh_server(archives) -> ReleaseServer:
    server = ReleaseServer(max_batch=256, max_linger_seconds=0.002)
    for name, (path, _) in sorted(archives.items()):
        server.register_archive(path, name=name)
    return server


def _timed_pass(server, requests, batch_size: int) -> float:
    """Seconds to answer ``requests`` in pipelined chunks of ``batch_size``."""
    start = time.perf_counter()
    for begin in range(0, len(requests), batch_size):
        server.query_many(requests[begin : begin + batch_size])
    return time.perf_counter() - start


def _measure(archives, requests) -> dict:
    """Paired cold/warm ratio, then a batch-size sweep on the warm server."""

    def cold() -> None:
        with _fresh_server(archives) as fresh:
            fresh.query_many(requests)

    with _fresh_server(archives) as server:
        server.query_many(requests)
        with frozen_heap():
            paired = paired_ratio(cold, lambda: server.query_many(requests))
        sweep = []
        for batch_size in BATCH_SIZES:
            seconds = _timed_pass(server, requests, batch_size)
            sweep.append(
                {
                    "batch_size": batch_size,
                    "seconds": seconds,
                    "qps": len(requests) / seconds,
                }
            )
        stats = server.stats()
    return {
        "requests": len(requests),
        "cold_seconds": paired["slow_seconds"],
        "warm_seconds": paired["fast_seconds"],
        "warm_speedup": paired["ratio"],
        "warm_speedup_pairs": paired["ratios"],
        "batch_sweep": sweep,
        "server_stats": dataclasses.asdict(stats),
    }


def _columnar_boxes(archives, repeats: int) -> dict:
    """Per release: ``(schema, lows, highs)`` matching the dict workload.

    The same generated queries the dict path wraps in ``QueryRequest``
    objects, extracted once into tiled ``(n, d)`` box arrays — what a
    columnar client would hold natively.
    """
    _, _, distinct = _scale_rows_queries()
    boxes = {}
    for index, (name, (_, result)) in enumerate(sorted(archives.items())):
        schema = result.release.schema
        queries = generate_workload(schema, distinct, seed=SEED + index)
        lows, highs = query_boxes(queries, schema.shape)
        boxes[name] = (
            schema,
            np.tile(lows, (repeats, 1)),
            np.tile(highs, (repeats, 1)),
        )
    return boxes


def _columnar_requests(boxes, batch_size: int) -> list[QueryBatchRequest]:
    """The box arrays as interleaved per-release wire batches."""
    per_release = []
    for name, (schema, lows, highs) in sorted(boxes.items()):
        chunks = []
        for begin in range(0, lows.shape[0], batch_size):
            lo = lows[begin : begin + batch_size]
            hi = highs[begin : begin + batch_size]
            ranges = {
                attr: {"lo": lo[:, axis], "hi": hi[:, axis]}
                for axis, attr in enumerate(schema.names)
            }
            chunks.append(QueryBatchRequest(name, ranges))
        per_release.append(chunks)
    interleaved = []
    for group in itertools.zip_longest(*per_release):
        interleaved.extend(chunk for chunk in group if chunk is not None)
    return interleaved


def _measure_columnar(archives, boxes) -> dict:
    """Columnar sweep over BATCH_SIZES on a fresh (then warmed) server."""
    with _fresh_server(archives) as server:
        # Warm pass: engine builds, plan compiles — the sweep then
        # measures steady-state throughput, same as the dict
        # sweep running after its cold/warm passes.
        for request in _columnar_requests(boxes, max(BATCH_SIZES)):
            server.query_columnar(request)
        sweep = []
        for batch_size in BATCH_SIZES:
            requests = _columnar_requests(boxes, batch_size)
            rows = sum(len(request) for request in requests)
            start = time.perf_counter()
            for request in requests:
                server.query_columnar(request)
            seconds = time.perf_counter() - start
            sweep.append(
                {
                    "batch_size": batch_size,
                    "seconds": seconds,
                    "qps": rows / seconds,
                }
            )
        stats = server.stats()
    return {
        "columnar_sweep": sweep,
        "plan_cache_hits": stats.plan_cache_hits,
        "plan_cache_misses": stats.plan_cache_misses,
        "columnar_rows": stats.columnar_rows,
    }


def _measure_engine(archives, boxes) -> float:
    """Raw-engine ceiling: ``answer_columnar`` qps, no serving layer."""
    engines = {
        name: QueryEngine(result) for name, (_, result) in archives.items()
    }
    chunk = max(BATCH_SIZES)
    total_rows = 0
    total_seconds = 0.0
    for name, (_, lows, highs) in sorted(boxes.items()):
        engine = engines[name]
        # Build the serving tensors once, then time.
        for begin in range(0, lows.shape[0], chunk):
            engine.answer_columnar(
                lows[begin : begin + chunk], highs[begin : begin + chunk]
            )
        start = time.perf_counter()
        for begin in range(0, lows.shape[0], chunk):
            engine.answer_columnar(
                lows[begin : begin + chunk], highs[begin : begin + chunk]
            )
        total_seconds += time.perf_counter() - start
        total_rows += lows.shape[0]
    return total_rows / total_seconds


def _qps_at(sweep, batch_size: int) -> float:
    return next(
        point["qps"] for point in sweep if point["batch_size"] == batch_size
    )


def test_serving_throughput(record_result, tmp_path):
    archives = _publish_archives(tmp_path)
    requests = _dashboard_requests(archives, repeats=2 if _smoke() else 4)

    # Correctness first: concurrent traffic against both releases
    # matches a direct per-release engine, answer for answer.
    engines = {
        name: QueryEngine(result) for name, (_, result) in archives.items()
    }
    with _fresh_server(archives) as server:
        sample = requests[: 200 if _smoke() else 600]
        with ThreadPoolExecutor(max_workers=4) as pool:
            responses = list(pool.map(server.query, sample))
        for request, response in zip(sample, responses):
            engine = engines[request.release]
            expected = engine.answer(request.to_query(engine.schema))
            np.testing.assert_allclose(response.estimate, expected, atol=1e-6)
        assert server.stats().engines_built == len(archives)

    payload = _measure(archives, requests)

    # Columnar wire path vs the dict path vs the raw engine ceiling,
    # over the same boxes the dict requests describe.
    top_batch = max(BATCH_SIZES)
    boxes = _columnar_boxes(archives, repeats=2 if _smoke() else 4)
    columnar = _measure_columnar(archives, boxes)
    engine_qps = _measure_engine(archives, boxes)
    dict_qps = _qps_at(payload["batch_sweep"], top_batch)
    if not _smoke():
        for _ in range(ATTEMPTS - 1):
            columnar_qps = _qps_at(columnar["columnar_sweep"], top_batch)
            if (
                columnar_qps >= MIN_COLUMNAR_SPEEDUP * dict_qps
                and engine_qps <= MAX_ENGINE_GAP * columnar_qps
            ):
                break
            columnar = _measure_columnar(archives, boxes)
            engine_qps = _measure_engine(archives, boxes)
    columnar_qps = _qps_at(columnar["columnar_sweep"], top_batch)
    columnar["engine_qps"] = engine_qps
    columnar["columnar_vs_dict_speedup"] = columnar_qps / dict_qps
    columnar["serving_vs_engine_qps_ratio"] = columnar_qps / engine_qps
    payload["columnar"] = columnar

    scale, rows, distinct = _scale_rows_queries()
    payload = {
        "smoke": _smoke(),
        "provenance": provenance(
            seed=SEED,
            census_scale=scale,
            table_rows=rows,
            distinct_queries_per_release=distinct,
            releases=sorted(archives),
            domain_shapes={
                name: list(result.release.schema.shape)
                for name, (_, result) in archives.items()
            },
            batch_sizes=list(BATCH_SIZES),
        ),
        **payload,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_serving.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    stats = payload["server_stats"]
    lines = [
        f"{len(requests)} dashboard requests over {len(archives)} "
        f"coefficient releases {sorted(archives)}",
        f"cold pass  : {payload['cold_seconds']:.4f} s "
        f"(fresh server: archive load + engine build + serving tensors)",
        f"warm pass  : {payload['warm_seconds']:.4f} s "
        f"(paired median speedup {payload['warm_speedup']:.2f}x)",
    ]
    for point in payload["batch_sweep"]:
        lines.append(
            f"batch {point['batch_size']:>4}: {point['qps']:>10.0f} queries/s"
        )
    for point in columnar["columnar_sweep"]:
        lines.append(
            f"columnar {point['batch_size']:>4}: {point['qps']:>10.0f} rows/s"
        )
    lines.append(
        f"columnar at {top_batch}: "
        f"{columnar['columnar_vs_dict_speedup']:.1f}x the dict path; raw "
        f"engine {engine_qps:,.0f} rows/s (serving/engine ratio "
        f"{columnar['serving_vs_engine_qps_ratio']:.2f})"
    )
    lines.append(
        f"mean batch {stats['mean_batch_size']:.1f}, "
        f"p99 latency {stats['p99_latency_seconds'] * 1e3:.2f} ms"
    )
    record_result(
        "serving",
        "\n".join(lines),
        meta={"seed": SEED, "census_scale": scale, "table_rows": rows},
    )

    if _smoke():
        return

    # A repeated workload is served >= 2x faster by a warm server than
    # by a fresh one (median of the paired ratios).
    assert payload["warm_speedup"] >= MIN_WARM_SPEEDUP, (
        f"warm-server speedup {payload['warm_speedup']:.2f}x (paired "
        f"median) below the {MIN_WARM_SPEEDUP:.0f}x bar"
    )
    # Columnar bars: the structure-of-arrays wire path must beat the
    # per-request dict path by >= 5x at batch 256 and sit within 5x of
    # the raw engine's batch throughput.
    assert columnar["columnar_vs_dict_speedup"] >= MIN_COLUMNAR_SPEEDUP, (
        f"columnar path {columnar['columnar_vs_dict_speedup']:.2f}x the "
        f"dict path at batch {top_batch}, below the "
        f"{MIN_COLUMNAR_SPEEDUP:.0f}x bar after {ATTEMPTS} attempts"
    )
    assert engine_qps <= MAX_ENGINE_GAP * columnar_qps, (
        f"columnar serving {columnar_qps:,.0f} rows/s is more than "
        f"{MAX_ENGINE_GAP:.0f}x behind the raw engine "
        f"({engine_qps:,.0f} rows/s) after {ATTEMPTS} attempts"
    )

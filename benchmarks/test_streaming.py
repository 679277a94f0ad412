"""Benchmark: streaming ingestion vs republish-from-scratch.

The streaming tree's two promises, measured on a row-dominated event
stream (many rows per epoch, a moderate domain — the regime continuous
ingestion exists for):

* **publish-once ingestion** — closing epoch ``e`` publishes only that
  epoch's rows and merges ``O(1)`` amortized tree nodes (a coefficient
  add each), so total work over ``T`` epochs is linear in the data.
  The baseline is what a one-shot pipeline must do for the same
  freshness: **republish the entire prefix after every epoch**, which
  re-bins ``O(T^2)`` rows overall.  The benchmark alternates the two
  over the same rows (streaming side includes its archive appends) in
  :func:`benchmarks.conftest.paired_ratio`'s reference-bracketed pairs,
  gates the median pair's speedup, and records sustained ingest
  throughput.
* **window queries at any T** — a window answers from two slices of
  the stream's running prefix, and its exact variance sums the λ² of
  its canonical dyadic cover (``<= 2 ceil log2 T`` nodes, asserted
  here), so window-restricted traffic stays fast as history grows; the
  same workload on the flat full-prefix release is recorded for context
  (it cannot answer windows at all).
* **live windows beside appends** — a ``ReleaseServer`` watching the
  archive answers :data:`LIVE_BATCHES` windowed 256-row ``query_batch``
  requests at seeded random windows after every append (each append
  refreshes the server, which continues the stream's running prefix),
  recording rows/s and the stream's ``nbytes()`` after the last append.
  Recorded, not gated.

Set ``BENCH_SMOKE=1`` for a CI-sized run (few epochs, no timing
assertions).  Either way the numbers land in
``results/BENCH_streaming.json`` with a provenance block.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import time

import numpy as np

from benchmarks.conftest import bench_smoke, frozen_heap, paired_ratio
from benchmarks.provenance import provenance
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.attributes import OrdinalAttribute
from repro.data.schema import Schema
from repro.data.table import Table
from repro.analysis.exact import query_boxes
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload
from repro.serving.requests import QueryBatchRequest
from repro.serving.server import ReleaseServer
from repro.streaming import StreamingPublisher, cover_bound

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
SEED = 20100301
SCHEMA = Schema([OrdinalAttribute("value", 4096), OrdinalAttribute("kind", 8)])
#: Full-mode acceptance bar: streaming ingestion must beat republishing
#: the growing prefix every epoch (O(T) vs O(T^2) rows processed).
MIN_INGEST_SPEEDUP = 2.0
#: Alternating republish/streaming pairs behind the gated median.
INGEST_PAIRS = 7
#: Windowed batches a live server answers after each append, and rows each.
LIVE_BATCHES = 8
LIVE_ROWS = 256


def _config() -> tuple[int, int, int]:
    """(epochs, rows per epoch, window queries)."""
    return (8, 20_000, 200) if bench_smoke() else (32, 100_000, 2_000)


def _epoch_tables(epochs: int, rows: int) -> list[Table]:
    rng = np.random.default_rng(SEED)
    tables = []
    for _ in range(epochs):
        columns = np.stack(
            [rng.integers(0, 4096, size=rows), rng.integers(0, 8, size=rows)],
            axis=1,
        )
        tables.append(Table(SCHEMA, columns))
    return tables


def _streaming(tables, mechanism, archive):
    """One full streaming pass into a fresh archive; returns the publisher."""
    archive.unlink(missing_ok=True)
    publisher = StreamingPublisher(
        SCHEMA, mechanism, 1.0, seed=SEED, archive_path=archive
    )
    for table in tables:
        publisher.ingest(table)
        publisher.advance_epoch()
    return publisher


def _republish(tables, mechanism):
    """One full republish-the-prefix pass; returns the final flat result."""
    prefix_rows = []
    flat = None
    for table in tables:
        prefix_rows.append(table.rows)
        prefix = Table(SCHEMA, np.concatenate(prefix_rows, axis=0))
        flat = mechanism.publish(prefix, 1.0, seed=SEED, materialize=False)
    return flat


def _live_windows(tables, mechanism, archive, queries):
    """Append every table to a fresh archive beside a watching server.

    After each append the server answers :data:`LIVE_BATCHES` windowed
    ``query_batch`` requests of the first :data:`LIVE_ROWS` queries at
    seeded random windows over the closed epochs.  Returns the seconds
    those requests took and the stream's ``nbytes()`` after the last
    append.
    """
    archive.unlink(missing_ok=True)
    publisher = StreamingPublisher(
        SCHEMA, mechanism, 1.0, seed=SEED, archive_path=archive
    )
    lows, highs = query_boxes(queries[:LIVE_ROWS], SCHEMA.shape)
    ranges = {
        attribute.name: {"lo": lows[:, axis].tolist(), "hi": highs[:, axis].tolist()}
        for axis, attribute in enumerate(SCHEMA)
    }
    rng = np.random.default_rng(SEED + 3)
    seconds = 0.0
    with ReleaseServer(watch_streams=True) as server:
        for epoch, table in enumerate(tables):
            publisher.ingest(table)
            publisher.advance_epoch()
            if epoch == 0:
                server.register_archive(archive, name="stream")
            for _ in range(LIVE_BATCHES):
                lo = int(rng.integers(0, epoch + 1))
                hi = int(rng.integers(lo + 1, epoch + 2))
                request = QueryBatchRequest("stream", ranges, time_range=(lo, hi))
                start = time.perf_counter()
                server.query_columnar(request)
                seconds += time.perf_counter() - start
        nbytes = server.registry.get("stream").release.nbytes()
    return seconds, nbytes


def test_streaming_scalability(record_result, tmp_path_factory):
    epochs, rows, num_queries = _config()
    tables = _epoch_tables(epochs, rows)
    mechanism = PriveletPlusMechanism(sa_names="auto")
    archive = tmp_path_factory.mktemp("bench_streaming") / "stream.npz"

    # Streaming (publish each epoch once, merge, append to an archive)
    # against the same freshness from a one-shot pipeline (republish the
    # whole prefix after every epoch), alternated in paired_ratio's
    # reference-bracketed pairs; the gate reads the median pair, with
    # objects earlier tests left alive out of the collector's way.
    last = {}
    with frozen_heap():
        paired = paired_ratio(
            lambda: last.update(flat=_republish(tables, mechanism)),
            lambda: last.update(publisher=_streaming(tables, mechanism, archive)),
            pairs=2 if bench_smoke() else INGEST_PAIRS,
        )
    publisher, flat = last["publisher"], last["flat"]
    streaming_seconds = paired["fast_seconds"]
    republish_seconds = paired["slow_seconds"]
    ingest_speedup = paired["ratio"]

    # ---- window queries: mixed dyadic-unaligned windows over the stream
    queries = generate_workload(SCHEMA, num_queries, seed=SEED + 1)
    rng = np.random.default_rng(SEED + 2)
    windows = [
        tuple(sorted(rng.choice(epochs + 1, size=2, replace=False)))
        for _ in range(16)
    ]
    result = publisher.result()
    bound = max(1, 2 * math.ceil(math.log2(epochs)))
    window_engines = []
    for lo, hi in windows:
        release = publisher.release(lo, hi)
        assert release.nodes_touched <= min(cover_bound(hi - lo), bound)
        window_engines.append(
            QueryEngine(dataclasses.replace(result, release=release))
        )
    for engine in window_engines:  # warm the running-prefix slices
        engine.answer_all_with_intervals(queries[:20])
    start = time.perf_counter()
    answered = 0
    for engine in window_engines:
        engine.answer_all_with_intervals(queries)
        answered += len(queries)
    window_seconds = time.perf_counter() - start
    window_qps = answered / window_seconds

    # The flat release answering the same (windowless) workload, for
    # context: one release, no time dimension, full prefix only.
    flat_engine = QueryEngine(flat)
    flat_engine.answer_all_with_intervals(queries[:20])
    start = time.perf_counter()
    flat_engine.answer_all_with_intervals(queries)
    flat_seconds = time.perf_counter() - start
    flat_qps = len(queries) / flat_seconds

    live_seconds, live_nbytes = _live_windows(tables, mechanism, archive, queries)
    live_rows = epochs * LIVE_BATCHES * LIVE_ROWS

    payload = {
        "smoke": bench_smoke(),
        "provenance": provenance(
            seed=SEED,
            epochs=epochs,
            rows_per_epoch=rows,
            window_queries=num_queries,
            windows=len(windows),
            cpu_count=os.cpu_count(),
            domain_shape=list(SCHEMA.shape),
        ),
        "ingest": {
            "epochs": epochs,
            "total_rows": epochs * rows,
            "streaming_seconds": streaming_seconds,
            "streaming_rows_per_s": epochs * rows / streaming_seconds,
            "flat_republish_seconds": republish_seconds,
            "ingest_speedup": ingest_speedup,
            "pair_ratios": paired["ratios"],
        },
        "window_query": {
            "queries": answered,
            "window_seconds": window_seconds,
            "window_qps": window_qps,
            "flat_full_prefix_qps": flat_qps,
            "max_nodes_touched": max(
                publisher.release(lo, hi).nodes_touched for lo, hi in windows
            ),
            "cover_bound": bound,
        },
        "live_window": {
            "epochs": epochs,
            "batches_per_append": LIVE_BATCHES,
            "rows_per_batch": LIVE_ROWS,
            "rows": live_rows,
            "seconds": live_seconds,
            "rows_per_s": live_rows / live_seconds,
            "stream_nbytes": live_nbytes,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_streaming.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    record_result(
        "streaming",
        "\n".join(
            [
                f"{epochs} epochs x {rows} rows over {SCHEMA.shape} "
                f"(window workload: {len(windows)} windows x {num_queries} queries)",
                f"streaming ingest : {streaming_seconds:.3f} s "
                f"({payload['ingest']['streaming_rows_per_s']:,.0f} rows/s, "
                "publish-once + tree merges + archive appends)",
                f"flat republish   : {republish_seconds:.3f} s "
                f"(paired median speedup {ingest_speedup:.2f}x)",
                f"window queries   : {window_qps:,.0f} q/s "
                f"(<= {payload['window_query']['max_nodes_touched']} nodes "
                f"per window, bound {bound})",
                f"flat full prefix : {flat_qps:,.0f} q/s (no windows possible)",
                f"live windows     : {live_rows / live_seconds:,.0f} rows/s "
                f"({LIVE_BATCHES} x {LIVE_ROWS}-row batches after each append; "
                f"stream holds {live_nbytes / 1e6:.1f} MB)",
            ]
        ),
        meta={"seed": SEED, "epochs": epochs, "rows_per_epoch": rows},
    )

    if bench_smoke():
        return
    assert ingest_speedup >= MIN_INGEST_SPEEDUP, (
        f"streaming ingest speedup {ingest_speedup:.2f}x (paired median) below the "
        f"{MIN_INGEST_SPEEDUP:.1f}x bar (O(T) streaming vs O(T^2) republish)"
    )

"""Benchmark: the multi-process TCP front-end under Zipf hot-key load.

The fleet's promise is that worker processes escape the GIL: aggregate
queries/sec should scale with workers on real cores.  A closed-loop
load generator opens N concurrent client connections to the socket,
each drawing range queries from a Zipf-skewed pool of hot keys (the
realistic cache-friendly case: a few popular dashboards, a long tail),
and records per-request latency.  For each worker count and
concurrency level the run reports qps (also per worker and per core),
p50, and p99; full mode then asserts the 4-worker fleet clears ≥2x the
1-worker aggregate qps — a gate that only runs on hosts with a core for
each worker plus two for the front-end and the load generator, because
fewer cores cannot run four workers twice as fast as one.

Set ``BENCH_SMOKE=1`` for the CI-sized run (2 workers, loopback, a
small trace, no timing gates).  Either way the numbers land in
``results/BENCH_network.json`` with a provenance block.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

import numpy as np
import pytest

from benchmarks.provenance import provenance
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.census import BRAZIL, generate_census_table
from repro.serving.network import NetworkServer

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
SEED = 20100301
HOT_KEYS = 64
ZIPF_EXPONENT = 1.5
MIN_FLEET_SPEEDUP = 2.0
#: A load client's socket timeout.  The main thread waits longer than
#: this for the warm-up, so a stalled client's own error reports first.
CLIENT_TIMEOUT_SECONDS = 60.0
#: Longest one load run may take before its clients count as hung.
RUN_TIMEOUT_SECONDS = 600.0


def _smoke() -> bool:
    from benchmarks.conftest import bench_smoke

    return bench_smoke()


def _plan() -> dict:
    """Benchmark shape: worker counts, concurrency, per-client trace."""
    if _smoke():
        return {
            "scale": 0.05,
            "rows": 2_000,
            "workers": [2],
            "concurrency": [4],
            "requests_per_client": 30,
        }
    return {
        "scale": 0.2,
        "rows": 60_000,
        "workers": [1, 4],
        "concurrency": [4, 16],
        "requests_per_client": 250,
    }


def _hot_boxes(schema, rng) -> list[dict]:
    """The Zipf pool: HOT_KEYS distinct 2-attribute range boxes."""
    boxes = []
    for _ in range(HOT_KEYS):
        box = {}
        for name in ("Age", "Income"):
            size = schema[name].size
            lo = int(rng.integers(0, size))
            hi = int(rng.integers(lo + 1, size + 1))
            box[name] = [lo, hi]
        boxes.append(box)
    return boxes


def _zipf_trace(rng, length: int) -> list[int]:
    """``length`` hot-key indices, Zipf-skewed over the pool."""
    draws = rng.zipf(ZIPF_EXPONENT, size=length)
    return ((draws - 1) % HOT_KEYS).tolist()


def _run_load(address, boxes, concurrency: int, requests_per_client: int) -> dict:
    """Closed-loop load: each client thread plays its trace, records latency.

    A client that fails (refused connection, socket timeout) aborts the
    start barrier so nobody waits on it; its exception is re-raised here
    once every client has finished or the run has timed out.
    """
    import socket

    latencies: list[list[float]] = [[] for _ in range(concurrency)]
    errors = [0] * concurrency
    failures: list[Exception] = []
    barrier = threading.Barrier(concurrency + 1)

    def client(slot: int) -> None:
        try:
            play(slot)
        except Exception as exc:
            failures.append(exc)
            barrier.abort()

    def play(slot: int) -> None:
        rng = np.random.default_rng(SEED + slot)
        trace = _zipf_trace(rng, requests_per_client)
        sock = socket.create_connection(address, timeout=CLIENT_TIMEOUT_SECONDS)
        stream = sock.makefile("rwb")
        try:
            # Warm the connection (and the worker caches) off the clock.
            for key in trace[:3]:
                stream.write(
                    (
                        json.dumps(
                            {
                                "op": "query",
                                "release": "census",
                                "ranges": boxes[key],
                            }
                        )
                        + "\n"
                    ).encode()
                )
                stream.flush()
                stream.readline()
            barrier.wait()
            for key in trace:
                payload = (
                    json.dumps(
                        {"op": "query", "release": "census", "ranges": boxes[key]}
                    )
                    + "\n"
                ).encode()
                started = time.perf_counter()
                stream.write(payload)
                stream.flush()
                raw = stream.readline()
                latencies[slot].append(time.perf_counter() - started)
                if not raw or not json.loads(raw).get("ok"):
                    errors[slot] += 1
        finally:
            stream.close()
            sock.close()

    threads = [
        threading.Thread(target=client, args=(slot,), daemon=True)
        for slot in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait(timeout=2 * CLIENT_TIMEOUT_SECONDS)
    except threading.BrokenBarrierError:
        pass  # a client failed, or the warm-up stalled: reported below
    started = time.perf_counter()
    deadline = started + RUN_TIMEOUT_SECONDS
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()))
    elapsed = time.perf_counter() - started
    hung = sum(thread.is_alive() for thread in threads)
    assert not hung, (
        f"{hung} of {concurrency} load clients still running after "
        f"{RUN_TIMEOUT_SECONDS:.0f} s (first client error: {failures[:1]})"
    )
    if failures:
        raise failures[0]
    pooled = np.asarray([s for per in latencies for s in per], dtype=np.float64)
    completed = int(pooled.size)
    return {
        "concurrency": concurrency,
        "requests": completed,
        "errors": int(sum(errors)),
        "seconds": elapsed,
        "qps": completed / elapsed if elapsed > 0 else 0.0,
        "p50_ms": float(np.percentile(pooled, 50)) * 1e3 if completed else 0.0,
        "p99_ms": float(np.percentile(pooled, 99)) * 1e3 if completed else 0.0,
    }


def test_load_generator_fails_fast_when_a_client_dies():
    """A client that dies before the start barrier fails the run at once."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
    # Nothing listens on ``address`` any more: every connect is refused.
    started = time.perf_counter()
    with pytest.raises(ConnectionRefusedError):
        _run_load(address, [{}] * HOT_KEYS, concurrency=2, requests_per_client=5)
    assert time.perf_counter() - started < 10.0


def test_network_fleet_throughput(record_result):
    plan = _plan()
    table = generate_census_table(BRAZIL.scaled(plan["scale"]), plan["rows"], seed=SEED)
    result = PriveletPlusMechanism(sa_names="auto").publish(
        table, 1.0, seed=SEED, materialize=False
    )
    boxes = _hot_boxes(table.schema, np.random.default_rng(SEED))

    cores = os.cpu_count() or 1
    runs = []
    aggregate_qps: dict[int, float] = {}
    for workers in plan["workers"]:
        server = NetworkServer(workers=workers)
        server.register("census", result)
        address = server.start()
        try:
            for concurrency in plan["concurrency"]:
                measured = _run_load(
                    address, boxes, concurrency, plan["requests_per_client"]
                )
                measured["workers"] = workers
                measured["qps_per_worker"] = measured["qps"] / workers
                measured["qps_per_core"] = measured["qps"] / cores
                runs.append(measured)
                assert measured["errors"] == 0, measured
                aggregate_qps[workers] = max(
                    aggregate_qps.get(workers, 0.0), measured["qps"]
                )
        finally:
            server.close()

    fleet_speedup = None
    if 1 in aggregate_qps and 4 in aggregate_qps:
        fleet_speedup = aggregate_qps[4] / aggregate_qps[1]

    payload = {
        "smoke": _smoke(),
        "provenance": provenance(
            seed=SEED,
            census_scale=plan["scale"],
            table_rows=plan["rows"],
            hot_keys=HOT_KEYS,
            zipf_exponent=ZIPF_EXPONENT,
            cpu_count=cores,
            domain_shape=list(table.schema.shape),
        ),
        "runs": runs,
        "fleet_qps_speedup_4v1": fleet_speedup,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_network.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        f"TCP fleet over {table.schema.shape} ({plan['rows']} rows, "
        f"{cores} cpus), Zipf({ZIPF_EXPONENT}) over {HOT_KEYS} keys"
    ]
    for run in runs:
        lines.append(
            f"workers={run['workers']} conc={run['concurrency']:>3}: "
            f"{run['qps']:>8.0f} q/s ({run['qps_per_core']:.0f}/core)  "
            f"p50 {run['p50_ms']:.2f} ms  "
            f"p99 {run['p99_ms']:.2f} ms"
        )
    if fleet_speedup is not None:
        lines.append(f"fleet aggregate qps speedup (4 vs 1 workers): {fleet_speedup:.2f}x")
    record_result(
        "network",
        "\n".join(lines),
        meta={"seed": SEED, "census_scale": plan["scale"], "hot_keys": HOT_KEYS},
    )

    if _smoke():
        return
    # The scaling gate needs a core per worker plus two for the
    # front-end and the load generator; with fewer, the workers share
    # cores and the bar is physically out of reach.
    if cores >= max(plan["workers"]) + 2 and fleet_speedup is not None:
        assert fleet_speedup >= MIN_FLEET_SPEEDUP, (
            f"fleet qps speedup {fleet_speedup:.2f}x below the "
            f"{MIN_FLEET_SPEEDUP:.1f}x bar"
        )

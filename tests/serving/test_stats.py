"""Concurrency and aggregation properties of the serving stats layer.

:class:`LatencyRecorder` is hammered from 16 threads and must account
for *exactly* the recorded samples — totals, window contents, and
p50/p99 all computed from what went in, nothing lost, nothing invented.
:func:`merge_worker_stats` must pool samples (not average percentiles)
and sum counters across snapshots.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.census import BRAZIL, generate_census_table
from repro.serving.registry import ReleaseRegistry
from repro.serving.requests import QueryRequest
from repro.serving.server import ReleaseServer
from repro.serving.stats import LatencyRecorder, merge_worker_stats

THREADS = 16
PER_THREAD = 500


class TestLatencyRecorderConcurrency:
    def test_sixteen_thread_hammer_accounts_every_sample(self):
        recorder = LatencyRecorder(window=THREADS * PER_THREAD)
        barrier = threading.Barrier(THREADS)

        def hammer(thread_index):
            barrier.wait()
            for sample in range(PER_THREAD):
                recorder.record_latency(thread_index * PER_THREAD + sample)

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = [
            float(index * PER_THREAD + sample)
            for index in range(THREADS)
            for sample in range(PER_THREAD)
        ]
        assert recorder.recorded == THREADS * PER_THREAD
        assert len(recorder) == THREADS * PER_THREAD
        # Exactly the recorded samples — no loss, no duplication.
        assert sorted(recorder.samples()) == sorted(expected)
        p50, p99 = recorder.percentiles()
        assert p50 == float(np.percentile(expected, 50))
        assert p99 == float(np.percentile(expected, 99))

    def test_window_slides_under_concurrency(self):
        recorder = LatencyRecorder(window=64)
        threads = [
            threading.Thread(
                target=lambda: [recorder.record_latency(1.0) for _ in range(100)]
            )
            for _ in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert recorder.recorded == THREADS * 100
        assert len(recorder) == 64
        assert recorder.percentiles() == (1.0, 1.0)

    def test_empty_recorder_percentiles(self):
        recorder = LatencyRecorder()
        assert recorder.percentiles() == (0.0, 0.0)
        assert len(recorder) == 0 and recorder.recorded == 0

    def test_concurrent_reads_see_consistent_snapshots(self):
        """samples()/percentiles() under concurrent writes never blow up."""
        recorder = LatencyRecorder(window=256)
        stop = threading.Event()
        failures = []

        def write():
            value = 0
            while not stop.is_set():
                recorder.record_latency(value % 97)
                value += 1

        def read():
            while not stop.is_set():
                try:
                    window = recorder.samples()
                    assert len(window) <= 256
                    recorder.percentiles()
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)
                    return

        workers = [threading.Thread(target=write) for _ in range(8)] + [
            threading.Thread(target=read) for _ in range(8)
        ]
        for worker in workers:
            worker.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for worker in workers:
            worker.join()
        timer.cancel()
        assert not failures


class TestServerLatencyIntegration:
    def test_server_stats_percentiles_come_from_recorded_samples(self):
        """ReleaseServer's p50/p99 equal percentiles of latency_samples()."""
        table = generate_census_table(BRAZIL.scaled(0.05), 500, seed=0)
        result = PriveletPlusMechanism(sa_names="auto").publish(
            table, 1.0, seed=1, materialize=False
        )
        registry = ReleaseRegistry()
        registry.register("census", result)
        with ReleaseServer(registry, max_linger_seconds=0.001) as server:
            threads = [
                threading.Thread(
                    target=lambda: [
                        server.query(QueryRequest("census", {"Age": (0, 5)}))
                        for _ in range(4)
                    ]
                )
                for _ in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            samples = server.latency_samples()
            stats = server.stats()
        assert stats.requests == THREADS * 4
        assert len(samples) == THREADS * 4
        assert stats.p50_latency_seconds == float(np.percentile(samples, 50))
        assert stats.p99_latency_seconds == float(np.percentile(samples, 99))


def _snapshot(**overrides):
    base = {
        "releases": ("census",),
        "engines_built": 1,
        "requests": 10,
        "errors": 1,
        "batches": 5,
        "mean_batch_size": 2.0,
        "largest_batch": 4,
        "profile_cache_hits": 0,
        "profile_cache_misses": 0,
        "plan_cache_hits": 3,
        "plan_cache_misses": 1,
        "plan_cache_hit_rate": 0.75,
        "plan_cache_evictions": 0,
        "columnar_rows": 100,
        "p50_latency_seconds": 0.01,
        "p99_latency_seconds": 0.02,
        "linger_seconds": 0.002,
        "latency_samples": [0.01, 0.02],
        "pid": 1111,
    }
    base.update(overrides)
    return base


class TestMergeWorkerStats:
    def test_counters_sum_and_percentiles_pool(self):
        first = _snapshot()
        second = _snapshot(
            pid=2222,
            requests=30,
            errors=0,
            batches=15,
            mean_batch_size=4.0,
            largest_batch=9,
            releases=("census", "stream"),
            latency_samples=[0.5, 1.0, 2.0],
            plan_cache_hits=0,
            plan_cache_misses=10,
        )
        merged = merge_worker_stats([first, second])
        assert merged["workers"] == 2
        assert merged["requests"] == 40
        assert merged["errors"] == 1
        assert merged["batches"] == 20
        assert merged["largest_batch"] == 9
        assert merged["releases"] == ("census", "stream")
        # Weighted by batch count: (2*5 + 4*15) / 20.
        assert merged["mean_batch_size"] == pytest.approx(3.5)
        # Recomputed from summed hits/misses, not averaged rates.
        assert merged["plan_cache_hit_rate"] == pytest.approx(3 / 14)
        assert merged["profile_cache_hits"] == merged["profile_cache_misses"] == 0
        assert "profile_cache_hit_rate" not in merged
        pooled = [0.01, 0.02, 0.5, 1.0, 2.0]
        assert merged["p50_latency_seconds"] == float(np.percentile(pooled, 50))
        assert merged["p99_latency_seconds"] == float(np.percentile(pooled, 99))
        assert merged["per_worker"] == [
            {"pid": 1111, "requests": 10, "errors": 1},
            {"pid": 2222, "requests": 30, "errors": 0},
        ]

    def test_no_snapshots_is_a_zero_fleet(self):
        merged = merge_worker_stats([])
        assert merged["workers"] == 0
        assert merged["requests"] == 0
        assert merged["p50_latency_seconds"] == 0.0
        assert merged["mean_batch_size"] == 0.0
        assert merged["releases"] == ()

    def test_real_server_snapshot_round_trips(self):
        """An actual asdict(ServerStats) snapshot merges losslessly."""
        table = generate_census_table(BRAZIL.scaled(0.05), 500, seed=0)
        result = PriveletPlusMechanism(sa_names="auto").publish(
            table, 1.0, seed=1, materialize=False
        )
        registry = ReleaseRegistry()
        registry.register("census", result)
        with ReleaseServer(registry, max_linger_seconds=0.001) as server:
            for _ in range(6):
                server.query(QueryRequest("census", {"Age": (0, 5)}))
            snapshot = dataclasses.asdict(server.stats())
            snapshot["latency_samples"] = server.latency_samples()
            snapshot["pid"] = 42
        merged = merge_worker_stats([snapshot])
        assert merged["requests"] == snapshot["requests"]
        assert merged["p99_latency_seconds"] == float(
            np.percentile(snapshot["latency_samples"], 99)
        )
        assert merged["per_worker"][0]["pid"] == 42

"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md §4).  Heavy artifacts (census datasets, workloads) are built
once per session; each benchmark prints its paper-shaped series and also
writes it to ``results/<name>.txt`` so EXPERIMENTS.md can quote it.

Scale: laptop-sized by default; set ``REPRO_FULL=1`` for the paper's
exact dataset sizes (needs tens of GB and hours).

Every table written through ``record_result`` starts with a
``# key: value`` provenance header (commit, versions, timestamp, plus
any benchmark-specific facts passed as ``meta``) so recorded numbers
are reproducible — see ``benchmarks/provenance.py`` and the convention
in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pathlib
import statistics
import time

import numpy as np
import pytest

from benchmarks.provenance import provenance_header
from repro.data.census import BRAZIL, US
from repro.experiments.config import AccuracyConfig, TimingConfig, full_scale_requested
from repro.experiments.figures import prepare_census_experiment

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def bench_smoke() -> bool:
    """True when a CI-sized (no timing gates) benchmark run is requested.

    One switch for every benchmark: ``BENCH_SMOKE`` set to anything but
    empty or ``0``.
    """
    return os.environ.get("BENCH_SMOKE", "") not in {"", "0"}


#: Alternating pairs :func:`paired_ratio` times by default.
PAIRS = 15
_REFERENCE_DATA = np.random.default_rng(0).random(1 << 16)


def _reference_seconds() -> float:
    """Time one fixed interpreter-plus-numpy computation (~0.4 ms)."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000):
        total += i & 63
    data = _REFERENCE_DATA
    float(np.cumsum(data[::2] * data[1::2]).sum())
    return time.perf_counter() - start


def paired_ratio(slow, fast, *, pairs: int = PAIRS) -> dict:
    """How many times longer ``slow()`` takes than ``fast()``, steadied.

    Each vCPU of a shared host can switch between speed modes every
    50-200 ms, so two operations timed in separate sweeps may each run
    in a different mode and their ratio drifts.  Here the two calls
    alternate in ``pairs`` pairs, every call is bracketed by a fixed
    reference computation, and each call's time is divided by the mean
    of the two reference times around it: its cost in reference units,
    which the host's mode moves far less than it moves wall time.

    Returns
    -------
    dict
        ``ratio`` (the median of the per-pair cost ratios), the
        per-pair ``ratios``, and the median raw wall times
        ``slow_seconds`` / ``fast_seconds``.
    """
    ratios, slow_times, fast_times = [], [], []
    before = _reference_seconds()
    for _ in range(pairs):
        costs = []
        for call, times in ((slow, slow_times), (fast, fast_times)):
            start = time.perf_counter()
            call()
            elapsed = time.perf_counter() - start
            after = _reference_seconds()
            times.append(elapsed)
            costs.append(elapsed / (0.5 * (before + after)))
            before = after
        ratios.append(costs[0] / costs[1])
    return {
        "ratio": statistics.median(ratios),
        "ratios": ratios,
        "slow_seconds": statistics.median(slow_times),
        "fast_seconds": statistics.median(fast_times),
    }


@contextlib.contextmanager
def frozen_heap():
    """Keep every object alive on entry out of the garbage collector.

    In a full tier-1 pytest run the benchmarks that ran earlier leave
    about 250k objects alive (session-scoped fixtures, results), and
    every collection a timed Python-heavy loop triggers traverses them
    all.  That slowed such loops by up to a third and moved two-sided
    timing gates below their bars (serving warm 2.1x, streaming ingest
    1.94x, against 2.5-2.8x run alone).  Timed comparisons run inside
    this so they measure the same work whichever tests ran before;
    objects created inside are collected as usual.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def bench_accuracy_config() -> AccuracyConfig:
    if full_scale_requested():
        return AccuracyConfig(scale=1.0, num_rows=10_000_000, num_queries=40_000)
    return AccuracyConfig(scale=0.2, num_rows=150_000, num_queries=20_000)


def bench_timing_config() -> TimingConfig:
    return TimingConfig.for_environment()


@pytest.fixture(scope="session")
def accuracy_config() -> AccuracyConfig:
    return bench_accuracy_config()


@pytest.fixture(scope="session")
def timing_config() -> TimingConfig:
    return bench_timing_config()


@pytest.fixture(scope="session")
def brazil_bundle(accuracy_config):
    """(table, matrix, workload) for the Brazil census stand-in."""
    return prepare_census_experiment(BRAZIL, accuracy_config)


@pytest.fixture(scope="session")
def us_bundle(accuracy_config):
    """(table, matrix, workload) for the US census stand-in."""
    return prepare_census_experiment(US, accuracy_config)


@pytest.fixture(scope="session")
def record_result():
    """Write a named result table under results/ and echo it to stdout.

    The file gets a ``# key: value`` provenance header; pass ``meta``
    for benchmark-specific facts (seed, domain sizes, …).
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str, meta: dict | None = None) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(provenance_header(meta) + "\n" + text + "\n")
        print()
        print(text)

    return _record

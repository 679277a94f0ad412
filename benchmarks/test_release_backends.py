"""Benchmark: dense vs coefficient-space release backends.

The coefficient-space release stores the noisy HN coefficients — no
inverse transform at publish time — and on its first answer builds the
same zero-bordered prefix-sum tensor a dense release serves from,
inverting the wavelet axis straight into it.  After that a 1-D range is
two prefix reads.  This benchmark publishes a 1-D ordinal domain at sizes
up to ``m = 2**22`` and measures, per size:

* the built coefficient release's batch serving time (64 random ranges)
  and per-query latency — flat in ``m`` up to cache effects;
* at the largest size, the cost of standing up the dense serving path
  from the same release (materialize ``M*`` + build the prefix oracle)
  against answering a whole batch from the built coefficient release, as
  the median of paired, reference-bracketed ratios
  (:func:`benchmarks.conftest.paired_ratio`);
* at the largest size, the cold first answer of a fresh
  :class:`~repro.core.release.CoefficientRelease` over the same
  coefficients (serving-tensor build plus one 64-query batch), paired
  against the same dense stand-up;
* the serving-state memory of both backends.

Set ``BENCH_SMOKE=1`` for a CI-sized run (smaller domains, no
timing assertions — timers on shared runners are too noisy to gate on).
In full mode the timing gates are re-measured up to three times before
failing, so a single scheduler hiccup cannot redden tier-1.  Either way
the numbers land in ``results/BENCH_release_backends.json`` so the perf
trajectory accumulates run over run.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from benchmarks.conftest import paired_ratio
from benchmarks.provenance import provenance
from repro.core.publish import publish
from repro.core.release import CoefficientRelease
from repro.queries.oracle import RangeSumOracle

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
BATCH_SIZE = 64
#: Full-mode acceptance bars (dense stand-up vs one batch from the built
#: coefficient release; per-query growth across a 16x domain growth).  The
#: stand-up is claimed at >= 50x one batch (TARGET_SETUP_SPEEDUP, recorded
#: with every run), and the gate asserts that target: on a 2-vCPU host the
#: paired median read 227-290x in full tier-1 runs, lowest pair 186x.
TARGET_SETUP_SPEEDUP = 50.0
MIN_SETUP_SPEEDUP = TARGET_SETUP_SPEEDUP
MAX_PER_QUERY_GROWTH = 8.0
ATTEMPTS = 3


def _smoke() -> bool:
    from benchmarks.conftest import bench_smoke

    return bench_smoke()


def _exponents() -> list[int]:
    return [12, 14, 16] if _smoke() else [18, 20, 22]


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _random_boxes(m: int, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.sort(rng.integers(0, m + 1, size=(count, 2)), axis=1)
    return pairs[:, 0:1], pairs[:, 1:2]


def _measure(rng) -> dict:
    """One full sweep: coefficient points per size + dense at largest."""
    points = []
    largest = None
    for exponent in _exponents():
        m = 1 << exponent
        counts = np.zeros(m)
        hot = rng.integers(0, m, size=512)
        counts[hot] += rng.integers(1, 50, size=hot.size)

        start = time.perf_counter()
        result = publish(counts, 1.0, mechanism="privelet", seed=exponent)
        publish_seconds = time.perf_counter() - start
        release = result.release

        lows, highs = _random_boxes(m, BATCH_SIZE, rng)
        batch_seconds = _best_of(lambda: release.answer_boxes(lows, highs), 7)
        points.append(
            {
                "m": m,
                "coeff_publish_seconds": publish_seconds,
                "coeff_batch_seconds": batch_seconds,
                "coeff_per_query_seconds": batch_seconds / BATCH_SIZE,
                "coeff_nbytes": release.nbytes(),
            }
        )
        largest = (m, result, release, lows, highs, batch_seconds)

    # Dense serving-path stand-up at the largest size, from the same
    # release: materialize M* + build the prefix oracle.  It is timed in
    # alternation with the coefficient batch, so both see the same host.
    m, result, release, lows, highs, batch_seconds = largest
    dense_holder = {}

    def build_dense():
        matrix = result.matrix  # inverse transform (not cached)
        dense_holder["oracle"] = RangeSumOracle(matrix)
        dense_holder["nbytes"] = matrix.values.nbytes + dense_holder["oracle"].nbytes

    def cold_first_answer():
        fresh = CoefficientRelease(
            release.schema, release.sa_names, release.coefficients
        )
        fresh.answer_boxes(lows, highs)

    paired = paired_ratio(build_dense, lambda: release.answer_boxes(lows, highs))
    cold = paired_ratio(build_dense, cold_first_answer)
    oracle = dense_holder["oracle"]
    dense_batch_seconds = _best_of(lambda: oracle.answer_boxes(lows, highs), 7)
    np.testing.assert_allclose(
        release.answer_boxes(lows, highs),
        oracle.answer_boxes(lows, highs),
        rtol=1e-8,
        atol=1e-6,
    )
    return {
        "smoke": _smoke(),
        "provenance": provenance(
            seed=20100301, exponents=_exponents(), batch_size=BATCH_SIZE
        ),
        "batch_size": BATCH_SIZE,
        "points": points,
        "dense_at_largest": {
            "m": m,
            "setup_seconds": paired["slow_seconds"],
            "batch_seconds": dense_batch_seconds,
            "per_query_seconds": dense_batch_seconds / BATCH_SIZE,
            "nbytes": dense_holder["nbytes"],
            "paired_coeff_batch_seconds": paired["fast_seconds"],
            "setup_over_coeff_batch": paired["ratio"],
            "pair_ratios": paired["ratios"],
            "target_setup_speedup": TARGET_SETUP_SPEEDUP,
            "gated_setup_speedup": MIN_SETUP_SPEEDUP,
        },
        "cold_first_answer_at_largest": {
            "m": m,
            "seconds": cold["fast_seconds"],
            "paired_setup_seconds": cold["slow_seconds"],
            "setup_over_cold_first_answer": cold["ratio"],
            "pair_ratios": cold["ratios"],
        },
    }


def _gates_pass(payload: dict) -> bool:
    """The full-mode acceptance bars, as a predicate (for retries)."""
    per_query = [p["coeff_per_query_seconds"] for p in payload["points"]]
    return (
        payload["dense_at_largest"]["setup_over_coeff_batch"] >= MIN_SETUP_SPEEDUP
        and per_query[-1] < 1e-3
        and per_query[-1] < MAX_PER_QUERY_GROWTH * max(per_query[0], 1e-6)
    )


def test_release_backend_crossover(record_result):
    rng = np.random.default_rng(20100301)

    # Correctness spot check at the smallest size: coefficient answers
    # match the dense oracle over the materialized matrix.
    m0 = 1 << _exponents()[0]
    check = publish(
        np.arange(m0, dtype=np.float64), 1.0, mechanism="privelet", seed=0
    )
    lows0, highs0 = _random_boxes(m0, 128, rng)
    dense0 = RangeSumOracle(check.matrix)
    np.testing.assert_allclose(
        check.release.answer_boxes(lows0, highs0),
        dense0.answer_boxes(lows0, highs0),
        rtol=1e-9,
        atol=1e-6,
    )

    # Wall-clock gates are noisy on shared machines: re-measure the
    # whole sweep up to ATTEMPTS times and gate on the best attempt.
    payload = _measure(rng)
    if not _smoke():
        for _ in range(ATTEMPTS - 1):
            if _gates_pass(payload):
                break
            payload = _measure(rng)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_release_backends.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    points = payload["points"]
    dense = payload["dense_at_largest"]
    cold = payload["cold_first_answer_at_largest"]
    lines = [
        f"{'m':>10}{'publish (s)':>14}{'batch64 (s)':>14}"
        f"{'per-query (s)':>16}{'state (MB)':>12}"
    ]
    for point in points:
        lines.append(
            f"{point['m']:>10}{point['coeff_publish_seconds']:>14.4f}"
            f"{point['coeff_batch_seconds']:>14.6f}"
            f"{point['coeff_per_query_seconds']:>16.9f}"
            f"{point['coeff_nbytes'] / 1e6:>12.1f}"
        )
    lines.append(
        f"dense stand-up at m={dense['m']}: {dense['setup_seconds']:.4f} s "
        f"(= {dense['setup_over_coeff_batch']:.0f}x one coefficient-space "
        f"batch of {BATCH_SIZE}); dense state {dense['nbytes'] / 1e6:.1f} MB "
        f"vs coefficient {points[-1]['coeff_nbytes'] / 1e6:.1f} MB"
    )
    lines.append(
        f"cold first answer of a fresh coefficient release at m={cold['m']}: "
        f"{cold['seconds']:.4f} s (the dense stand-up is "
        f"{cold['setup_over_cold_first_answer']:.2f}x that)"
    )
    record_result("release_backends", "\n".join(lines))

    if _smoke():
        return

    # The acceptance bars: standing up the dense serving path at
    # m >= 2^22 costs >= MIN_SETUP_SPEEDUP x answering an entire batch
    # from the built coefficient release, and per-query latency stays
    # well under MAX_PER_QUERY_GROWTH x across a 16x domain growth.
    assert dense["m"] >= 1 << 22
    per_query = [p["coeff_per_query_seconds"] for p in points]
    assert _gates_pass(payload), (
        f"timing gates failed after {ATTEMPTS} attempts: "
        f"setup speedup {dense['setup_over_coeff_batch']:.1f}x "
        f"(bar {MIN_SETUP_SPEEDUP:.0f}x), per-query "
        f"{per_query[0]:.2e}s -> {per_query[-1]:.2e}s "
        f"(bar {MAX_PER_QUERY_GROWTH:.0f}x growth)"
    )

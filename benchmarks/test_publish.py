"""Benchmark: the flat Privelet+ publish, stage by stage, and its memory.

Privelet publishes in O(n + m) time (paper §IV–VI; §VII-B's Figures 10
and 11 time this step).  One census Brazil ×0.2 Privelet+ coefficient
publish (×0.05 with ``BENCH_SMOKE=1``) is timed five times, end to end
and split into its three stages:

* ``frequency_matrix`` — the table's contingency matrix;
* ``forward`` — ``HNTransform.forward`` into one coefficient tensor;
* ``noise`` — unit Laplace draws scaled by ``lambda / W_HN`` and added
  to the coefficients in place.

The medians land in ``results/BENCH_publish.json`` with a provenance
block, with coefficient cells per second as the headline.  The one gate
holds in both modes because allocation sizes do not depend on the host:
the ``tracemalloc`` peak of one ``publish_matrix``, over the bytes of the
coefficient tensor it returns, stays at most :data:`MAX_PEAK_RATIO`
(the coefficients plus one noise draw of the same size is 2).
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time
import tracemalloc

import numpy as np

from benchmarks.provenance import provenance
from repro.core.laplace import laplace_noise, magnitude_for_epsilon
from repro.core.privelet_plus import PriveletPlusMechanism
from repro.data.census import BRAZIL, generate_census_table
from repro.transforms.multidim import HNTransform

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
SEED = 20100302
EPSILON = 1.0
REPEATS = 5
MAX_PEAK_RATIO = 2.5


def _smoke() -> bool:
    from benchmarks.conftest import bench_smoke

    return bench_smoke()


def _timed(call) -> tuple[float, object]:
    start = time.perf_counter()
    value = call()
    return time.perf_counter() - start, value


def _staged_publish(table, mechanism) -> tuple[dict[str, float], np.ndarray]:
    """One publish, stage by stage as ``publish_matrix`` runs it.

    Returns the stage timings and the noisy coefficients.
    """
    transform = HNTransform(table.schema, mechanism.sa_for(table.schema))
    magnitude = magnitude_for_epsilon(EPSILON, 2.0 * transform.generalized_sensitivity())
    frequency_seconds, matrix = _timed(table.frequency_matrix)
    forward_seconds, noisy = _timed(lambda: transform.forward(matrix.values))
    start = time.perf_counter()
    noisy += laplace_noise(
        magnitude / transform.broadcast_weights(), noisy.shape, seed=SEED
    )
    noise_seconds = time.perf_counter() - start
    return {
        "frequency_matrix_seconds": frequency_seconds,
        "forward_seconds": forward_seconds,
        "noise_seconds": noise_seconds,
    }, noisy


def _peak_ratio(matrix, mechanism) -> tuple[int, int]:
    """``(tracemalloc peak, coefficient bytes)`` of one ``publish_matrix``."""
    tracemalloc.start()
    try:
        result = mechanism.publish_matrix(
            matrix, EPSILON, seed=SEED, materialize=False
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result.release.coefficients.nbytes


def test_publish_stages_and_peak_memory(record_result):
    scale = 0.05 if _smoke() else 0.2
    table = generate_census_table(BRAZIL.scaled(scale), seed=SEED)
    mechanism = PriveletPlusMechanism(sa_names="auto")

    publish_seconds, stages = [], []
    for _ in range(REPEATS):
        seconds, result = _timed(
            lambda: mechanism.publish(table, EPSILON, seed=SEED, materialize=False)
        )
        publish_seconds.append(seconds)
        stage, staged = _staged_publish(table, mechanism)
        stages.append(stage)
    # The staged publish times exactly the mechanism's work.
    coefficients = result.release.coefficients
    np.testing.assert_array_equal(staged, coefficients)

    peak, coefficient_bytes = _peak_ratio(table.frequency_matrix(), mechanism)
    peak_ratio = peak / coefficient_bytes
    median_publish = statistics.median(publish_seconds)
    median_stages = {
        key: statistics.median(stage[key] for stage in stages) for key in stages[0]
    }

    payload = {
        "smoke": _smoke(),
        "provenance": provenance(
            seed=SEED,
            census_scale=scale,
            table_rows=table.num_rows,
            repeats=REPEATS,
            cpu_count=os.cpu_count(),
            domain_shape=list(table.schema.shape),
            coefficient_shape=list(coefficients.shape),
            sa=list(mechanism.sa_for(table.schema)),
        ),
        "publish": {
            "median_seconds": median_publish,
            "cells_per_s": coefficients.size / median_publish,
            **{f"median_{key}": value for key, value in median_stages.items()},
        },
        "memory": {
            "coefficient_bytes": coefficient_bytes,
            "publish_matrix_peak_bytes": peak,
            "peak_over_coefficients": peak_ratio,
            "max_peak_over_coefficients": MAX_PEAK_RATIO,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_publish.json").write_text(json.dumps(payload, indent=2) + "\n")

    record_result(
        "publish",
        "\n".join(
            [
                f"Privelet+ coefficient publish of census Brazil x{scale} "
                f"({table.num_rows} rows, coefficients {coefficients.shape})",
                f"publish (median of {REPEATS}): {median_publish * 1e3:.1f} ms, "
                f"{coefficients.size / median_publish:,.0f} cells/s",
                f"  frequency matrix   : "
                f"{median_stages['frequency_matrix_seconds'] * 1e3:.1f} ms",
                f"  HNTransform.forward: {median_stages['forward_seconds'] * 1e3:.1f} ms",
                f"  noise + add        : {median_stages['noise_seconds'] * 1e3:.1f} ms",
                f"publish_matrix peak: {peak / 2**20:.1f} MiB = {peak_ratio:.2f}x "
                f"the {coefficient_bytes / 2**20:.1f} MiB coefficients",
            ]
        ),
        meta={"seed": SEED, "census_scale": scale},
    )

    assert peak_ratio <= MAX_PEAK_RATIO, (
        f"publish_matrix peaked at {peak_ratio:.2f}x its coefficient tensor "
        f"(bar {MAX_PEAK_RATIO}x)"
    )

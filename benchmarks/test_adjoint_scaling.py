"""Micro-benchmark: dense vs matrix-free axis variance profiles.

The pre-refactor exact-variance path materialized the dense
``input_length x output_length`` reconstruction matrix (via
``inverse(np.eye(m))``) on **every** profile call — ``O(m^2)`` time and
memory per query.  The matrix-free Haar adjoint computes the same
profile from the ``O(log m)`` boundary nodes of the dyadic tree.

This benchmark times both paths on one Haar axis across domain sizes,
asserts the matrix-free path is at least 100x faster wherever the dense
path is still feasible, and records matrix-free timings up to
``m = 2^20`` — a scale at which the dense path would need terabytes.

A nominal axis reads its profiles from an exact ``(m+1) x (m+1)``
table built on the transform's first profile call.  On census-shaped
3-level hierarchies of 102, 512 and 2048 leaves this records the
first-call build, the table's bytes and a 10k-range lookup, checks
sampled ranges against the dense oracle at rtol 1e-12, and asserts the
2048-leaf build takes under 2 s.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.exact import axis_variance_profile
from repro.data.hierarchy import two_level_hierarchy
from repro.transforms.haar import HaarTransform
from repro.transforms.nominal import NominalTransform

#: Leaf counts of the nominal table rows (census Brazil x0.2 Occupation,
#: the paper's US Occupation size, and 4x that).
NOMINAL_LEAVES = (102, 512, 2048)
MAX_NOMINAL_BUILD_SECONDS = 2.0


def dense_profile(transform: HaarTransform, lo: int, hi: int) -> float:
    """The pre-refactor dense path: rebuild the reconstruction matrix."""
    identity = np.eye(transform.output_length)
    reconstruction = transform.inverse(identity, refine=True)
    adjoint = reconstruction[lo:hi].sum(axis=0)
    return float(np.sum((adjoint / transform.weight_vector()) ** 2))


def census_shaped(leaves: int) -> NominalTransform:
    """A 3-level hierarchy: about ``sqrt(leaves)`` groups under the root."""
    groups = int(round(np.sqrt(leaves)))
    sizes = [leaves // groups] * groups
    for index in range(leaves - sum(sizes)):
        sizes[index] += 1
    return NominalTransform(two_level_hierarchy(sizes))


def dense_profiles(transform, lows, highs) -> np.ndarray:
    """Oracle profiles from one dense reconstruction matrix."""
    reconstruction = transform.inverse(np.eye(transform.output_length), refine=True)
    cumulative = np.concatenate(
        [np.zeros((1, transform.output_length)), np.cumsum(reconstruction, axis=0)]
    )
    adjoints = cumulative[highs] - cumulative[lows]
    return np.sum((adjoints / transform.weight_vector()) ** 2, axis=1)


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_adjoint_scaling(record_result):
    # Dense is O(m^2) memory: 2^13 already needs a 0.5 GB identity, and
    # the ISSUE-motivating scales (2^16+) would need tens of GB — so the
    # head-to-head stops at 2^12 and matrix-free continues alone.
    dense_exponents = [8, 10, 12]
    free_exponents = [8, 10, 12, 16, 20]

    lines = [
        f"{'m':>10}{'dense profile (s)':>20}{'matrix-free (s)':>18}{'speedup':>10}"
    ]
    speedups = {}
    free_times = {}
    for exponent in free_exponents:
        m = 2**exponent
        transform = HaarTransform(m)
        lo, hi = m // 5, (4 * m) // 5
        free_repeats = 200
        start = time.perf_counter()
        for _ in range(free_repeats):
            free_value = axis_variance_profile(transform, lo, hi)
        free_time = (time.perf_counter() - start) / free_repeats
        free_times[exponent] = free_time

        if exponent in dense_exponents:
            dense_time = _best_of(lambda: dense_profile(transform, lo, hi), 3)
            np.testing.assert_allclose(
                free_value, dense_profile(transform, lo, hi), rtol=1e-10
            )
            speedups[exponent] = dense_time / free_time
            lines.append(
                f"{m:>10}{dense_time:>20.6f}{free_time:>18.9f}"
                f"{speedups[exponent]:>9.0f}x"
            )
        else:
            lines.append(f"{m:>10}{'(infeasible)':>20}{free_time:>18.9f}{'-':>10}")

    # Batch path: a 10k-range workload on one 2^16 axis in one call.
    transform = HaarTransform(2**16)
    rng = np.random.default_rng(0)
    lows = rng.integers(0, 2**16, size=10_000)
    highs = np.minimum(2**16, lows + 1 + rng.integers(0, 2**15, size=10_000))
    start = time.perf_counter()
    transform.range_profiles(lows, highs)
    batch_time = time.perf_counter() - start
    lines.append(f"10k-range batch on m=2^16: {batch_time:.4f} s total")

    # Nominal axes: the profile table's first-call build and lookups.
    lines.append("")
    lines.append(
        f"{'leaves':>10}{'table build (s)':>18}{'table MB':>10}"
        f"{'10k lookup (s)':>16}{'max rel err':>13}"
    )
    builds = {}
    for leaves in NOMINAL_LEAVES:
        transform = census_shaped(leaves)
        start = time.perf_counter()
        transform.range_profile(0, leaves)
        builds[leaves] = time.perf_counter() - start
        table_bytes = transform._profile_table().nbytes
        pairs = np.sort(rng.integers(0, leaves + 1, size=(10_000, 2)), axis=1)
        lookup_time = _best_of(
            lambda: transform.range_profiles(pairs[:, 0], pairs[:, 1]), 5
        )
        sample = pairs[:200]
        expected = dense_profiles(transform, sample[:, 0], sample[:, 1])
        got = transform.range_profiles(sample[:, 0], sample[:, 1])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        nonzero = expected > 0
        error = float(np.max(np.abs(got[nonzero] / expected[nonzero] - 1.0)))
        lines.append(
            f"{leaves:>10}{builds[leaves]:>18.4f}{table_bytes / 1e6:>10.2f}"
            f"{lookup_time:>16.6f}{error:>13.1e}"
        )

    record_result("adjoint_scaling", "\n".join(lines))

    # The refactor's headline claim: >=100x at the largest size the dense
    # path can still run (the gap only widens with m — dense is O(m^2),
    # matrix-free O(log m)).
    assert speedups[12] >= 100, f"expected >=100x at m=4096, got {speedups[12]:.0f}x"
    # Matrix-free must stay interactive at the scales dense cannot reach.
    assert free_times[16] < 0.05
    assert free_times[20] < 0.05
    # The table is built incrementally in O(m^2 h) elementwise work;
    # building it from per-range adjoints would be O(m^2 nodes).
    assert builds[2048] < MAX_NOMINAL_BUILD_SECONDS, (
        f"2048-leaf profile table took {builds[2048]:.2f} s to build"
    )

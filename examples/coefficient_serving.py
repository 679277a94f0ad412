"""Publish and serve a m = 2**20 ordinal domain from its noisy coefficients.

Privelet adds noise *in coefficient space*.  ``publish`` therefore keeps
a count vector's release in coefficient form (a ``CoefficientRelease``):
no inverse transform at publish time, and the noisy coefficient vector
is what an archive stores.  On its first answer the release inverts the
coefficients once, straight into its prefix-sum serving tensor; after
that every range answer is two prefix reads, whatever its width.

Run: PYTHONPATH=src python examples/coefficient_serving.py
"""

import time

import numpy as np

from repro import QueryEngine, generate_workload, publish

M = 1 << 20  # a domain a dense pipeline would materialize twice over

# A sparse "sales by timestamp bucket" histogram: most buckets empty.
rng = np.random.default_rng(0)
counts = np.zeros(M)
active = rng.integers(0, M, size=4_096)
counts[active] += rng.integers(1, 40, size=active.size)

start = time.perf_counter()
result = publish(counts, 1.0, mechanism="privelet", seed=1)
publish_seconds = time.perf_counter() - start
release = result.release

print(f"published m = 2^20 = {M:,} cells with epsilon = {result.epsilon}")
print(f"  representation : {result.representation}")
print(f"  publish time   : {publish_seconds * 1e3:.1f} ms (no inverse transform)")
print(f"  stored state   : {release.nbytes() / 1e6:.1f} MB of coefficients")
print(f"  lambda         : {result.noise_magnitude:.1f}")

# The engine serves point answers, exact noise stds, and confidence
# intervals straight from the coefficients.
engine = QueryEngine(result)
queries = generate_workload(release.schema, 1_000, seed=2)
start = time.perf_counter()
batch = engine.answer_all_with_intervals(queries, confidence=0.95)
serve_seconds = time.perf_counter() - start
print(
    f"answered {len(queries)} range queries in {serve_seconds * 1e3:.1f} ms "
    f"({serve_seconds / len(queries) * 1e6:.1f} us/query)"
)
print(f"  mean noise std : {float(batch.noise_stds.mean()):.1f}")
print(
    f"  serving state  : {release.nbytes() / 1e6:.1f} MB "
    "(coefficients + prefix-sum tensor)"
)

# Every answer reads two prefix entries, so one wide range costs the
# same as one narrow range.
wide = release.answer_box([(0, M)])
narrow = release.answer_box([(M // 2, M // 2 + 16)])
print(f"  total estimate : {wide:.1f} (true total {counts.sum():.0f})")
print(f"  narrow range   : {narrow:.1f}")

# Cross-check against the dense reconstruction (``result.matrix``
# allocates M* with the same inverse the serving tensor was built by).
dense = result.matrix.values
lo, hi = 12_345, 700_001
assert abs(release.answer_box([(lo, hi)]) - dense[lo:hi].sum()) < 1e-6
print("coefficient-space answers match the dense reconstruction")

"""Figure 10: computation time vs tuple count n (m fixed).

Paper shape: both Basic and Privelet+ (SA = {}) scale linearly in n;
Privelet+ carries a constant-factor overhead from the wavelet transforms.
Paper scale (m = 2^24, n up to 5M) behind REPRO_FULL=1.  Each point is
timed three times and keeps the minimum, so one slow timing (the host's
vCPUs switch speed modes) cannot bend the linear fit.
"""

import dataclasses

import numpy as np

from repro.experiments.figures import run_time_vs_n
from repro.experiments.reporting import format_timing_run

#: Timings per point; ``TimingConfig`` keeps the minimum across them.
REPEATS = 3


def linear_fit_r2(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    coeffs = np.polyfit(xs, ys, 1)
    prediction = np.polyval(coeffs, xs)
    residual = ((ys - prediction) ** 2).sum()
    total = ((ys - ys.mean()) ** 2).sum()
    return 1.0 - residual / total if total > 0 else 1.0


def test_fig10_time_vs_n(benchmark, timing_config, record_result):
    config = dataclasses.replace(timing_config, repeats=REPEATS)
    run = benchmark.pedantic(run_time_vs_n, args=(config,), rounds=1, iterations=1)
    text = format_timing_run(run, title="Figure 10: computation time vs n")
    record_result("fig10_time_vs_n", text)

    ns = [p.x for p in run.points]
    basic = [p.basic_seconds for p in run.points]
    privelet = [p.privelet_seconds for p in run.points]
    # Linearity in n (loose: wall-clock noise).
    assert linear_fit_r2(ns, basic) > 0.5
    assert linear_fit_r2(ns, privelet) > 0.5
    # Privelet+ is the slower of the two at every point (extra transforms).
    for point in run.points:
        assert point.privelet_seconds >= point.basic_seconds * 0.8

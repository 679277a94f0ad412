"""Figure 11: computation time vs frequency-matrix size m (n fixed).

Paper shape: both mechanisms scale linearly in m; Privelet+ costs a
constant factor more.  Paper scale (n = 5e6, m up to 2^26) behind
REPRO_FULL=1.  Each point is timed three times and keeps the minimum,
so one slow timing (the host's vCPUs switch speed modes) cannot bend
the linear fit.
"""

import dataclasses

from repro.experiments.figures import run_time_vs_m
from repro.experiments.reporting import format_timing_run

from .test_fig10_time_vs_n import REPEATS, linear_fit_r2


def test_fig11_time_vs_m(benchmark, timing_config, record_result):
    config = dataclasses.replace(timing_config, repeats=REPEATS)
    run = benchmark.pedantic(run_time_vs_m, args=(config,), rounds=1, iterations=1)
    text = format_timing_run(run, title="Figure 11: computation time vs m")
    record_result("fig11_time_vs_m", text)

    ms = [p.x for p in run.points]
    privelet = [p.privelet_seconds for p in run.points]
    # Privelet+'s cost is dominated by the O(m) transform work: linear in m.
    assert linear_fit_r2(ms, privelet) > 0.5
    # Monotone growth across the sweep endpoints.
    assert privelet[-1] > privelet[0]

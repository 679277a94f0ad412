"""Cross-process serving statistics: latency recording and merging.

A :class:`~repro.serving.server.ReleaseServer` records latencies from
every thread that calls it, the network front-end records them from
its event loop, and the fleet has to present one coherent p50/p99
across N worker processes.  This module holds the two pieces that make
that sound:

* :class:`LatencyRecorder` — a lock-protected sliding window whose
  :meth:`~LatencyRecorder.record_latency` is safe from any number of
  threads, with exact percentiles over whatever is currently in the
  window;
* :func:`merge_worker_stats` — pure-function aggregation of per-worker
  stat snapshots (counters summed, percentiles recomputed from the
  **pooled** latency samples rather than averaging per-worker
  percentiles, which would be statistically meaningless).
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

__all__ = ["LatencyRecorder", "merge_worker_stats"]

#: Counter fields summed across workers by :func:`merge_worker_stats`.
_SUMMED_FIELDS = (
    "engines_built",
    "requests",
    "errors",
    "batches",
    "columnar_rows",
    "profile_cache_hits",
    "profile_cache_misses",
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_cache_evictions",
    "planner_deduped_rows",
)


class LatencyRecorder:
    """A thread-safe sliding window of request latencies.

    Parameters
    ----------
    window:
        Most samples retained; recording the ``window + 1``-th sample
        drops the oldest (matching the previous deque-based behaviour
        of :class:`~repro.serving.server.ReleaseServer`).
    """

    def __init__(self, window: int = 8192):
        self._samples: deque = deque(maxlen=int(window))
        self._lock = threading.Lock()
        self._recorded = 0

    @property
    def window(self) -> int:
        """The configured window size."""
        return self._samples.maxlen or 0

    @property
    def recorded(self) -> int:
        """Total samples ever recorded (including ones slid out)."""
        return self._recorded

    def record_latency(self, seconds: float) -> None:
        """Append one latency sample (safe from any thread).

        Parameters
        ----------
        seconds:
            The request's submit-to-answer latency.
        """
        value = float(seconds)
        with self._lock:
            self._samples.append(value)
            self._recorded += 1

    def samples(self) -> list[float]:
        """A consistent copy of the current window's samples."""
        with self._lock:
            return list(self._samples)

    def percentiles(self) -> tuple[float, float]:
        """The window's ``(p50, p99)``; ``(0.0, 0.0)`` when empty."""
        window = self.samples()
        if not window:
            return 0.0, 0.0
        values = np.asarray(window, dtype=np.float64)
        return float(np.percentile(values, 50)), float(np.percentile(values, 99))

    def __len__(self) -> int:
        """Samples currently in the window."""
        with self._lock:
            return len(self._samples)

    def __repr__(self) -> str:
        return f"LatencyRecorder(window={self.window}, size={len(self)})"


def merge_worker_stats(snapshots) -> dict:
    """Aggregate per-worker stat snapshots into one fleet-wide view.

    Parameters
    ----------
    snapshots:
        Iterable of per-worker dicts, each shaped like
        ``dataclasses.asdict(ServerStats)`` and optionally carrying
        ``latency_samples`` (the worker's current latency window) and
        ``pid``.  The network front-end collects one from every live
        worker; a dead worker simply contributes nothing.

    Returns
    -------
    dict
        Counters summed, the plan-cache hit rate recomputed from the
        summed hits/misses, and
        ``p50_latency_seconds``/``p99_latency_seconds`` computed over
        the **pooled** samples of every worker.  ``workers`` counts the
        snapshots merged and ``per_worker`` keeps a compact
        ``{pid, requests, errors}`` row per worker for health views.
    """
    snapshots = list(snapshots)
    merged: dict = {field: 0 for field in _SUMMED_FIELDS}
    releases: set = set()
    pooled: list[float] = []
    per_worker = []
    for snapshot in snapshots:
        for field in _SUMMED_FIELDS:
            merged[field] += int(snapshot.get(field, 0))
        releases.update(snapshot.get("releases", ()))
        pooled.extend(float(s) for s in snapshot.get("latency_samples", ()))
        per_worker.append(
            {
                "pid": snapshot.get("pid"),
                "requests": int(snapshot.get("requests", 0)),
                "errors": int(snapshot.get("errors", 0)),
            }
        )
    merged["releases"] = tuple(sorted(releases))
    merged["workers"] = len(snapshots)
    merged["per_worker"] = per_worker
    plan_total = merged["plan_cache_hits"] + merged["plan_cache_misses"]
    merged["plan_cache_hit_rate"] = (
        merged["plan_cache_hits"] / plan_total if plan_total else 0.0
    )
    if pooled:
        values = np.asarray(pooled, dtype=np.float64)
        merged["p50_latency_seconds"] = float(np.percentile(values, 50))
        merged["p99_latency_seconds"] = float(np.percentile(values, 99))
    else:
        merged["p50_latency_seconds"] = 0.0
        merged["p99_latency_seconds"] = 0.0
    return merged

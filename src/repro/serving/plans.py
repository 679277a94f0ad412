"""Compiled plans: per-shape serving state reused across columnar batches.

Decoding a columnar batch is O(ndarray), but *binding* it still needs
per-shape work: resolve the release name to an engine (dict lookups
under locks), map attribute names to schema axes, and build the
full-domain default bounds for the unnamed axes.  None of that depends
on the batch's actual lo/hi values — only on its **shape**:
``(release, attribute set, time_range)``.  :class:`PlanCache` memoizes
exactly that state as a :class:`CompiledPlan`, so a hot dashboard
workload (the same widgets re-asking the same release/attribute shape
all day) pays the resolution once and every later batch goes straight
from wire arrays to :meth:`~repro.queries.engine.QueryEngine.
answer_columnar`.

The plan also pins the engine it compiled against, so every batch
bound through one plan reaches the same engine (and, for a stream, the
same window view) without a lookup — recompilation is skipped
entirely, not merely made cheaper.

A plan answers straight through its engine, with no deduplication
pass: on served traffic, where a few rows of a batch repeat, finding
them costs more than the engine rows they save.  A caller whose
batches repeat most of their boxes can front an engine with
:class:`~repro.planner.QueryPlanner` itself.

Plans are **invalidated, never refreshed in place**: when a stream
archive grows and the server swaps the release, every plan touching
that release is dropped and the next batch recompiles against the new
engine (an evicted or invalidated plan recompiles *identically* — the
plan holds no per-batch state).  The cache is LRU-bounded so arbitrary
shape churn cannot grow server memory without limit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import ensure_positive_int

__all__ = ["CompiledPlan", "PlanCache"]


@dataclass(frozen=True, eq=False)
class CompiledPlan:
    """One batch shape, compiled: engine + axis map.

    Built by :class:`PlanCache`; holds everything shape-dependent so a
    batch binds with two vectorized scatters and one bounds check, and
    answers through the pinned engine.

    Parameters
    ----------
    key:
        The ``(release, attribute names, time_range)`` shape this plan
        serves.
    engine:
        The resolved :class:`~repro.queries.engine.QueryEngine`.
    axes:
        Schema axis index per named attribute, aligned with the key's
        name tuple.
    """

    key: tuple
    engine: object
    axes: tuple = field(default_factory=tuple)

    @property
    def schema(self):
        """The bound engine's schema."""
        return self.engine.schema

    def bind(self, request) -> tuple[np.ndarray, np.ndarray]:
        """Full ``(n, d)`` bound arrays for ``request`` under this plan.

        Delegates to :meth:`~repro.serving.requests.QueryBatchRequest.
        bind` with the cached axis map — no name resolution per batch.
        """
        return request.bind(self.engine.schema, axes=self.axes)

    def answer_columnar(self, lows, highs, confidence: float):
        """Answer bound arrays through the plan's engine.

        Parameters
        ----------
        lows, highs:
            ``(n, d)`` bound arrays over the plan's schema.
        confidence:
            Two-sided coverage level in ``(0, 1)``.

        Returns
        -------
        repro.queries.engine.BatchQueryAnswers
            Arrays aligned with the rows: the engine's
            :meth:`~repro.queries.engine.QueryEngine.answer_columnar`.
        """
        return self.engine.answer_columnar(lows, highs, confidence)


class PlanCache:
    """LRU-bounded ``plan_key -> CompiledPlan`` store for a server.

    Parameters
    ----------
    resolve_engine:
        Callable ``(release_name, time_range) -> QueryEngine`` — the
        server's engine accessor, called only on a cache miss.
    max_plans:
        Most compiled plans kept; the least recently used plan beyond
        that is evicted (eviction loses no answers — an evicted shape
        recompiles identically on its next batch).

    Thread-safety: lookups and inserts are lock-guarded so concurrent
    callers may share the cache.
    """

    def __init__(self, resolve_engine, *, max_plans: int = 256):
        self._resolve = resolve_engine
        self._max_plans = ensure_positive_int(max_plans, "max_plans")
        self._plans: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        #: Batches that found their shape compiled.
        self.hits = 0
        #: Batches that had to compile their shape.
        self.misses = 0
        #: Plans dropped to respect the bound (monotone counter).
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def max_plans(self) -> int:
        """The configured plan bound."""
        return self._max_plans

    @property
    def hit_rate(self) -> float:
        """Fraction of plan lookups served without compiling."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def plan(self, key: tuple) -> CompiledPlan:
        """The compiled plan for ``key``, compiling on first touch.

        Parameters
        ----------
        key:
            A :attr:`~repro.serving.requests.QueryBatchRequest.plan_key`
            triple ``(release, names, time_range)``.

        Returns
        -------
        CompiledPlan
            Ready to bind batches of that shape.  Resolution errors
            (unknown release, unknown attribute, bad window) propagate
            to the caller uncached — a failing shape never poisons the
            cache.
        """
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                return plan
        release_name, names, time_range = key
        engine = self._resolve(release_name, time_range)
        axes = engine.schema.axes_of(names)
        plan = CompiledPlan(key=key, engine=engine, axes=axes)
        with self._lock:
            self.misses += 1
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self._max_plans:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def invalidate(self, release_name: str) -> int:
        """Drop every plan compiled against ``release_name``.

        Called by the server whenever it swaps a release (stream
        refresh); the next batch of each dropped shape recompiles
        against the fresh engine.

        Returns
        -------
        int
            How many plans were dropped.
        """
        with self._lock:
            stale = [key for key in self._plans if key[0] == release_name]
            for key in stale:
                del self._plans[key]
        return len(stale)

    def clear(self) -> None:
        """Drop every plan (counters are preserved)."""
        with self._lock:
            self._plans.clear()

    def __repr__(self) -> str:
        return (
            f"PlanCache(plans={len(self._plans)}, max={self._max_plans}, "
            f"hits={self.hits}, misses={self.misses})"
        )

"""The multi-release serving layer: registry + engines + micro-batching.

:class:`ReleaseServer` is the first layer of this library whose job is
*throughput* rather than a single answer.  It composes the pieces below
it into one front door for query traffic:

* a :class:`~repro.serving.registry.ReleaseRegistry` of named releases
  (in-process results or lazily loaded archives);
* one :class:`~repro.queries.engine.QueryEngine` per release, built on
  first touch under that release's lock, each with a **bounded**
  :class:`~repro.serving.cache.LRUProfileCache` so repeated dashboard
  ranges hit warm adjoint profiles while the server's memory stays
  bounded for life;
* an adaptive :class:`~repro.serving.batching.MicroBatcher` that
  coalesces concurrent single-query requests into one
  ``answer_all_with_intervals`` call per ``(release, confidence)`` group
  — concurrency in, vectorized batches out;
* server-level stats: profile-cache hit rate, batch-size profile, and
  p50/p99 request latency over a sliding window.

Threading model
---------------
``submit``/``query`` may be called from any number of threads.  All
answering happens on the batcher's single drain thread, so engines and
their caches see single-threaded access on the hot path; per-release
locks additionally guard lazy loading and engine construction for
callers that touch :meth:`ReleaseServer.engine` directly.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError, StreamingError
from repro.queries.engine import BatchQueryAnswers, QueryEngine
from repro.serving.batching import MicroBatcher
from repro.serving.cache import LRUProfileCache
from repro.serving.plans import PlanCache
from repro.serving.registry import ReleaseRegistry
from repro.serving.stats import LatencyRecorder
from repro.serving.requests import (
    BatchQueryResponse,
    QueryBatchRequest,
    QueryRequest,
    QueryResponse,
)

__all__ = ["ReleaseServer", "ServerStats"]


@dataclass(frozen=True)
class ServerStats:
    """A point-in-time snapshot of a server's serving counters."""

    #: Registered release names.
    releases: tuple
    #: Engines built so far (lazily; stream releases may add one engine
    #: per cached time window, so this can exceed len(releases)).
    engines_built: int
    #: Requests completed (successfully answered).
    requests: int
    #: Requests that resolved to an error response/exception.
    errors: int
    #: Handler batches dispatched by the micro-batcher.
    batches: int
    #: Mean items per batch so far.
    mean_batch_size: float
    #: Largest single batch so far.
    largest_batch: int
    #: Distinct-range profile lookups served from cache, all engines.
    profile_cache_hits: int
    #: Distinct-range profile lookups that computed, all engines.
    profile_cache_misses: int
    #: hits / (hits + misses), 0.0 before any lookup.
    profile_cache_hit_rate: float
    #: LRU evictions across engines (0 until a cache fills).
    profile_cache_evictions: int
    #: Columnar batches that found their shape compiled.
    plan_cache_hits: int
    #: Columnar batches that compiled a new plan.
    plan_cache_misses: int
    #: hits / (hits + misses), 0.0 before any columnar batch.
    plan_cache_hit_rate: float
    #: Plans dropped by the LRU bound (0 until the cache fills).
    plan_cache_evictions: int
    #: Rows answered through the columnar path (each scalar request
    #: counts 1 toward ``requests``; a columnar batch counts its rows).
    columnar_rows: int
    #: Rows the planner answered by scatter from an identical row
    #: (monotone, survives plan eviction/invalidation).
    planner_deduped_rows: int
    #: Median request latency (submit → answered) over the window.
    p50_latency_seconds: float
    #: 99th-percentile request latency over the window.
    p99_latency_seconds: float
    #: The batcher's current adaptive linger window.
    linger_seconds: float


class ReleaseServer:
    """Serve query traffic against many named releases concurrently.

    Every release serves exactly as it was published: the engine is
    built straight from the registry's result, in its stored
    representation and with its recorded SA set.

    Parameters
    ----------
    registry:
        An existing :class:`ReleaseRegistry` to serve from; a fresh
        empty one by default.
    max_batch:
        Most queries coalesced into one engine call.
    max_linger_seconds:
        Upper bound of the adaptive micro-batching window.
    profile_cache_entries:
        Per-axis bound of each engine's LRU profile cache.
    watch_streams:
        When True (the default), a request touching a release backed by
        an append-able **stream** archive first ``stat``-checks the file
        and, if the publisher appended an epoch since, atomically swaps
        in a re-resolved release (in-flight requests finish against the
        one they already hold).  Static archives are never re-resolved
        — their answers must not change under traffic.
    window_engine_cache:
        How many distinct ``(release, time_range)`` window engines to
        keep (least recently used beyond that are dropped; their node
        payloads stay cached on the shared stream release).
    max_plans:
        LRU bound of the columnar :class:`~repro.serving.plans.PlanCache`
        (compiled ``(release, attribute set, time_range)`` shapes).
        Every compiled plan answers its columnar batches through a
        :class:`~repro.planner.QueryPlanner`, so duplicate boxes in a
        batch cost one engine pass.
    """

    def __init__(
        self,
        registry: ReleaseRegistry | None = None,
        *,
        max_batch: int = 256,
        max_linger_seconds: float = 0.002,
        profile_cache_entries: int = 4096,
        watch_streams: bool = True,
        window_engine_cache: int = 64,
        max_plans: int = 256,
    ):
        self._registry = registry if registry is not None else ReleaseRegistry()
        self._profile_cache_entries = int(profile_cache_entries)
        self._watch_streams = bool(watch_streams)
        self._engines: dict[str, QueryEngine] = {}
        self._window_engines: OrderedDict = OrderedDict()
        self._max_window_engines = int(window_engine_cache)
        self._engines_lock = threading.RLock()
        self._latency = LatencyRecorder()
        self._requests = 0
        self._errors = 0
        self._columnar_rows = 0
        self._closed = False
        self._plan_cache = PlanCache(self.engine, max_plans=max_plans)
        self._batcher = MicroBatcher(
            self._handle_batch,
            max_batch=max_batch,
            max_linger_seconds=max_linger_seconds,
            name="repro-release-server",
        )

    # ------------------------------------------------------------------
    # Registry facade
    # ------------------------------------------------------------------
    @property
    def registry(self) -> ReleaseRegistry:
        """The registry this server resolves release names in."""
        return self._registry

    @property
    def names(self) -> tuple:
        """Registered release names, sorted."""
        return self._registry.names

    def register(self, name: str, result) -> str:
        """Register an in-process ``result`` under ``name`` (see
        :meth:`ReleaseRegistry.register`)."""
        return self._registry.register(name, result)

    def register_archive(self, path, *, name: str | None = None) -> str:
        """Register the archive at ``path`` lazily under ``name`` (see
        :meth:`ReleaseRegistry.register_archive`)."""
        return self._registry.register_archive(path, name=name)

    def describe(self, name: str) -> dict:
        """Cheap metadata for release ``name`` (no payload load)."""
        return self._registry.describe(name)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def engine(self, name: str, time_range=None) -> QueryEngine:
        """The per-release engine, built on first touch under its lock.

        Parameters
        ----------
        name:
            A registered release name.
        time_range:
            Optional ``(lo, hi)`` epoch window for a stream-backed
            release; the returned engine serves a
            :meth:`~repro.core.compose.TimeTree.window` view
            (engines are cached per window, LRU-bounded).  Non-stream
            releases reject a time range with a ``bad-request``.

        Returns
        -------
        QueryEngine
            The engine serving that release, with this server's bounded
            profile cache installed.
        """
        self._refresh_if_stale(name)
        if time_range is None:
            engine = self._engines.get(name)
            if engine is not None:
                return engine
            with self._registry.lock_for(name):
                engine = self._engines.get(name)
                if engine is not None:
                    return engine
                engine = self._build_engine(self._registry.get(name))
                with self._engines_lock:
                    self._engines[name] = engine
                return engine
        key = (name, tuple(time_range))
        with self._engines_lock:
            engine = self._window_engines.get(key)
            if engine is not None:
                self._window_engines.move_to_end(key)
                return engine
        with self._registry.lock_for(name):
            with self._engines_lock:
                engine = self._window_engines.get(key)
                if engine is not None:
                    self._window_engines.move_to_end(key)
                    return engine
            result = self._registry.get(name)
            window = getattr(result.release, "window", None)
            if window is None:
                raise ServingError(
                    f"release {name!r} is not a stream; "
                    "time_range is not supported",
                    code="bad-request",
                )
            lo, hi = key[1]
            try:
                view = window(lo, hi)
            except StreamingError as exc:
                raise ServingError(str(exc), code="bad-request") from exc
            engine = self._build_engine(
                dataclasses.replace(result, release=view)
            )
            with self._engines_lock:
                self._window_engines[key] = engine
                while len(self._window_engines) > self._max_window_engines:
                    self._window_engines.popitem(last=False)
            return engine

    def replace(self, name: str, result) -> None:
        """Swap release ``name``'s in-memory result and drop its engines.

        The registry swap happens under the entry's lock, so requests
        already holding the old engine finish against it and the next
        request builds a fresh engine from ``result``.  This is the
        in-memory analogue of :meth:`refresh` — the network worker uses
        it when the parent republishes a stream's shared-memory
        segments.

        Parameters
        ----------
        name:
            A registered release name.
        result:
            The replacement :class:`~repro.core.framework.PublishResult`.
        """
        with self._registry.lock_for(name):
            self._registry.replace(name, result)
            with self._engines_lock:
                self._engines.pop(name, None)
                for key in [k for k in self._window_engines if k[0] == name]:
                    del self._window_engines[key]
            self._plan_cache.invalidate(name)

    def refresh(self, name: str) -> bool:
        """Re-resolve an archive-backed release and swap its engines.

        Safe under traffic: the registry entry's lock makes the swap
        atomic, requests already holding the old engine finish against
        it, and the next request for ``name`` builds a fresh engine from
        the re-opened archive.  With ``watch_streams`` (the default) the
        server calls this itself whenever a stream archive's file
        changes, so an appending publisher needs no extra signalling.

        Parameters
        ----------
        name:
            A registered release name.

        Returns
        -------
        bool
            True when the entry was re-opened (in-memory entries are
            left untouched).
        """
        with self._registry.lock_for(name):
            changed = self._registry.refresh(name)
            if changed:
                with self._engines_lock:
                    self._engines.pop(name, None)
                    for key in [k for k in self._window_engines if k[0] == name]:
                        del self._window_engines[key]
                # Plans pin the engine they compiled against, so every
                # plan touching the swapped release must recompile.
                self._plan_cache.invalidate(name)
        return changed

    def _build_engine(self, result) -> QueryEngine:
        entries = self._profile_cache_entries
        return QueryEngine(
            result,
            profile_cache_factory=lambda transforms: LRUProfileCache(
                transforms, max_entries_per_axis=entries
            ),
        )

    def _refresh_if_stale(self, name: str) -> None:
        """Auto-swap a live stream whose archive grew (stat probe only)."""
        if not self._watch_streams or not self._registry.stale(name):
            return
        if self._registry.describe(name).get("representation") != "stream":
            return
        self.refresh(name)

    @property
    def plan_cache(self) -> PlanCache:
        """The columnar plan cache (compiled per-shape serving state)."""
        return self._plan_cache

    def submit(self, request):
        """Enqueue one request; returns a future of its response.

        Parameters
        ----------
        request:
            A :class:`QueryRequest` (scalar path), or a
            :class:`QueryBatchRequest` (columnar path — the whole batch
            is one queue item weighted by its row count, so micro-batch
            coalescing stays bounded by total rows).

        Returns
        -------
        concurrent.futures.Future
            Resolves to a :class:`QueryResponse` (scalar) or a
            :class:`BatchQueryResponse` (columnar), or raises the
            per-request error (e.g. ``unknown-release``).
        """
        if self._closed:
            raise ServingError("server is closed", code="closed")
        if isinstance(request, QueryBatchRequest):
            return self._batcher.submit(
                (request, time.monotonic()), weight=len(request)
            )
        if not isinstance(request, QueryRequest):
            raise ServingError(
                f"submit needs a QueryRequest or QueryBatchRequest, "
                f"got {type(request).__name__}"
            )
        return self._batcher.submit((request, time.monotonic()))

    def submit_columnar(self, request: QueryBatchRequest):
        """Enqueue one columnar batch; returns a future of its
        :class:`BatchQueryResponse`.

        Parameters
        ----------
        request:
            The columnar batch to serve.

        Returns
        -------
        concurrent.futures.Future
            Resolves to a :class:`BatchQueryResponse` whose arrays are
            aligned with the request's rows.
        """
        if not isinstance(request, QueryBatchRequest):
            raise ServingError(
                f"submit_columnar needs a QueryBatchRequest, "
                f"got {type(request).__name__}"
            )
        return self.submit(request)

    def query_columnar(self, request: QueryBatchRequest) -> BatchQueryResponse:
        """Serve one columnar batch synchronously.

        Parameters
        ----------
        request:
            The columnar batch to serve.

        Returns
        -------
        BatchQueryResponse
            Estimates, exact noise stds, and interval bounds as arrays
            aligned with the request's rows.
        """
        return self.submit_columnar(request).result()

    def query(self, request: QueryRequest) -> QueryResponse:
        """Serve one request synchronously (through the batching queue).

        Parameters
        ----------
        request:
            The request to serve.

        Returns
        -------
        QueryResponse
            The answer with exact noise std and confidence interval.
        """
        return self.submit(request).result()

    def query_many(self, requests) -> list:
        """Serve many requests, coalesced into as few batches as possible.

        Parameters
        ----------
        requests:
            Iterable of :class:`QueryRequest`.

        Returns
        -------
        list[QueryResponse]
            Responses aligned with ``requests``; the first failing
            request's error is raised.
        """
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Stats / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServerStats:
        """A consistent-enough snapshot of the serving counters.

        Returns
        -------
        ServerStats
            Aggregated over every engine built so far; latency
            percentiles cover the sliding window only.
        """
        with self._engines_lock:
            engines = list(self._engines.values()) + list(
                self._window_engines.values()
            )
        hits = sum(engine.profile_cache.hits for engine in engines)
        misses = sum(engine.profile_cache.misses for engine in engines)
        evictions = sum(
            getattr(engine.profile_cache, "evictions", 0) for engine in engines
        )
        p50, p99 = self._latency.percentiles()
        return ServerStats(
            releases=self.names,
            engines_built=len(engines),
            requests=self._requests,
            errors=self._errors,
            batches=self._batcher.batches,
            mean_batch_size=self._batcher.mean_batch_size,
            largest_batch=self._batcher.largest_batch,
            profile_cache_hits=hits,
            profile_cache_misses=misses,
            profile_cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            profile_cache_evictions=evictions,
            plan_cache_hits=self._plan_cache.hits,
            plan_cache_misses=self._plan_cache.misses,
            plan_cache_hit_rate=self._plan_cache.hit_rate,
            plan_cache_evictions=self._plan_cache.evictions,
            columnar_rows=self._columnar_rows,
            planner_deduped_rows=self._plan_cache.planner_stats()["rows_deduped"],
            p50_latency_seconds=p50,
            p99_latency_seconds=p99,
            linger_seconds=self._batcher.linger_seconds,
        )

    def latency_samples(self) -> list:
        """The current latency window's raw samples (seconds).

        The network front-end ships these across the worker pipe so
        :func:`~repro.serving.stats.merge_worker_stats` can compute
        fleet-wide percentiles from pooled samples instead of averaging
        per-worker percentiles.
        """
        return self._latency.samples()

    def close(self, *, timeout: float = 5.0) -> bool:
        """Stop the batching thread; later submits raise ``closed``.

        Parameters
        ----------
        timeout:
            Seconds to wait for the batching thread to drain and exit.

        Returns
        -------
        bool
            True once the batching thread has exited (every accepted
            future is resolved); False if the join timed out and
            outstanding futures may never resolve — see
            :meth:`~repro.serving.batching.MicroBatcher.close`.
        """
        self._closed = True
        return self._batcher.close(timeout=timeout)

    def __enter__(self) -> "ReleaseServer":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: closes the server."""
        self.close()

    def __repr__(self) -> str:
        return (
            f"ReleaseServer(releases={list(self.names)}, "
            f"engines={len(self._engines)})"
        )

    # ------------------------------------------------------------------
    # Batch handler (runs on the drain thread)
    # ------------------------------------------------------------------
    def _handle_batch(self, payloads) -> list:
        """Answer one coalesced batch, grouped per (release, confidence).

        Scalar requests group by ``(release, confidence, time_range)``
        and go through ``answer_all_with_intervals`` as before; columnar
        batches group by ``(plan_key, confidence)``, bind through the
        plan cache, and reach the engine as concatenated ndarray views —
        no per-row Python objects anywhere on that path.

        Returns one entry per payload: a :class:`QueryResponse` /
        :class:`BatchQueryResponse`, or an :class:`Exception` for that
        request alone (the micro-batcher sets it on the matching future,
        isolating failures per request).
        """
        results: list = [None] * len(payloads)
        groups: dict[tuple, list[int]] = {}
        columnar_groups: dict[tuple, list[int]] = {}
        for index, (request, _) in enumerate(payloads):
            if isinstance(request, QueryBatchRequest):
                columnar_groups.setdefault(
                    (request.plan_key, request.confidence), []
                ).append(index)
            else:
                groups.setdefault(
                    (request.release, request.confidence, request.time_range), []
                ).append(index)
        for (plan_key, confidence), indexes in columnar_groups.items():
            self._handle_columnar_group(payloads, results, plan_key, confidence, indexes)
        for (release_name, confidence, time_range), indexes in groups.items():
            try:
                engine = self.engine(release_name, time_range)
            except Exception as exc:  # noqa: BLE001 - becomes per-request error
                for index in indexes:
                    results[index] = exc
                continue
            queries, valid = [], []
            for index in indexes:
                request = payloads[index][0]
                try:
                    queries.append(request.to_query(engine.schema))
                    valid.append(index)
                except Exception as exc:  # noqa: BLE001
                    results[index] = exc
            if not valid:
                continue
            try:
                batch = engine.answer_all_with_intervals(queries, confidence)
            except Exception as exc:  # noqa: BLE001
                for index in valid:
                    results[index] = exc
                continue
            for position, index in enumerate(valid):
                answer = batch[position]
                results[index] = QueryResponse(
                    release=release_name,
                    estimate=answer.estimate,
                    noise_std=answer.noise_std,
                    lower=answer.lower,
                    upper=answer.upper,
                    confidence=answer.confidence,
                    request_id=payloads[index][0].request_id,
                )
        now = time.monotonic()
        for result, (_, enqueued) in zip(results, payloads):
            self._latency.record_latency(now - enqueued)
            if isinstance(result, Exception):
                self._errors += 1
            elif isinstance(result, BatchQueryResponse):
                self._requests += len(result)
                self._columnar_rows += len(result)
            else:
                self._requests += 1
        return results

    def _handle_columnar_group(
        self, payloads, results, plan_key, confidence, indexes
    ) -> None:
        """Answer one columnar plan group: bind, concatenate, one engine call.

        Each wire item binds separately (so an out-of-domain batch fails
        alone); the surviving bound arrays are concatenated — a lone
        item passes its views through untouched — and answered by one
        :meth:`~repro.queries.engine.QueryEngine.answer_columnar` call.
        Responses adopt slices of the engine's result arrays, so nothing
        on this path is copied per row.
        """
        try:
            plan = self._plan_cache.plan(plan_key)
        except Exception as exc:  # noqa: BLE001 - becomes per-request error
            for index in indexes:
                results[index] = exc
            return
        bound, valid = [], []
        for index in indexes:
            request = payloads[index][0]
            try:
                bound.append(plan.bind(request))
                valid.append(index)
            except Exception as exc:  # noqa: BLE001
                results[index] = exc
        if not valid:
            return
        if len(bound) == 1:
            lows, highs = bound[0]
        else:
            lows = np.concatenate([pair[0] for pair in bound])
            highs = np.concatenate([pair[1] for pair in bound])
        try:
            answers = plan.answer_columnar(lows, highs, confidence)
        except Exception as exc:  # noqa: BLE001
            for index in valid:
                results[index] = exc
            return
        offset = 0
        for index in valid:
            request = payloads[index][0]
            stop = offset + len(request)
            window = BatchQueryAnswers(
                estimates=answers.estimates[offset:stop],
                noise_stds=answers.noise_stds[offset:stop],
                lowers=answers.lowers[offset:stop],
                uppers=answers.uppers[offset:stop],
                confidence=answers.confidence,
            )
            results[index] = BatchQueryResponse.from_answers(
                plan_key[0], window, request_id=request.request_id
            )
            offset = stop

"""The multi-release serving layer: registry, engines, one grouped pass.

:class:`ReleaseServer` is the first layer of this library whose job is
*throughput* rather than a single answer.  It composes the pieces below
it into one front door for query traffic:

* a :class:`~repro.serving.registry.ReleaseRegistry` of named releases
  (in-process results or lazily loaded archives);
* one :class:`~repro.queries.engine.QueryEngine` per release, built on
  first touch under that release's lock (its variance pass is stateless,
  so an engine's memory does not grow with traffic);
* :meth:`ReleaseServer.answer_requests`, which answers a list of
  requests in one grouped pass: one ``answer_all_with_intervals`` call
  per ``(release, confidence, time_range)`` group of scalar requests and
  one ``answer_columnar`` call per ``(plan, confidence)`` group of
  columnar batches;
* server-level stats: plan-cache hit rate, request and pass counts, and
  p50/p99 request latency over a sliding window.

Threading model
---------------
Privelet fixes all of its noise at publish time, so answering is a pure
read of the release.  Every call answers on the thread that makes it:
the server starts no thread and queues nothing.  Requests are merged
where they arrive, by whoever reads several at once and passes them as
one list (the fleet worker its pipe batch, the JSONL ``serve`` loop the
lines already queued, :meth:`ReleaseServer.query_many` its argument).
Concurrent callers answer in parallel.  What they share is guarded
where it is built: a registry entry's lock covers its archive load and
engine build, the plan cache locks its table, a leaf release builds
its prefix tensor under its own lock, and the server's counters update
under one lock.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError, StreamingError
from repro.queries.engine import BatchQueryAnswers, QueryEngine
from repro.serving.plans import PlanCache
from repro.serving.registry import ReleaseRegistry
from repro.serving.stats import LatencyRecorder
from repro.serving.requests import (
    BatchQueryResponse,
    ErrorResponse,
    QueryBatchRequest,
    QueryRequest,
    QueryResponse,
    encode_line,
    request_from_dict,
)

__all__ = ["ReleaseServer", "ServerStats"]

#: Most compiled columnar plans a server keeps; the least recently used
#: beyond that is evicted and recompiles identically on its next batch.
MAX_PLANS = 256
#: Most ``(release, time_range)`` window engines a server keeps; the
#: least recently used beyond that is dropped (its slices stay on the
#: stream's shared running prefix, so a rebuilt view reads them again).
MAX_WINDOW_ENGINES = 64


@dataclass(frozen=True)
class ServerStats:
    """A point-in-time snapshot of a server's serving counters."""

    #: Registered release names.
    releases: tuple
    #: Engines cached now: one per touched release, plus one per cached
    #: stream time window.  A refresh drops the refreshed release's
    #: engines, so this count can fall.
    engines_built: int
    #: Requests completed (successfully answered).
    requests: int
    #: Requests that resolved to an error response/exception.
    errors: int
    #: Grouped passes answered: one per ``answer_requests`` call with at
    #: least one request (so one per ``query`` or ``query_many`` call).
    batches: int
    #: Always 0: variance profiles are not memoized.  Kept, with
    #: ``profile_cache_misses``, until ROADMAP item 2's benchmark change.
    profile_cache_hits: int
    #: Always 0 (see ``profile_cache_hits``).
    profile_cache_misses: int
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
    #: Always 0: columnar batches answer through the engine with no
    #: deduplication pass.  Kept until ROADMAP item 2's benchmark change,
    #: like ``profile_cache_hits``.
    planner_deduped_rows: int
    #: Median request latency (start to end of its pass) over the window.
    p50_latency_seconds: float
    #: 99th-percentile request latency over the window.
    p99_latency_seconds: float


class ReleaseServer:
    """Serve query traffic against many named releases concurrently.

    Every release serves exactly as it was published: the engine is
    built straight from the registry's result, in its stored
    representation and with its recorded SA set.  Columnar batches are
    answered through a :class:`~repro.serving.plans.PlanCache` of at
    most :data:`MAX_PLANS` compiled shapes, and stream windows through
    at most :data:`MAX_WINDOW_ENGINES` cached window engines.

    Parameters
    ----------
    registry:
        An existing :class:`ReleaseRegistry` to serve from; a fresh
        empty one by default.
    watch_streams:
        When True (the default), a request touching a release backed by
        an append-able **stream** archive first ``stat``-checks the file
        and, if the publisher appended an epoch since, atomically swaps
        in a re-resolved release (in-flight requests finish against the
        one they already hold).  Static archives are never re-resolved
        — their answers must not change under traffic.
    """

    def __init__(
        self,
        registry: ReleaseRegistry | None = None,
        *,
        watch_streams: bool = True,
    ):
        self._registry = registry if registry is not None else ReleaseRegistry()
        self._watch_streams = bool(watch_streams)
        self._engines: dict[str, QueryEngine] = {}
        self._window_engines: OrderedDict = OrderedDict()
        self._engines_lock = threading.RLock()
        self._latency = LatencyRecorder()
        self._counters_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._columnar_rows = 0
        self._batches = 0
        self._closed = False
        self._plan_cache = PlanCache(self.engine, max_plans=MAX_PLANS)

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
            The engine serving that release.
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
                engine = QueryEngine(self._registry.get(name))
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
            engine = QueryEngine(dataclasses.replace(result, release=view))
            with self._engines_lock:
                self._window_engines[key] = engine
                while len(self._window_engines) > MAX_WINDOW_ENGINES:
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

    def answer_requests(self, requests) -> list:
        """Answer ``requests`` in one grouped pass on the caller's thread.

        Scalar requests group by ``(release, confidence, time_range)``,
        one ``answer_all_with_intervals`` call per group.  Columnar
        batches group by ``(plan_key, confidence)``: each binds through
        the plan cache on its own (so an out-of-domain batch fails
        alone), and the group's rows are answered by one
        ``answer_columnar`` call whose result arrays the responses
        slice, so nothing on that path is copied per row.

        Parameters
        ----------
        requests:
            Iterable of :class:`QueryRequest` and
            :class:`QueryBatchRequest`.

        Returns
        -------
        list
            One entry per request, in order: its :class:`QueryResponse`
            or :class:`BatchQueryResponse`, or the :class:`Exception`
            that request alone failed with (e.g. ``unknown-release``).
            Anything else in ``requests``, or a closed server, raises
            :class:`~repro.errors.ServingError`.
        """
        requests = list(requests)
        for request in requests:
            if not isinstance(request, (QueryRequest, QueryBatchRequest)):
                raise ServingError(
                    "answer_requests needs QueryRequest or QueryBatchRequest "
                    f"items, got {type(request).__name__}"
                )
        if self._closed:
            raise ServingError("server is closed", code="closed")
        if not requests:
            return []
        start = time.monotonic()
        results: list = [None] * len(requests)
        groups: dict[tuple, list[int]] = {}
        columnar_groups: dict[tuple, list[int]] = {}
        for index, request in enumerate(requests):
            if isinstance(request, QueryBatchRequest):
                columnar_groups.setdefault(
                    (request.plan_key, request.confidence), []
                ).append(index)
            else:
                groups.setdefault(
                    (request.release, request.confidence, request.time_range), []
                ).append(index)
        for (plan_key, confidence), indexes in columnar_groups.items():
            self._answer_columnar_group(requests, results, plan_key, confidence, indexes)
        for (release_name, confidence, time_range), indexes in groups.items():
            self._answer_scalar_group(
                requests, results, release_name, confidence, time_range, indexes
            )
        elapsed = time.monotonic() - start
        answered = errors = rows = 0
        for result in results:
            self._latency.record_latency(elapsed)
            if isinstance(result, Exception):
                errors += 1
            elif isinstance(result, BatchQueryResponse):
                answered += len(result)
                rows += len(result)
            else:
                answered += 1
        with self._counters_lock:
            self._batches += 1
            self._requests += answered
            self._errors += errors
            self._columnar_rows += rows
        return results

    def answer_payloads(self, payloads: list) -> list:
        """Answer decoded wire requests in one pass; one encoded line each.

        Each payload decodes through
        :func:`~repro.serving.requests.request_from_dict`, every decoded
        request is answered in one :meth:`answer_requests` pass, and
        each request's failure, a decode error included, becomes its
        :class:`ErrorResponse`.  A columnar answer encodes straight from
        its arrays (:meth:`BatchQueryResponse.to_line`).  The fleet
        worker and the JSONL ``serve`` loop both answer through this and
        write the lines as they are.

        Parameters
        ----------
        payloads:
            List of decoded JSON request objects (``op`` ``query`` or
            ``query_batch``).

        Returns
        -------
        list[bytes]
            One encoded wire line (newline included) per payload, in
            order.
        """
        decoded = []
        for payload in payloads:
            try:
                decoded.append(request_from_dict(payload))
            except Exception as exc:  # noqa: BLE001 - wire gets structured errors
                decoded.append(exc)
        answers = iter(
            self.answer_requests(
                [item for item in decoded if not isinstance(item, Exception)]
            )
        )
        lines = []
        for payload, item in zip(payloads, decoded):
            if not isinstance(item, Exception):
                item = next(answers)
            if isinstance(item, BatchQueryResponse):
                lines.append(item.to_line())
                continue
            if isinstance(item, Exception):
                request_id = payload.get("id") if isinstance(payload, dict) else None
                item = ErrorResponse.from_exception(item, request_id)
            lines.append(encode_line(item.to_dict()))
        return lines

    def submit(self, request) -> Future:
        """Answer one request now; returns its already-resolved future.

        Parameters
        ----------
        request:
            A :class:`QueryRequest` (scalar path) or a
            :class:`QueryBatchRequest` (columnar path).

        Returns
        -------
        concurrent.futures.Future
            Done on return: holds a :class:`QueryResponse` (scalar) or
            a :class:`BatchQueryResponse` (columnar), or the per-request
            error (e.g. ``unknown-release``).
        """
        [result] = self.answer_requests([request])
        future: Future = Future()
        if isinstance(result, Exception):
            future.set_exception(result)
        else:
            future.set_result(result)
        return future

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
        return self.query_many([request])[0]

    def query(self, request: QueryRequest) -> QueryResponse:
        """Serve one request synchronously.

        Parameters
        ----------
        request:
            The request to serve.

        Returns
        -------
        QueryResponse
            The answer with exact noise std and confidence interval.
        """
        return self.query_many([request])[0]

    def query_many(self, requests) -> list:
        """Serve many requests in one grouped pass (:meth:`answer_requests`).

        Parameters
        ----------
        requests:
            Iterable of :class:`QueryRequest` and
            :class:`QueryBatchRequest`.

        Returns
        -------
        list
            Responses aligned with ``requests``; the first failing
            request's error is raised.
        """
        results = self.answer_requests(requests)
        for result in results:
            if isinstance(result, Exception):
                raise result
        return results

    # ------------------------------------------------------------------
    # Stats / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServerStats:
        """A consistent-enough snapshot of the serving counters.

        Returns
        -------
        ServerStats
            Aggregated over every engine cached now; latency
            percentiles cover the sliding window only.
        """
        with self._engines_lock:
            engines = len(self._engines) + len(self._window_engines)
        with self._counters_lock:
            requests, errors = self._requests, self._errors
            batches, columnar_rows = self._batches, self._columnar_rows
        p50, p99 = self._latency.percentiles()
        return ServerStats(
            releases=self.names,
            engines_built=engines,
            requests=requests,
            errors=errors,
            batches=batches,
            profile_cache_hits=0,
            profile_cache_misses=0,
            plan_cache_hits=self._plan_cache.hits,
            plan_cache_misses=self._plan_cache.misses,
            plan_cache_hit_rate=self._plan_cache.hit_rate,
            plan_cache_evictions=self._plan_cache.evictions,
            columnar_rows=columnar_rows,
            planner_deduped_rows=0,
            p50_latency_seconds=p50,
            p99_latency_seconds=p99,
        )

    def latency_samples(self) -> list:
        """The current latency window's raw samples (seconds).

        The network front-end ships these across the worker pipe so
        :func:`~repro.serving.stats.merge_worker_stats` can compute
        fleet-wide percentiles from pooled samples instead of averaging
        per-worker percentiles.
        """
        return self._latency.samples()

    def close(self) -> None:
        """Mark the server closed: later calls raise ``closed``.

        Idempotent.  A pass already running on another thread finishes.
        """
        self._closed = True

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
    # The grouped pass
    # ------------------------------------------------------------------
    def _answer_scalar_group(
        self, requests, results, release_name, confidence, time_range, indexes
    ) -> None:
        """Answer one scalar group with one ``answer_all_with_intervals``."""
        try:
            engine = self.engine(release_name, time_range)
        except Exception as exc:  # noqa: BLE001 - becomes per-request error
            for index in indexes:
                results[index] = exc
            return
        queries, valid = [], []
        for index in indexes:
            try:
                queries.append(requests[index].to_query(engine.schema))
                valid.append(index)
            except Exception as exc:  # noqa: BLE001
                results[index] = exc
        if not valid:
            return
        try:
            batch = engine.answer_all_with_intervals(queries, confidence)
        except Exception as exc:  # noqa: BLE001
            for index in valid:
                results[index] = exc
            return
        for position, index in enumerate(valid):
            answer = batch[position]
            results[index] = QueryResponse(
                release=release_name,
                estimate=answer.estimate,
                noise_std=answer.noise_std,
                lower=answer.lower,
                upper=answer.upper,
                confidence=answer.confidence,
                request_id=requests[index].request_id,
            )

    def _answer_columnar_group(
        self, requests, results, plan_key, confidence, indexes
    ) -> None:
        """Answer one columnar plan group: bind, concatenate, one engine call.

        A lone item passes its bound views through untouched.
        """
        try:
            plan = self._plan_cache.plan(plan_key)
        except Exception as exc:  # noqa: BLE001 - becomes per-request error
            for index in indexes:
                results[index] = exc
            return
        bound, valid = [], []
        for index in indexes:
            try:
                bound.append(plan.bind(requests[index]))
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
            request = requests[index]
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

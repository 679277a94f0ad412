"""Multi-process TCP front-end over shared-memory releases.

This is the serving layer's answer to "millions of users": the JSONL
``serve`` loop is one process under one GIL, while a
:class:`NetworkServer` is a **fleet** —

* an asyncio TCP acceptor (newline-delimited JSON frames, the exact
  wire types of the JSONL loop including ``op=query_batch``) running on
  a background event-loop thread;
* ``N`` worker processes, each holding its own
  :class:`~repro.serving.server.ReleaseServer` (engines, plan cache,
  micro-batcher) whose release tensors are mapped
  **zero-copy** from shared-memory segments the parent published once
  (see :mod:`repro.serving.shm`) — no tensor ever crosses a pipe;
* per-worker duplex pipes carrying only small JSON-able dicts:
  requests go out with a token, responses come back by token, and a
  reader thread per worker resolves the matching asyncio future.

Failure modes are part of the contract, not an afterthought:

* a worker that dies (crash, OOM-kill, SIGKILL) fails its in-flight
  requests with a structured ``worker-lost`` :class:`ErrorResponse` —
  never a hang, never a traceback on the wire — and is respawned;
* a client that sends a malformed, truncated, or oversized frame has
  *its* connection closed; every other connection is untouched;
* a client that disconnects mid-batch abandons its responses, but the
  worker slots its requests held are released the moment the answers
  arrive, so back-pressure cannot leak;
* ``close(drain=True)`` (the SIGTERM path) stops accepting and reading,
  flushes every response already owed, then stops the workers and
  unlinks the shared segments.

Back-pressure is explicit: each worker accepts at most
``max_pending_per_worker`` outstanding requests; when every worker is
full the acceptor simply stops reading frames, so the kernel's TCP
receive window pushes back on the clients.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import os
import queue as _queue_module
import signal
import threading

from repro.errors import ServingError
from repro.io import load_result
from repro.serving.registry import ReleaseRegistry
from repro.serving.requests import ErrorResponse, QueryBatchRequest, QueryRequest
from repro.serving.server import ReleaseServer
from repro.serving.shm import (
    DEFAULT_PREFIX,
    attach_result_from_shm,
    publish_result_to_shm,
    sweep_stale_segments,
)
from repro.serving.stats import LatencyRecorder, merge_worker_stats

__all__ = ["NetworkServer"]

#: Messages the worker coalesces per pipe read (keeps the per-message
#: overhead amortized without starving control traffic).
_WORKER_COALESCE = 64


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_attach(manifests: dict):
    """Attach every published release; returns (registry, attachments)."""
    registry = ReleaseRegistry()
    attachments: dict = {}
    for name in sorted(manifests):
        attachment = attach_result_from_shm(manifests[name])
        attachments[name] = attachment
        registry.register(name, attachment.result)
    return registry, attachments


def _worker_answer(server: ReleaseServer, payload):
    """Start answering one wire payload; a Future or an error dict."""
    request_id = payload.get("id") if isinstance(payload, dict) else None
    try:
        op = payload.get("op", "query") if isinstance(payload, dict) else "query"
        if op == "query_batch":
            request = QueryBatchRequest.from_dict(payload)
        else:
            request = QueryRequest.from_dict(payload)
        return request_id, server.submit(request)
    except Exception as exc:  # noqa: BLE001 - wire gets structured errors
        return request_id, ErrorResponse.from_exception(exc, request_id).to_dict()


def _worker_main(conn, manifests: dict, options: dict) -> None:
    """The worker process body: attach, serve the pipe, exit on stop.

    Parameters
    ----------
    conn:
        The child end of the worker's duplex pipe.
    manifests:
        ``name -> shm manifest`` for every published release.
    options:
        :class:`~repro.serving.server.ReleaseServer` keyword arguments
        (``max_batch``, ``max_linger_seconds``).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        registry, attachments = _worker_attach(manifests)
        server = ReleaseServer(registry, watch_streams=False, **options)
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        try:
            conn.send({"kind": "failed", "error": f"{type(exc).__name__}: {exc}"})
        except OSError:
            pass
        return
    try:
        conn.send({"kind": "ready", "pid": os.getpid()})
    except OSError:
        server.close()
        return
    running = True
    try:
        while running:
            try:
                batch = [conn.recv()]
                while len(batch) < _WORKER_COALESCE and conn.poll(0):
                    batch.append(conn.recv())
            except (EOFError, OSError):
                break
            replies = []
            for message in batch:
                kind = message.get("kind")
                token = message.get("token")
                if kind == "stop":
                    running = False
                elif kind == "request":
                    request_id, item = _worker_answer(server, message["payload"])
                    replies.append((token, request_id, item))
                elif kind == "stats":
                    snapshot = dataclasses.asdict(server.stats())
                    snapshot["latency_samples"] = server.latency_samples()
                    snapshot["pid"] = os.getpid()
                    replies.append((token, None, {"stats": snapshot}))
                elif kind == "refresh":
                    name = message["name"]
                    try:
                        attachment = attach_result_from_shm(message["manifest"])
                        if name in registry:
                            server.replace(name, attachment.result)
                        else:
                            server.register(name, attachment.result)
                        attachments[name] = attachment
                        replies.append((token, None, {"ok": True}))
                    except Exception as exc:  # noqa: BLE001
                        replies.append(
                            (token, None, {"ok": False, "error": str(exc)})
                        )
            # All requests were submitted above, so the micro-batcher
            # coalesces the whole pipe batch; now resolve in order.
            for token, request_id, item in replies:
                if hasattr(item, "result"):
                    try:
                        response = item.result().to_dict()
                    except Exception as exc:  # noqa: BLE001
                        response = ErrorResponse.from_exception(
                            exc, request_id
                        ).to_dict()
                else:
                    response = item
                try:
                    conn.send({"token": token, "response": response})
                except (BrokenPipeError, OSError):
                    running = False
                    break
    finally:
        server.close()
        conn.close()


# ----------------------------------------------------------------------
# Parent-side worker handle
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side handle on one worker process (loop-thread state)."""

    __slots__ = (
        "slot",
        "process",
        "conn",
        "pid",
        "alive",
        "pending",
        "semaphore",
        "send_queue",
        "sender_thread",
        "reader_thread",
    )

    def __init__(self, slot: int, process, conn, pid: int, max_pending: int):
        self.slot = slot
        self.process = process
        self.conn = conn
        self.pid = pid
        self.alive = True
        self.pending: dict = {}
        self.semaphore = asyncio.Semaphore(max_pending)
        self.send_queue: _queue_module.SimpleQueue = _queue_module.SimpleQueue()
        self.sender_thread = None
        self.reader_thread = None


class NetworkServer:
    """A TCP serving fleet: asyncio front door, N shared-memory workers.

    Register releases (archives or in-process results) **before**
    :meth:`start`; starting publishes every release's arrays to shared
    memory once, spawns the workers (which attach read-only), and binds
    the listening socket.  The server then answers the same
    newline-delimited JSON protocol as ``python -m repro serve`` —
    ``query`` / ``query_batch`` / ``stats`` / ``list`` — with per-fleet
    ``stats`` aggregation (counters summed across workers, percentiles
    pooled; see :func:`~repro.serving.stats.merge_worker_stats`).

    Parameters
    ----------
    host:
        Interface to bind.
    port:
        Port to bind (``0`` picks a free one; :meth:`start` returns the
        resolved address).
    workers:
        Worker processes to run.
    max_batch, max_linger_seconds:
        Forwarded to each worker's per-process
        :class:`~repro.serving.server.ReleaseServer`.
    max_pending_per_worker:
        Outstanding requests allowed per worker before the acceptor
        stops reading frames (back-pressure bound).
    max_frame_bytes:
        Longest accepted request line; an oversized frame closes the
        offending connection with a structured error.
    start_method:
        ``multiprocessing`` start method; default prefers
        ``forkserver`` (fast, thread-safe respawns) and falls back to
        ``spawn``.
    watch_streams:
        When True, a background task stat-probes stream-backed archives
        and republishes their segments when the publisher appends an
        epoch — workers re-attach without dropping a single query.
    stream_poll_seconds:
        The stat-probe interval for ``watch_streams``.
    shm_prefix:
        Segment-name prefix (also what the startup stale sweep scans).
    drain_timeout:
        Longest :meth:`close` waits for owed responses to flush.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        max_batch: int = 256,
        max_linger_seconds: float = 0.002,
        max_pending_per_worker: int = 64,
        max_frame_bytes: int = 1 << 20,
        start_method: str | None = None,
        watch_streams: bool = True,
        stream_poll_seconds: float = 0.25,
        shm_prefix: str = DEFAULT_PREFIX,
        drain_timeout: float = 10.0,
    ):
        if workers < 1:
            raise ServingError(f"need at least one worker, got {workers}")
        self._host = host
        self._port = int(port)
        self._num_workers = int(workers)
        self._worker_options = {
            "max_batch": int(max_batch),
            "max_linger_seconds": float(max_linger_seconds),
        }
        self._max_pending = int(max_pending_per_worker)
        self._max_frame_bytes = int(max_frame_bytes)
        self._start_method = start_method
        self._watch_streams = bool(watch_streams)
        self._stream_poll_seconds = float(stream_poll_seconds)
        self._shm_prefix = str(shm_prefix)
        self._drain_timeout = float(drain_timeout)
        # Pre-start registrations: ("archive", name, path) / ("memory", name, result)
        self._sources: list = []
        self._names: set = set()
        # Populated by start().
        self._publications: dict = {}
        self._manifests: dict = {}
        self._describe: dict = {}
        self._archive_paths: dict = {}
        self._archive_stats: dict = {}
        self._context = None
        self._workers: list = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._tcp_server = None
        self._address: tuple | None = None
        self._connections: set = set()
        self._respawn_queue: asyncio.Queue | None = None
        self._respawn_task = None
        self._watch_task = None
        self._worker_available: asyncio.Event | None = None
        self._next_token = 0
        self._closing = False
        self._closed = False
        self._started = False
        self._latency = LatencyRecorder()
        self._frames = 0
        self._responses = 0
        self._connections_total = 0
        self._respawns = 0

    # ------------------------------------------------------------------
    # Registration (pre-start)
    # ------------------------------------------------------------------
    def register(self, name: str, result) -> str:
        """Register an in-process result to publish at :meth:`start`.

        Parameters
        ----------
        name:
            Unique release name requests will address.
        result:
            The :class:`~repro.core.framework.PublishResult` to serve.

        Returns
        -------
        str
            The registered name.
        """
        self._check_new_name(name)
        self._sources.append(("memory", name, result))
        return name

    def register_archive(self, path, *, name: str | None = None) -> str:
        """Register an archive to publish at :meth:`start`.

        Parameters
        ----------
        path:
            A ``.npz`` archive written by :func:`repro.io.save_result`.
        name:
            Release name; defaults to the file stem.

        Returns
        -------
        str
            The registered name.
        """
        path = os.path.abspath(os.fspath(path))
        if name is None:
            name = os.path.splitext(os.path.basename(path))[0]
        self._check_new_name(name)
        self._sources.append(("archive", name, path))
        return name

    def _check_new_name(self, name: str) -> None:
        if self._started:
            raise ServingError("register releases before start()")
        if not isinstance(name, str) or not name:
            raise ServingError(
                f"release name must be a non-empty string, got {name!r}"
            )
        if name in self._names:
            raise ServingError(f"release {name!r} is already registered")
        self._names.add(name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple | None:
        """The bound ``(host, port)`` once started."""
        return self._address

    @property
    def names(self) -> tuple:
        """Registered release names, sorted."""
        return tuple(sorted(self._names))

    @property
    def worker_pids(self) -> tuple:
        """Pids of the currently live workers."""
        return tuple(w.pid for w in self._workers if w is not None and w.alive)

    @property
    def workers_alive(self) -> int:
        """How many workers are currently live."""
        return len(self.worker_pids)

    @property
    def respawns(self) -> int:
        """Workers respawned after dying (0 in a healthy fleet)."""
        return self._respawns

    def start(self) -> tuple:
        """Publish, spawn the workers, bind the socket.

        Returns
        -------
        tuple
            The resolved ``(host, port)`` the fleet is listening on.
        """
        if self._started:
            raise ServingError("server already started")
        if not self._sources:
            raise ServingError("no releases registered")
        self._started = True
        sweep_stale_segments(prefix=self._shm_prefix)
        try:
            self._publish_all()
            self._context = self._make_context()
            self._workers = [
                self._spawn_worker(slot) for slot in range(self._num_workers)
            ]
            self._start_loop()
            for worker in self._workers:
                self._activate(worker)
        except BaseException:
            self._closing = True
            self._teardown_processes()
            self._teardown_loop()
            self._teardown_shm()
            raise
        return self._address

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Shut the fleet down (idempotent).

        Parameters
        ----------
        drain:
            When True (the SIGTERM path), stop accepting and reading,
            then flush every response already owed to connected clients
            before the workers stop.  When False, abandon them.
        timeout:
            Overrides the construction-time ``drain_timeout``.
        """
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        self._closing = True
        budget = self._drain_timeout if timeout is None else float(timeout)
        if self._loop is not None and self._loop.is_running():
            try:
                asyncio.run_coroutine_threadsafe(
                    self._aclose(drain), self._loop
                ).result(timeout=budget + 5.0)
            except Exception:  # noqa: BLE001 - close must not raise
                pass
        self._teardown_processes()
        self._teardown_loop()
        self._teardown_shm()

    def __enter__(self) -> "NetworkServer":
        """Context-manager entry: starts the fleet, returns self."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: drains and closes the fleet."""
        self.close()

    def __repr__(self) -> str:
        state = (
            f"listening on {self._address}" if self._address else "not started"
        )
        return (
            f"NetworkServer(releases={list(self.names)}, "
            f"workers={self._num_workers}, {state})"
        )

    # ------------------------------------------------------------------
    # Stats / refresh (public, any thread)
    # ------------------------------------------------------------------
    def stats(self, *, timeout: float = 10.0) -> dict:
        """Fleet-wide stats: per-worker snapshots merged + front-end counters.

        Parameters
        ----------
        timeout:
            Seconds to wait for every worker's snapshot.

        Returns
        -------
        dict
            The merged :func:`~repro.serving.stats.merge_worker_stats`
            view plus a ``frontend`` section (connections, frames,
            respawns, acceptor-side latency percentiles).
        """
        self._require_running()
        return asyncio.run_coroutine_threadsafe(
            self._collect_stats(), self._loop
        ).result(timeout=timeout)

    def refresh(self, name: str, result=None, *, timeout: float = 60.0) -> None:
        """Republished segments for ``name``; workers re-attach live.

        Queries keep flowing throughout: old segments stay mapped until
        every worker has acknowledged the new manifest, then the parent
        unlinks them (existing mappings remain valid to the last
        in-flight engine).

        Parameters
        ----------
        name:
            A registered release name.
        result:
            Replacement result for an in-memory registration; archive
            registrations reload their file when this is ``None``.
        timeout:
            Seconds to wait for reload + republish + worker acks.
        """
        self._require_running()
        asyncio.run_coroutine_threadsafe(
            self._refresh(name, result), self._loop
        ).result(timeout=timeout)

    def _require_running(self) -> None:
        if not self._started or self._closed or self._loop is None:
            raise ServingError("server is not running", code="closed")

    # ------------------------------------------------------------------
    # Start internals (main thread)
    # ------------------------------------------------------------------
    def _publish_all(self) -> None:
        for kind, name, source in self._sources:
            if kind == "archive":
                result = load_result(source)
                self._archive_paths[name] = source
                self._archive_stats[name] = self._stat_of(source)
            else:
                result = source
            publication = publish_result_to_shm(result, prefix=self._shm_prefix)
            self._publications[name] = publication
            self._manifests[name] = publication.manifest
            self._describe[name] = {
                "name": name,
                "source": source if kind == "archive" else "memory",
                "loaded": True,
                "epsilon": result.epsilon,
                "representation": result.representation,
                "shape": list(result.release.schema.shape),
            }

    @staticmethod
    def _stat_of(path) -> tuple | None:
        try:
            stat = os.stat(path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _make_context(self):
        if self._start_method is not None:
            return multiprocessing.get_context(self._start_method)
        try:
            context = multiprocessing.get_context("forkserver")
            # Preloading the serving stack makes every later fork of the
            # forkserver (i.e. every respawn) skip the import cost.
            context.set_forkserver_preload(["repro.serving.network"])
            return context
        except ValueError:  # pragma: no cover - non-POSIX fallback
            return multiprocessing.get_context("spawn")

    def _spawn_worker(self, slot: int) -> _Worker:
        """Start one worker process and wait for its ready handshake."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self._manifests, self._worker_options),
            name=f"repro-net-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(60.0):
                raise ServingError(f"worker {slot} did not come up in 60s")
            greeting = parent_conn.recv()
        except (EOFError, OSError) as exc:
            parent_conn.close()
            process.join(timeout=1.0)
            raise ServingError(f"worker {slot} died during startup") from exc
        if greeting.get("kind") != "ready":
            parent_conn.close()
            process.join(timeout=1.0)
            raise ServingError(
                f"worker {slot} failed to attach: "
                f"{greeting.get('error', greeting)!r}"
            )
        return _Worker(slot, process, parent_conn, greeting["pid"], self._max_pending)

    def _activate(self, worker: _Worker) -> None:
        """Start the worker's sender/reader threads (loop must exist)."""
        worker.sender_thread = threading.Thread(
            target=self._sender_body,
            args=(worker,),
            name=f"repro-net-sender-{worker.slot}",
            daemon=True,
        )
        worker.reader_thread = threading.Thread(
            target=self._reader_body,
            args=(worker,),
            name=f"repro-net-reader-{worker.slot}",
            daemon=True,
        )
        worker.sender_thread.start()
        worker.reader_thread.start()

    def _start_loop(self) -> None:
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()
        failure: list = []

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._tcp_server = self._loop.run_until_complete(
                    asyncio.start_server(
                        self._handle_connection,
                        self._host,
                        self._port,
                        limit=self._max_frame_bytes,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - surfaced to start()
                failure.append(exc)
                ready.set()
                return
            socket_name = self._tcp_server.sockets[0].getsockname()
            self._address = (socket_name[0], socket_name[1])
            self._respawn_queue = asyncio.Queue()
            self._worker_available = asyncio.Event()
            self._worker_available.set()
            self._respawn_task = self._loop.create_task(self._respawn_loop())
            if self._watch_streams and any(
                self._describe[n]["representation"] == "stream"
                for n in self._archive_paths
            ):
                self._watch_task = self._loop.create_task(self._watch_loop())
            ready.set()
            try:
                self._loop.run_forever()
            finally:
                tasks = asyncio.all_tasks(self._loop)
                for task in tasks:
                    task.cancel()
                if tasks:
                    self._loop.run_until_complete(
                        asyncio.gather(*tasks, return_exceptions=True)
                    )
                self._loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-net-loop", daemon=True
        )
        self._thread.start()
        ready.wait(timeout=30.0)
        if failure:
            raise ServingError(f"could not bind {self._host}:{self._port}: {failure[0]}")
        if self._address is None:
            raise ServingError("event loop failed to start")

    # ------------------------------------------------------------------
    # Worker pipe threads
    # ------------------------------------------------------------------
    def _sender_body(self, worker: _Worker) -> None:
        while True:
            message = worker.send_queue.get()
            if message is None:
                return
            try:
                worker.conn.send(message)
            except (BrokenPipeError, OSError):
                return

    def _reader_body(self, worker: _Worker) -> None:
        while True:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                break
            # Delivery hops to the loop thread so all worker state
            # (pending maps, semaphores) is single-threaded there.
            self._call_on_loop(self._deliver, worker, message)
        self._call_on_loop(self._worker_lost, worker)

    def _call_on_loop(self, fn, *args) -> None:
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:  # loop already closed during shutdown
            pass

    # ------------------------------------------------------------------
    # Loop-thread worker state
    # ------------------------------------------------------------------
    def _deliver(self, worker: _Worker, message: dict) -> None:
        entry = worker.pending.pop(message.get("token"), None)
        if entry is None:
            return
        future, _ = entry
        if not future.done():
            future.set_result(message.get("response"))

    def _worker_lost(self, worker: _Worker) -> None:
        if not worker.alive:
            return
        worker.alive = False
        pending, worker.pending = worker.pending, {}
        for future, request_id in pending.values():
            if not future.done():
                future.set_result(
                    ErrorResponse(
                        "worker-lost",
                        f"worker pid {worker.pid} died mid-request; "
                        "it is being respawned",
                        request_id,
                    ).to_dict()
                )
        if not self._closing and self._respawn_queue is not None:
            if not any(w is not None and w.alive for w in self._workers):
                self._worker_available.clear()
            self._respawn_queue.put_nowait(worker.slot)

    async def _respawn_loop(self) -> None:
        while True:
            slot = await self._respawn_queue.get()
            if self._closing:
                continue
            old = self._workers[slot]
            if old is not None:
                await self._loop.run_in_executor(None, self._reap, old)
            failures = 0
            while not self._closing:
                try:
                    worker = await self._loop.run_in_executor(
                        None, self._spawn_worker, slot
                    )
                except ServingError:
                    failures += 1
                    if failures >= 5:
                        self._workers[slot] = None
                        break
                    await asyncio.sleep(0.2 * failures)
                    continue
                self._activate(worker)
                self._workers[slot] = worker
                self._respawns += 1
                self._worker_available.set()
                break

    def _reap(self, worker: _Worker) -> None:
        worker.send_queue.put(None)
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.kill()
            worker.process.join(timeout=1.0)
        try:
            worker.conn.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Dispatch (loop thread)
    # ------------------------------------------------------------------
    async def _dispatch(self, payload, request_id):
        """Assign one wire payload to the least-loaded live worker.

        Returns the asyncio future its response will resolve; raises
        ``unavailable`` only if no worker comes back within 10s.
        """
        deadline = self._loop.time() + 10.0
        while True:
            alive = [w for w in self._workers if w is not None and w.alive]
            if alive:
                worker = min(alive, key=lambda w: len(w.pending))
                await worker.semaphore.acquire()
                if worker.alive:
                    break
                worker.semaphore.release()
                continue
            remaining = deadline - self._loop.time()
            if remaining <= 0 or self._closing:
                raise ServingError(
                    "no live worker available", code="unavailable"
                )
            try:
                await asyncio.wait_for(
                    self._worker_available.wait(), timeout=remaining
                )
            except asyncio.TimeoutError:
                raise ServingError(
                    "no live worker available", code="unavailable"
                ) from None
        token = self._next_token
        self._next_token += 1
        future = self._loop.create_future()
        worker.pending[token] = (future, request_id)
        start = self._loop.time()

        def on_done(_f, worker=worker, start=start):
            worker.semaphore.release()
            self._latency.record_latency(self._loop.time() - start)

        future.add_done_callback(on_done)
        worker.send_queue.put(
            {"kind": "request", "token": token, "payload": payload}
        )
        return future

    async def _control(self, worker: _Worker, message: dict, timeout: float = 10.0):
        """Send one control message; await the worker's reply dict."""
        token = self._next_token
        self._next_token += 1
        future = self._loop.create_future()
        worker.pending[token] = (future, None)
        worker.send_queue.put(dict(message, token=token))
        return await asyncio.wait_for(future, timeout=timeout)

    # ------------------------------------------------------------------
    # Connection handling (loop thread)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        if self._closing:
            writer.close()
            return
        conn = _Connection()
        self._connections.add(conn)
        self._connections_total += 1
        try:
            conn.reader_task = asyncio.ensure_future(
                self._read_frames(reader, conn)
            )
            conn.writer_task = asyncio.ensure_future(
                self._write_frames(writer, conn)
            )
            await asyncio.gather(
                conn.reader_task, conn.writer_task, return_exceptions=True
            )
        finally:
            self._connections.discard(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_frames(self, reader, conn) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Oversized frame: answer once, close this connection.
                    conn.queue.put_nowait(
                        ErrorResponse(
                            "bad-request",
                            f"frame exceeds {self._max_frame_bytes} bytes",
                        ).to_dict()
                    )
                    return
                if not line:
                    return  # clean EOF
                if not line.endswith(b"\n"):
                    return  # truncated final frame: drop it, close
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    conn.queue.put_nowait(
                        ErrorResponse(
                            "bad-request", f"malformed JSON request: {exc}"
                        ).to_dict()
                    )
                    return  # malformed frame: close only this connection
                self._frames += 1
                await self._route(payload, conn)
        except (ConnectionError, OSError):
            return
        finally:
            conn.queue.put_nowait(None)

    async def _route(self, payload, conn) -> None:
        request_id = payload.get("id") if isinstance(payload, dict) else None
        op = payload.get("op", "query") if isinstance(payload, dict) else "query"
        if op == "stats":
            conn.queue.put_nowait(
                asyncio.ensure_future(self._stats_response(request_id))
            )
        elif op == "list":
            conn.queue.put_nowait(
                {
                    "ok": True,
                    "id": request_id,
                    "releases": [
                        dict(self._describe[name]) for name in sorted(self._describe)
                    ],
                }
            )
        elif op not in ("query", "query_batch"):
            conn.queue.put_nowait(
                ErrorResponse(
                    "bad-request", f"unknown op {op!r}", request_id
                ).to_dict()
            )
        else:
            try:
                future = await self._dispatch(payload, request_id)
            except ServingError as exc:
                conn.queue.put_nowait(
                    ErrorResponse.from_exception(exc, request_id).to_dict()
                )
            else:
                conn.queue.put_nowait(future)

    async def _write_frames(self, writer, conn) -> None:
        while True:
            item = await conn.queue.get()
            if item is None:
                return
            if asyncio.isfuture(item):
                payload = await item
            else:
                payload = item
            try:
                writer.write(json.dumps(payload).encode("utf-8") + b"\n")
                await writer.drain()
            except (ConnectionError, OSError):
                # Client went away mid-batch: stop reading its frames.
                # In-flight futures still resolve in their workers and
                # release their back-pressure slots via done-callbacks.
                if conn.reader_task is not None:
                    conn.reader_task.cancel()
                return
            self._responses += 1

    async def _stats_response(self, request_id) -> dict:
        try:
            return {
                "ok": True,
                "id": request_id,
                "stats": await self._collect_stats(),
            }
        except Exception as exc:  # noqa: BLE001 - wire gets structured errors
            return ErrorResponse.from_exception(exc, request_id).to_dict()

    async def _collect_stats(self) -> dict:
        alive = [w for w in self._workers if w is not None and w.alive]
        replies = await asyncio.gather(
            *(self._control(w, {"kind": "stats"}) for w in alive),
            return_exceptions=True,
        )
        snapshots = [
            r["stats"]
            for r in replies
            if isinstance(r, dict) and "stats" in r
        ]
        merged = merge_worker_stats(snapshots)
        p50, p99 = self._latency.percentiles()
        merged["frontend"] = {
            "connections_open": len(self._connections),
            "connections_total": self._connections_total,
            "frames": self._frames,
            "responses": self._responses,
            "workers_alive": len(alive),
            "worker_respawns": self._respawns,
            "p50_latency_seconds": p50,
            "p99_latency_seconds": p99,
        }
        return merged

    # ------------------------------------------------------------------
    # Refresh / stream watching (loop thread)
    # ------------------------------------------------------------------
    async def _refresh(self, name: str, result=None) -> None:
        if name not in self._manifests:
            raise ServingError(
                f"unknown release {name!r}", code="unknown-release"
            )
        if result is None:
            path = self._archive_paths.get(name)
            if path is None:
                raise ServingError(
                    f"release {name!r} is in-memory; pass the replacement "
                    "result to refresh()"
                )
            self._archive_stats[name] = self._stat_of(path)
            result = await self._loop.run_in_executor(None, load_result, path)
        publication = await self._loop.run_in_executor(
            None, lambda: publish_result_to_shm(result, prefix=self._shm_prefix)
        )
        old = self._publications[name]
        self._publications[name] = publication
        self._manifests[name] = publication.manifest
        self._describe[name].update(
            epsilon=result.epsilon,
            representation=result.representation,
            shape=list(result.release.schema.shape),
        )
        alive = [w for w in self._workers if w is not None and w.alive]
        acks = await asyncio.gather(
            *(
                self._control(
                    w,
                    {
                        "kind": "refresh",
                        "name": name,
                        "manifest": publication.manifest,
                    },
                    timeout=30.0,
                )
                for w in alive
            ),
            return_exceptions=True,
        )
        # Old segments: names go away now; mappings workers still hold
        # (engines mid-request) stay valid until they drop them.
        old.close()
        old.unlink()
        problems = [
            ack
            for ack in acks
            if not (isinstance(ack, dict) and ack.get("ok"))
        ]
        if problems:
            raise ServingError(
                f"refresh of {name!r} failed on {len(problems)} worker(s): "
                f"{problems[0]!r}"
            )

    async def _watch_loop(self) -> None:
        while True:
            await asyncio.sleep(self._stream_poll_seconds)
            if self._closing:
                return
            for name, path in list(self._archive_paths.items()):
                if self._describe[name]["representation"] != "stream":
                    continue
                stat = self._stat_of(path)
                if stat is None or stat == self._archive_stats.get(name):
                    continue
                try:
                    await self._refresh(name)
                except Exception:  # noqa: BLE001 - retried next poll
                    pass

    # ------------------------------------------------------------------
    # Shutdown internals
    # ------------------------------------------------------------------
    async def _aclose(self, drain: bool) -> None:
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        for task in (self._respawn_task, self._watch_task):
            if task is not None:
                task.cancel()
        connections = list(self._connections)
        for conn in connections:
            if conn.reader_task is not None:
                conn.reader_task.cancel()
        writers = [
            conn.writer_task
            for conn in connections
            if conn.writer_task is not None
        ]
        if drain and writers:
            # Every frame already read gets its response written before
            # the workers go away.
            await asyncio.wait(writers, timeout=self._drain_timeout)
        else:
            for task in writers:
                task.cancel()

    def _teardown_processes(self) -> None:
        for worker in self._workers:
            if worker is None:
                continue
            worker.send_queue.put({"kind": "stop"})
            worker.send_queue.put(None)
        for worker in self._workers:
            if worker is None:
                continue
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []

    def _teardown_loop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._thread = None

    def _teardown_shm(self) -> None:
        for publication in self._publications.values():
            publication.close()
            publication.unlink()
        self._publications = {}


class _Connection:
    """Per-connection loop-thread state: ordered response queue + tasks."""

    __slots__ = ("queue", "reader_task", "writer_task")

    def __init__(self):
        self.queue: asyncio.Queue = asyncio.Queue()
        self.reader_task = None
        self.writer_task = None

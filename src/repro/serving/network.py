"""Multi-process TCP front-end over shared-memory releases.

This is the serving layer's answer to "millions of users": the JSONL
``serve`` loop is one process under one GIL, while a
:class:`NetworkServer` is a **fleet** —

* an asyncio TCP acceptor (newline-delimited JSON frames, the exact
  wire types of the JSONL loop including ``op=query_batch``) running on
  a background event-loop thread.  It decodes each frame once, only to
  route it: ``stats`` and ``list`` it answers itself, and every query
  line goes on to a worker as the raw bytes the client sent;
* ``N`` worker processes, each holding its own
  :class:`~repro.serving.server.ReleaseServer` (engines, plan cache)
  whose release tensors are mapped
  **zero-copy** from shared-memory segments the parent published once
  (see :mod:`repro.serving.shm`) — no tensor ever crosses a pipe;
* one socketpair per worker carrying length-prefixed byte frames, read
  and written on the acceptor's event loop.  A worker reads every frame
  already waiting, answers each run of query lines in one grouped pass,
  and sends back each reply already encoded as its wire line, which the
  acceptor writes to the client verbatim.  A worker replies in the
  order its frames arrived, so the acceptor matches replies to requests
  by order alone.  Control messages (``stats``, ``refresh``) travel as
  pickled dicts behind their own tag, and a stop frame ends the worker.

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
import collections
import dataclasses
import itertools
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import threading

from repro.errors import ServingError
from repro.io import load_result
from repro.serving.registry import ReleaseRegistry
from repro.serving.requests import ErrorResponse, decode_line, encode_line
from repro.serving.server import ReleaseServer
from repro.serving.shm import (
    DEFAULT_PREFIX,
    attach_result_from_shm,
    publish_result_to_shm,
    sweep_stale_segments,
)
from repro.serving.stats import LatencyRecorder, merge_worker_stats

__all__ = ["NetworkServer"]

#: A worker-pipe frame header: body length, then a one-byte tag.
_HEADER = struct.Struct("!IB")
#: Tag of a query line on its way to a worker, and of its reply line.
_LINE = 0
#: Tag of a pickled control dict: a worker's greeting, a ``stats`` or
#: ``refresh`` message, and the worker's reply to it.
_CONTROL = 1
#: Tag of the parent's last frame: the worker exits without replying.
_STOP = 2
#: Bytes a worker asks its socket for per read.
_READ_SIZE = 1 << 18
#: The request id a control message waits under in a worker's FIFO.
_NO_REQUEST = object()


def _frame(tag: int, body: bytes) -> bytes:
    """One worker-pipe frame: header, then ``body``."""
    return _HEADER.pack(len(body), tag) + body


def _take_frames(buffer: bytearray) -> list:
    """Cut every complete ``(tag, body)`` frame off the front of ``buffer``."""
    frames, offset, size = [], 0, len(buffer)
    while size - offset >= _HEADER.size:
        length, tag = _HEADER.unpack_from(buffer, offset)
        start = offset + _HEADER.size
        if size - start < length:
            break
        frames.append((tag, buffer[start:start + length]))
        offset = start + length
    del buffer[:offset]
    return frames


def _recv_frame(sock) -> bytearray:
    """The body of the one frame a blocking ``sock`` holds; EOFError at EOF."""
    buffer, frames = bytearray(), []
    while not frames:
        chunk = sock.recv(_READ_SIZE)
        if not chunk:
            raise EOFError("the worker closed its pipe")
        buffer += chunk
        frames = _take_frames(buffer)
    return frames[0][1]


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


def _worker_main(sock, manifests: dict) -> None:
    """The worker process body: attach, answer frames until told to stop.

    Parameters
    ----------
    sock:
        The worker's end of its socketpair with the parent.
    manifests:
        ``name -> shm manifest`` for every published release.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with sock:
        try:
            registry, attachments = _worker_attach(manifests)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            failure = {"kind": "failed", "error": f"{type(exc).__name__}: {exc}"}
            try:
                sock.sendall(_frame(_CONTROL, pickle.dumps(failure)))
            except OSError:
                pass
            return
        server = ReleaseServer(registry, watch_streams=False)
        greeting = {"kind": "ready", "pid": os.getpid()}
        buffer = bytearray()
        try:
            sock.sendall(_frame(_CONTROL, pickle.dumps(greeting)))
            while True:
                chunk = sock.recv(_READ_SIZE)
                if not chunk:
                    return  # the parent closed the pipe
                buffer += chunk
                frames = _take_frames(buffer)
                if frames and frames[-1][0] == _STOP:
                    return
                replies = _answer_frames(server, attachments, frames)
                if replies:
                    sock.sendall(b"".join(replies))
        except OSError:
            return  # the parent is gone
        finally:
            server.close()


def _answer_frames(server: ReleaseServer, attachments: dict, frames: list) -> list:
    """One reply frame per frame, in order.

    Each run of query lines is decoded and answered in one
    :meth:`~repro.serving.server.ReleaseServer.answer_payloads` pass, so
    a ``stats`` reply counts every request read before it.
    """
    replies = []
    for tag, run in itertools.groupby(frames, key=lambda frame: frame[0]):
        bodies = [body for _, body in run]
        if tag == _LINE:
            lines = server.answer_payloads([decode_line(body) for body in bodies])
            replies.extend(_frame(_LINE, line) for line in lines)
            continue
        for body in bodies:
            reply = _control_reply(server, attachments, pickle.loads(body))
            replies.append(_frame(_CONTROL, pickle.dumps(reply)))
    return replies


def _control_reply(server: ReleaseServer, attachments: dict, message: dict) -> dict:
    """A worker's answer to one ``stats`` or ``refresh`` control message."""
    if message["kind"] == "stats":
        snapshot = dataclasses.asdict(server.stats())
        snapshot["latency_samples"] = server.latency_samples()
        snapshot["pid"] = os.getpid()
        return {"stats": snapshot}
    name = message["name"]
    try:
        attachment = attach_result_from_shm(message["manifest"])
        if name in server.registry:
            server.replace(name, attachment.result)
        else:
            server.register(name, attachment.result)
        attachments[name] = attachment
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        return {"ok": False, "error": str(exc)}
    return {"ok": True}


# ----------------------------------------------------------------------
# Parent-side worker handle
# ----------------------------------------------------------------------
class _Worker(asyncio.Protocol):
    """Parent-side handle on one worker process; its pipe lives on the loop.

    A worker replies in the order its frames arrived, so ``pending`` is
    a FIFO of ``(future, request_id)``: each reply frame resolves the
    oldest entry, a query's with its encoded reply line and a control
    message's with the unpickled reply dict.
    """

    def __init__(self, slot: int, process, sock, pid: int, max_pending: int, on_lost):
        self.slot = slot
        self.process = process
        self.sock = sock
        self.pid = pid
        #: Live from the moment its pipe is attached to the loop.
        self.alive = False
        self.pending: collections.deque = collections.deque()
        self.semaphore = asyncio.Semaphore(max_pending)
        self.transport = None
        self._on_lost = on_lost
        self._buffer = bytearray()

    def send(self, tag: int, body: bytes, future, request_id) -> None:
        """Queue ``future`` for the reply and write one frame."""
        self.pending.append((future, request_id))
        self.transport.write(_frame(tag, body))

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.alive = True

    def data_received(self, data) -> None:
        self._buffer += data
        for tag, body in _take_frames(self._buffer):
            future, _ = self.pending.popleft()
            if not future.done():
                future.set_result(body if tag == _LINE else pickle.loads(body))

    def connection_lost(self, exc) -> None:
        self._on_lost(self)


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
        self._refresh_lock: asyncio.Lock | None = None
        self._respawn_task = None
        self._watch_task = None
        self._worker_available: asyncio.Event | None = None
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
            for slot in range(self._num_workers):
                self._workers.append(self._spawn_worker(slot))
            self._start_loop()
        except BaseException:
            self._closing = True
            self._teardown_loop()
            self._teardown_processes()
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
        self._teardown_loop()
        self._teardown_processes()
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
        """Start one worker process and wait for its ready greeting."""
        parent_sock, child_sock = socket.socketpair()
        process = self._context.Process(
            target=_worker_main,
            args=(child_sock, self._manifests),
            name=f"repro-net-worker-{slot}",
            daemon=True,
        )
        try:
            with child_sock:
                process.start()
            parent_sock.settimeout(60.0)  # the loop makes it non-blocking
            greeting = pickle.loads(_recv_frame(parent_sock))
        except (EOFError, OSError) as exc:
            parent_sock.close()
            if process.pid is not None:
                process.kill()
                process.join(timeout=1.0)
            raise ServingError(f"worker {slot} did not come up: {exc!r}") from exc
        if greeting["kind"] != "ready" or self._closing:
            parent_sock.close()  # a ready worker exits on the EOF
            process.join(timeout=1.0)
            raise ServingError(
                f"worker {slot} failed to attach: {greeting.get('error', 'closing')}"
            )
        return _Worker(
            slot, process, parent_sock, greeting["pid"], self._max_pending,
            self._worker_lost,
        )

    def _start_loop(self) -> None:
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()
        failure: list = []

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                for worker in self._workers:
                    self._loop.run_until_complete(self._attach(worker))
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
            else:
                socket_name = self._tcp_server.sockets[0].getsockname()
                self._address = (socket_name[0], socket_name[1])
                self._respawn_queue = asyncio.Queue()
                self._refresh_lock = asyncio.Lock()
                self._worker_available = asyncio.Event()
                self._worker_available.set()
                self._respawn_task = self._loop.create_task(self._respawn_loop())
                if self._watch_streams and any(
                    self._describe[n]["representation"] == "stream"
                    for n in self._archive_paths
                ):
                    self._watch_task = self._loop.create_task(self._watch_loop())
                ready.set()
                self._loop.run_forever()
            finally:
                ready.set()
                tasks = asyncio.all_tasks(self._loop)
                for task in tasks:
                    task.cancel()
                if tasks:
                    self._loop.run_until_complete(
                        asyncio.gather(*tasks, return_exceptions=True)
                    )
                # Every worker pipe closes on its own loop, before it stops.
                self._close_pipes()
                self._loop.run_until_complete(asyncio.sleep(0))
                self._loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-net-loop", daemon=True
        )
        self._thread.start()
        ready.wait(timeout=30.0)
        if failure:
            raise ServingError(
                f"could not serve on {self._host}:{self._port}: {failure[0]}"
            )
        if self._address is None:
            raise ServingError("event loop failed to start")

    # ------------------------------------------------------------------
    # Loop-thread worker state
    # ------------------------------------------------------------------
    async def _attach(self, worker: _Worker) -> None:
        """Read and write ``worker``'s pipe on this loop from now on."""
        await self._loop.connect_accepted_socket(lambda: worker, worker.sock)

    def _close_pipes(self) -> None:
        """Stop every worker and close its pipe now, on the loop."""
        for worker in self._workers:
            transport = None if worker is None else worker.transport
            if transport is not None and not transport.is_closing():
                # The stop frame, not the EOF, ends a worker whose socket
                # a sibling forked after it still holds a copy of.
                transport.write(_frame(_STOP, b""))
                transport.abort()

    def _worker_lost(self, worker: _Worker) -> None:
        if not worker.alive:
            return
        worker.alive = False
        pending, worker.pending = worker.pending, collections.deque()
        error = f"worker pid {worker.pid} died mid-request; it is being respawned"
        for future, request_id in pending:
            if future.done():
                continue
            if request_id is _NO_REQUEST:
                future.set_exception(ServingError(error, code="worker-lost"))
            else:
                future.set_result(encode_line(
                    ErrorResponse("worker-lost", error, request_id).to_dict()
                ))
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
                self._workers[slot] = worker
                await self._attach(worker)
                self._respawns += 1
                self._worker_available.set()
                break

    @staticmethod
    def _reap(worker: _Worker) -> None:
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.kill()
            worker.process.join(timeout=1.0)

    # ------------------------------------------------------------------
    # Dispatch (loop thread)
    # ------------------------------------------------------------------
    async def _dispatch(self, line: bytes, request_id):
        """Forward one query line to the least-loaded live worker.

        Returns the asyncio future its encoded reply line will resolve;
        raises ``unavailable`` only if no worker comes back within 10s.
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
        future = self._loop.create_future()
        start = self._loop.time()

        def on_done(_f, worker=worker, start=start):
            worker.semaphore.release()
            self._latency.record_latency(self._loop.time() - start)

        future.add_done_callback(on_done)
        worker.send(_LINE, line, future, request_id)
        return future

    async def _control(self, worker: _Worker, message: dict, timeout: float = 10.0):
        """Send one control message; await the worker's reply dict."""
        future = self._loop.create_future()
        worker.send(_CONTROL, pickle.dumps(message), future, _NO_REQUEST)
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
                        encode_line(ErrorResponse(
                            "bad-request",
                            f"frame exceeds {self._max_frame_bytes} bytes",
                        ).to_dict())
                    )
                    return
                if not line:
                    return  # clean EOF
                if not line.endswith(b"\n"):
                    return  # truncated final frame: drop it, close
                if not line.strip():
                    continue
                try:
                    payload = decode_line(line)
                except ServingError as exc:
                    conn.queue.put_nowait(
                        encode_line(ErrorResponse.from_exception(exc).to_dict())
                    )
                    return  # malformed frame: close only this connection
                self._frames += 1
                await self._route(payload, line, conn)
        except (ConnectionError, OSError):
            return
        finally:
            conn.queue.put_nowait(None)

    async def _route(self, payload, line: bytes, conn) -> None:
        """Answer ``stats``, ``list`` and unknown ops; forward ``line`` else."""
        request_id = payload.get("id") if isinstance(payload, dict) else None
        op = payload.get("op", "query") if isinstance(payload, dict) else "query"
        if op == "stats":
            conn.queue.put_nowait(
                asyncio.ensure_future(self._stats_response(request_id))
            )
        elif op == "list":
            conn.queue.put_nowait(encode_line({
                "ok": True,
                "id": request_id,
                "releases": [
                    self._describe[name] for name in sorted(self._describe)
                ],
            }))
        elif op not in ("query", "query_batch"):
            conn.queue.put_nowait(encode_line(
                ErrorResponse("bad-request", f"unknown op {op!r}", request_id).to_dict()
            ))
        else:
            try:
                future = await self._dispatch(line, request_id)
            except ServingError as exc:
                conn.queue.put_nowait(encode_line(
                    ErrorResponse.from_exception(exc, request_id).to_dict()
                ))
            else:
                conn.queue.put_nowait(future)

    async def _write_frames(self, writer, conn) -> None:
        """Write each owed reply line, in request order, as it resolves."""
        while True:
            item = await conn.queue.get()
            if item is None:
                return
            line = await item if asyncio.isfuture(item) else item
            try:
                writer.write(line)
                await writer.drain()
            except (ConnectionError, OSError):
                # Client went away mid-batch: stop reading its frames.
                # In-flight futures still resolve in their workers and
                # release their back-pressure slots via done-callbacks.
                if conn.reader_task is not None:
                    conn.reader_task.cancel()
                return
            self._responses += 1

    async def _stats_response(self, request_id) -> bytes:
        try:
            reply = {"ok": True, "id": request_id, "stats": await self._collect_stats()}
        except Exception as exc:  # noqa: BLE001 - wire gets structured errors
            reply = ErrorResponse.from_exception(exc, request_id).to_dict()
        return encode_line(reply)

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
        # _aclose takes this lock before it cancels anything, so a
        # refresh in flight finishes (its old generation unlinked, its
        # new one recorded for teardown) and none starts after.
        async with self._refresh_lock:
            if self._closing:
                raise ServingError("server is closing", code="closed")
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
        async with self._refresh_lock:  # a refresh in flight finishes
            pass
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
        self._close_pipes()

    def _teardown_processes(self) -> None:
        # The loop has closed every attached pipe; this closes the rest.
        workers = [worker for worker in self._workers if worker is not None]
        for worker in workers:
            worker.sock.close()
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
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

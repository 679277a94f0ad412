"""Adaptive micro-batching: coalesce concurrent requests into one call.

The batch query engine answers 256 queries for barely more than it
answers one (one vectorized gather, one compiled variance pass), so a
server under concurrent traffic should never answer queries one at a
time.  :class:`MicroBatcher` is the piece that turns *concurrency* into
*batches*: callers submit single items and get futures; one drain thread
collects everything that arrives within a short linger window (up to
``max_batch``) and hands the whole batch to the handler at once.

The linger is **adaptive**, the same idea as NIC interrupt coalescing:
after a batch of one, the window halves (a lone client should not pay
latency for coalescing that is not happening); after any batch that
actually coalesced (two or more items) it doubles, up to
``max_linger_seconds`` — coalescing at all proves concurrent traffic is
present, and a longer window only makes the batches better.  Under a
steady load the window settles where batching pays and solo traffic
degrades to pass-through.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future

from repro.errors import ServingError
from repro.utils.validation import ensure_positive_int

__all__ = ["MicroBatcher"]

_SHUTDOWN = object()
#: Linger floor used when growing from a zero window.
_MIN_GROW_SECONDS = 1e-4


class MicroBatcher:
    """Coalesce concurrently submitted items into handler batches.

    Parameters
    ----------
    handler:
        Callable receiving a non-empty list of submitted items and
        returning an equal-length list of results.  A result that is an
        :class:`Exception` instance is set as that item's future
        exception (per-item failure isolation); a raised exception fails
        the whole batch.
    max_batch:
        Most items handed to one handler call.
    max_linger_seconds:
        Upper bound on how long the drain thread waits after the first
        item of a batch for more to arrive.
    min_linger_seconds:
        Lower bound the adaptive window can shrink to (0 = pass-through
        when traffic is solo).
    name:
        Thread name, for debuggability of multi-server processes.
    """

    def __init__(
        self,
        handler,
        *,
        max_batch: int = 256,
        max_linger_seconds: float = 0.002,
        min_linger_seconds: float = 0.0,
        name: str = "repro-microbatcher",
    ):
        self._handler = handler
        self._max_batch = ensure_positive_int(max_batch, "max_batch")
        if not 0.0 <= min_linger_seconds <= max_linger_seconds:
            raise ServingError(
                f"need 0 <= min_linger_seconds <= max_linger_seconds, got "
                f"{min_linger_seconds} and {max_linger_seconds}"
            )
        self._min_linger = float(min_linger_seconds)
        self._max_linger = float(max_linger_seconds)
        self._linger = self._max_linger
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        # Serializes submit vs close: the closed check and the enqueue
        # must be atomic, or a submit racing close could land its item
        # after the shutdown marker drains and never resolve its future.
        self._lifecycle_lock = threading.Lock()
        #: Handler invocations so far.
        self.batches = 0
        #: Weighted units drained into batches so far (a columnar item
        #: submitted with ``weight=n`` counts n).
        self.items = 0
        #: Largest weighted batch handed to the handler so far.
        self.largest_batch = 0
        self._thread = threading.Thread(
            target=self._drain_loop, name=name, daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    @property
    def linger_seconds(self) -> float:
        """The current adaptive linger window (diagnostics)."""
        return self._linger

    @property
    def mean_batch_size(self) -> float:
        """Average items per handler call so far."""
        return self.items / self.batches if self.batches else 0.0

    def submit(self, item, *, weight: int = 1) -> Future:
        """Enqueue one item; returns the future of its handler result.

        Parameters
        ----------
        item:
            Any payload the handler understands.
        weight:
            How many logical units this item counts toward
            ``max_batch`` — a columnar batch of *n* rows submits with
            ``weight=n`` so coalescing stays bounded by total rows, not
            by wire-item count.  The handler still receives the item as
            one list entry.

        Returns
        -------
        concurrent.futures.Future
            Resolves to the handler's result for this item, or raises
            the per-item / per-batch exception.
        """
        weight = ensure_positive_int(weight, "weight")
        future: Future = Future()
        with self._lifecycle_lock:
            if self._closed:
                raise ServingError("batcher is closed", code="closed")
            self._queue.put((item, future, weight))
        return future

    def close(self, *, timeout: float = 5.0) -> bool:
        """Stop the drain thread; fail still-queued items with ``closed``.

        Idempotent.  Items already handed to the handler complete
        normally; the join waits at most ``timeout`` seconds.

        Parameters
        ----------
        timeout:
            Seconds to wait for the drain thread to exit.

        Returns
        -------
        bool
            True once the drain thread has exited — every accepted
            future is resolved.  False if the join timed out (e.g. a
            handler is still running): outstanding futures may never
            resolve, so callers who block on them should check this.
        """
        with self._lifecycle_lock:
            if not self._closed:
                self._closed = True
                # Under the lock, so every accepted item precedes the
                # shutdown marker in the FIFO and gets handled or failed.
                self._queue.put(_SHUTDOWN)
        self._thread.join(timeout=timeout)
        return not self._thread.is_alive()

    def __enter__(self) -> "MicroBatcher":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: closes the batcher."""
        self.close()

    # ------------------------------------------------------------------
    def _drain_loop(self) -> None:
        shutdown = False
        while not shutdown:
            entry = self._queue.get()
            if entry is _SHUTDOWN:
                break
            batch = [entry]
            weight = entry[2]
            deadline = time.monotonic() + self._linger
            while weight < self._max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    entry = self._queue.get_nowait()
                except queue.Empty:
                    # The empty get_nowait() left the queue's lock taken,
                    # so the timed get blocks on it until a put or the
                    # deadline.  Entered with that lock free (a burst put
                    # while this thread was busy leaves it free), CPython's
                    # SimpleQueue.get can instead wait for the next put when
                    # preempted past its deadline, and the submitters
                    # waiting on this batch never put again.
                    try:
                        entry = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                if entry is _SHUTDOWN:
                    shutdown = True
                    break
                batch.append(entry)
                weight += entry[2]
            self._dispatch(batch, weight)
            self._adapt(len(batch))
        self._fail_pending()

    def _dispatch(self, batch, weight: int) -> None:
        self.batches += 1
        self.items += weight
        self.largest_batch = max(self.largest_batch, weight)
        futures = [future for _, future, _ in batch]
        try:
            results = self._handler([item for item, _, _ in batch])
            if len(results) != len(batch):
                raise ServingError(
                    f"handler returned {len(results)} results for a batch "
                    f"of {len(batch)}"
                )
        except Exception as exc:  # noqa: BLE001 - forwarded to futures
            for future in futures:
                future.set_exception(exc)
            return
        for future, result in zip(futures, results):
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)

    def _adapt(self, batch_size: int) -> None:
        # Grow on *any* coalesced batch (>= 2), not only near-full ones:
        # a quiet period ratchets the window toward zero, and medium
        # steady traffic (batches of 8-64) would otherwise never rebuild
        # it — batching collapsed exactly when it paid most.
        if batch_size <= 1:
            self._linger = max(self._min_linger, self._linger / 2.0)
        else:
            self._linger = min(
                self._max_linger, max(self._linger * 2.0, _MIN_GROW_SECONDS)
            )

    def _fail_pending(self) -> None:
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                return
            if entry is not _SHUTDOWN:
                entry[1].set_exception(
                    ServingError("batcher is closed", code="closed")
                )

"""Tests for the adaptive micro-batcher."""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ServingError
from repro.serving.batching import MicroBatcher


class TestCoalescing:
    def test_single_item_round_trip(self):
        with MicroBatcher(lambda items: [x * 2 for x in items]) as batcher:
            assert batcher.submit(21).result(timeout=5) == 42

    def test_concurrent_submits_coalesce(self):
        release = threading.Event()
        batch_sizes = []

        def handler(items):
            release.wait(5)
            batch_sizes.append(len(items))
            return items

        with MicroBatcher(handler, max_linger_seconds=0.05) as batcher:
            first = batcher.submit(0)  # occupies the drain thread
            time.sleep(0.02)
            rest = [batcher.submit(i) for i in range(1, 8)]
            release.set()
            assert first.result(timeout=5) == 0
            assert [f.result(timeout=5) for f in rest] == list(range(1, 8))
        # Everything submitted within the linger window coalesces: far
        # fewer handler calls than items, and at least one real batch.
        assert sum(batch_sizes) == 8
        assert len(batch_sizes) <= 3
        assert max(batch_sizes) > 1

    def test_max_batch_bounds_coalescing(self):
        release = threading.Event()
        batch_sizes = []

        def handler(items):
            release.wait(5)
            batch_sizes.append(len(items))
            return items

        with MicroBatcher(handler, max_batch=3, max_linger_seconds=0.05) as batcher:
            futures = [batcher.submit(i) for i in range(10)]
            release.set()
            [f.result(timeout=5) for f in futures]
        assert max(batch_sizes) <= 3


class TestFailureIsolation:
    def test_exception_result_fails_only_that_item(self):
        def handler(items):
            return [
                ServingError("odd") if item % 2 else item for item in items
            ]

        with MicroBatcher(handler) as batcher:
            good = batcher.submit(2)
            bad = batcher.submit(3)
            assert good.result(timeout=5) == 2
            with pytest.raises(ServingError, match="odd"):
                bad.result(timeout=5)

    def test_handler_raise_fails_whole_batch(self):
        def handler(items):
            raise RuntimeError("boom")

        with MicroBatcher(handler) as batcher:
            future = batcher.submit(1)
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=5)

    def test_length_mismatch_is_serving_error(self):
        with MicroBatcher(lambda items: []) as batcher:
            future = batcher.submit(1)
            with pytest.raises(ServingError, match="results"):
                future.result(timeout=5)


class TestLifecycle:
    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda items: items)
        batcher.close()
        with pytest.raises(ServingError) as excinfo:
            batcher.submit(1)
        assert excinfo.value.code == "closed"

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(lambda items: items)
        batcher.close()
        batcher.close()

    def test_counters(self):
        with MicroBatcher(lambda items: items) as batcher:
            for i in range(5):
                batcher.submit(i).result(timeout=5)
        assert batcher.items == 5
        assert batcher.batches >= 1
        assert batcher.largest_batch >= 1
        assert batcher.mean_batch_size == pytest.approx(
            batcher.items / batcher.batches
        )

    def test_rejects_bad_linger_bounds(self):
        with pytest.raises(ServingError, match="linger"):
            MicroBatcher(lambda items: items, min_linger_seconds=0.5,
                         max_linger_seconds=0.1)


class TestAdaptiveLinger:
    def test_solo_batches_shrink_the_window(self):
        batcher = MicroBatcher(
            lambda items: items, max_linger_seconds=0.008, min_linger_seconds=0.0
        )
        try:
            start = batcher.linger_seconds
            for i in range(6):
                batcher.submit(i).result(timeout=5)
            assert batcher.linger_seconds < start
        finally:
            batcher.close()

    def test_adapt_grows_on_full_batches(self):
        batcher = MicroBatcher(lambda items: items, max_batch=4,
                               max_linger_seconds=0.01)
        try:
            batcher._linger = 0.0
            batcher._adapt(4)
            assert batcher.linger_seconds > 0.0
            grown = batcher.linger_seconds
            batcher._adapt(4)
            assert batcher.linger_seconds >= grown
            batcher._adapt(1)
            assert batcher.linger_seconds < batcher._max_linger
        finally:
            batcher.close()

    def test_window_recovers_under_sustained_medium_batches(self):
        """Regression: a solo burst must not lock the window near zero.

        The old rule only grew the window on batches >= max_batch // 2
        (128 by default) yet halved it on every solo batch, so after a
        quiet period steady batches of 32 — far below 128 — could never
        rebuild it and batching collapsed exactly when it paid most.
        """
        batcher = MicroBatcher(lambda items: items, max_linger_seconds=0.002)
        try:
            # A quiet period: a long run of solo batches ratchets the
            # window down to (effectively) zero.
            for _ in range(50):
                batcher._adapt(1)
            assert batcher.linger_seconds < 1e-9
            # Sustained medium traffic: batches of 32 (default max_batch
            # is 256, so the old >= 128 rule never fired here).
            for _ in range(50):
                batcher._adapt(32)
            assert batcher.linger_seconds == batcher._max_linger
        finally:
            batcher.close()

    def test_any_coalesced_batch_grows_the_window(self):
        batcher = MicroBatcher(lambda items: items, max_linger_seconds=0.002)
        try:
            batcher._linger = 0.0
            batcher._adapt(2)
            assert batcher.linger_seconds > 0.0
        finally:
            batcher.close()


class TestCloseReporting:
    def test_close_reports_clean_exit(self):
        batcher = MicroBatcher(lambda items: items)
        batcher.submit(1).result(timeout=5)
        assert batcher.close() is True
        assert batcher.close() is True  # idempotent, still reports truth

    def test_close_reports_timed_out_join(self):
        release = threading.Event()
        started = threading.Event()

        def slow_handler(items):
            started.set()
            release.wait(timeout=10)
            return items

        batcher = MicroBatcher(slow_handler, max_linger_seconds=0.0)
        future = batcher.submit(1)
        assert started.wait(timeout=5)
        # The drain thread is stuck inside the handler: the join must
        # time out and close must say so instead of silently returning.
        assert batcher.close(timeout=0.05) is False
        release.set()
        assert batcher.close(timeout=5.0) is True
        assert future.result(timeout=5) == 1


class TestWeightedSubmit:
    def test_weight_counts_toward_max_batch(self):
        batches = []

        def handler(items):
            batches.append(list(items))
            return items

        with MicroBatcher(handler, max_batch=8, max_linger_seconds=0.05) as batcher:
            first = batcher.submit("bulk", weight=8)
            second = batcher.submit("one", weight=2)
            third = batcher.submit("more", weight=1)
            assert first.result(timeout=5) == "bulk"
            assert second.result(timeout=5) == "one"
            assert third.result(timeout=5) == "more"
        # The full-weight item saturated its batch and dispatched alone
        # without lingering; items/largest_batch count weighted units.
        assert batches[0] == ["bulk"]
        assert batcher.items == 11
        assert batcher.largest_batch == 8

    def test_rejects_nonpositive_weight(self):
        with MicroBatcher(lambda items: items) as batcher:
            with pytest.raises(ValueError):
                batcher.submit("x", weight=0)


class TestLingerWait:
    def test_bursts_under_cpu_contention_never_stall(self):
        """The linger wait returns once its deadline passes, even when the
        drain thread is preempted inside it.

        A burst submitted while the drain thread is busy is the fleet
        worker's pattern; on CPython 3.11 a ``SimpleQueue`` linger wait
        then blocked for good about once in a few thousand bursts when
        preempted, and the submitter, waiting on that batch, never put
        again.  One busy process per core, plus one, makes the preemption
        likely within the run.
        """
        hogs = [
            subprocess.Popen([sys.executable, "-c", "while True: pass"])
            for _ in range((os.cpu_count() or 1) + 1)
        ]
        batcher = MicroBatcher(lambda items: items, max_linger_seconds=1e-5)
        try:
            bursts, deadline = 0, time.monotonic() + 4.0
            while time.monotonic() < deadline:
                futures = [batcher.submit(index) for index in range(8)]
                assert [f.result(timeout=10.0) for f in futures] == list(range(8))
                bursts += 1
            assert bursts > 100
        finally:
            for hog in hogs:
                hog.kill()
                hog.wait()
            assert batcher.close()

"""Unit tests for concurrency primitives."""

import threading
import time

import pytest

from repro.concurrency.primitives import Future, FutureError, WaitQueue


class TestFuture:
    def test_result_roundtrip(self):
        future = Future()
        assert not future.done
        future.set_result(42)
        assert future.done
        assert future.result(0.1) == 42
        assert future.exception() is None

    def test_exception_propagates(self):
        future = Future()
        future.set_exception(ValueError("nope"))
        with pytest.raises(ValueError):
            future.result(0.1)
        assert isinstance(future.exception(0.1), ValueError)

    def test_double_completion_rejected(self):
        future = Future()
        future.set_result(1)
        with pytest.raises(FutureError):
            future.set_result(2)
        with pytest.raises(RuntimeError):  # FutureError is a RuntimeError
            future.set_exception(ValueError("late"))
        assert future.result(0) == 1

    def test_result_timeout(self):
        with pytest.raises(TimeoutError):
            Future().result(0.01)

    def test_blocking_get_across_threads(self):
        future = Future()

        def producer():
            time.sleep(0.05)
            future.set_result("late")

        threading.Thread(target=producer).start()
        assert future.result(5) == "late"

    def test_exception_times_out_like_result(self):
        with pytest.raises(TimeoutError):
            Future().exception(0.01)

    def test_every_blocked_waiter_wakes(self):
        # waiters share the one lazily created Event: a single
        # completion must release all of them, not just the first
        future = Future()
        seen = []
        waiters = [threading.Thread(
            target=lambda: seen.append(future.result(timeout=5.0)))
            for _ in range(4)]
        for waiter in waiters:
            waiter.start()
        time.sleep(0.05)  # let them block
        future.set_result("all")
        for waiter in waiters:
            waiter.join(timeout=5.0)
        assert not any(waiter.is_alive() for waiter in waiters)
        assert seen == ["all"] * 4

    def test_callbacks_run_in_order_and_see_the_exception(self):
        future = Future()
        seen = []
        future.add_callback(lambda f: seen.append(("first", f.exception(0))))
        future.add_callback(lambda f: seen.append(("second", f.exception(0))))
        error = ValueError("bad")
        future.set_exception(error)
        assert seen == [("first", error), ("second", error)]
        assert future._callbacks is None  # released on completion

    def test_event_created_only_for_a_waiter(self):
        # one future per parked activation: no lock and no Event of its
        # own unless a thread actually blocks in result()
        idle = Future()
        assert not hasattr(idle, "__dict__")
        idle.set_result(1)
        assert idle.result(0) == 1
        assert idle._event is None
        waited = Future()
        with pytest.raises(TimeoutError):
            waited.result(timeout=0.01)
        assert waited._event is not None
        threading.Timer(0.02, waited.set_result, args=("late",)).start()
        assert waited.result(timeout=2.0) == "late"

    def test_callback_after_completion_runs_immediately(self):
        future = Future()
        future.set_result(1)
        seen = []
        future.add_callback(lambda f: seen.append(f.result(0)))
        assert seen == [1]

    def test_callback_before_completion_runs_on_complete(self):
        future = Future()
        seen = []
        future.add_callback(lambda f: seen.append(f.result(0)))
        assert seen == []
        future.set_result(7)
        assert seen == [7]


class TestWaitQueue:
    def test_fifo(self):
        queue = WaitQueue()
        for value in (1, 2, 3):
            queue.put(value)
        assert [queue.get(0.1) for _ in range(3)] == [1, 2, 3]

    def test_get_timeout(self):
        with pytest.raises(TimeoutError):
            WaitQueue().get(timeout=0.01)

    def test_bounded_put_blocks_then_timeout(self):
        queue = WaitQueue(maxsize=1)
        queue.put("a")
        with pytest.raises(TimeoutError):
            queue.put("b", timeout=0.01)

    def test_bounded_put_unblocks_on_get(self):
        queue = WaitQueue(maxsize=1)
        queue.put("a")
        results = []

        def producer():
            queue.put("b", timeout=5)
            results.append("put")

        thread = threading.Thread(target=producer)
        thread.start()
        assert queue.get(1) == "a"
        thread.join(5)
        assert results == ["put"]
        assert queue.get(1) == "b"

    def test_close_drains_then_raises(self):
        queue = WaitQueue()
        queue.put("last")
        queue.close()
        assert queue.closed
        assert queue.get(0.1) == "last"
        with pytest.raises(WaitQueue.Closed):
            queue.get(0.1)

    def test_put_after_close_rejected(self):
        queue = WaitQueue()
        queue.close()
        with pytest.raises(WaitQueue.Closed):
            queue.put("x")

    def test_close_wakes_blocked_getter(self):
        queue = WaitQueue()
        outcome = {}

        def getter():
            try:
                queue.get(timeout=5)
            except WaitQueue.Closed:
                outcome["closed"] = True

        thread = threading.Thread(target=getter)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(5)
        assert outcome.get("closed")

    def test_len(self):
        queue = WaitQueue()
        queue.put(1)
        queue.put(2)
        assert len(queue) == 2

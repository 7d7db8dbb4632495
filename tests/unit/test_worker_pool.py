"""Unit tests for the worker pool."""

import threading

import pytest

from repro.concurrency.executor import WorkerPool


class TestWorkerPool:
    def test_submit_and_result(self):
        with WorkerPool(2) as pool:
            assert pool.submit(lambda: 42).result(5) == 42

    def test_map_preserves_order(self):
        with WorkerPool(4) as pool:
            assert pool.map(lambda x: x * 2, range(10)) == [
                x * 2 for x in range(10)
            ]

    def test_run_all(self):
        with WorkerPool(2) as pool:
            results = pool.run_all([lambda: "a", lambda: "b"])
        assert results == ["a", "b"]

    def test_exceptions_via_futures(self):
        with WorkerPool(1) as pool:
            future = pool.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result(5)

    def test_concurrency_actually_parallel(self):
        barrier = threading.Barrier(3, timeout=5)
        with WorkerPool(3) as pool:
            # all three must be inside their task simultaneously
            results = pool.run_all([barrier.wait] * 3, timeout=10)
        assert len(results) == 3

    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestShutdownStragglers:
    def test_clean_shutdown_returns_no_stragglers(self):
        pool = WorkerPool(3)
        pool.run_all([lambda: None] * 6)
        assert pool.shutdown(timeout=5.0) == []

    def test_wedged_worker_is_surfaced_not_leaked(self):
        release = threading.Event()
        pool = WorkerPool(2, name="straggle")
        pool.submit(release.wait)  # wedges one worker past the join
        stragglers = pool.shutdown(timeout=0.05)
        try:
            assert len(stragglers) == 1
            assert stragglers[0].is_alive()
            assert stragglers[0].name.startswith("straggle-")
        finally:
            release.set()
        stragglers[0].join(5.0)
        # once the task returns, a repeat shutdown reports all clear
        assert pool.shutdown(timeout=1.0) == []

    def test_repeat_shutdown_sends_no_second_pills(self):
        # one pill per worker, sent once: a second shutdown must not
        # grow the queue or re-join, just re-report liveness
        pool = WorkerPool(2)
        assert pool.shutdown() == []
        assert pool.shutdown() == []

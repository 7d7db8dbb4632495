"""Concurrency primitives used by the framework, apps and benchmarks.

Thin, well-tested wrappers over :mod:`threading` with the semantics the
framework needs: the moderator's :class:`LockDomain`, a write-once
:class:`Future` with callbacks (the one completion token of the
continuation runtime, the RPC client and the worker pool), and an
inspectable :class:`WaitQueue` (the framework's wait queues live inside
the moderator; this standalone variant serves the distributed runtime).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Generic, List, Optional, TypeVar

T = TypeVar("T")


class LockDomain:
    """A lock shared by a group of named condition queues.

    The aspect moderator assigns every participating method to one lock
    domain. By default each method gets a private domain, so the
    moderation of unrelated methods proceeds in parallel (the paper's
    per-method Java monitors); methods whose aspects share unguarded
    state opt into one *shared* domain, restoring a single-monitor
    atomicity guarantee for exactly that group.

    All operations may be called without holding the domain lock; they
    acquire it internally. ``notify_all`` in particular is safe to call
    from a thread that holds a *different* domain's lock only if that is
    never done symmetrically — the moderator therefore performs all
    cross-domain wakeups while holding no domain lock at all (its
    two-phase wake).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.lock = threading.RLock()
        self._conditions: "dict[str, threading.Condition]" = {}

    def condition(self, key: str) -> threading.Condition:
        """The condition queue for ``key``, created on first use."""
        with self.lock:
            condition = self._conditions.get(key)
            if condition is None:
                condition = threading.Condition(self.lock)
                self._conditions[key] = condition
            return condition

    def conditions(self) -> List["tuple[str, threading.Condition]"]:
        """Snapshot of ``(key, condition)`` pairs in this domain."""
        with self.lock:
            return list(self._conditions.items())

    def notify_all(self, key: Optional[str] = None) -> None:
        """Wake every waiter of one queue (or of all queues)."""
        with self.lock:
            if key is None:
                for condition in self._conditions.values():
                    condition.notify_all()
            else:
                condition = self._conditions.get(key)
                if condition is not None:
                    condition.notify_all()

    def waiter_counts(self) -> "dict[str, int]":
        """Approximate number of parked threads per queue key."""
        with self.lock:
            return {
                key: len(condition._waiters)  # noqa: SLF001 - CPython detail
                for key, condition in self._conditions.items()
            }

    def __repr__(self) -> str:
        return f"<LockDomain {self.name!r} queues={len(self._conditions)}>"


class FutureError(RuntimeError):
    """Raised on misuse of :class:`Future` (double completion, etc.)."""


class Future(Generic[T]):
    """A write-once result container with blocking get and callbacks.

    Lean enough to hold one per parked activation: it carries no private
    lock. Completion transitions serialize on one class-level lock, which
    only completers and late waiter registrations touch, and a blocking
    :meth:`result` creates its :class:`threading.Event` lazily, so a
    future nobody waits on allocates none.
    """

    __slots__ = ("_done", "_value", "_exception", "_event", "_callbacks")

    _guard = threading.Lock()

    def __init__(self) -> None:
        self._done = False
        self._value: Optional[T] = None
        self._exception: Optional[BaseException] = None
        self._event: Optional[threading.Event] = None
        self._callbacks: Optional[List[Callable[["Future[T]"], None]]] = None

    @property
    def done(self) -> bool:
        return self._done

    def _complete(self, value: Optional[T],
                  exception: Optional[BaseException]) -> None:
        with Future._guard:
            if self._done:
                raise FutureError("future already completed")
            self._value = value
            self._exception = exception
            self._done = True
            event = self._event
            callbacks = self._callbacks
            self._callbacks = None
        if event is not None:
            event.set()
        if callbacks:
            for callback in callbacks:
                callback(self)

    def set_result(self, value: T) -> None:
        self._complete(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._complete(None, exc)

    def _wait(self, timeout: Optional[float]) -> None:
        if self._done:
            return
        with Future._guard:
            if self._done:
                return
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        if not event.wait(timeout):
            raise TimeoutError("future not completed in time")

    def result(self, timeout: Optional[float] = None) -> T:
        self._wait(timeout)
        if self._exception is not None:
            raise self._exception
        return self._value  # type: ignore[return-value]

    def exception(self,
                  timeout: Optional[float] = None) -> Optional[BaseException]:
        self._wait(timeout)
        return self._exception

    def add_callback(self, callback: Callable[["Future[T]"], None]) -> None:
        """Run ``callback(self)`` on completion (immediately if done)."""
        with Future._guard:
            if not self._done:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(callback)
                return
        callback(self)


class WaitQueue(Generic[T]):
    """Blocking FIFO queue with close semantics and introspection."""

    class Closed(RuntimeError):
        """Raised when getting from a drained, closed queue."""

    def __init__(self, maxsize: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._items: Deque[T] = deque()
        self._maxsize = maxsize
        self._closed = False

    def put(self, item: T, timeout: Optional[float] = None) -> None:
        with self._not_full:
            if self._closed:
                raise WaitQueue.Closed("queue is closed")
            if self._maxsize is not None:
                ok = self._not_full.wait_for(
                    lambda: len(self._items) < self._maxsize or self._closed,
                    timeout,
                )
                if not ok:
                    raise TimeoutError("queue full")
                if self._closed:
                    raise WaitQueue.Closed("queue is closed")
            self._items.append(item)
            self._not_empty.notify()

    def get(self, timeout: Optional[float] = None) -> T:
        with self._not_empty:
            ok = self._not_empty.wait_for(
                lambda: self._ready() or self._closed, timeout
            )
            if not ok:
                raise TimeoutError("queue empty")
            if not self._ready():
                raise WaitQueue.Closed("queue is closed and drained")
            item = self._take()
            self._not_full.notify()
            return item

    def _ready(self) -> bool:
        """Whether a getter may take the head item now (under the lock)."""
        return bool(self._items)

    def _take(self) -> T:
        """Remove and return the head item for a getter (under the lock)."""
        return self._items.popleft()

    def close(self) -> None:
        """Close the queue; waiting getters drain then see ``Closed``."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

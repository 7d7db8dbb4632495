"""Continuation moderator runtime: park activations, not threads.

The paper's moderation protocol (Figure 11) parks a BLOCKed caller on a
monitor — ``while (result == BLOCKED) wait()`` — and the threaded
runtime reproduces that literally: every blocked activation pins an OS
thread on a :class:`threading.Condition`, so a node can hold at most
thread-pool-size activations in flight. This module adds the second
runtime: an event-loop *reactor* in which BLOCK suspends the activation
as a heap-allocated :class:`ActivationContinuation` — the plan suffix to
re-run, the bound join point (whose context carries the re-anchored
contract runner), and the deadline — and a wake re-enqueues just that
suffix onto a small worker set. A parked continuation costs a few
hundred bytes of heap instead of a thread stack, which is what lets one
process hold ~10^6 parked activations (``benchmarks/bench_parked_scale``).

Equivalence contract
--------------------

Both runtimes run one moderation loop, written once in the moderator:
the entry step (:meth:`AspectModerator._enter`), Figure 11's round loop
(:meth:`AspectModerator._rounds`) and the bracket's invoke tail
(:meth:`AspectModerator._bracket`). The loop has a single park seam: the
threaded seam waits on the domain ``Condition`` and loops; this runtime
(:meth:`~ContinuationRuntime.register_park` /
:meth:`~ContinuationRuntime.park`) files the continuation in its parked
table under the domain lock, arms the expiry timer and releases the
worker. So deadlines, domain moves, the wake-epoch re-check, the
``_waiters`` slot, park accounting and every aspect/contract seam are
shared code; this module owns only suspension, wake and timer
routing. ``tests/properties/test_continuation_differential.py`` holds
both runtimes observably identical to the threaded-loop oracle
(``tests/oracle.py::ThreadedReferenceModerator``) across all 228
fault-chaos schedules and scripted parking scenarios.

Contract ``old``-state re-anchoring across suspensions is inherited,
not re-implemented: the contract runner lives in ``joinpoint.context``
(it *is* part of the continuation's captured state), and
``ContractRunner.start_round`` re-captures observables at the top of
every evaluation round — including the round a wake re-runs — so
blame assignment sees exactly the rounds the threaded runtime would.

Deterministic mode
------------------

Pass ``engine=repro.sim.Engine(...)`` to bridge the reactor onto the
discrete-event simulator: dispatch becomes ``engine.call_after(0, ...)``,
deadline expiry becomes ``engine.call_at(expires_at, ...)``, and the
runtime clock is virtual time. No worker threads are started; the test
drives ``engine.run()`` and the whole park/wake/timeout lifecycle
replays identically for a given schedule. (Virtual-time mode expects
budgets via ``timeout=`` — a ``Deadline`` object's ``expires_at`` is a
wall-monotonic stamp and would be compared against virtual time.)
"""

from __future__ import annotations

import heapq
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.concurrency.primitives import Future, WaitQueue

from .joinpoint import JoinPoint
from .moderator import Activation

__all__ = ["ActivationContinuation", "ContinuationRuntime"]


def _no_body(*args: Any, **kwargs: Any) -> None:
    """Body of an activation submitted without one: moderation only."""


class ActivationContinuation(Activation):
    """The heap-allocated suspension of one moderated activation.

    The moderator's :class:`~repro.core.moderator.Activation` state plus
    the body, its arguments and the future: what the threaded runtime
    keeps in stack frames pinned by ``Condition.wait``. The worker's
    stack unwinds completely while parked.
    """

    __slots__ = (
        "func", "args", "kwargs", "wrap", "future",
        "timeout", "deadline", "submitted_at",
    )

    def __init__(self, method_id: str, joinpoint: JoinPoint,
                 func: Callable[..., Any],
                 args: Tuple[Any, ...], kwargs: Dict[str, Any],
                 wrap: Optional[Callable[[], Any]],
                 timeout: Optional[float], deadline: Any,
                 submitted_at: float) -> None:
        super().__init__(method_id, joinpoint)
        self.func = func
        self.args = args
        self.kwargs = kwargs
        #: optional zero-arg context-manager factory applied around every
        #: segment run (the dist layer re-activates trace propagation on
        #: whichever worker resumes the suffix)
        self.wrap = wrap
        self.future: Future[Any] = Future()
        #: the submitted bounds and clock reading; the entry step
        #: resolves them once the activation leaves the fast path
        self.timeout = timeout
        self.deadline = deadline
        self.submitted_at = submitted_at


class ContinuationRuntime:
    """Event-loop moderator runtime: the reactor behind ``submit``.

    Args:
        moderator: the :class:`~repro.core.moderator.AspectModerator`
            whose methods this runtime executes; the runtime attaches
            itself so moderator wakes route into the ready queue.
        workers: size of the worker set that runs activation segments
            (ignored in engine mode). Throughput scales with runnable
            segments, not with parked count — 2 is plenty for pure
            coordination workloads.
        engine: optional :class:`repro.sim.Engine`; bridges dispatch and
            timers onto virtual time for deterministic tests.
        name: worker-thread name prefix.
    """

    def __init__(self, moderator: Any, workers: int = 2,
                 engine: Optional[Any] = None,
                 name: str = "reactor") -> None:
        self._moderator = moderator
        self._engine = engine
        self._lock = threading.Lock()
        #: activation_id -> parked continuation (the reactor's analogue
        #: of threads blocked in ``Condition.wait``)
        self._parked: Dict[int, ActivationContinuation] = {}
        self._closed = False
        self.submitted = 0
        self.completed = 0
        self.parked_peak = 0
        #: deadline timer state (threaded mode): heap of
        #: (expires_at, activation_id), serviced by a lazy daemon thread
        self._timer_heap: List[Tuple[float, int]] = []
        self._timer_cond = threading.Condition(threading.Lock())
        self._timer_thread: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        if engine is None:
            self._ready: Optional[WaitQueue] = WaitQueue()
            for index in range(workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"{name}-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        else:
            self._ready = None
        moderator.attach_runtime(self)

    # ------------------------------------------------------------------
    # dispatch plumbing (threaded vs. engine-bridged)
    # ------------------------------------------------------------------
    def _dispatch(self, continuation: ActivationContinuation) -> None:
        if self._engine is not None:
            self._engine.call_after(
                0.0, lambda: self._run(continuation),
                label=f"segment {continuation.method_id}",
            )
        else:
            self._ready.put(continuation)

    def _worker_loop(self) -> None:
        while True:
            try:
                continuation = self._ready.get()
            except WaitQueue.Closed:
                return
            if continuation is None:
                return
            self._run(continuation)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, method_id: str,
               func: Optional[Callable[..., Any]] = None, *args: Any,
               component: Any = None, caller: Any = None,
               timeout: Optional[float] = None, deadline: Any = None,
               wrap: Optional[Callable[[], Any]] = None,
               **kwargs: Any) -> Future[Any]:
        """Run ``func(*args, **kwargs)`` as a fully moderated activation.

        The reactor analogue of :meth:`AspectModerator.moderate_call` /
        :meth:`ComponentProxy.call`: returns immediately with a
        :class:`~repro.concurrency.primitives.Future` that completes with the body's result, or
        with the same exception the threaded bracket would raise
        (:class:`MethodAborted`, :class:`ActivationTimeout`, aspect
        faults, contract violations, body exceptions).

        ``wrap`` is a zero-arg factory of a context manager entered
        around *every* segment run — thread-local ambience (trace
        propagation) must be re-established on whichever worker
        resumes a suffix.
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        joinpoint = JoinPoint(
            method_id=method_id, component=component,
            args=args, kwargs=kwargs, caller=caller,
        )
        continuation = ActivationContinuation(
            method_id, joinpoint, func if func is not None else _no_body,
            args, kwargs, wrap, timeout, deadline, self.now(),
        )
        self.submitted += 1
        self._dispatch(continuation)
        return continuation.future

    # ------------------------------------------------------------------
    # the state machine: one call per runnable segment
    # ------------------------------------------------------------------
    def _run(self, continuation: ActivationContinuation) -> None:
        """Advance a continuation until it parks or completes.

        A fresh continuation runs the moderator's entry step; one a wake
        or the deadline re-enqueued (``woken`` / ``timed_out`` set)
        re-enters the round loop. ``None`` means this runtime's seam
        parked it; otherwise the bracket's tail runs the body.
        """
        moderator = self._moderator
        joinpoint = continuation.joinpoint
        method_id = continuation.method_id
        wrap = continuation.wrap
        with wrap() if wrap is not None else nullcontext():
            try:
                if continuation.woken or continuation.timed_out:
                    outcome = moderator._rounds(continuation, self)
                else:
                    outcome = moderator._enter(
                        method_id, joinpoint, None, continuation.timeout,
                        continuation.deadline, self,
                        continuation.submitted_at, continuation,
                    )
                if outcome is None:
                    return  # parked; a wake or the deadline re-enqueues
                result = moderator._bracket(
                    method_id, joinpoint, None, None, None,
                    continuation.func, continuation.args,
                    continuation.kwargs, outcome,
                )
            except BaseException as exc:  # noqa: BLE001 - to the future
                self._finish(continuation, None, exc)
                return
            self._finish(continuation, result, None)

    # ------------------------------------------------------------------
    # the park seam (see AspectModerator._rounds)
    # ------------------------------------------------------------------
    def now(self) -> float:
        """The runtime clock: virtual time in engine mode."""
        engine = self._engine
        return engine.now if engine is not None else time.monotonic()

    def register_park(self, continuation: ActivationContinuation) -> None:
        """File a BLOCKed continuation (under its domain lock)."""
        with self._lock:
            self._parked[continuation.joinpoint.activation_id] = continuation
            if len(self._parked) > self.parked_peak:
                self.parked_peak = len(self._parked)

    def park(self, continuation: ActivationContinuation,
             queue: Any) -> bool:
        """Arm the expiry and release the worker (``False``).

        An already-expired deadline re-claims the continuation for its
        final round (``True``) unless a wake popped it first.
        """
        expires_at = continuation.expires_at
        if expires_at is None:
            return False
        if expires_at > self.now():
            self._schedule_expiry(continuation)
            return False
        with self._lock:
            if self._parked.pop(
                continuation.joinpoint.activation_id, None
            ) is None:
                return False
        continuation.timed_out = True
        return True

    def _finish(self, continuation: ActivationContinuation,
                value: Any, exc: Optional[BaseException]) -> None:
        self.completed += 1
        if exc is not None:
            continuation.future.set_exception(exc)
        else:
            continuation.future.set_result(value)

    # ------------------------------------------------------------------
    # wake routing (called by the moderator's notify sites)
    # ------------------------------------------------------------------
    def wake(self, targets: Optional[Set[str]] = None) -> bool:
        """Re-enqueue parked continuations (all, or of target methods).

        The reactor counterpart of ``LockDomain.notify_all``: the
        moderator calls it from every site that notifies domain queues
        (two-phase post-activation wake, explicit ``notify``, domain
        moves). Spurious wakes are safe — a re-enqueued continuation
        just re-evaluates its round and re-parks. Returns whether any
        continuation was woken.
        """
        with self._lock:
            if not self._parked:
                return False
            if targets is None:
                woken = list(self._parked.values())
                self._parked.clear()
            else:
                woken = [
                    continuation
                    for continuation in self._parked.values()
                    if continuation.method_id in targets
                ]
                for continuation in woken:
                    del self._parked[continuation.joinpoint.activation_id]
            for continuation in woken:
                continuation.woken = True
        for continuation in woken:
            self._dispatch(continuation)
        return bool(woken)

    # ------------------------------------------------------------------
    # deadline expiry
    # ------------------------------------------------------------------
    def _schedule_expiry(self, continuation: ActivationContinuation) -> None:
        activation_id = continuation.joinpoint.activation_id
        expires_at = continuation.expires_at
        if self._engine is not None:
            self._engine.call_at(
                expires_at, lambda: self._expire(activation_id),
                label=f"deadline {continuation.method_id}",
            )
            return
        with self._timer_cond:
            heapq.heappush(self._timer_heap, (expires_at, activation_id))
            if self._timer_thread is None:
                self._timer_thread = threading.Thread(
                    target=self._timer_loop, name="reactor-timer",
                    daemon=True,
                )
                self._timer_thread.start()
            self._timer_cond.notify()

    def _timer_loop(self) -> None:
        while True:
            with self._timer_cond:
                if self._closed:
                    return
                if not self._timer_heap:
                    self._timer_cond.wait()
                    continue
                expires_at, activation_id = self._timer_heap[0]
                delay = expires_at - time.monotonic()
                if delay > 0:
                    self._timer_cond.wait(delay)
                    continue
                heapq.heappop(self._timer_heap)
            self._expire(activation_id)

    def _expire(self, activation_id: int) -> None:
        """Deadline fired: re-enqueue for the final round, if still parked.

        Idempotent against wakes — whoever pops the parked entry owns
        the next run; a stale timer for a woken (or completed)
        activation is a no-op.
        """
        with self._lock:
            continuation = self._parked.pop(activation_id, None)
            if continuation is None:
                return
            continuation.timed_out = True
        self._dispatch(continuation)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def parked_snapshot(self) -> Dict[int, Tuple[str, float]]:
        """Parked continuations: id -> (method, parked_since).

        Same shape as :meth:`AspectModerator.parked_snapshot`, which
        merges this in — the stall watchdog sees continuation-parked
        activations exactly like thread-parked ones.
        """
        with self._lock:
            return {
                activation_id: (
                    continuation.method_id, continuation.parked_since
                )
                for activation_id, continuation in self._parked.items()
            }

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    def close(self) -> None:
        """Stop workers and the timer; parked continuations fail.

        Each continuation still parked completes its future with
        ``RuntimeError("runtime closed")`` and gives back its slot in
        the moderator's waiter count, so later fast-path completions on
        the moderator elide their wake again.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dropped = list(self._parked.values())
            self._parked.clear()
        if dropped:
            moderator = self._moderator
            with moderator._waiter_guard:
                moderator._waiters -= len(dropped)
            for continuation in dropped:
                self._finish(continuation, None,
                             RuntimeError("runtime closed"))
        with self._timer_cond:
            self._timer_cond.notify_all()
        if self._ready is not None:
            for _ in self._threads:
                self._ready.put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)
        if self._moderator is not None:
            self._moderator.detach_runtime(self)

    def __enter__(self) -> "ContinuationRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<ContinuationRuntime parked={len(self._parked)} "
            f"submitted={self.submitted} completed={self.completed} "
            f"{'engine' if self._engine is not None else 'threaded'}>"
        )

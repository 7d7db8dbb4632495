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

The threaded runtime stays the reference implementation. This runtime
re-enters the *same* moderation machinery — :meth:`AspectModerator
._run_round` for every evaluation round, :meth:`~AspectModerator
.postactivation` for the unwind — so aspect semantics, compensation,
quarantine, fault injection and contract check points are shared code,
not a reimplementation. What this module owns is only the *suspension
mechanism*: where the threaded runtime calls ``Condition.wait``, the
reactor registers the continuation in a parked table and returns the
worker to the pool. The differential suite
(``tests/properties/test_continuation_differential.py``) holds the two
runtimes observably identical — outcomes, event streams, span shapes,
counters, contract verdicts — across all 228 fault-chaos schedules.

Park/wake race-freedom mirrors the threaded design point for point:

* the continuation registers in the moderator-wide ``_waiters`` count
  for its whole blocking attempt, so lock-free fast-path completions
  cannot elide the wake while a continuation could be parked;
* each evaluation round runs under the method's domain lock, and the
  continuation registers in the parked table *while still holding that
  lock* — so a notify (which must acquire the lock) is always ordered
  after the park, exactly like a ``Condition`` park;
* elided-lock completions are covered by the moderator's wake epoch:
  the continuation re-checks the epoch under ``_waiter_guard`` before
  parking and re-evaluates instead of parking when a completion raced
  its round (the same protocol the threaded blocker runs).

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

from repro.concurrency.primitives import WaitQueue

from .errors import ActivationTimeout, ContractViolation, MethodAborted
from .joinpoint import JoinPoint
from .results import AspectResult, Phase

__all__ = ["ActivationContinuation", "CallFuture", "ContinuationRuntime"]

#: continuation lifecycle states (an explicit resumable state machine:
#: READY -> RUNNING -> {PARKED -> READY -> RUNNING ...} -> DONE)
READY = "ready"
RUNNING = "running"
PARKED = "parked"
DONE = "done"


class CallFuture:
    """Write-once completion token for a reactor-submitted activation.

    Deliberately leaner than :class:`repro.concurrency.primitives.Future`:
    a parked-at-scale workload holds one of these per activation, so it
    must not carry a private ``Lock``+``Condition`` pair (~that would be
    two kernel-backed objects per parked call). Completion transitions
    are serialized on one class-level lock — only completers and late
    waiter registrations touch it — and a blocking :meth:`result` call
    materializes an :class:`threading.Event` lazily, so the common
    fire-and-park case allocates none.
    """

    __slots__ = ("_done", "_value", "_exception", "_event", "_callbacks")

    _guard = threading.Lock()

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._event: Optional[threading.Event] = None
        self._callbacks: Optional[List[Callable[["CallFuture"], None]]] = None

    @property
    def done(self) -> bool:
        return self._done

    def _complete(self, value: Any,
                  exception: Optional[BaseException]) -> None:
        with CallFuture._guard:
            if self._done:
                raise RuntimeError("future already completed")
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

    def set_result(self, value: Any) -> None:
        self._complete(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._complete(None, exc)

    def _wait(self, timeout: Optional[float]) -> None:
        if self._done:
            return
        with CallFuture._guard:
            if self._done:
                return
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        if not event.wait(timeout):
            raise TimeoutError("activation not completed in time")

    def result(self, timeout: Optional[float] = None) -> Any:
        self._wait(timeout)
        if self._exception is not None:
            raise self._exception
        return self._value

    def exception(self,
                  timeout: Optional[float] = None) -> Optional[BaseException]:
        self._wait(timeout)
        return self._exception

    def add_callback(self, callback: Callable[["CallFuture"], None]) -> None:
        """Run ``callback(self)`` on completion (immediately if done)."""
        run_now = False
        with CallFuture._guard:
            if self._done:
                run_now = True
            else:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(callback)
        if run_now:
            callback(self)


class ActivationContinuation:
    """The heap-allocated suspension of one moderated activation.

    Everything a wake needs to re-run the suffix: the join point (whose
    ``context`` carries the RESUMEd-chain stash and the contract
    runner), the body callable, and the resolved deadline. The threaded
    runtime keeps all of this in stack frames pinned by
    ``Condition.wait``; here it is this object, and the worker's stack
    unwinds completely while parked.
    """

    __slots__ = (
        "method_id", "joinpoint", "func", "args", "kwargs", "wrap",
        "future", "state", "started", "waiter_registered",
        "effective_timeout", "expires_at", "timed_out", "woken",
        "parked_since",
    )

    def __init__(self, method_id: str, joinpoint: JoinPoint,
                 func: Optional[Callable[..., Any]],
                 args: Tuple[Any, ...], kwargs: Dict[str, Any],
                 wrap: Optional[Callable[[], Any]]) -> None:
        self.method_id = method_id
        self.joinpoint = joinpoint
        self.func = func
        self.args = args
        self.kwargs = kwargs
        #: optional zero-arg context-manager factory applied around every
        #: segment run (the dist layer re-activates trace propagation and
        #: the serving context on whichever worker resumes the suffix)
        self.wrap = wrap
        self.future = CallFuture()
        self.state = READY
        #: entry segment (events, contract begin, deadline resolution)
        #: has run; resumptions re-enter at the evaluation-round segment
        self.started = False
        #: holding a slot in the moderator-wide ``_waiters`` count
        self.waiter_registered = False
        self.effective_timeout: Optional[float] = None
        self.expires_at: Optional[float] = None
        self.timed_out = False
        #: a wake (vs. a deadline expiry) re-enqueued this continuation;
        #: drives the ``wakeups`` counter and the ``unblocked`` event
        self.woken = False
        self.parked_since = 0.0


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
    # clock / dispatch plumbing (threaded vs. engine-bridged)
    # ------------------------------------------------------------------
    def _now(self) -> float:
        engine = self._engine
        return engine.now if engine is not None else time.monotonic()

    def _dispatch(self, continuation: ActivationContinuation) -> None:
        continuation.state = READY
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
               **kwargs: Any) -> CallFuture:
        """Run ``func(*args, **kwargs)`` as a fully moderated activation.

        The reactor analogue of :meth:`AspectModerator.moderate_call` /
        :meth:`ComponentProxy.call`: returns immediately with a
        :class:`CallFuture` that completes with the body's result, or
        with the same exception the threaded bracket would raise
        (:class:`MethodAborted`, :class:`ActivationTimeout`, aspect
        faults, contract violations, body exceptions).

        ``wrap`` is a zero-arg factory of a context manager entered
        around *every* segment run — thread-local ambience (trace
        propagation, serving context) must be re-established on
        whichever worker resumes a suffix.
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        joinpoint = JoinPoint(
            method_id=method_id, component=component,
            args=args, kwargs=kwargs, caller=caller,
        )
        continuation = ActivationContinuation(
            method_id, joinpoint, func, args, kwargs, wrap,
        )
        now = self._now()
        moderator = self._moderator
        effective_timeout = (
            timeout if timeout is not None else moderator.default_timeout
        )
        expires_at = (
            now + effective_timeout if effective_timeout is not None
            else None
        )
        budget = getattr(deadline, "expires_at", deadline)
        if budget is not None and (expires_at is None or budget < expires_at):
            expires_at = budget
            effective_timeout = max(0.0, budget - now)
        continuation.effective_timeout = effective_timeout
        continuation.expires_at = expires_at
        self.submitted += 1
        self._dispatch(continuation)
        return continuation.future

    # ------------------------------------------------------------------
    # the state machine: one call per runnable segment
    # ------------------------------------------------------------------
    def _run(self, continuation: ActivationContinuation) -> None:
        continuation.state = RUNNING
        wrap = continuation.wrap
        context = wrap() if wrap is not None else nullcontext()
        with context:
            self._advance(continuation)

    def _advance(self, continuation: ActivationContinuation) -> None:
        """Advance a continuation until it parks or completes.

        Structured exactly like the threaded bracket — entry segment,
        Figure-11 evaluation loop, invoke, post-activation — except that
        where the threaded loop would ``Condition.wait`` this method
        registers the continuation as parked and *returns*, releasing
        the worker. A wake or deadline expiry re-enters here and the
        loop resumes at the next evaluation round (the parked "suffix":
        compensation already rolled the RESUMEd prefix back, so a fresh
        round re-runs the whole chain, exactly as a woken thread does).
        """
        moderator = self._moderator
        joinpoint = continuation.joinpoint
        method_id = continuation.method_id
        try:
            if continuation.woken:
                # Resumed by a wake: mirror the threaded post-wait
                # bookkeeping (a deadline expiry, like a timed-out
                # ``Condition.wait``, bumps and emits neither).
                continuation.woken = False
                moderator.stats.bump("wakeups")
                moderator.events.emit(
                    "unblocked", method_id,
                    activation_id=joinpoint.activation_id,
                    duration=self._now() - continuation.parked_since,
                )
            if not continuation.started:
                outcome = self._entry_segment(continuation)
                if outcome is None:
                    return  # parked during the first blocking attempt
            else:
                outcome = self._round_segments(continuation)
                if outcome is None:
                    return  # parked again
            self._release_waiter(continuation)
            if outcome is AspectResult.ABORT:
                raise MethodAborted(
                    method_id,
                    concern=joinpoint.context.get("abort_concern"),
                )
            # ---- invoke segment (outside every moderator lock) ----
            plan = moderator.plan_for(method_id)
            joinpoint.phase = Phase.INVOCATION
            try:
                if not joinpoint.invocation_skipped:
                    moderator.events.emit(
                        "invoke", method_id,
                        activation_id=joinpoint.activation_id,
                    )
                    if continuation.func is not None:
                        joinpoint.result = continuation.func(
                            *continuation.args, **continuation.kwargs
                        )
            except BaseException as exc:
                joinpoint.exception = exc
                raise
            finally:
                moderator.postactivation(method_id, joinpoint, plan=plan)
        except BaseException as exc:  # noqa: BLE001 - routed to future
            self._finish(continuation, None, exc)
            return
        self._finish(continuation, joinpoint.result, None)

    def _entry_segment(
        self, continuation: ActivationContinuation
    ) -> Optional[AspectResult]:
        """The pre-activation entry: run-once events, contract, fast path.

        Mirrors :meth:`AspectModerator.preactivation` decision for
        decision (the differential suite holds the streams equal).
        Returns the pre-activation outcome, or ``None`` if the
        continuation parked.
        """
        moderator = self._moderator
        joinpoint = continuation.joinpoint
        method_id = continuation.method_id
        continuation.started = True
        joinpoint.phase = Phase.PRE_ACTIVATION
        moderator.events.emit(
            "preactivation", method_id,
            activation_id=joinpoint.activation_id,
        )
        moderator.stats.bump("preactivations")
        if moderator._contracts is not None:
            try:
                moderator._contracts.begin(method_id, joinpoint)
            except ContractViolation as violation:
                moderator._note_violation(violation, joinpoint)
                raise
        plan = moderator.plan_for(method_id)
        if plan.never_blocks:
            outcome = moderator._run_round(method_id, joinpoint, plan)
            if outcome is not AspectResult.BLOCK:
                if outcome is AspectResult.RESUME:
                    moderator.stats.bump("fastpaths")
                return outcome
        # Register in the moderator-wide waiter count for the whole
        # blocking attempt — fast-path completions consult it to elide
        # their wake, and a parked continuation must keep it nonzero.
        with moderator._waiter_guard:
            moderator._waiters += 1
        continuation.waiter_registered = True
        return self._round_segments(continuation)

    def _round_segments(
        self, continuation: ActivationContinuation
    ) -> Optional[AspectResult]:
        """Figure 11's evaluation loop with parks instead of waits.

        One call runs as many evaluation rounds as stay runnable (raced
        epochs, domain moves, expired deadlines) and returns the final
        outcome — or registers the continuation parked and returns
        ``None``, releasing the worker. The round itself is
        :meth:`AspectModerator._run_round`, under the method's domain
        lock: aspect state stays atomic w.r.t. threaded activations of
        the same method.
        """
        moderator = self._moderator
        joinpoint = continuation.joinpoint
        method_id = continuation.method_id
        while True:
            queue = moderator.plan_for(method_id).queue
            with queue:
                if moderator._queue_for(method_id) is not queue:
                    continue  # method changed domains; re-acquire
                while True:
                    epoch = moderator._wake_epoch
                    plan = moderator.plan_for(method_id)
                    outcome = moderator._run_round(method_id, joinpoint,
                                                   plan)
                    if outcome is not AspectResult.BLOCK:
                        return outcome
                    if continuation.timed_out:
                        moderator.events.emit(
                            "timeout", method_id,
                            detail=f"{continuation.effective_timeout}s",
                            activation_id=joinpoint.activation_id,
                        )
                        raise ActivationTimeout(
                            method_id, continuation.effective_timeout
                        )
                    with moderator._waiter_guard:
                        raced = moderator._wake_epoch != epoch
                        if not raced:
                            # Park: registered under the domain lock, so
                            # any notify (which must take this lock) is
                            # ordered after the registration — a
                            # continuation cannot miss its wake, exactly
                            # like a ``Condition`` park.
                            with self._lock:
                                continuation.state = PARKED
                                continuation.parked_since = self._now()
                                self._parked[
                                    joinpoint.activation_id
                                ] = continuation
                                if len(self._parked) > self.parked_peak:
                                    self.parked_peak = len(self._parked)
                    if raced:
                        # A completion landed while this round was
                        # evaluating: re-evaluate against the
                        # post-postaction state instead of parking on a
                        # notification already sent.
                        continue
                    moderator.stats.bump("waits")
                    break
            # Parked (domain lock released). Deadline bookkeeping mirrors
            # the threaded ``remaining <= 0 or not queue.wait(remaining)``:
            # an already-expired budget re-claims the continuation for
            # one final round; a live one arms a timer and the worker is
            # released with no stack frame left behind.
            expires_at = continuation.expires_at
            if expires_at is not None:
                remaining = expires_at - self._now()
                if remaining <= 0:
                    if self._reclaim(continuation):
                        continuation.timed_out = True
                        continue
                    return None  # a wake got there first; it owns the run
                self._schedule_expiry(continuation)
            return None

    def _reclaim(self, continuation: ActivationContinuation) -> bool:
        """Atomically take a just-parked continuation back, if still ours."""
        with self._lock:
            if self._parked.pop(
                continuation.joinpoint.activation_id, None
            ) is None:
                return False
            continuation.state = RUNNING
            return True

    def _release_waiter(self, continuation: ActivationContinuation) -> None:
        if continuation.waiter_registered:
            continuation.waiter_registered = False
            with self._moderator._waiter_guard:
                self._moderator._waiters -= 1

    def _finish(self, continuation: ActivationContinuation,
                value: Any, exc: Optional[BaseException]) -> None:
        self._release_waiter(continuation)
        continuation.state = DONE
        self.completed += 1
        if exc is not None:
            continuation.future.set_exception(exc)
        else:
            continuation.future.set_result(value)

    # ------------------------------------------------------------------
    # wake routing (called by the moderator's notify sites)
    # ------------------------------------------------------------------
    def wake(self, targets: Optional[Set[str]] = None) -> None:
        """Re-enqueue parked continuations (all, or of target methods).

        The reactor counterpart of ``LockDomain.notify_all``: the
        moderator calls it from every site that notifies domain queues
        (two-phase post-activation wake, explicit ``notify``, domain
        moves). Spurious wakes are safe — a re-enqueued continuation
        just re-evaluates its round and re-parks.
        """
        with self._lock:
            if not self._parked:
                return
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
        """Stop workers and the timer; parked continuations are dropped."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
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

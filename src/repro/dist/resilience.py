"""Resilience primitives for the distributed runtime.

The paper names fault tolerance a first-class interaction concern; the
RPC boundary is where it bites. This module supplies the four pieces
the resilient call path composes (see ``docs/resilience.md``):

* :class:`Deadline` — an absolute monotonic budget that rides requests
  as *remaining seconds* (gRPC-style budget propagation: monotonic
  clocks don't travel, budgets do). Servers reject expired requests
  with :class:`~repro.core.errors.DeadlineExceeded` instead of doing
  dead work, and cap moderator BLOCK waits at the remaining budget.
* :class:`IdempotencyCache` — a bounded LRU of idempotency key →
  cached reply, with in-flight tracking, giving mutating calls
  at-most-once *effects* under client retries: a replayed request
  returns the original reply instead of re-executing.
* :class:`DestinationBreakers` — per-destination circuit breakers for
  the client, reusing the :class:`~repro.aspects.circuit_breaker.
  CircuitBreakerAspect` state machine verbatim (one aspect instance
  per destination, driven through a lightweight join point).
* :class:`ShedInbox` — a bounded node inbox with a load-shedding
  policy (``"reject"`` answers :class:`~repro.core.errors.Overloaded`
  with a retry-after hint; ``"drop_oldest"`` evicts the stalest queued
  request), so overload degrades gracefully instead of growing queues
  without bound.

Dedup survives a failover through the recovery plane, not through
this module: the journal records each keyed effect's reply, and
:func:`~repro.dist.recovery.recover_service` seeds the new home's
cache with it, so a client retry that follows the rebind replays the
recorded reply (``docs/recovery.md``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.aspects.circuit_breaker import BreakerState, CircuitBreakerAspect
from repro.core.errors import CircuitOpen
from repro.core.joinpoint import JoinPoint
from repro.core.results import AspectResult
from repro.concurrency.primitives import WaitQueue
from .message import decode, encode

__all__ = [
    "Deadline",
    "DedupEntry",
    "DestinationBreakers",
    "IdempotencyCache",
    "RPC_TRANSIENT",
    "ShedInbox",
]


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class Deadline:
    """An absolute point on the monotonic clock a call must finish by.

    Construct with :meth:`after` (relative budget) or :meth:`coerce`
    (accepts a ``Deadline``, a float budget in seconds, or ``None``).
    The wire form is *remaining seconds at send time*: the receiver
    reconstructs an absolute deadline on its own clock, so the budget
    shrinks by (at least) the transit time at every hop — exactly the
    shrinking-budget semantics real deadline propagation has.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = expires_at

    def __repr__(self) -> str:
        return f"Deadline({self.expires_at!r})"

    @classmethod
    def after(cls, budget: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``budget`` seconds from now."""
        return cls(clock() + budget)

    @classmethod
    def coerce(cls, value: "Deadline | float | None") -> "Optional[Deadline]":
        """Normalize a caller-supplied deadline (budget floats allowed)."""
        if value is None or isinstance(value, Deadline):
            return value
        return cls.after(float(value))

    @classmethod
    def from_wire(cls, budget: Any,
                  anchor: Optional[float] = None) -> "Optional[Deadline]":
        """Rebuild a deadline from a wire payload's remaining budget.

        ``anchor`` is the monotonic instant the budget was measured at
        (the message's ``sent_at``). The simulated runtime shares one
        monotonic clock across "hosts", so anchoring at send time
        charges transit exactly; a real deployment, whose clocks don't
        compare, would anchor at receipt and lose the transit time —
        pass ``anchor=None`` for those semantics.
        """
        if budget is None:
            return None
        if anchor is None:
            return cls.after(float(budget))
        return cls(float(anchor) + float(budget))

    def remaining(self, clock: Callable[[], float] = time.monotonic) -> float:
        """Seconds left before expiry (negative when already expired)."""
        return self.expires_at - clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def to_wire(self) -> float:
        """The remaining budget, for the request payload (floored at 0)."""
        return max(0.0, self.remaining())

    def cap(self, timeout: Optional[float]) -> float:
        """``timeout`` capped at the remaining budget (budget if None)."""
        remaining = self.remaining()
        if timeout is None:
            return remaining
        return min(timeout, remaining)


# ----------------------------------------------------------------------
# exactly-once effects: the dedup cache
# ----------------------------------------------------------------------
class DedupEntry:
    """One logical call's slot in the :class:`IdempotencyCache`.

    Starts *pending* (the first delivery is executing); :meth:`finish`
    stores the reply and wakes duplicates parked in :meth:`wait`;
    abandoned entries (the attempt provably did not apply) finish with
    no payload and leave the cache, so a retry may re-execute. ``done``
    is set and checked under one class-wide lock, and only a
    :meth:`wait` on a pending entry creates the event it parks on.
    """

    __slots__ = ("done", "kind", "payload", "_event")

    _guard = threading.Lock()

    def __init__(self) -> None:
        self.done = False
        self.kind: Optional[str] = None
        self.payload: Optional[Dict[str, Any]] = None
        self._event: Optional[threading.Event] = None

    def finish(self, kind: Optional[str],
               payload: Optional[Dict[str, Any]]) -> None:
        with DedupEntry._guard:
            self.kind, self.payload, self.done = kind, payload, True
            event = self._event
        if event is not None:
            event.set()

    def wait(self, timeout: Optional[float]) -> bool:
        """Block until the original attempt completes (False on timeout)."""
        with DedupEntry._guard:
            if self.done:
                return True
            event = self._event = self._event or threading.Event()
        return event.wait(timeout)


class IdempotencyCache:
    """Bounded LRU of idempotency key → cached reply, with in-flight slots.

    Keys are the client-generated per-logical-call idempotency keys
    (``"<caller endpoint>:<sequence>"`` — the caller identity is baked
    into the key, so one cache serves every caller without collisions).
    The LRU bound evicts only *completed* entries: an in-flight slot is
    never dropped, or a racing duplicate could re-execute the call.

    Thread safety: all state transitions run under one leaf lock;
    :meth:`DedupEntry.wait` blocks outside it.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, DedupEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def begin(self, key: str) -> Tuple[str, DedupEntry]:
        """Claim ``key`` for execution, or surface the duplicate.

        Returns ``("new", entry)`` when the caller owns the execution
        (it must later :meth:`finish` or :meth:`abandon` the entry),
        ``("done", entry)`` when the reply is already cached, or
        ``("pending", entry)`` when the original delivery is still
        executing — the caller should ``entry.wait(budget)`` and replay.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return ("done" if entry.done else "pending"), entry
            self.misses += 1
            entry = DedupEntry()
            self._entries[key] = entry
            self._evict_excess()
            return "new", entry

    def finish(self, key: str, kind: str, payload: Dict[str, Any]) -> None:
        """Record the executed call's reply; wakes parked duplicates."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None:
            entry.finish(kind, payload)

    def abandon(self, key: str) -> None:
        """Drop an in-flight slot whose attempt provably did not apply.

        The entry is completed *and* removed: duplicates parked on it
        wake (seeing no payload, they report the attempt failed), and a
        fresh retry re-executes under a new slot.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
        if entry is not None and not entry.done:
            entry.finish(None, None)

    def export_completed(self) -> Dict[str, Dict[str, Any]]:
        """Wire-safe snapshot of every completed entry with a reply.

        The rebalancer ships this in a shard's captured state: seeded
        into the target's cache *before* the target starts serving, a
        retry of an already-applied call replays its original reply at
        the new home instead of re-executing — exactly-once effects
        survive the move. In-flight slots are not exported (their
        originals drain on the source before capture).
        """
        with self._lock:
            completed = {
                key: {"kind": entry.kind, "payload": entry.payload}
                for key, entry in self._entries.items()
                if entry.done and entry.payload is not None
            }
        # a finished entry's payload is never replaced: copy unlocked
        return decode(encode(completed))

    def seed(self, exported: Dict[str, Dict[str, Any]]) -> int:
        """Install entries exported from another cache; returns how many.

        Existing keys (including in-flight slots) are left untouched —
        local knowledge is at least as fresh as the handoff snapshot.
        """
        seeded = 0
        with self._lock:
            for key, record in exported.items():
                if key in self._entries:
                    continue
                entry = DedupEntry()
                entry.finish(record.get("kind") or "reply",
                             dict(record.get("payload") or {}))
                self._entries[key] = entry
                seeded += 1
            self._evict_excess()
        return seeded

    def _evict_excess(self) -> None:
        # under self._lock; evict the oldest *completed* entries only,
        # walking from the LRU end no further than the excess requires
        excess = len(self._entries) - self.capacity
        if excess <= 0:
            return
        victims = []
        for key, entry in self._entries.items():
            if entry.done:
                victims.append(key)
                if len(victims) == excess:
                    break
        for key in victims:
            del self._entries[key]
        self.evictions += len(victims)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


#: exception types an RPC retry policy should treat as transient: the
#: attempt failed without consuming the logical call (lost message,
#: refused connection, shed at admission). DeadlineExceeded and
#: CircuitOpen are deliberately absent — the first means the budget is
#: spent, the second that retrying would hammer a known-dead node.
def _transient_types() -> Tuple[type, ...]:
    from repro.core.errors import NodeUnreachable, Overloaded
    from .rpc import RequestTimeout

    return (RequestTimeout, NodeUnreachable, Overloaded)


def __getattr__(name: str) -> Any:  # lazy: avoids the rpc import cycle
    if name == "RPC_TRANSIENT":
        return _transient_types()
    raise AttributeError(name)


# ----------------------------------------------------------------------
# per-destination circuit breakers
# ----------------------------------------------------------------------
class DestinationBreakers:
    """Client-side circuit breakers, one per destination node.

    Reuses the :class:`CircuitBreakerAspect` state machine as-is: each
    destination lazily gets one aspect instance, driven through a
    lightweight join point whose ``method_id`` is the node id. A call
    is admitted via the aspect's ``precondition`` (ABORT →
    :class:`CircuitOpen`, fail fast) and its outcome reported through
    ``postaction`` — timeouts count as failures, any reply (even an
    error reply: the node answered, so it is alive) as success.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout: float = 30.0,
                 half_open_probes: int = 1,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreakerAspect] = {}

    def breaker(self, node_id: str) -> CircuitBreakerAspect:
        with self._lock:
            breaker = self._breakers.get(node_id)
            if breaker is None:
                breaker = CircuitBreakerAspect(
                    failure_threshold=self.failure_threshold,
                    reset_timeout=self.reset_timeout,
                    half_open_probes=self.half_open_probes,
                    clock=self._clock,
                )
                self._breakers[node_id] = breaker
            return breaker

    def admit(self, node_id: str) -> Tuple[CircuitBreakerAspect, JoinPoint]:
        """Gate one attempt; raises :class:`CircuitOpen` when rejected.

        Returns the (breaker, joinpoint) token the caller must pass to
        :meth:`record` with the attempt's outcome — including on error
        paths, or half-open probe slots leak.
        """
        breaker = self.breaker(node_id)
        joinpoint = JoinPoint(method_id=node_id)
        if breaker.precondition(joinpoint) is AspectResult.ABORT:
            raise CircuitOpen(node_id)
        return breaker, joinpoint

    @staticmethod
    def record(token: Tuple[CircuitBreakerAspect, JoinPoint],
               failure: Optional[BaseException]) -> None:
        """Report one admitted attempt's outcome to its breaker."""
        breaker, joinpoint = token
        joinpoint.exception = failure
        breaker.postaction(joinpoint)

    def state(self, node_id: str) -> BreakerState:
        return self.breaker(node_id).state

    def states(self) -> Dict[str, str]:
        with self._lock:
            return {
                node_id: breaker.state.value
                for node_id, breaker in self._breakers.items()
            }


# ----------------------------------------------------------------------
# admission control: the bounded, shedding inbox
# ----------------------------------------------------------------------
class ShedInbox(WaitQueue):
    """A node inbox with bounded depth and an explicit shedding policy.

    Only ``"request"`` messages count against (and are shed by) the
    bound — replies and events always enqueue, so shedding can never
    deadlock a response path. Policies:

    * ``"reject"`` — a request arriving at a full inbox is not
      enqueued; ``on_shed`` is invoked with it (the node answers
      :class:`~repro.core.errors.Overloaded` with a retry-after hint).
    * ``"drop_oldest"`` — the stalest *queued* request is evicted to
      make room (its caller times out and retries); the arriving
      request enqueues. With nothing evictable the arrival is rejected.

    ``put`` never blocks: the thread calling it (the sender's when the
    request is due now, else the dispatcher) must keep delivering to
    every other endpoint regardless of this node's load.
    """

    POLICIES = ("reject", "drop_oldest")

    def __init__(self, limit: int, policy: str = "reject",
                 on_shed: Optional[Callable[[Any, str], None]] = None) -> None:
        if limit < 1:
            raise ValueError("inbox limit must be positive")
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}")
        super().__init__()
        self.limit = limit
        self.policy = policy
        self.on_shed = on_shed
        self.shed = 0

    def put(self, item: Any, timeout: Optional[float] = None) -> None:
        shed_message = None
        with self._not_empty:
            if self._closed:
                raise WaitQueue.Closed("queue is closed")
            if getattr(item, "kind", None) == "request" \
                    and self._request_depth() >= self.limit:
                self.shed += 1
                evicted = self._evict_oldest_request() \
                    if self.policy == "drop_oldest" else None
                if evicted is None:
                    shed_message = (item, "reject")
                else:
                    shed_message = (evicted, "drop_oldest")
                    self._items.append(item)
                    self._not_empty.notify()
            else:
                self._items.append(item)
                self._not_empty.notify()
        if shed_message is not None and self.on_shed is not None:
            # outside the queue lock: the hook may send on the network
            message, action = shed_message
            self.on_shed(message, action)

    def _request_depth(self) -> int:
        # under the queue lock
        return sum(
            1 for queued in self._items
            if getattr(queued, "kind", None) == "request"
        )

    def _evict_oldest_request(self) -> Any:
        # under the queue lock
        for index, queued in enumerate(self._items):
            if getattr(queued, "kind", None) == "request":
                del self._items[index]
                return queued
        return None

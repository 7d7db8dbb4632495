"""Simulated network: latency, loss and partitions over thread inboxes.

Substitution note (see DESIGN.md §2): the paper targets components
"distributed across the network" but reports no networked experiments.
This module provides the closest synthetic equivalent — per-link latency
drawn from a seeded distribution, probabilistic loss, and explicit
partitions — so the distributed examples and benches exercise the same
code paths (marshalling, timeouts, retries, failover) a deployment
would.

A message due now with nothing queued ahead is put into its inbox on the
sender's thread; the rest wait on a timed heap for a single dispatcher
thread. A client caller's due-now request may go further: an inbox that
offers to serve it (a node with an idle serve slot, nothing queued and
a method that serves quickly there) runs it on the caller's thread, so
its reply is delivered before ``send`` returns. Either way per-link
FIFO ordering holds for equal latencies, and delivered / dropped counts
are deterministic for a fixed seed and send sequence.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import NodeUnreachable
from repro.concurrency.primitives import WaitQueue
from .message import Message


class _Role(threading.local):
    """What the current thread is to the network: the inline-serve rule.

    A due-now request is offered to its destination for serving on the
    sending thread only when that thread is a client caller awaiting
    the reply (``reply_by`` set) and serves nothing itself (``serving``
    is set on the dispatcher, on node workers and on a thread serving a
    request), so a nested call from a servant always queues.
    """

    serving = False
    #: monotonic time the sending client caller stops waiting for its
    #: reply; ``None`` on a thread not inside a client call
    reply_by: Optional[float] = None


role = _Role()


class Sink:
    """An inbox that handles each message on the delivering thread.

    For endpoints that never block on a message: a client completing
    the waiting caller's reply future, a detector stamping a heartbeat.
    ``put`` runs ``deliver(message)`` at once, on the sender's thread
    when the message is due now, else on the dispatcher, so no thread
    polls a queue. A reply to a request a node served on the caller's
    own thread (due now, a serve slot idle) is thus delivered before
    the caller's ``send`` returns. It is a plain instance, looked up as
    ``inbox.put`` at every delivery, so a per-instance wrapper of
    ``put`` sees each message. After :meth:`close` a delivery raises
    ``WaitQueue.Closed``, which the network counts as a drop.
    """

    def __init__(self, deliver: Callable[[Message], None]) -> None:
        self.deliver = deliver
        self.closed = False

    def put(self, message: Message) -> None:
        if self.closed:
            raise WaitQueue.Closed("endpoint is closed")
        self.deliver(message)

    def close(self) -> None:
        self.closed = True


class Network:
    """An in-process network connecting named endpoints.

    A due-now message is delivered on the sender's thread; a client
    caller's due-now request is served there too when its node has an
    idle serve slot, nothing queued and a quick method (:class:`_Role`).

    Args:
        latency: mean one-way delivery latency, seconds (0 = immediate).
        jitter: uniform +/- fraction applied to the latency.
        loss: probability a message is silently dropped.
        seed: RNG seed for jitter and loss decisions.
        on_error: callback invoked with any exception a delivery
            raises, on the delivering thread (the dispatcher never dies
            silently and a sender never sees it; without a callback
            errors are only counted in ``dispatch_errors``).
    """

    def __init__(self, latency: float = 0.0, jitter: float = 0.0,
                 loss: float = 0.0, seed: int = 7,
                 on_error: Optional[
                     Callable[[BaseException], None]] = None) -> None:
        self.latency = latency
        self.jitter = jitter
        self.loss = loss
        self.on_error = on_error
        self.dispatch_errors = 0
        #: deterministic delivery-fault hook (``repro.faults``): consulted
        #: per send for drop/delay/raise at named delivery sites
        self.fault_injector: Optional[object] = None
        self._rng = random.Random(seed)
        self._lock = threading.RLock()
        self._inboxes: Dict[str, Any] = {}
        self._partitions: List[Set[str]] = []
        self._down: Set[str] = set()
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self._heap: List[Tuple[float, int, Message]] = []
        #: the dispatcher is handing a popped message over: a due-now
        #: send must queue behind it
        self._delivering = False
        self._sequence = itertools.count()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="network-dispatch", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def register(self, endpoint: str, inbox: Any = None) -> Any:
        """Attach an endpoint; returns its inbox.

        An inbox is any object with a non-blocking ``put`` and a
        ``close``; the default is an unbounded :class:`WaitQueue`. The
        network calls ``put`` outside its own lock, on the sender's
        thread when the message is due now, else on the dispatcher; a
        ``put`` that raises counts as a drop and never reaches the
        sender. Nodes pass a queue that their serve threads drain and
        whose ``offer(message)`` serves a client caller's due-now
        request on the caller's thread when it returns True (see
        :class:`_Role`); clients and failure detectors pass a
        :class:`Sink`, whose ``put`` handles the message on the
        delivering thread itself.
        """
        with self._lock:
            if endpoint in self._inboxes:
                raise ValueError(f"endpoint {endpoint!r} already registered")
            if inbox is None:
                inbox = WaitQueue()
            self._inboxes[endpoint] = inbox
            return inbox

    def unregister(self, endpoint: str) -> None:
        with self._lock:
            inbox = self._inboxes.pop(endpoint, None)
            if inbox is not None:
                inbox.close()

    def endpoints(self) -> List[str]:
        with self._lock:
            return list(self._inboxes)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def partition(self, *groups: Set[str]) -> None:
        """Split endpoints into isolated groups (others see everyone)."""
        with self._lock:
            self._partitions = [set(group) for group in groups]

    def heal(self) -> None:
        with self._lock:
            self._partitions = []

    def take_down(self, endpoint: str) -> None:
        """Crash an endpoint: messages to it are dropped."""
        with self._lock:
            self._down.add(endpoint)

    def bring_up(self, endpoint: str) -> None:
        with self._lock:
            self._down.discard(endpoint)

    def is_up(self, endpoint: str) -> bool:
        with self._lock:
            return endpoint in self._inboxes and endpoint not in self._down

    def _reachable(self, source: str, dest: str) -> bool:
        if dest in self._down or source in self._down:
            return False
        for group in self._partitions:
            source_in = source in group
            dest_in = dest in group
            if source_in != dest_in:
                return False
        return True

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Deliver or queue a message, applying faults and latency.

        Unknown destinations raise :class:`NodeUnreachable` immediately
        (the simulated analogue of a connection refusal); loss and
        partitions drop silently, as a real network would. An installed
        fault injector is consulted per send: its ``skip`` action drops
        the k-th delivery to an endpoint, ``delay`` widens its latency,
        ``raise`` surfaces :class:`~repro.faults.InjectedFault` to the
        sender.
        """
        extra_delay = 0.0
        injector = self.fault_injector
        if injector is not None:
            spec = injector.deliver(message.dest)
            if spec is not None:
                if spec.action == "raise":
                    from repro.faults.plan import InjectedFault
                    with self._lock:
                        self.sent += 1
                        self.dropped += 1
                    raise InjectedFault(spec)
                if spec.action == "skip":
                    with self._lock:
                        self.sent += 1
                        self.dropped += 1
                    return
                extra_delay = spec.arg
        with self._lock:
            self.sent += 1
            if message.dest not in self._inboxes:
                raise NodeUnreachable(message.dest)
            if not self._reachable(message.source, message.dest):
                self.dropped += 1
                return
            if self.loss > 0 and self._rng.random() < self.loss:
                self.dropped += 1
                return
            delay = self.latency
            if delay > 0 and self.jitter > 0:
                delay *= 1.0 + self.jitter * (2 * self._rng.random() - 1)
            delay = max(0.0, delay) + extra_delay
            if delay > 0 or self._heap or self._delivering:
                heapq.heappush(
                    self._heap,
                    (time.monotonic() + delay, next(self._sequence),
                     message),
                )
                self._wakeup.notify()
                return
            # Due now with nothing queued ahead: deliver on this thread.
            inbox = self._inboxes[message.dest]
            self.delivered += 1
        self._put(inbox, message,
                  role.reply_by is not None and not role.serving)

    def _dispatch_loop(self) -> None:
        # Every delayed delivery flows through the dispatcher: if it
        # died on one bad message the whole network would silently
        # stop. Each step is therefore contained — errors are
        # counted, reported through on_error, and the loop continues.
        role.serving = True
        while True:
            try:
                if self._dispatch_once():
                    return
            except Exception as exc:  # noqa: BLE001 - must survive
                self._report_error(exc)

    def _dispatch_once(self) -> bool:
        """One wait-or-deliver step; True when the network has shut down."""
        with self._wakeup:
            while not self._heap and not self._closed:
                self._wakeup.wait()
            if self._closed and not self._heap:
                return True
            deliver_at, _seq, message = self._heap[0]
            now = time.monotonic()
            if deliver_at > now:
                self._wakeup.wait(deliver_at - now)
                return False
            heapq.heappop(self._heap)
            # Re-check reachability at delivery time: a partition or
            # crash that happened in flight still loses the message.
            if message.dest in self._down \
                    or message.dest not in self._inboxes \
                    or not self._reachable(message.source, message.dest):
                self.dropped += 1
                return False
            inbox = self._inboxes[message.dest]
            self.delivered += 1
            self._delivering = True
        self._put(inbox, message)
        self._delivering = False
        return False

    def _put(self, inbox: Any, message: Message,
             caller: bool = False) -> None:
        """Hand a counted delivery over; a put that raises is a drop.

        On a client ``caller``'s thread a request is first offered to an
        inbox that has ``offer``; it is put only if the offer declines.
        ``inbox.put`` is looked up per delivery, so a per-instance
        wrapper sees every queued message. A poisoned message (bad
        payload copy, broken inbox) is reported, never raised: it must
        neither reach the sender nor take the dispatcher down.
        """
        try:
            delivered = message.copy_for_delivery()
            offer = getattr(inbox, "offer", None) \
                if caller and message.kind == "request" else None
            if offer is None or not offer(delivered):
                inbox.put(delivered)
        except Exception as exc:  # noqa: BLE001 - must not propagate
            with self._lock:
                self.delivered -= 1
                self.dropped += 1
            if not isinstance(exc, WaitQueue.Closed):
                self._report_error(exc)

    def _report_error(self, exc: BaseException) -> None:
        with self._lock:
            self.dispatch_errors += 1
        callback = self.on_error
        if callback is not None:
            try:
                callback(exc)
            except Exception:  # noqa: BLE001 - error hook must not kill us
                pass

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "sent": self.sent,
                "delivered": self.delivered,
                "dropped": self.dropped,
                "in_flight": len(self._heap),
                "dispatch_errors": self.dispatch_errors,
            }

    def close(self) -> None:
        with self._wakeup:
            self._closed = True
            self._wakeup.notify_all()
        for endpoint in list(self._inboxes):
            self.unregister(endpoint)

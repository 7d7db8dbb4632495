"""Join-point event bus and sequence tracing.

The paper communicates its runtime protocol through UML sequence diagrams
(Figure 2: initialization; Figure 3: method invocation). To *reproduce*
those figures executably, the framework emits a structured event for every
protocol step; a :class:`Tracer` collects them and renders the same
message sequences the diagrams show.

Event kinds (one per arrow in the diagrams):

==================  ====================================================
kind                 meaning
==================  ====================================================
``create_aspect``    proxy asked the factory to create an aspect
``register_aspect``  aspect stored in the bank/moderator
``preactivation``    proxy delegated pre-activation to the moderator
``precondition``     moderator evaluated one aspect's precondition
``blocked``          activation parked on a wait queue
``unblocked``        activation woken for re-evaluation
``invoke``           proxy invoked the participating method
``postactivation``   proxy delegated post-activation to the moderator
``postaction``       moderator ran one aspect's postaction
``notify``           moderator notified wait queues
``abort``            activation aborted
``compensate``       on_abort compensation ran for an aspect
``lock_domain``      method (re)assigned to a lock domain (detail holds
                     the domain name; empty = back to its own stripe)
``aspect_fault``     an aspect raised out of a protocol phase (detail:
                     ``"<phase>: <exception type>"``)
``quarantine``       a (method, concern) cell hit its fault threshold
                     (detail holds the policy: fail_open/fail_closed)
``reinstate``        a quarantined cell was manually reinstated
``degraded_skip``    a fail-open quarantined aspect was skipped
``watchdog_stall``   the stall watchdog found activations parked past
                     their deadline (detail holds the summary)
``timeout``          a parked activation exhausted its timeout and is
                     about to raise ``ActivationTimeout``
==================  ====================================================

Delivery is decided at the head. A listener may declare a
``sample_rate`` N; the bus samples 1-in-M activations, M being the
smallest rate any subscribed listener declares (a listener declaring
none counts as 1, so a :class:`Tracer` still sees every arrow). The
moderator asks :meth:`EventBus.sample` once, at preactivation, and
stores the answer on the join point.

Every observed activation (one that met a subscriber at its
preactivation) tallies its arrows on its join point as ``(kind,
concern, detail, duration)`` items, and the bus hands that tally to
each *fold* — an exact-accounting callable ``fold(method_id, items)`` —
once per activation (:meth:`EventBus.flush`), which is how metrics and
the span recorder's counters stay exact under sampling. A sampled
activation tallies on a :class:`DeliveringTally`, which also delivers a
:class:`TraceEvent` to the listeners at each arrow; an unsampled one
builds none and calls no listener. Events outside an activation, and
the rare arrows the moderator still sends one by one through
:meth:`EventBus.emit`, reach the folds as a one-item tally.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple,
)

EventListener = Callable[["TraceEvent"], None]
#: one arrow as a fold sees it: ``(kind, concern, detail, duration)``
TallyItem = Tuple[str, str, str, float]
#: exact-accounting hook: ``fold(method_id, items)``, called once per
#: activation with its tally, sampled or not
EventFold = Callable[[str, Sequence[TallyItem]], None]


class TraceEvent:
    """One step of the moderation protocol.

    ``timestamp`` defaults to ``time.monotonic()`` at construction;
    ``duration`` is the seconds the step took (0.0 when the emitter
    didn't time it — timing is only measured for observed activations,
    so the fast path stays free when nobody is watching).
    """

    __slots__ = ("kind", "method_id", "concern", "detail",
                 "activation_id", "timestamp", "duration")

    def __init__(self, kind: str, method_id: str = "", concern: str = "",
                 detail: str = "", activation_id: int = 0,
                 timestamp: Optional[float] = None,
                 duration: float = 0.0) -> None:
        self.kind = kind
        self.method_id = method_id
        self.concern = concern
        self.detail = detail
        self.activation_id = activation_id
        self.timestamp = (
            time.monotonic() if timestamp is None else timestamp
        )
        self.duration = duration

    def format(self) -> str:
        """Render as one line of a textual sequence diagram."""
        parts = [self.kind, self.method_id]
        if self.concern:
            parts.append(f"[{self.concern}]")
        if self.detail:
            parts.append(f"-> {self.detail}")
        return " ".join(part for part in parts if part)


class EventBus:
    """Synchronous fan-out of protocol events to registered subscribers.

    The moderator gates every activation-scoped arrow on its join
    point's tally (:attr:`~repro.core.joinpoint.JoinPoint.tally`, set at
    preactivation only while someone is subscribed), so with zero
    subscribers an activation makes no bus call and builds no argument
    for one; any other emit with zero subscribers is one attribute load
    and a return (``tests/unit/test_accounting.py`` counts the calls,
    ``benchmarks/bench_fig03_invocation.py`` times the path).

    Two kinds of subscriber share the bus:

    * **listeners** get a :class:`TraceEvent` for every arrow of a
      *sampled* activation (:meth:`deliver`), for every event outside
      an activation, and for the few arrows an emitter delivers
      whatever its activation's decision (``sampled=True``);
    * **folds** get every observed activation's tally once,
      ``fold(method_id, items)`` (:meth:`flush`), and build nothing; an
      :meth:`emit` reaches them as a one-item tally. :meth:`subscribe`
      registers the ``fold=`` it is given, or else the listener's
      ``fold`` attribute if it has one, beside the listener;
      :meth:`subscribe_fold` registers a bare fold.

    Subscriber tuples are **copy-on-write**: ``emit`` reads them without
    a lock or a copy (rebinding a tuple is atomic under the GIL) and
    mutations build fresh tuples under the subscription lock. A raising
    subscriber is **isolated**: its exception is swallowed (counted in
    :attr:`listener_errors`, once per event or per tally) instead of
    propagating into the moderation protocol and starving later
    subscribers — observers must never be able to abort an activation.
    """

    def __init__(self) -> None:
        self._listeners: Tuple[EventListener, ...] = ()
        self._folds: Tuple[EventFold, ...] = ()
        #: (listener or None, fold or None, sample rate) per subscription
        self._subscriptions: Tuple[
            Tuple[Optional[EventListener], Optional[EventFold], int], ...
        ] = ()
        self._lock = threading.Lock()
        #: someone is subscribed: the gate of ``emit`` and of an
        #: activation's tally (and with it the moderator's clock reads)
        self.has_listeners = False
        #: 1-in-N activations are sampled; N is the smallest rate a
        #: subscribed listener declares
        self.sample_rate = 1
        self._ticks = itertools.count()
        #: exceptions swallowed from raising subscribers so far
        self.listener_errors = 0
        #: wall-clock anchor: (``time.time()``, ``time.monotonic()``)
        #: captured together once, so exporters can translate the
        #: monotonic event timestamps into cross-process-comparable
        #: wall-clock instants
        self.anchor: Tuple[float, float] = (time.time(), time.monotonic())

    def subscribe(self, listener: EventListener,
                  fold: Optional[EventFold] = None) -> Callable[[], None]:
        """Add ``listener``; returns an unsubscribe callable.

        An integer ``sample_rate`` attribute on the listener asks for
        1-in-N activations (default: every one). ``fold``, or else the
        listener's ``fold`` attribute, is subscribed with it and gets
        every observed activation's tally.
        """
        rate = getattr(listener, "sample_rate", 1)
        if not isinstance(rate, int) or rate < 1:
            rate = 1
        if fold is None:
            fold = getattr(listener, "fold", None)
        return self._add((listener, fold, rate))

    def subscribe_fold(self, fold: EventFold) -> Callable[[], None]:
        """Add a bare fold: every tally, no sampling say."""
        return self._add((None, fold, 0))

    def _add(self, subscription: Tuple[Any, Any, int]
             ) -> Callable[[], None]:
        with self._lock:
            self._install(self._subscriptions + (subscription,))

        def unsubscribe() -> None:
            with self._lock:
                subscriptions = list(self._subscriptions)
                if subscription in subscriptions:
                    subscriptions.remove(subscription)
                    self._install(tuple(subscriptions))

        return unsubscribe

    def _install(self, subscriptions: Tuple[Any, ...]) -> None:
        """Rebuild the fan-out tuples (under ``_lock``).

        A changed sampling rate restarts the tick, so the first
        activation after the change is sampled. A bus left without
        listeners keeps its rate and tick: re-subscribing the same
        listeners resumes the sequence instead of restarting it.
        """
        listeners = tuple(
            listener for listener, _fold, _rate in subscriptions
            if listener is not None
        )
        if listeners:
            rate = min(rate for listener, _fold, rate in subscriptions
                       if listener is not None)
            if rate != self.sample_rate:
                self.sample_rate = rate
                self._ticks = itertools.count()
        self._subscriptions = subscriptions
        self._listeners = listeners
        self._folds = tuple(
            fold for _listener, fold, _rate in subscriptions
            if fold is not None
        )
        self.has_listeners = bool(subscriptions)

    def sample(self) -> bool:
        """The head decision for one activation: build its events?

        The first activation after a rate change is sampled, then every
        ``sample_rate``-th, counting every activation on the bus.
        """
        return next(self._ticks) % self.sample_rate == 0

    def to_wall(self, timestamp: float) -> float:
        """A monotonic event timestamp as a wall-clock instant."""
        wall, mono = self.anchor
        return timestamp - mono + wall

    def emit(self, kind: str, method_id: str = "", concern: str = "",
             detail: str = "", activation_id: int = 0,
             duration: float = 0.0, sampled: bool = True) -> None:
        """Fold the event as a one-item tally, then deliver it if
        ``sampled``.

        Activation-scoped emits pass their join point's head decision;
        events outside an activation keep the default and reach every
        listener.
        """
        if not self.has_listeners:
            return
        if self._folds:
            self.flush(method_id, ((kind, concern, detail, duration),))
        if sampled:
            self.deliver(kind, method_id, concern, detail, activation_id,
                         duration)

    def flush(self, method_id: str, items: Sequence[TallyItem]) -> None:
        """Hand one tally of ``method_id``'s arrows to every fold."""
        for fold in self._folds:
            try:
                fold(method_id, items)
            except Exception:
                self._count_error()

    def deliver(self, kind: str, method_id: str = "", concern: str = "",
                detail: str = "", activation_id: int = 0,
                duration: float = 0.0) -> None:
        """Build one :class:`TraceEvent` and hand it to every listener;
        no fold (an activation's arrows reach the folds in its tally)."""
        listeners = self._listeners
        if not listeners:
            return
        event = TraceEvent(kind, method_id, concern, detail, activation_id,
                           duration=duration)
        for listener in listeners:
            try:
                listener(event)
            except Exception:
                self._count_error()

    def _count_error(self) -> None:
        with self._lock:
            self.listener_errors += 1


class DeliveringTally(list):
    """A sampled activation's tally: appending an arrow also delivers
    it to the bus's listeners, as it happens. An unsampled activation
    tallies on a plain ``list``, whose ``append`` calls nothing."""

    __slots__ = ("bus", "method_id", "activation_id")

    def __init__(self, bus: EventBus, method_id: str,
                 activation_id: int) -> None:
        super().__init__()
        self.bus = bus
        self.method_id = method_id
        self.activation_id = activation_id

    def append(self, item: TallyItem) -> None:
        list.append(self, item)
        kind, concern, detail, duration = item
        self.bus.deliver(kind, self.method_id, concern, detail,
                         self.activation_id, duration)


class Tracer:
    """Collects protocol events in order; regenerates Figures 2 and 3.

    Usage::

        tracer = Tracer()
        unsubscribe = moderator.events.subscribe(tracer)
        ... exercise the system ...
        print(tracer.render())

    Args:
        maxlen: optional bound on retained events. Unbounded by default
            (figure reproduction needs every arrow), but a tracer left
            subscribed to a long-running moderator grows without limit —
            soak tests and always-on diagnostics should cap it. When the
            ring is full each new event evicts the oldest;
            :attr:`dropped` counts the evictions, so consumers can tell
            a short trace from a truncated one.
    """

    def __init__(self, maxlen: Optional[int] = None) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError("maxlen must be at least 1 (or None)")
        self.maxlen = maxlen
        self._lock = threading.Lock()
        self._events: Deque[TraceEvent] = deque(maxlen=maxlen)
        self._dropped = 0
        #: wall-clock anchor, captured once: see ``EventBus.anchor``
        self.anchor: Tuple[float, float] = (time.time(), time.monotonic())

    def __call__(self, event: TraceEvent) -> None:
        with self._lock:
            if self.maxlen is not None and \
                    len(self._events) == self.maxlen:
                self._dropped += 1
            self._events.append(event)

    @property
    def events(self) -> List[TraceEvent]:
        with self._lock:
            return list(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted from a full ring so far (0 when unbounded)."""
        with self._lock:
            return self._dropped

    def kinds(self) -> List[str]:
        """Sequence of event kinds in emission order (diagram arrows)."""
        return [event.kind for event in self.events]

    def for_activation(self, activation_id: int) -> List[TraceEvent]:
        return [
            event for event in self.events
            if event.activation_id == activation_id
        ]

    def for_method(self, method_id: str) -> List[TraceEvent]:
        return [
            event for event in self.events if event.method_id == method_id
        ]

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.kind == kind)

    def to_wall(self, timestamp: float) -> float:
        """A monotonic event timestamp as a wall-clock instant."""
        wall, mono = self.anchor
        return timestamp - mono + wall

    def clear(self) -> None:
        """Start a fresh trace: drop retained events and the drop count."""
        with self._lock:
            self._events.clear()
            self._dropped = 0

    def render(self) -> str:
        """Textual sequence diagram: one line per protocol arrow."""
        return "\n".join(event.format() for event in self.events)

    def summary(self) -> Dict[str, int]:
        """Event-kind histogram; convenient for assertions and benches."""
        histogram: Dict[str, int] = {}
        for event in self.events:
            histogram[event.kind] = histogram.get(event.kind, 0) + 1
        return histogram

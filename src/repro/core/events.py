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
none counts as 1, so a :class:`Tracer` still sees every arrow). The moderator asks
:meth:`EventBus.sample` once, at preactivation, stores the answer on the
join point and passes it to every emit of that activation. An unsampled
activation's events build no :class:`TraceEvent` and reach no listener;
only the bus's *folds* see them — exact-accounting callables invoked
for every event with positional fields, which is how metrics and the
span recorder's counters stay exact under sampling.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

EventListener = Callable[["TraceEvent"], None]
#: exact-accounting hook: ``fold(kind, method_id, concern, detail,
#: duration)``, called for every event, sampled or not
EventFold = Callable[[str, str, str, str, float], None]


@dataclass(frozen=True)
class TraceEvent:
    """One step of the moderation protocol."""

    kind: str
    method_id: str = ""
    concern: str = ""
    detail: str = ""
    activation_id: int = 0
    thread_name: str = field(
        default_factory=lambda: threading.current_thread().name
    )
    timestamp: float = field(default_factory=time.monotonic)
    #: seconds the step took (0.0 when the emitter didn't time it —
    #: timing is only measured when the bus has listeners, so the
    #: allocation-free fast path stays free when nobody is watching)
    duration: float = 0.0

    def format(self) -> str:
        """Render as one line of a textual sequence diagram."""
        parts = [self.kind, self.method_id]
        if self.concern:
            parts.append(f"[{self.concern}]")
        if self.detail:
            parts.append(f"-> {self.detail}")
        return " ".join(part for part in parts if part)


class EventBus:
    """Synchronous fan-out of protocol events to registered listeners.

    The moderator guards every activation-scoped emit at its call site
    with :attr:`has_listeners`, so with zero subscribers an activation
    makes no ``emit`` call and builds no argument for one; any other
    emit with zero subscribers is one attribute load and a return
    (``tests/unit/test_accounting.py`` counts the calls,
    ``benchmarks/bench_fig03_invocation.py`` times the path).

    Two kinds of subscriber share the bus:

    * **listeners** get a :class:`TraceEvent` for every event of a
      *sampled* activation, for every event outside an activation, and
      for the few arrows an emitter delivers whatever its activation's
      decision (``sampled=True``);
    * **folds** get the positional fields of *every* event and build
      nothing. :meth:`subscribe` registers a listener's ``fold``
      attribute, if it has one, beside it; :meth:`subscribe_fold`
      registers a bare fold.

    Subscriber tuples are **copy-on-write**: ``emit`` reads them without
    a lock or a copy (rebinding a tuple is atomic under the GIL) and
    mutations build fresh tuples under the subscription lock. A raising
    subscriber is **isolated**: its exception is swallowed (counted in
    :attr:`listener_errors`) instead of propagating into the moderation
    protocol and starving later subscribers — observers must never be
    able to abort an activation.
    """

    def __init__(self) -> None:
        self._listeners: Tuple[EventListener, ...] = ()
        self._folds: Tuple[EventFold, ...] = ()
        #: (listener or None, fold or None, sample rate) per subscription
        self._subscriptions: Tuple[
            Tuple[Optional[EventListener], Optional[EventFold], int], ...
        ] = ()
        self._lock = threading.Lock()
        #: someone is subscribed: the gate of ``emit`` and of the
        #: moderator's clock reads
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

    def subscribe(self, listener: EventListener) -> Callable[[], None]:
        """Add ``listener``; returns an unsubscribe callable.

        An integer ``sample_rate`` attribute on the listener asks for
        1-in-N activations (default: every one); a ``fold`` attribute is
        subscribed with it and sees every event.
        """
        rate = getattr(listener, "sample_rate", 1)
        if not isinstance(rate, int) or rate < 1:
            rate = 1
        return self._add((listener, getattr(listener, "fold", None), rate))

    def subscribe_fold(self, fold: EventFold) -> Callable[[], None]:
        """Add a bare fold: every event's fields, no sampling say."""
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
        """Fold the event, then deliver it if ``sampled``.

        Activation-scoped emits pass their join point's head decision;
        events outside an activation keep the default and reach every
        listener.
        """
        if not self.has_listeners:
            return
        for fold in self._folds:
            try:
                fold(kind, method_id, concern, detail, duration)
            except Exception:
                self._count_error()
        if not sampled:
            return
        listeners = self._listeners
        if not listeners:
            return
        event = TraceEvent(
            kind=kind,
            method_id=method_id,
            concern=concern,
            detail=detail,
            activation_id=activation_id,
            duration=duration,
        )
        for listener in listeners:
            try:
                listener(event)
            except Exception:
                self._count_error()

    def _count_error(self) -> None:
        with self._lock:
            self.listener_errors += 1


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

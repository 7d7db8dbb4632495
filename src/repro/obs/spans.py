"""Activation spans: the moderation protocol as a tree of timed segments.

The flat :class:`~repro.core.events.TraceEvent` stream reproduces the
paper's sequence diagrams, but a flat stream cannot answer where an
activation *spent its time*. :class:`SpanRecorder` is a bus listener
that derives one span tree per activation from the stream (plus the
moderator's timing hooks — event ``duration`` fields)::

    activation open #17                      [trace t, span s]
    ├── pre_activation
    │   ├── precondition[auth]      (resume)
    │   ├── precondition[sync]      (block)
    │   ├── blocked[sync]           ← parked on the wait queue
    │   ├── precondition[auth]      (resume)   ← re-evaluation round
    │   └── precondition[sync]      (resume)
    ├── invoke
    ├── post_activation
    │   ├── postaction[sync]
    │   └── postaction[auth]
    └── notify

plus **wake edges** — causal links from a completing activation's
``notify`` to the activations its notification unparked — and
``watchdog_stall`` / fault / quarantine annotations on the span they
concern.

A tree is a view of the events, so it is built when it is read. A
sampled activation whose arrows stay on the fast path (preactivation,
precondition, invoke, postactivation, postaction, notify) only has its
events kept, with the trace context current at its preactivation. Its
tree is built — span and trace ids drawn, the events dropped — the
first time a reader asks for it (:attr:`SpanRecorder.finished`,
:meth:`~SpanRecorder.active`, :meth:`~SpanRecorder.trace_of`, the
exports and aggregates), when a wake edge names it as notifier, or
when any other arrow of the activation arrives (blocked, abort, fault,
stall, a late contract verdict, ...); from then on that activation's
tree grows as each arrow arrives. So an activation costs the recorder
a list append per arrow, and the reader pays for the trees it reads: a
read of the finished ring builds the trees it finds unbuilt outside the
recorder's lock, so recording does not wait on it.

Timestamps inside a span are ``time.monotonic`` values from the events;
the recorder stamps a wall-clock anchor once at construction and applies
it at export (:meth:`Span.to_dict`), because monotonic clocks are
incomparable across processes. Cross-node stitching uses the trace
context propagated by :mod:`repro.obs.propagation`: when a
``preactivation`` event arrives while a context is active on the
emitting thread, the new activation roots under the propagated span.

The recorder is bounded: at most ``max_finished`` completed activations
are retained (a ring, like the :class:`~repro.core.events.Tracer`;
an activation evicted before it was read is dropped unbuilt, and
counted in :attr:`SpanRecorder.dropped` like any other), and
activations that terminate without a closing event (a precondition
fault, a timeout) are finalized by the terminal ``aspect_fault`` /
``timeout`` event so nothing leaks.

Sampling is the bus's decision, made at the head: the recorder declares
``sample_rate`` and receives events only for sampled activations (plus
a ``notify`` that woke a parked activation, and events outside any
activation). Its exact per-method :attr:`SpanRecorder.counts` come from
a fold the bus calls once with every activation's tally of arrows,
sampled or not: the plane's one fold, or the recorder's own alone.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.core.events import TallyItem, TraceEvent

from . import propagation
from .metrics import MetricsRegistry

__all__ = ["Span", "SpanRecorder", "WakeEdge", "stitch_traces"]

#: the exact per-method counters
_COUNT_NAMES = ("activations", "aborted", "timeouts", "faults")
#: event kind -> the exact counter it bumps (sampled or not)
_COUNTED: Dict[str, str] = {
    "preactivation": "activations",
    "abort": "aborted",
    "timeout": "timeouts",
    "aspect_fault": "faults",
}
_COUNTS_FAMILY = "span_recorder_counts"


@dataclass
class Span:
    """One timed segment of an activation (or the activation itself)."""

    name: str
    method_id: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start: float
    end: Optional[float] = None
    concern: str = ""
    activation_id: int = 0
    node: str = ""
    status: str = "ok"
    #: (monotonic timestamp, text) notes — faults, stalls, details
    annotations: List[Tuple[float, str]] = field(default_factory=list)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds covered; 0.0 while the span is still open."""
        return (self.end - self.start) if self.end is not None else 0.0

    def child(self, name: str, start: float, concern: str = "",
              span_id: Optional[str] = None) -> "Span":
        span = Span(
            name=name, method_id=self.method_id,
            trace_id=self.trace_id,
            span_id=span_id or propagation.new_span_id(),
            parent_id=self.span_id, start=start, concern=concern,
            activation_id=self.activation_id, node=self.node,
        )
        self.children.append(span)
        return span

    def walk(self) -> List["Span"]:
        """This span and every descendant, depth-first."""
        spans = [self]
        for child in self.children:
            spans.extend(child.walk())
        return spans

    def to_dict(self, anchor: Tuple[float, float]) -> Dict[str, Any]:
        """Export with wall-clock timestamps (anchor = (wall, mono))."""
        wall, mono = anchor
        end = self.end if self.end is not None else self.start
        return {
            "name": self.name,
            "method_id": self.method_id,
            "concern": self.concern,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "activation_id": self.activation_id,
            "node": self.node,
            "status": self.status,
            "start": self.start - mono + wall,
            "end": end - mono + wall,
            "duration": end - self.start,
            "annotations": [
                (ts - mono + wall, text) for ts, text in self.annotations
            ],
            "children": [
                child.to_dict(anchor) for child in self.children
            ],
        }

    def format(self, indent: int = 0) -> str:
        """Human-readable tree rendering (durations in µs)."""
        label = self.name
        if self.concern:
            label += f"[{self.concern}]"
        micros = self.duration * 1e6
        line = (
            f"{'  ' * indent}{label:<28} {micros:10.1f}µs"
            + (f"  ({self.status})" if self.status != "ok" else "")
        )
        lines = [line]
        for ts, text in self.annotations:
            lines.append(f"{'  ' * (indent + 1)}@ {text}")
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)


@dataclass(frozen=True)
class WakeEdge:
    """Causal link: a ``notify`` and the activation it unparked."""

    notifier_activation: int
    notifier_span: str
    woken_activation: int
    woken_span: str
    timestamp: float


class _Active:
    """One activation's span tree while it grows: the root and the open
    segments new arrows attach to. Each ``on_<kind>`` method takes one
    arrow and answers whether it ended the activation."""

    __slots__ = ("root", "pre", "invoke", "post", "blocked")

    def __init__(self, event: TraceEvent, node: str,
                 context: Optional[propagation.TraceContext]) -> None:
        if context is not None:
            trace_id = context.trace_id
            parent_id: Optional[str] = context.span_id
        else:
            trace_id = propagation.new_trace_id()
            parent_id = None
        root = self.root = Span(
            name="activation", method_id=event.method_id,
            trace_id=trace_id, span_id=propagation.new_span_id(),
            parent_id=parent_id, start=event.timestamp,
            activation_id=event.activation_id, node=node,
        )
        if context is not None and context.baggage:
            # Propagated annotations (e.g. the shard router's
            # ``shard=...``) land on the activation root, so per-shard
            # traces can be grouped without parsing method ids.
            for key, value in context.baggage:
                root.annotations.append(
                    (event.timestamp, f"{key}={value}")
                )
        self.pre: Optional[Span] = root.child(
            "pre_activation", event.timestamp)
        self.invoke: Optional[Span] = None
        self.post: Optional[Span] = None
        self.blocked: Optional[Span] = None

    def _phase_span(self) -> Span:
        """The segment new protocol arrows currently belong to."""
        if self.post is not None:
            return self.post
        if self.pre is not None:
            return self.pre
        return self.root

    def _close_pre(self, timestamp: float) -> None:
        if self.pre is not None and self.pre.end is None:
            self.pre.end = timestamp

    def on_precondition(self, event: TraceEvent) -> bool:
        parent = self.pre if self.pre is not None else self.root
        span = parent.child(
            "precondition", event.timestamp - event.duration,
            concern=event.concern,
        )
        span.end = event.timestamp
        if event.detail and event.detail != "resume":
            span.status = event.detail
        return False

    def on_blocked(self, event: TraceEvent) -> bool:
        parent = self.pre if self.pre is not None else self.root
        self.blocked = parent.child(
            "blocked", event.timestamp, concern=event.concern,
        )
        return False

    def on_unblocked(self, event: TraceEvent) -> bool:
        if self.blocked is not None:
            self.blocked.end = event.timestamp
            self.blocked = None
        return False

    def on_invoke(self, event: TraceEvent) -> bool:
        self._close_pre(event.timestamp)
        self.invoke = self.root.child("invoke", event.timestamp)
        return False

    def on_postactivation(self, event: TraceEvent) -> bool:
        # an invocation skipped (e.g. a cache hit) leaves pre-activation
        # open: close it here instead
        self._close_pre(event.timestamp)
        if self.invoke is not None and self.invoke.end is None:
            self.invoke.end = event.timestamp
        self.post = self.root.child("post_activation", event.timestamp)
        return False

    def on_postaction(self, event: TraceEvent) -> bool:
        parent = self.post if self.post is not None else self.root
        span = parent.child(
            "postaction", event.timestamp - event.duration,
            concern=event.concern,
        )
        span.end = event.timestamp
        return False

    def on_notify(self, event: TraceEvent) -> bool:
        if self.post is not None and self.post.end is None:
            self.post.end = event.timestamp
        span = self.root.child("notify", event.timestamp)
        span.end = event.timestamp
        return True

    def on_abort(self, event: TraceEvent) -> bool:
        self._close_pre(event.timestamp)
        self.root.status = "aborted"
        if event.concern:
            self.root.annotations.append(
                (event.timestamp, f"aborted by {event.concern}")
            )
        return True

    def on_timeout(self, event: TraceEvent) -> bool:
        self._close_pre(event.timestamp)
        self.root.status = "timeout"
        self.root.annotations.append(
            (event.timestamp, f"activation timeout: {event.detail}")
        )
        return True

    def on_compensate(self, event: TraceEvent) -> bool:
        self._phase_span().annotations.append(
            (event.timestamp, f"compensate[{event.concern}]")
        )
        return False

    def on_aspect_fault(self, event: TraceEvent) -> bool:
        self._phase_span().annotations.append(
            (event.timestamp,
             f"aspect_fault[{event.concern}] {event.detail}")
        )
        if event.detail.startswith("precondition") and self.post is None:
            # A raising precondition propagates out of pre-activation:
            # no abort/invoke event will follow, so this is terminal.
            self.root.status = "fault"
            self._close_pre(event.timestamp)
            return True
        return False

    def on_degraded_skip(self, event: TraceEvent) -> bool:
        self._phase_span().annotations.append(
            (event.timestamp, f"degraded_skip[{event.concern}]")
        )
        return False

    def on_contract_violation(self, event: TraceEvent) -> bool:
        """A contract verdict — detail is ``kind:clause:blame``.

        A ``require``-phase violation arrives while the activation is
        still open and propagates out of pre-activation, so no
        abort/invoke event will follow: terminal here. A post-phase
        verdict of a finished activation is the recorder's
        (:meth:`SpanRecorder._late_verdict`).
        """
        self.root.status = "contract"
        self._phase_span().annotations.append(
            (event.timestamp, f"contract_violation: {event.detail}")
        )
        if self.post is None:
            self._close_pre(event.timestamp)
            return True
        return False

    def on_watchdog_stall(self, event: TraceEvent) -> bool:
        self.root.annotations.append(
            (event.timestamp, f"watchdog_stall: {event.detail}")
        )
        self.root.status = "stalled"
        return False

    def close(self, timestamp: float) -> None:
        if self.blocked is not None and self.blocked.end is None:
            self.blocked.end = timestamp
        self.root.end = timestamp


#: kind -> the arrow that grows a tree with it
_ARROWS: Dict[str, Callable[[_Active, TraceEvent], bool]] = {
    kind: getattr(_Active, "on_" + kind) for kind in (
        "precondition", "blocked", "unblocked", "invoke",
        "postactivation", "postaction", "notify", "abort", "timeout",
        "compensate", "aspect_fault", "degraded_skip",
        "contract_violation", "watchdog_stall",
    )
}
#: the fast-path arrows an unbuilt activation holds as events
_HELD = frozenset(("precondition", "invoke", "postactivation",
                   "postaction"))


class _Events:
    """A sampled activation's fast-path events, held until something
    reads or links its tree; a finished one then keeps the tree
    (``root``) and drops its events. The finished ring holds only
    these: an activation whose tree grew as it ran retires as one
    already built (:meth:`built`)."""

    __slots__ = ("activation_id", "context", "events", "root")

    def __init__(self, event: TraceEvent,
                 context: Optional[propagation.TraceContext]) -> None:
        self.activation_id = event.activation_id
        #: the trace context current at preactivation
        self.context = context
        self.events: Optional[List[TraceEvent]] = [event]
        self.root: Optional[Span] = None

    @classmethod
    def built(cls, root: Span) -> "_Events":
        item = cls.__new__(cls)
        item.activation_id = root.activation_id
        item.context = None
        item.events = None
        item.root = root
        return item


class SpanRecorder:
    """EventBus listener keeping activation span trees, built on read.

    Subscribe it like a :class:`~repro.core.events.Tracer`::

        recorder = SpanRecorder(node="node-a")
        unsubscribe = moderator.events.subscribe(recorder)

    Args:
        node: label stamped on every span (host/process identity).
        max_finished: ring bound on retained completed activations.
        sample_rate: keep span trees for 1-in-N activations (1 = every
            activation, the default). The rate is declared to the bus,
            which samples at preactivation; an unsampled activation
            builds no events at all. The exact per-method counters in
            :attr:`counts` are folded for *every* activation regardless
            — sampling drops fidelity (which activations get trees),
            never accuracy (how many ran, aborted, timed out, faulted).
            A ``notify`` that woke a parked activation is delivered
            whatever its own decision, so wake edges keep their
            notifier. Contract verdicts and watchdog stalls of an
            unsampled activation are delivered too, and land in
            :attr:`orphans`.
    """

    def __init__(self, node: str = "local",
                 max_finished: int = 4096,
                 sample_rate: int = 1) -> None:
        self.node = node
        self.sample_rate = max(1, int(sample_rate))
        self._fresh_counts()
        self._lock = threading.Lock()
        #: in flight: held events until read, then the growing tree
        self._active: Dict[int, Union[_Events, _Active]] = {}
        #: finished: roots, and held events (built on first read)
        self._finished: Deque[_Events] = deque(
            maxlen=max_finished)
        self._wake_edges: Deque[WakeEdge] = deque(maxlen=max_finished)
        #: (activation, its notify span id -- or its held events, or ""
        #: without a tree, timestamp) of the last notify seen
        self._last_notify: Optional[Tuple[int, Any, float]] = None
        #: events with no activation to attach to (quarantine flips,
        #: node_state transitions, ...) — kept for the plane to surface
        self.orphans: Deque[TraceEvent] = deque(maxlen=max_finished)
        self.dropped = 0
        #: wall-clock anchor applied at export: (time.time, monotonic)
        #: captured together once, so exported spans from different
        #: processes are comparable even though monotonic epochs differ
        self.anchor: Tuple[float, float] = (time.time(), time.monotonic())

    # ------------------------------------------------------------------
    # exact counters (every tally, sampled or not)
    # ------------------------------------------------------------------
    def _fresh_counts(self) -> None:
        """Exact counters on a private striped registry, read as one
        consistent snapshot (:attr:`counts`)."""
        self._registry = MetricsRegistry()
        self._counters = self._registry.counter(
            _COUNTS_FAMILY, labelnames=("method", "counter"),
        )
        #: per thread: the plane's fold programs, which write into this
        #: registry and so are dropped with it
        self._local = threading.local()

    def fold(self, method_id: str, items: Sequence[TallyItem]) -> None:
        """Bump the exact counter each tallied arrow's kind maps to:
        the recorder's own fold, when it is subscribed without a plane
        (a plane's one fold writes the same counters)."""
        for kind, _concern, _detail, _duration in items:
            name = _COUNTED.get(kind)
            if name is not None:
                self._counters.labels(method_id, name).inc()

    @property
    def counts(self) -> Dict[str, Dict[str, int]]:
        """Exact per-method counters, kept for every activation whether
        sampled or not: method_id -> {activations, aborted, timeouts,
        faults}. A fresh copy from a consistent registry snapshot."""
        counts: Dict[str, Dict[str, int]] = {}
        samples = self._registry.snapshot().get(_COUNTS_FAMILY, {})
        for (method_id, name), value in samples.items():
            per_method = counts.setdefault(
                method_id, dict.fromkeys(_COUNT_NAMES, 0)
            )
            per_method[name] = int(value)
        return counts

    # ------------------------------------------------------------------
    # event consumption (sampled activations)
    # ------------------------------------------------------------------
    def __call__(self, event: TraceEvent) -> None:
        kind = event.kind
        activation_id = event.activation_id
        with self._lock:
            if kind == "preactivation":
                self._active[activation_id] = _Events(
                    event, propagation.current())
                return
            record = self._active.get(activation_id)
            if record.__class__ is _Events:
                if kind in _HELD:
                    record.events.append(event)
                    return
                if kind == "notify":
                    record.events.append(event)
                    del self._active[activation_id]
                    self._retire(record)
                    self._last_notify = (
                        activation_id, record, event.timestamp)
                    return
                if kind in _ARROWS:
                    # any other arrow of the activation: build its tree
                    # so far, and grow it eagerly from here on
                    record = self._active[activation_id] = \
                        self._build(record)
            arrow = _ARROWS.get(kind)
            if record is None:
                self._unattached(event)
            elif arrow is None:
                self.orphans.append(event)
            else:
                blocked = record.blocked
                if arrow(record, event):
                    del self._active[activation_id]
                    record.close(event.timestamp)
                    self._retire(_Events.built(record.root))
                    if kind == "notify":
                        self._last_notify = (
                            activation_id, record.root.children[-1].span_id,
                            event.timestamp)
                elif kind == "unblocked" and blocked is not None:
                    self._link(activation_id, blocked.span_id,
                               event.timestamp)

    def _unattached(self, event: TraceEvent) -> None:
        """An event with no activation in flight here."""
        kind = event.kind
        if kind == "notify":
            # a registration wake, or the notify of an unsampled
            # activation that woke a parked one: there is no activation
            # span; remember it for wake attribution
            self._last_notify = (
                event.activation_id, "", event.timestamp)
        elif kind == "contract_violation":
            self._late_verdict(event)
        elif kind not in _ARROWS or kind in ("aspect_fault",
                                             "watchdog_stall"):
            self.orphans.append(event)

    def _late_verdict(self, event: TraceEvent) -> None:
        """A post-phase contract verdict is raised *after* the wake
        concluded its activation, so it lands on the finished root
        retroactively (built now, if it was not yet)."""
        for item in reversed(self._finished):
            if item.activation_id == event.activation_id:
                root = self._root_of(item)
                root.status = "contract"
                root.annotations.append(
                    (event.timestamp, f"contract_violation: {event.detail}")
                )
                return
        self.orphans.append(event)

    def _link(self, woken: int, woken_span: str, timestamp: float) -> None:
        """A wake edge from the last notify to an unparked activation;
        an unbuilt notifier is built to name its ``notify`` span."""
        if self._last_notify is None:
            return
        notifier, notifier_span, notified = self._last_notify
        if notifier_span.__class__ is _Events:
            notifier_span = self._root_of(notifier_span).children[-1].span_id
            self._last_notify = (notifier, notifier_span, notified)
        self._wake_edges.append(WakeEdge(
            notifier_activation=notifier,
            notifier_span=notifier_span,
            woken_activation=woken,
            woken_span=woken_span,
            timestamp=timestamp,
        ))

    def _retire(self, item: _Events) -> None:
        """Append a finished activation's record to the ring."""
        if len(self._finished) == self._finished.maxlen:
            self.dropped += 1
        self._finished.append(item)

    # ------------------------------------------------------------------
    # building (when a tree is first read or linked)
    # ------------------------------------------------------------------
    def _replay(self, events: List[TraceEvent],
                context: Optional[propagation.TraceContext]) -> _Active:
        """Grow a tree from held events: span and trace ids are drawn
        now. Touches no recorder state, so it may run unlocked."""
        record = _Active(events[0], self.node, context)
        for event in events[1:]:
            _ARROWS[event.kind](record, event)
        return record

    def _build(self, held: _Events) -> _Active:
        """An in-flight activation's tree so far, its events dropped
        (under the lock: they may still grow)."""
        events, held.events = held.events, None
        return self._replay(events, held.context)

    def _tree(self, held: _Events,
              events: List[TraceEvent]) -> Span:
        """A finished activation's root, replayed from its events."""
        record = self._replay(events, held.context)
        record.close(events[-1].timestamp)
        return record.root

    @staticmethod
    def _publish(held: _Events, root: Span) -> None:
        """Keep the first tree built for a finished activation (so its
        span ids stay fixed) and drop its events; under the lock."""
        if held.root is None:
            held.root = root
            held.events = None

    def _root_of(self, item: _Events) -> Span:
        """A ring item's root, built now if it was not yet (under the
        lock: one activation's tree, for a link, verdict or lookup)."""
        if item.root is None:
            self._publish(item, self._tree(item, item.events))
        return item.root

    def _read(self, in_flight: bool = False) -> List[Span]:
        """The finished roots, oldest first, then (``in_flight``) the
        in-flight ones, from one snapshot. The lock is held to copy the
        ring and to publish each tree; the finished trees not built yet
        are built between, so recording activations do not wait on a
        read, and each publish frees its events before the next build."""
        with self._lock:
            ring = list(self._finished)
            live = self._in_flight() if in_flight else []
        for item in [item for item in ring if item.root is None]:
            events = item.events
            if events is not None:  # not published meanwhile
                root = self._tree(item, events)
                with self._lock:
                    self._publish(item, root)
        return [item.root for item in ring] + live

    def _in_flight(self) -> List[Span]:
        """Roots of the activations in flight, each built."""
        active = self._active
        for activation_id, record in list(active.items()):
            if record.__class__ is _Events:
                active[activation_id] = self._build(record)
        return [record.root for record in active.values()]

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def finished(self) -> List[Span]:
        """Completed activation roots, oldest first."""
        return self._read()

    def active(self) -> List[Span]:
        """Roots of activations still in flight (parked included)."""
        with self._lock:
            return self._in_flight()

    def all_roots(self) -> List[Span]:
        return self._read(in_flight=True)

    @property
    def wake_edges(self) -> List[WakeEdge]:
        with self._lock:
            return list(self._wake_edges)

    def for_method(self, method_id: str) -> List[Span]:
        return [
            span for span in self.finished if span.method_id == method_id
        ]

    def trace_of(
        self, activation_id: int
    ) -> Optional[Tuple[str, str]]:
        """``(trace_id, span_id)`` of an activation's root, or ``None``.

        Looks at in-flight activations first (a parked activation is
        exactly what a stall watchdog asks about), then the finished
        ring, newest first. This is the cross-reference from
        activation-id-keyed diagnostics (stall reports, contract
        evidence) into the span plane.
        """
        with self._lock:
            record = self._active.get(activation_id)
            if record is not None:
                if record.__class__ is _Events:
                    record = self._active[activation_id] = \
                        self._build(record)
                return (record.root.trace_id, record.root.span_id)
            for item in reversed(self._finished):
                if item.activation_id == activation_id:
                    root = self._root_of(item)
                    return (root.trace_id, root.span_id)
        return None

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._active.clear()
            self._fresh_counts()
            self._wake_edges.clear()
            self.orphans.clear()
            self._last_notify = None
            self.dropped = 0

    def export(self) -> List[Dict[str, Any]]:
        """Completed spans as wall-clock dicts (cross-node comparable)."""
        anchor = self.anchor
        return [span.to_dict(anchor) for span in self.finished]

    def export_wake_edges(self) -> List[Dict[str, Any]]:
        """Wake edges as wall-clock wire dicts, node-labelled.

        Same export convention as :meth:`export` (the anchor converts
        monotonic stamps to wall clock), so the causal slicer
        (:mod:`repro.contracts.slicing`) can consume edges and spans
        from several nodes' dumps together.
        """
        wall, mono = self.anchor
        return [
            {
                "node": self.node,
                "notifier_activation": edge.notifier_activation,
                "notifier_span": edge.notifier_span,
                "woken_activation": edge.woken_activation,
                "woken_span": edge.woken_span,
                "timestamp": edge.timestamp - mono + wall,
            }
            for edge in self.wake_edges
        ]

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def phase_totals(self, method_id: str) -> Dict[str, float]:
        """Total seconds per segment label for one method's activations."""
        totals: Dict[str, float] = {}
        for root in self.for_method(method_id):
            for span in root.walk():
                if span is root:
                    continue
                label = span.name
                if span.concern:
                    label += f"[{span.concern}]"
                totals[label] = totals.get(label, 0.0) + span.duration
        return totals

    def flame(self, method_id: str, width: int = 40) -> str:
        """Flame-style breakdown: where ``method_id`` spends its time."""
        roots = self.for_method(method_id)
        if not roots:
            return f"{method_id}: no completed activations"
        wall = sum(root.duration for root in roots)
        totals = self.phase_totals(method_id)
        scale = max(totals.values()) if totals else 0.0
        lines = [
            f"{method_id}: {len(roots)} activation(s), "
            f"{wall * 1e3:.3f}ms total, "
            f"{wall / len(roots) * 1e6:.1f}µs mean"
        ]
        for label in sorted(totals, key=totals.get, reverse=True):
            seconds = totals[label]
            bar = "#" * (
                max(1, int(width * seconds / scale)) if scale else 0
            )
            share = (seconds / wall * 100.0) if wall else 0.0
            lines.append(
                f"  {label:<26} {seconds * 1e6:10.1f}µs "
                f"{share:5.1f}%  {bar}"
            )
        return "\n".join(lines)


def stitch_traces(
    *exports: List[Dict[str, Any]],
) -> Dict[str, List[Dict[str, Any]]]:
    """Merge exported span dicts from several recorders into traces.

    Returns trace_id -> roots, where spans whose ``parent_id`` names a
    span present in the merged set are nested under it (cross-node
    parent links — the propagated context's span id — stay as roots
    with ``parent_id`` set, since the parent lives on another node or
    in the client that opened the trace).
    """
    flat: List[Dict[str, Any]] = []

    def _flatten(span: Dict[str, Any]) -> None:
        flat.append(span)
        for nested in span.get("children", ()):
            _flatten(nested)

    for export in exports:
        for span in export:
            _flatten(span)
    by_id = {span["span_id"]: span for span in flat}
    traces: Dict[str, List[Dict[str, Any]]] = {}
    for span in flat:
        parent_id = span.get("parent_id")
        parent = by_id.get(parent_id) if parent_id else None
        if parent is not None:
            if span not in parent.setdefault("children", []):
                parent["children"].append(span)
        else:
            traces.setdefault(span["trace_id"], []).append(span)
    for roots in traces.values():
        roots.sort(key=lambda span: span["start"])
    return traces

"""Activation spans: the moderation protocol as a tree of timed segments.

The flat :class:`~repro.core.events.TraceEvent` stream reproduces the
paper's sequence diagrams, but a flat stream cannot answer where an
activation *spent its time*. :class:`SpanRecorder` is a bus listener
that folds the stream (plus the moderator's timing hooks — event
``duration`` fields) into one span tree per activation::

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

Timestamps inside a span are ``time.monotonic`` values from the events;
the recorder stamps a wall-clock anchor once at construction and applies
it at export (:meth:`Span.to_dict`), because monotonic clocks are
incomparable across processes. Cross-node stitching uses the trace
context propagated by :mod:`repro.obs.propagation`: when a
``preactivation`` event arrives while a context is active on the
emitting thread, the new activation roots under the propagated span.

The recorder is bounded: at most ``max_finished`` completed activations
are retained (a ring, like the :class:`~repro.core.events.Tracer`), and
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
    Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple,
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
    """Book-keeping for one in-flight activation."""

    __slots__ = ("root", "pre", "invoke", "post", "blocked")

    def __init__(self, root: Span) -> None:
        self.root = root
        self.pre: Optional[Span] = None
        self.invoke: Optional[Span] = None
        self.post: Optional[Span] = None
        self.blocked: Optional[Span] = None


class SpanRecorder:
    """EventBus listener building activation span trees.

    Subscribe it like a :class:`~repro.core.events.Tracer`::

        recorder = SpanRecorder(node="node-a")
        unsubscribe = moderator.events.subscribe(recorder)

    Args:
        node: label stamped on every span (host/process identity).
        max_finished: ring bound on retained completed activations.
        sample_rate: build span trees for 1-in-N activations (1 = every
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
        self._active: Dict[int, _Active] = {}
        self._finished: Deque[Span] = deque(maxlen=max_finished)
        self._wake_edges: Deque[WakeEdge] = deque(maxlen=max_finished)
        self._last_notify: Optional[Tuple[int, str, float]] = None
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
        handler = self._HANDLERS.get(event.kind)
        with self._lock:
            if handler is not None:
                handler(self, event)
            elif event.kind == "watchdog_stall" and \
                    event.activation_id in self._active:
                record = self._active[event.activation_id]
                record.root.annotations.append(
                    (event.timestamp, f"watchdog_stall: {event.detail}")
                )
                record.root.status = "stalled"
            else:
                self.orphans.append(event)

    def _on_preactivation(self, event: TraceEvent) -> None:
        context = propagation.current()
        if context is not None:
            trace_id = context.trace_id
            parent_id = context.span_id
        else:
            trace_id = propagation.new_trace_id()
            parent_id = None
        root = Span(
            name="activation", method_id=event.method_id,
            trace_id=trace_id, span_id=propagation.new_span_id(),
            parent_id=parent_id, start=event.timestamp,
            activation_id=event.activation_id, node=self.node,
        )
        if context is not None and context.baggage:
            # Propagated annotations (e.g. the shard router's
            # ``shard=...``) land on the activation root, so per-shard
            # traces can be grouped without parsing method ids.
            for key, value in context.baggage:
                root.annotations.append(
                    (event.timestamp, f"{key}={value}")
                )
        record = _Active(root)
        record.pre = root.child("pre_activation", event.timestamp)
        self._active[event.activation_id] = record

    def _phase_span(self, record: _Active) -> Span:
        """The segment new protocol arrows currently belong to."""
        if record.post is not None:
            return record.post
        if record.pre is not None:
            return record.pre
        return record.root

    def _on_precondition(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            return
        parent = record.pre if record.pre is not None else record.root
        span = parent.child(
            "precondition", event.timestamp - event.duration,
            concern=event.concern,
        )
        span.end = event.timestamp
        if event.detail and event.detail != "resume":
            span.status = event.detail

    def _on_blocked(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            return
        parent = record.pre if record.pre is not None else record.root
        record.blocked = parent.child(
            "blocked", event.timestamp, concern=event.concern,
        )

    def _on_unblocked(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            return
        blocked = record.blocked
        if blocked is not None:
            blocked.end = event.timestamp
            record.blocked = None
            if self._last_notify is not None:
                notifier_aid, notifier_span, _ts = self._last_notify
                self._wake_edges.append(WakeEdge(
                    notifier_activation=notifier_aid,
                    notifier_span=notifier_span,
                    woken_activation=event.activation_id,
                    woken_span=blocked.span_id,
                    timestamp=event.timestamp,
                ))

    def _on_invoke(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            return
        if record.pre is not None and record.pre.end is None:
            record.pre.end = event.timestamp
        record.invoke = record.root.child("invoke", event.timestamp)

    def _on_postactivation(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            return
        if record.pre is not None and record.pre.end is None:
            # invocation was skipped (e.g. cache hit): close the
            # pre-activation segment here instead
            record.pre.end = event.timestamp
        if record.invoke is not None and record.invoke.end is None:
            record.invoke.end = event.timestamp
        record.post = record.root.child("post_activation", event.timestamp)

    def _on_postaction(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            return
        parent = record.post if record.post is not None else record.root
        span = parent.child(
            "postaction", event.timestamp - event.duration,
            concern=event.concern,
        )
        span.end = event.timestamp

    def _on_notify(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            # a registration wake, or the notify of an unsampled
            # activation that woke a parked one: there is no activation
            # span; remember it for wake attribution
            self._last_notify = (
                event.activation_id, "", event.timestamp
            )
            return
        if record.post is not None and record.post.end is None:
            record.post.end = event.timestamp
        span = record.root.child("notify", event.timestamp)
        span.end = event.timestamp
        self._last_notify = (
            event.activation_id, span.span_id, event.timestamp
        )
        self._finalize(event.activation_id, event.timestamp)

    def _on_abort(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            return
        if record.pre is not None and record.pre.end is None:
            record.pre.end = event.timestamp
        record.root.status = "aborted"
        if event.concern:
            record.root.annotations.append(
                (event.timestamp, f"aborted by {event.concern}")
            )
        self._finalize(event.activation_id, event.timestamp)

    def _on_timeout(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            return
        if record.pre is not None and record.pre.end is None:
            record.pre.end = event.timestamp
        record.root.status = "timeout"
        record.root.annotations.append(
            (event.timestamp, f"activation timeout: {event.detail}")
        )
        self._finalize(event.activation_id, event.timestamp)

    def _on_compensate(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            return
        self._phase_span(record).annotations.append(
            (event.timestamp, f"compensate[{event.concern}]")
        )

    def _on_aspect_fault(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            self.orphans.append(event)
            return
        span = self._phase_span(record)
        span.annotations.append(
            (event.timestamp,
             f"aspect_fault[{event.concern}] {event.detail}")
        )
        if event.detail.startswith("precondition") and \
                record.post is None:
            # A raising precondition propagates out of pre-activation:
            # no abort/invoke event will follow, so this is terminal.
            record.root.status = "fault"
            if record.pre is not None and record.pre.end is None:
                record.pre.end = event.timestamp
            self._finalize(event.activation_id, event.timestamp)

    def _on_degraded_skip(self, event: TraceEvent) -> None:
        record = self._active.get(event.activation_id)
        if record is None:
            return
        self._phase_span(record).annotations.append(
            (event.timestamp, f"degraded_skip[{event.concern}]")
        )

    def _on_contract_violation(self, event: TraceEvent) -> None:
        """A contract verdict — detail is ``kind:clause:blame``.

        A ``require``-phase violation arrives while the activation is
        still open (it propagates out of pre-activation, so no
        abort/invoke event will follow — terminal here). A post-phase
        verdict is raised *after* the wake concluded the activation, so
        it lands on the already-finished root retroactively.
        """
        note = f"contract_violation: {event.detail}"
        record = self._active.get(event.activation_id)
        if record is not None:
            record.root.status = "contract"
            self._phase_span(record).annotations.append(
                (event.timestamp, note)
            )
            if record.post is None:
                if record.pre is not None and record.pre.end is None:
                    record.pre.end = event.timestamp
                self._finalize(event.activation_id, event.timestamp)
            return
        for span in reversed(self._finished):
            if span.activation_id == event.activation_id:
                span.status = "contract"
                span.annotations.append((event.timestamp, note))
                return
        self.orphans.append(event)

    _HANDLERS: Dict[str, Callable[["SpanRecorder", TraceEvent], None]] = {
        "preactivation": _on_preactivation,
        "precondition": _on_precondition,
        "blocked": _on_blocked,
        "unblocked": _on_unblocked,
        "invoke": _on_invoke,
        "postactivation": _on_postactivation,
        "postaction": _on_postaction,
        "notify": _on_notify,
        "abort": _on_abort,
        "timeout": _on_timeout,
        "compensate": _on_compensate,
        "aspect_fault": _on_aspect_fault,
        "degraded_skip": _on_degraded_skip,
        "contract_violation": _on_contract_violation,
    }

    def _finalize(self, activation_id: int, timestamp: float) -> None:
        record = self._active.pop(activation_id, None)
        if record is None:
            return
        if record.blocked is not None and record.blocked.end is None:
            record.blocked.end = timestamp
        record.root.end = timestamp
        if len(self._finished) == self._finished.maxlen:
            self.dropped += 1
        self._finished.append(record.root)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def finished(self) -> List[Span]:
        """Completed activation roots, oldest first."""
        with self._lock:
            return list(self._finished)

    def active(self) -> List[Span]:
        """Roots of activations still in flight (parked included)."""
        with self._lock:
            return [record.root for record in self._active.values()]

    def all_roots(self) -> List[Span]:
        with self._lock:
            return list(self._finished) + [
                record.root for record in self._active.values()
            ]

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
                return (record.root.trace_id, record.root.span_id)
            for span in reversed(self._finished):
                if span.activation_id == activation_id:
                    return (span.trace_id, span.span_id)
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

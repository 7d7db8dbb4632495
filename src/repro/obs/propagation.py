"""Cross-node trace propagation: one stitched trace per causal chain.

A span recorder observes one moderator — one "node". To see a ticket
opened on node A and assigned on node B as *one* trace, the RPC layer
carries a :class:`TraceContext` (trace id, parent span id, wall-clock
epoch anchor) on the wire: :meth:`repro.dist.rpc.Client.call_node`
attaches the caller's current context to each request, and
:meth:`repro.dist.node.Node` activates it around the servant call, so
the server-side :class:`~repro.obs.spans.SpanRecorder` roots its
activation span under the caller's span instead of opening a fresh
trace.

The context is ambient per thread (the protocol runs synchronously on
the calling thread, and bus listeners are invoked inline), mirroring
how W3C ``traceparent`` context flows through real tracing stacks.
Monotonic clocks are incomparable across processes, so the context also
carries the *wall-clock epoch* of the trace root: exporters emit
wall-clock timestamps (each recorder applies its own anchor), and the
shared epoch lets a stitcher sanity-align segments from different
processes.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = [
    "TraceContext",
    "activate",
    "current",
    "from_wire",
    "new_span_id",
    "new_trace_id",
    "start_trace",
    "to_wire",
]

_state = threading.local()
_span_sequence = itertools.count(1)
_span_prefix = uuid.uuid4().hex[:8]


def new_trace_id() -> str:
    """A fresh globally unique trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh span id, unique across nodes within this process."""
    return f"{_span_prefix}-{next(_span_sequence):x}"


@dataclass(frozen=True)
class TraceContext:
    """The propagated slice of a trace: where new spans should attach."""

    trace_id: str
    span_id: str
    #: wall-clock (``time.time``) instant the trace was rooted at — the
    #: cross-process alignment anchor (monotonic clocks don't travel)
    epoch: float
    #: key/value annotations riding the trace (W3C ``baggage`` style):
    #: e.g. the shard router stamps ``("shard", ...)`` so server-side
    #: spans can be grouped per shard. Empty for nearly every trace, and
    #: omitted from the wire form when empty, so the common path pays
    #: nothing.
    baggage: Tuple[Tuple[str, str], ...] = ()


def current() -> Optional[TraceContext]:
    """The calling thread's active trace context, if any."""
    return getattr(_state, "context", None)


@contextmanager
def activate(context: Optional[TraceContext]) -> Iterator[None]:
    """Make ``context`` current for the calling thread.

    ``None`` is accepted and is a no-op, so call sites can activate
    unconditionally: ``with activate(from_wire(payload.get("trace")))``.
    """
    if context is None:
        yield
        return
    previous = getattr(_state, "context", None)
    _state.context = context
    try:
        yield
    finally:
        _state.context = previous


@contextmanager
def start_trace(trace_id: Optional[str] = None) -> Iterator[TraceContext]:
    """Root a new trace on the calling thread and activate it.

    The yielded context's ``span_id`` is the trace's root span — every
    activation moderated (locally or remotely) while it is active
    becomes a child of that root.
    """
    context = TraceContext(
        trace_id=trace_id or new_trace_id(),
        span_id=new_span_id(),
        epoch=time.time(),
    )
    with activate(context):
        yield context


def to_wire(context: TraceContext) -> Dict[str, Any]:
    """Wire-safe dict form (plain str/float, survives serialization)."""
    wire: Dict[str, Any] = {
        "trace_id": context.trace_id,
        "span_id": context.span_id,
        "epoch": context.epoch,
    }
    if context.baggage:
        wire["baggage"] = dict(context.baggage)
    return wire


def from_wire(data: Optional[Dict[str, Any]]) -> Optional[TraceContext]:
    """Parse a wire dict back into a context; tolerant of garbage."""
    if not isinstance(data, dict):
        return None
    trace_id = data.get("trace_id")
    span_id = data.get("span_id")
    if not isinstance(trace_id, str) or not isinstance(span_id, str):
        return None
    epoch = data.get("epoch")
    raw_baggage = data.get("baggage")
    baggage: Tuple[Tuple[str, str], ...] = ()
    if isinstance(raw_baggage, dict):
        baggage = tuple(
            (key, value) for key, value in sorted(raw_baggage.items())
            if isinstance(key, str) and isinstance(value, str)
        )
    return TraceContext(
        trace_id=trace_id,
        span_id=span_id,
        epoch=float(epoch) if isinstance(epoch, (int, float)) else 0.0,
        baggage=baggage,
    )

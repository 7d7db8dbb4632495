"""Traced runs: spans around each layer's public entry points.

Nothing here edits the program. The benchmark swaps bound methods on the
rig's own objects for timed wrappers (``Patches``) and swaps them back
after each traced segment, so untraced segments run the untouched code.

A span records its layer, the request it belongs to, its start and end
(``perf_counter_ns``) and the span that caused it. Spans of one request
share a request id across threads: the RPC message id maps a network
delivery, a node inbox wait and a node serve back to the client call
that sent it. A layer's self time is its span minus the time its child
spans cover. Where a layer has no public entry on the path, the time is
the remainder of its parent span (documented per layer in README.md).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.results import AspectResult

_now = time.perf_counter_ns

#: request id of a span opened off the loop thread with no parent
ORPHAN = 0


class Span:
    __slots__ = ("layer", "rid", "start", "end", "parent")

    def __init__(self, layer: str, rid: int, start: int,
                 parent: Optional["Span"]) -> None:
        self.layer = layer
        self.rid = rid
        self.start = start
        self.end = start
        self.parent = parent


class Ledger:
    """In-memory span store, folded into per-layer totals between windows.

    Spans append to ``closed`` from any thread (a GIL-atomic list
    append); :meth:`fold` runs on the loop thread between windows and
    only takes requests older than the one still possibly in flight, so
    a straggling server-side span is folded with its request next time.
    """

    #: keep the raw spans of every ``KEEP_EVERY``-th request for writing
    #: out, up to ``KEEP_MAX`` spans
    KEEP_EVERY = 64
    KEEP_MAX = 20000

    def __init__(self) -> None:
        self._loop_thread = threading.get_ident()
        self._local = threading.local()
        #: next request id; roots open on the loop thread only
        self.next_rid = 1
        self.closed: List[Span] = []
        #: layer -> [spans, self ns]
        self.layers: Dict[str, List[int]] = {}
        #: named event counters (vetoes, shard routes, ...)
        self.counts: Dict[str, int] = {}
        self.requests = 0
        self.request_ns = 0
        self.kept: List[Span] = []
        #: journal records seen by the traced appends (for their size)
        self.records: List[Any] = []

    # -- span plumbing -------------------------------------------------
    def stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_rid(self) -> int:
        rid = self.next_rid
        self.next_rid = rid + 1
        return rid

    def open(self, layer: str, parent: Optional[Span] = None,
             rid: Optional[int] = None, start: Optional[int] = None) -> Span:
        """Open a span on this thread; the parent defaults to the top of
        this thread's stack, the request id to the parent's (or a new
        one for a root)."""
        stack = self.stack()
        if parent is None and stack:
            parent = stack[-1]
        if rid is None:
            if parent is not None:
                rid = parent.rid
            elif threading.get_ident() == self._loop_thread:
                rid = self.new_rid()
            else:
                rid = ORPHAN  # no request to charge: fails the check
        span = Span(layer, rid, _now() if start is None else start, parent)
        stack.append(span)
        return span

    def close(self, span: Span, end: Optional[int] = None) -> None:
        span.end = _now() if end is None else end
        stack = self.stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self.closed.append(span)

    def interval(self, layer: str, parent: Optional[Span], rid: int,
                 start: int, end: int) -> None:
        """Record an already finished span (a wait seen from another
        thread); ``end`` is clamped to ``start``."""
        span = Span(layer, rid, start, parent)
        span.end = max(start, end)
        self.closed.append(span)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span of ``layer``."""
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    # -- folding -------------------------------------------------------
    def fold(self, before_rid: Optional[int] = None) -> None:
        """Fold the closed spans of requests older than ``before_rid``
        (all of them when ``None``) into the per-layer totals."""
        closed, self.closed = self.closed, []
        ready, later = [], []
        for span in closed:
            if before_rid is None or span.rid < before_rid:
                ready.append(span)
            else:
                later.append(span)
        self.closed.extend(later)
        covered: Dict[int, int] = {}
        for span in ready:
            if span.parent is not None:
                key = id(span.parent)
                covered[key] = covered.get(key, 0) + span.end - span.start
        for span in ready:
            # a child that escaped its parent leaves a negative self time:
            # clamped here, it shows as residual in :meth:`check`
            own = max(0, span.end - span.start - covered.get(id(span), 0))
            totals = self.layers.get(span.layer)
            if totals is None:
                totals = self.layers[span.layer] = [0, 0]
            totals[0] += 1
            totals[1] += own
            if span.parent is None and span.rid != ORPHAN:
                self.requests += 1
                self.request_ns += span.end - span.start
            if (span.rid % self.KEEP_EVERY == 0
                    and len(self.kept) < self.KEEP_MAX):
                self.kept.append(span)

    # -- reading -------------------------------------------------------
    def spans(self, layer: str) -> int:
        return self.layers.get(layer, (0, 0))[0]

    def self_ns(self, layer: str) -> int:
        return self.layers.get(layer, (0, 0))[1]

    def check(self) -> Dict[str, float]:
        """The ledger condition: per-layer self times sum to the traced
        request time. Self times telescope to the request time exactly
        unless a child span escaped its parent or a span found no
        request; both show here as a positive residual. Returns the two
        sums per request and their relative residual."""
        total_self = sum(ns for _count, ns in self.layers.values())
        requests = max(1, self.requests)
        residual = ((total_self - self.request_ns) / self.request_ns
                    if self.request_ns else 0.0)
        return {"self_us_per_request": total_self / requests / 1e3,
                "request_us": self.request_ns / requests / 1e3,
                "residual_ratio": residual}

    def write(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns the count."""
        ids = {id(span): index for index, span in enumerate(self.kept)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.kept):
                handle.write(json.dumps({
                    "id": index, "rid": span.rid, "layer": span.layer,
                    "start_ns": span.start, "end_ns": span.end,
                    "parent": ids.get(id(span.parent))
                    if span.parent is not None else None,
                }) + "\n")
        return len(self.kept)


class Patches:
    """Instance-attribute swaps, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def set(self, obj: Any, name: str, value: Any) -> None:
        own = vars(obj)
        had = name in own
        old = own.get(name)
        object.__setattr__(obj, name, value)

        def undo() -> None:
            if had:
                object.__setattr__(obj, name, old)
            else:
                object.__delattr__(obj, name)
        self._undo.append(undo)

    def wrap(self, obj: Any, name: str,
             make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``obj.name`` with ``make(original bound method)``."""
        self.set(obj, name, make(getattr(obj, name)))

    def on_undo(self, action: Callable[[], None]) -> None:
        self._undo.append(action)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


class TimedListener:
    """An event-bus listener wrapped in a span; other attributes pass
    through to the wrapped listener."""

    def __init__(self, ledger: Ledger, layer: str, inner: Any) -> None:
        self._ledger = ledger
        self._layer = layer
        self._inner = inner

    def __call__(self, event: Any) -> None:
        span = self._ledger.open(self._layer)
        try:
            self._inner(event)
        finally:
            self._ledger.close(span)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
# the moderation stack: proxy -> moderator -> plan -> aspects -> body
# ----------------------------------------------------------------------
def instrument_cluster(ledger: Ledger, patches: Patches, proxy: Any,
                       moderator: Any, component: Any,
                       methods: List[str]) -> None:
    """Span every public entry of one moderated cluster."""
    timed = ledger.timed
    if proxy is not None:
        patches.wrap(proxy, "call", lambda fn: timed("core.proxy", fn))
    patches.wrap(moderator, "preactivation",
                 lambda fn: timed("core.moderator.preactivation", fn))
    patches.wrap(moderator, "postactivation",
                 lambda fn: timed("core.moderator.postactivation", fn))
    for name in ("plan_for", "plan_handle"):
        patches.wrap(moderator, name,
                     lambda fn: timed("core.plan.lookup", fn))
    seen = set()
    for method in methods:
        for concern, aspect in moderator.bank.aspects_for(method):
            if id(aspect) in seen:
                continue
            seen.add(id(aspect))
            patches.wrap(aspect, "evaluate_precondition",
                         lambda fn, c=concern: _precondition(ledger, c, fn))
            patches.wrap(aspect, "postaction",
                         lambda fn, c=concern: timed(
                             f"aspects.{c}.postaction", fn))
        patches.wrap(component, method, lambda fn: timed("apps.body", fn))
    # compiled plans bind aspect methods at compile time: recompile now,
    # and again once the wrappers are gone
    moderator.bump_profile_epoch()
    patches.on_undo(moderator.bump_profile_epoch)


def _precondition(ledger: Ledger, concern: str,
                  fn: Callable[..., Any]) -> Callable[..., Any]:
    layer = f"aspects.{concern}.precondition"
    vetoes = f"aspects.{concern}.vetoes"

    def wrapper(joinpoint: Any) -> Any:
        span = ledger.open(layer)
        try:
            result = fn(joinpoint)
        finally:
            ledger.close(span)
        if result is not AspectResult.RESUME:
            ledger.count(vetoes)
        return result
    return wrapper


def instrument_plane(ledger: Ledger, patches: Patches, plane: Any) -> None:
    """Span the observability plane's two bus listeners."""
    plane.disable()
    patches.on_undo(plane.enable)
    patches.set(plane, "recorder",
                TimedListener(ledger, "obs.recorder", plane.recorder))
    patches.set(plane, "metrics",
                TimedListener(ledger, "obs.metrics_listener", plane.metrics))
    patches.on_undo(plane.disable)
    plane.enable()

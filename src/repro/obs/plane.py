"""The observability plane: one object that wires spans + metrics in.

:class:`ObservabilityPlane` composes the pieces of ``repro.obs`` around
one moderator:

* a :class:`~repro.obs.spans.SpanRecorder` building activation span
  trees (and wake edges) from the events of sampled activations, and
  keeping exact per-method counters for all of them;
* a :class:`MetricsListener` folding every activation's tally into the
  moderator's striped :class:`~repro.obs.metrics.MetricsRegistry` —
  per-(method, concern, phase) latency histograms, outcome counters,
  park-time histograms, fault/quarantine/stall counters;
* sampled gauges (wait-queue depth per method, parked activations)
  refreshed on demand from the moderator's own snapshots;
* the exporters (:func:`~repro.obs.export.to_prometheus`,
  :func:`~repro.obs.export.to_json`) bound to that registry/recorder.

The plane shares the registry ``ModerationStats`` already writes to, so
one Prometheus scrape carries both the protocol counters and the
span-derived latency families.

Disabled is the default state and costs nothing: until :meth:`enable`
subscribes the listeners, the bus has no subscribers, so the moderator
neither constructs events nor reads clocks (both gate on
``has_listeners``). ``bench_obs_overhead.py`` holds this to ≤ 2% on the
Figure-3 fast path.

Enabled at ``sample_rate=N``, the bus decides at the head: the
moderator samples 1-in-N activations at preactivation, and only those
build events for the recorder. Every activation still pays its clock
reads, a tally of its arrows on the join point, and one call of each
fold (metrics, recorder counters) on that tally, which keep every count
exact.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.events import TallyItem

from . import export
from .metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from .spans import SpanRecorder

__all__ = ["MetricsListener", "ObservabilityPlane"]

#: park/stall buckets: 1 ms to 60 s — parked activations live on a
#: coarser scale than aspect phases
PARK_BUCKETS: Tuple[float, ...] = (
    1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 250e-3, 500e-3,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


#: event kinds whose ``detail`` is a metric label; the rest fold as ""
#: (a stall's or a timeout's detail is free text)
_DETAIL_LABELS = frozenset(("precondition", "aspect_fault", "quarantine"))


class MetricsListener:
    """Bus fold feeding the striped metrics registry.

    Subscribed with :meth:`~repro.core.events.EventBus.subscribe_fold`,
    :meth:`fold` gets every activation's tally — sampled or not — once,
    so the metrics stay exact under any ``sample_rate`` and no
    :class:`~repro.core.events.TraceEvent` is built for them. Each
    (kind, method, concern, detail) resolves once per thread to its
    cells on that thread's registry stripe; from then on a counter is a
    lock-free single-writer increment (the :meth:`CounterBlock.inc
    <repro.obs.metrics.CounterBlock.inc>` path), and a tally's latencies
    update their histograms' sum/count/bucket triplets under one hold of
    the stripe's own, uncontended lock.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._events = registry.counter(
            "repro_protocol_events_total",
            help="Protocol events by kind",
            labelnames=("method", "kind"),
        )
        self._phase_seconds = registry.histogram(
            "repro_phase_seconds",
            help="Aspect phase latency by (method, concern, phase)",
            labelnames=("method", "concern", "phase"),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._outcomes = registry.counter(
            "repro_precondition_outcomes_total",
            help="Precondition votes by (method, concern, outcome)",
            labelnames=("method", "concern", "outcome"),
        )
        self._park_seconds = registry.histogram(
            "repro_park_seconds",
            help="Seconds an activation spent parked before waking",
            labelnames=("method",),
            buckets=PARK_BUCKETS,
        )
        self._faults = registry.counter(
            "repro_aspect_faults_total",
            help="Aspect contract violations by (method, concern, phase)",
            labelnames=("method", "concern", "phase"),
        )
        self._quarantines = registry.counter(
            "repro_quarantines_total",
            help="Cells quarantined by (method, concern, policy)",
            labelnames=("method", "concern", "policy"),
        )
        self._stall_seconds = registry.histogram(
            "repro_watchdog_stall_seconds",
            help="Parked ages reported stalled by the watchdog",
            labelnames=("method",),
            buckets=PARK_BUCKETS,
        )
        #: per thread: (kind, method, concern, detail) -> resolved cells
        self._local = threading.local()

    def fold(self, method_id: str, items: Sequence[TallyItem]) -> None:
        cells = getattr(self._local, "cells", None)
        if cells is None:
            cells = self._local.cells = {}
        observed = []
        for kind, concern, detail, duration in items:
            key = (kind, method_id, concern,
                   detail if kind in _DETAIL_LABELS else "")
            resolved = cells.get(key)
            if resolved is None:
                resolved = cells[key] = self._resolve(*key)
            counters, first, second, histogram = resolved
            counters[first] += 1
            if second is not None:
                counters[second] += 1
            if histogram is not None:
                lock, entry, buckets = histogram
                observed.append(
                    (entry, bisect_left(buckets, duration), duration)
                )
        if observed:
            # every cell is on this thread's stripe: one lock for all
            lock.acquire()  # cheaper than ``with`` on this path
            try:
                for entry, index, duration in observed:
                    entry[0] += duration
                    entry[1] += 1
                    entry[2][index] += 1
            finally:
                lock.release()

    def _resolve(self, kind: str, method_id: str, concern: str,
                 detail: str) -> Tuple[Any, ...]:
        """This thread's cells for one event shape: (stripe counters,
        the events counter key, a second counter key or None, a
        histogram cell or None)."""
        counters, first = self._events.labels(method_id, kind).cell()
        second = histogram = None
        if kind == "precondition":
            second = self._outcomes.labels(
                method_id, concern, detail
            ).cell()[1]
            histogram = self._phase_seconds.labels(
                method_id, concern, "precondition"
            ).cell()
        elif kind == "postaction":
            histogram = self._phase_seconds.labels(
                method_id, concern, "postaction"
            ).cell()
        elif kind == "unblocked":
            histogram = self._park_seconds.labels(method_id).cell()
        elif kind == "aspect_fault":
            phase = detail.split(":", 1)[0]
            second = self._faults.labels(method_id, concern, phase).cell()[1]
        elif kind == "quarantine":
            second = self._quarantines.labels(
                method_id, concern, detail
            ).cell()[1]
        elif kind == "watchdog_stall":
            histogram = self._stall_seconds.labels(method_id).cell()
        return counters, first, second, histogram


class ObservabilityPlane:
    """Spans + metrics + exporters around one moderator.

    Usage::

        plane = ObservabilityPlane(moderator, node="node-a")
        with plane:                      # or plane.enable() / disable()
            run_workload()
        print(plane.prometheus())
        print(plane.flame("push"))

    ``registry`` defaults to the moderator's own stats registry, so the
    protocol counters (``repro_moderation_*``) export alongside the
    span-derived families.

    ``sample_rate`` passes through to the :class:`SpanRecorder`, which
    declares it to the bus: 1-in-N activations are sampled at the head
    and build span trees, while the recorder's exact counters and every
    metrics family keep full accuracy — the middle ground between
    disabled and full-fidelity recording (measured as
    ``enabled_sampled`` in ``bench_obs_overhead.py``). Another listener
    asking for more (a :class:`~repro.core.events.Tracer` asks for
    every activation) lowers the bus's rate for everyone.
    """

    def __init__(self, moderator: Any, node: str = "local",
                 registry: Optional[MetricsRegistry] = None,
                 max_finished: int = 4096,
                 sample_rate: int = 1) -> None:
        self.moderator = moderator
        self.registry = (
            registry if registry is not None
            else moderator.stats.registry
        )
        self.recorder = SpanRecorder(node=node, max_finished=max_finished,
                                     sample_rate=sample_rate)
        self.metrics = MetricsListener(self.registry)
        self._queue_gauge = self.registry.gauge(
            "repro_wait_queue_depth",
            help="Threads parked per method queue (sampled)",
            labelnames=("method",),
        )
        self._parked_gauge = self.registry.gauge(
            "repro_parked_activations",
            help="Activations currently parked on the moderator (sampled)",
        ).labels()
        self._gauge_lock = threading.Lock()
        self._last_depths: Dict[str, int] = {}
        self._last_parked = 0
        self._unsubscribes: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(self._unsubscribes)

    def enable(self) -> "ObservabilityPlane":
        """Subscribe the metrics fold and the recorder to the bus."""
        if not self._unsubscribes:
            bus = self.moderator.events
            self._unsubscribes = [
                bus.subscribe_fold(self.metrics.fold),
                bus.subscribe(self.recorder),
            ]
        return self

    def disable(self) -> None:
        """Unsubscribe everything; the bus returns to zero-cost emits."""
        unsubscribes, self._unsubscribes = self._unsubscribes, []
        for unsubscribe in unsubscribes:
            unsubscribe()

    def __enter__(self) -> "ObservabilityPlane":
        return self.enable()

    def __exit__(self, *exc_info: object) -> None:
        self.disable()

    # ------------------------------------------------------------------
    # sampled gauges
    # ------------------------------------------------------------------
    def refresh_gauges(self) -> None:
        """Sample queue depths / parked count into the gauges.

        Gauges are striped delta-sums, so sampling applies the diff
        against the previous sample (serialized by a plane-local lock —
        refreshes are scrape-rate, not hot-path).
        """
        depths = self.moderator.queue_lengths()
        parked = len(self.moderator.parked_snapshot())
        with self._gauge_lock:
            for method in set(self._last_depths) | set(depths):
                delta = depths.get(method, 0) - \
                    self._last_depths.get(method, 0)
                if delta:
                    self._queue_gauge.labels(method).inc(delta)
            self._last_depths = dict(depths)
            if parked != self._last_parked:
                self._parked_gauge.inc(parked - self._last_parked)
                self._last_parked = parked

    # ------------------------------------------------------------------
    # export / rendering
    # ------------------------------------------------------------------
    def prometheus(self) -> str:
        """Prometheus text exposition of the shared registry."""
        self.refresh_gauges()
        return export.to_prometheus(self.registry)

    def json(self, indent: int = 2) -> str:
        """JSON snapshot: metrics + spans + wake edges + aspect health."""
        self.refresh_gauges()
        return export.to_json(self.registry, self.recorder, indent=indent,
                              health=self.moderator.aspect_health())

    def snapshot(self) -> Dict[str, Any]:
        self.refresh_gauges()
        return export.snapshot_dict(self.registry, self.recorder,
                                    health=self.moderator.aspect_health())

    def flame(self, method_id: str) -> str:
        """Per-method flame-style span breakdown (CLI's obs view)."""
        return self.recorder.flame(method_id)

    def summary(self) -> Dict[str, Any]:
        """Compact live-summary numbers for the CLI table."""
        stats = self.moderator.stats.as_dict()
        roots = self.recorder.finished
        per_method: Dict[str, Dict[str, Any]] = {}
        for root in roots:
            entry = per_method.setdefault(root.method_id, {
                "activations": 0, "total_seconds": 0.0,
                "aborted": 0, "faults": 0,
            })
            entry["activations"] += 1
            entry["total_seconds"] += root.duration
            if root.status == "aborted":
                entry["aborted"] += 1
            elif root.status in ("fault", "timeout"):
                entry["faults"] += 1
        return {
            "node": self.recorder.node,
            "stats": stats,
            "methods": per_method,
            #: exact per-method event counts — unlike ``methods`` (span
            #: derived, so 1-in-N under a sampled recorder) these are
            #: maintained for every activation; ``counts`` is a copy
            #: merged under the recorder lock, safe against first calls
            #: of new methods inserting concurrently
            "counts": self.recorder.counts,
            "sample_rate": self.recorder.sample_rate,
            "active": len(self.recorder.active()),
            "wake_edges": len(self.recorder.wake_edges),
            "listener_errors": self.moderator.events.listener_errors,
        }

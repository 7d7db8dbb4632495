"""The observability plane: one object that wires spans + metrics in.

:class:`ObservabilityPlane` composes the pieces of ``repro.obs`` around
one moderator, and subscribes them to its bus in one subscription:

* a :class:`~repro.obs.spans.SpanRecorder`, which gets the events of
  sampled activations, keeps them, and builds their span trees when
  they are read; it links wake edges as they happen;
* the :class:`MetricsListener` families on the moderator's striped
  :class:`~repro.obs.metrics.MetricsRegistry` — per-(method, concern,
  phase) latency histograms, outcome, fault and quarantine counters,
  park and stall histograms;
* one fold (:meth:`ObservabilityPlane.fold`) that writes every observed
  activation's tally into those families and into the recorder's exact
  per-method counts, so both stay exact under sampling;
* sampled gauges (wait-queue depth per method, parked activations)
  and the exporters (:func:`~repro.obs.export.to_prometheus`,
  :func:`~repro.obs.export.to_json`).

The registry is the one ``ModerationStats`` already writes to, so one
Prometheus scrape carries the protocol counters and the plane's
families. Disabled (the default) costs nothing: with no subscriber the
moderator neither builds events nor reads clocks
(``bench_obs_overhead.py`` holds this to ≤ 2% on the Figure-3 fast
path). Enabled at ``sample_rate=N``, 1-in-N activations build events;
every activation pays its clock reads, a tally of its arrows and one
call of the fold.
"""
from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.events import TallyItem

from . import export
from .metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from .spans import _COUNTED, SpanRecorder

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
#: per thread: the fold programs kept before the cache starts over
_MAX_PROGRAMS = 256


class MetricsListener:
    """The metric families the plane's fold writes.

    :meth:`ObservabilityPlane.fold` resolves each arrow of a new tally
    shape to its cells here (:meth:`_handles`) once per thread, and
    from then on bumps them without resolving anything.
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

    def _handles(self, kind: str, method_id: str, concern: str,
                 detail: str) -> Tuple[List[Any], Any]:
        """One arrow's cells: the counters it bumps, and the histogram
        that takes its duration (or None)."""
        counters = [self._events.labels(method_id, kind)]
        histogram = None
        if kind == "precondition":
            counters.append(self._outcomes.labels(method_id, concern, detail))
            histogram = self._phase_seconds.labels(method_id, concern, kind)
        elif kind == "postaction":
            histogram = self._phase_seconds.labels(method_id, concern, kind)
        elif kind == "unblocked":
            histogram = self._park_seconds.labels(method_id)
        elif kind == "aspect_fault":
            phase = detail.split(":", 1)[0]
            counters.append(self._faults.labels(method_id, concern, phase))
        elif kind == "quarantine":
            counters.append(
                self._quarantines.labels(method_id, concern, detail))
        elif kind == "watchdog_stall":
            histogram = self._stall_seconds.labels(method_id)
        return counters, histogram


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

    ``sample_rate`` is the recorder's, declared to the bus: 1-in-N
    activations are sampled at the head and get span trees, while
    the exact counts and every metrics family keep full accuracy. A
    listener asking for more (a :class:`~repro.core.events.Tracer`
    asks for every activation) lowers the bus's rate for everyone.
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
        self._unsubscribe: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._unsubscribe is not None

    def enable(self) -> "ObservabilityPlane":
        """Subscribe to the bus, in one subscription: the recorder (as
        :attr:`recorder` reads now) gets the events of sampled
        activations, the plane's one :meth:`fold` every tally."""
        if self._unsubscribe is None:
            self._unsubscribe = self.moderator.events.subscribe(
                self.recorder, fold=self.fold)
        return self

    def disable(self) -> None:
        """Unsubscribe; the bus returns to zero-cost emits."""
        unsubscribe, self._unsubscribe = self._unsubscribe, None
        if unsubscribe is not None:
            unsubscribe()

    def __enter__(self) -> "ObservabilityPlane":
        return self.enable()

    def __exit__(self, *exc_info: object) -> None:
        self.disable()

    # ------------------------------------------------------------------
    # the fold
    # ------------------------------------------------------------------
    def fold(self, method_id: str, items: Sequence[TallyItem]) -> None:
        """The plane's one fold: every observed activation's tally, into
        the metrics families and the recorder's exact counts.

        The first tally of a (method, shape) on a thread compiles its
        program (:meth:`_compile`); every later one runs its summed
        increments and histogram updates under one hold of the thread's
        stripe lock. The programs are kept with the recorder's registry
        (``recorder.clear()`` drops both); free-text details make new
        shapes, so a thread keeps at most ``_MAX_PROGRAMS``.
        """
        kinds, concerns, details, durations = zip(*items)
        shape = (method_id, kinds, concerns, details)
        local = self.recorder._local
        programs = getattr(local, "programs", None)
        if programs is None:
            programs = local.programs = {}
        program = programs.get(shape)
        if program is None:
            if len(programs) >= _MAX_PROGRAMS:
                programs.clear()
            program = programs[shape] = self._compile(method_id, items)
        increments, observations, lock = program
        lock.acquire()  # cheaper than ``with`` on this path
        try:
            for counters, key, amount in increments:
                counters[key] += amount
            for entry, buckets, position in observations:
                duration = durations[position]
                entry[0] += duration
                entry[1] += 1
                entry[2][bisect_left(buckets, duration)] += 1
        finally:
            lock.release()

    def _compile(self, method_id: str,
                 items: Sequence[TallyItem]) -> Tuple[Any, ...]:
        """One tally shape's program on this thread: (each counter cell
        with its summed increment, each histogram cell with the tally
        position of its duration, the stripe lock)."""
        increments: Dict[Tuple[int, Any], List[Any]] = {}
        observations = []
        for position, (kind, concern, detail, _) in enumerate(items):
            counters, histogram = self.metrics._handles(
                kind, method_id, concern,
                detail if kind in _DETAIL_LABELS else "",
            )
            name = _COUNTED.get(kind)
            if name is not None:
                counters.append(
                    self.recorder._counters.labels(method_id, name))
            for counter in counters:
                cells, key = counter.cell()
                increment = increments.setdefault((id(cells), key),
                                                  [cells, key, 0])
                increment[2] += 1
            if histogram is not None:
                _lock, entry, buckets = histogram.cell()
                observations.append((entry, buckets, position))
        return (tuple(map(tuple, increments.values())), tuple(observations),
                self.metrics.registry._stripe().lock)

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

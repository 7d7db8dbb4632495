"""Striped metrics registry: counters, gauges and histograms without a
global lock.

PR 1 removed the moderator-wide monitor so independent methods moderate
in parallel; metrics must not quietly reintroduce it. The seed's
``ModerationStats.bump`` serialized *every* activation of *every* method
on one lock — the single remaining cross-method serialization point,
paid even on the lock-free ``never_blocks`` fast path. This registry
removes it by **striping per writer thread**:

* each thread owns a private :class:`_Stripe` (created on its first
  write) holding plain dicts of partial sums;
* a write acquires only its *own* stripe's lock — never contended by
  another writer, because no two threads share a stripe. The lock
  exists solely so snapshots can get a consistent cut; between
  snapshots it is always uncontended, which on CPython is a single
  atomic compare-and-swap;
* :meth:`MetricsRegistry.snapshot` (and the exporters built on it)
  acquires *all* stripe locks at once, merges the partial sums, and
  releases — a consistent cut across every metric, so a multi-counter
  ``bump`` can never be observed torn.

Thread-striping subsumes per-lock-domain sharding: activations of
different lock domains necessarily run on different threads, so their
metric updates land on different stripes by construction.

Metric families follow the Prometheus data model — counters only go up,
gauges go both ways, histograms have fixed cumulative buckets (p50/p95/
p99 derivable via :func:`histogram_quantile`). Label values are plain
string tuples; a (family, labels) pair addresses one logical cell.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "CounterBlock",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricsRegistry",
    "MetricSnapshot",
    "histogram_quantile",
]

#: Default latency buckets, in seconds: 10 µs to 10 s, roughly
#: logarithmic — wide enough for a moderated in-process call (~µs) and a
#: parked activation (~ms–s) on one scale. Upper bound +inf is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
    1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
    250e-3, 500e-3, 1.0, 2.5, 5.0, 10.0,
)


class _Stripe:
    """One thread's private partial sums.

    ``counters`` maps (family, labels) -> float partial sum (counters
    and gauges share the representation; a gauge is a sum of deltas).
    ``histograms`` maps (family, labels) -> [sum, count, bucket_counts].
    """

    __slots__ = ("lock", "counters", "histograms")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.counters: Dict[Tuple[str, Tuple[str, ...]], float] = {}
        self.histograms: Dict[
            Tuple[str, Tuple[str, ...]], List[Any]
        ] = {}


@dataclass
class _Family:
    """Metadata of one registered metric family."""

    kind: str  # "counter" | "gauge" | "histogram"
    name: str
    help: str
    labelnames: Tuple[str, ...]
    buckets: Optional[Tuple[float, ...]] = None


class Counter:
    """Handle onto one counter cell; :meth:`inc` is the hot path."""

    __slots__ = ("_registry", "_key")

    def __init__(self, registry: "MetricsRegistry",
                 key: Tuple[str, Tuple[str, ...]]) -> None:
        self._registry = registry
        self._key = key

    def inc(self, amount: float = 1) -> None:
        stripe = self._registry._stripe()
        with stripe.lock:
            counters = stripe.counters
            counters[self._key] = counters.get(self._key, 0) + amount

    def cell(self) -> Tuple[Dict[Any, float], Tuple[str, Tuple[str, ...]]]:
        """``(counters, key)``: this thread's cell, seeded once.

        The cell is inserted under the stripe lock; from then on
        ``counters[key] += amount`` on the calling thread is a lock-free
        single-writer increment (see :class:`CounterBlock`).
        """
        return self._registry._counter_cell(self._key)

    @property
    def value(self) -> float:
        return self._registry._cell_value(self._key)


class Gauge(Counter):
    """Up/down counter (sum of striped deltas = current level)."""

    __slots__ = ()

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)


class Histogram:
    """Handle onto one histogram cell with fixed cumulative buckets."""

    __slots__ = ("_registry", "_key", "_buckets")

    def __init__(self, registry: "MetricsRegistry",
                 key: Tuple[str, Tuple[str, ...]],
                 buckets: Tuple[float, ...]) -> None:
        self._registry = registry
        self._key = key
        self._buckets = buckets

    def observe(self, value: float) -> None:
        stripe = self._registry._stripe()
        index = bisect.bisect_left(self._buckets, value)
        with stripe.lock:
            entry = self._entry(stripe)
            entry[0] += value
            entry[1] += 1
            entry[2][index] += 1

    def cell(self) -> Tuple[Any, List[Any], Tuple[float, ...]]:
        """``(stripe lock, [sum, count, bucket counts], buckets)``.

        This thread's entry, inserted once; an update of the triplet
        must hold the returned lock, so a snapshot never sees it torn.
        """
        stripe = self._registry._stripe()
        with stripe.lock:
            entry = self._entry(stripe)
        return stripe.lock, entry, self._buckets

    def _entry(self, stripe: _Stripe) -> List[Any]:
        """The stripe's ``[sum, count, bucket counts]`` (caller holds
        the stripe lock)."""
        entry = stripe.histograms.get(self._key)
        if entry is None:
            entry = stripe.histograms[self._key] = [
                0.0, 0, [0] * (len(self._buckets) + 1)
            ]
        return entry

    @property
    def value(self) -> "HistogramValue":
        merged = self._registry._histogram_value(self._key, self._buckets)
        return merged


@dataclass
class HistogramValue:
    """Merged histogram state: sum, count, per-bucket counts."""

    buckets: Tuple[float, ...]
    counts: Tuple[int, ...]  # one per bucket plus the +inf overflow
    sum: float
    count: int

    def quantile(self, q: float) -> float:
        return histogram_quantile(self.buckets, self.counts, q)


def histogram_quantile(buckets: Tuple[float, ...],
                       counts: Iterable[int], q: float) -> float:
    """Estimate the q-quantile (0..1) from cumulative-bucket counts.

    Linear interpolation inside the target bucket, the same estimator
    ``histogram_quantile()`` uses in PromQL. Returns 0.0 for an empty
    histogram; values in the +inf overflow bucket clamp to the highest
    finite bound.
    """
    counts = list(counts)
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0.0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        if seen + bucket_count >= rank:
            upper = (
                buckets[index] if index < len(buckets) else buckets[-1]
            )
            lower = buckets[index - 1] if index > 0 else 0.0
            if index >= len(buckets):
                return buckets[-1]
            fraction = (rank - seen) / bucket_count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        seen += bucket_count
    return buckets[-1]


@dataclass
class MetricSnapshot:
    """Consistent view of one family: metadata plus per-label samples."""

    kind: str
    name: str
    help: str
    labelnames: Tuple[str, ...]
    buckets: Optional[Tuple[float, ...]]
    #: labels tuple -> float (counter/gauge) or HistogramValue
    samples: Dict[Tuple[str, ...], Any] = field(default_factory=dict)


class CounterBlock:
    """Fixed-name block of counters bumped together atomically.

    The migration target of ``ModerationStats``: one multi-name
    :meth:`bump` call increments several named counters under a single
    (thread-private) stripe-lock acquisition, so related counters can
    never be observed out of step by a snapshot.

    Single-name bumps take a lock-free fast path: each writer thread
    caches a direct reference to its stripe's cell, and since only the
    owning thread ever writes its stripe, the steady-state increment is
    two dict operations under the GIL. The cell is *inserted* under the
    stripe lock, so a snapshot iterating the stripe's dict (which it
    does under that lock) can never see the dict resize mid-iteration —
    at worst it misses an increment that lands during the merge, which
    the next snapshot observes.
    """

    __slots__ = ("_registry", "_keys", "names", "_cells")

    def __init__(self, registry: "MetricsRegistry", names: Iterable[str],
                 prefix: str = "", help: str = "") -> None:
        self._registry = registry
        self.names = tuple(names)
        #: each name's unlabelled cell key, the one ``labels()`` makes
        self._keys: Dict[str, Tuple[str, Tuple[str, ...]]] = {
            name: (prefix + name, ()) for name in self.names
        }
        with registry._lock:
            for name, (family, _labels) in self._keys.items():
                registry._declare("counter", family, help or name, (), None)
        #: per-thread cache of name -> (stripe counters dict, cell key)
        self._cells = threading.local()

    def inc(self, name: str, amount: float = 1) -> None:
        """Single-counter increment — the lock-free fast path, directly.

        Equivalent to ``bump(name)`` without the varargs packing; RPC
        hot paths call this once per request, so the saved tuple
        allocation is measurable end to end.
        """
        cells = getattr(self._cells, "map", None)
        if cells is None:
            cells = self._cells.map = {}
        cell = cells.get(name)
        if cell is None:
            cell = cells[name] = self._seed_cell(name)
        counters, key = cell
        counters[key] = counters[key] + amount

    def bump(self, *names: str, amount: float = 1) -> None:
        if len(names) == 1:
            self.inc(names[0], amount)
            return
        self.add(names, amount)

    def add(self, names: Tuple[str, ...], amount: float = 1) -> None:
        """Increment each of ``names`` under one stripe-lock hold.

        Always locked, even for one name: a snapshot sees the whole
        write or none of it, ordered against this thread's other
        locked writes.
        """
        registry = self._registry
        stripe = getattr(registry._local, "stripe", None)
        if stripe is None:
            stripe = registry._stripe()
        keys = self._keys
        with stripe.lock:
            counters = stripe.counters
            for name in names:
                key = keys[name]
                counters[key] = counters.get(key, 0) + amount

    def _seed_cell(self, name: str) -> Tuple[Dict[Any, float], Any]:
        """Insert this thread's cell under the stripe lock, once."""
        return self._registry._counter_cell(self._keys[name])

    def value(self, name: str) -> float:
        return self._registry._cell_value(self._keys[name])

    def as_dict(self) -> Dict[str, int]:
        """Consistent snapshot of every counter in the block."""
        merged = self._registry._consistent_counters(
            [self._keys[name] for name in self.names]
        )
        return {
            name: int(merged[self._keys[name]]) for name in self.names
        }


class _FamilyHandle:
    """Factory for cell handles of one family (``family.labels(...)``)."""

    __slots__ = ("_registry", "_family")

    def __init__(self, registry: "MetricsRegistry",
                 family: _Family) -> None:
        self._registry = registry
        self._family = family

    def labels(self, *labelvalues: str) -> Any:
        if len(labelvalues) != len(self._family.labelnames):
            raise ValueError(
                f"{self._family.name} expects labels "
                f"{self._family.labelnames}, got {labelvalues!r}"
            )
        key = (self._family.name, tuple(str(v) for v in labelvalues))
        if self._family.kind == "histogram":
            return Histogram(self._registry, key, self._family.buckets)
        if self._family.kind == "gauge":
            return Gauge(self._registry, key)
        return Counter(self._registry, key)


class MetricsRegistry:
    """Registry of metric families over thread-striped storage."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stripes: List[_Stripe] = []
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # stripes
    # ------------------------------------------------------------------
    def _stripe(self) -> _Stripe:
        stripe = getattr(self._local, "stripe", None)
        if stripe is None:
            stripe = _Stripe()
            with self._lock:
                self._stripes.append(stripe)
            self._local.stripe = stripe
        return stripe

    def _counter_cell(
        self, key: Tuple[str, Tuple[str, ...]]
    ) -> Tuple[Dict[Any, float], Tuple[str, Tuple[str, ...]]]:
        """This thread's counter cell, inserted under its stripe lock."""
        stripe = self._stripe()
        with stripe.lock:
            stripe.counters.setdefault(key, 0.0)
        return stripe.counters, key

    @property
    def stripe_count(self) -> int:
        """Stripes created so far (one per writer thread seen)."""
        with self._lock:
            return len(self._stripes)

    # ------------------------------------------------------------------
    # family registration
    # ------------------------------------------------------------------
    def _register(self, kind: str, name: str, help: str,
                  labelnames: Tuple[str, ...],
                  buckets: Optional[Tuple[float, ...]]) -> _FamilyHandle:
        with self._lock:
            family = self._declare(kind, name, help, labelnames, buckets)
        return _FamilyHandle(self, family)

    def _declare(self, kind: str, name: str, help: str,
                 labelnames: Tuple[str, ...],
                 buckets: Optional[Tuple[float, ...]]) -> _Family:
        """The family ``name``, added if new; the caller holds ``_lock``."""
        family = self._families.get(name)
        if family is None:
            family = _Family(kind, name, help, labelnames, buckets)
            self._families[name] = family
        elif family.kind != kind or family.labelnames != labelnames:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{family.kind} with labels {family.labelnames}"
            )
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> _FamilyHandle:
        return self._register(
            "counter", name, help, tuple(labelnames), None
        )

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> _FamilyHandle:
        return self._register("gauge", name, help, tuple(labelnames), None)

    def histogram(
        self, name: str, help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> _FamilyHandle:
        buckets = tuple(sorted(buckets))
        return self._register(
            "histogram", name, help, tuple(labelnames), buckets
        )

    def counter_block(self, names: Iterable[str],
                      prefix: str = "") -> CounterBlock:
        return CounterBlock(self, names, prefix=prefix)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _all_stripes(self) -> List[_Stripe]:
        with self._lock:
            return list(self._stripes)

    def _cell_value(self, key: Tuple[str, Tuple[str, ...]]) -> float:
        total = 0.0
        for stripe in self._all_stripes():
            with stripe.lock:
                total += stripe.counters.get(key, 0)
        return total

    def _consistent_counters(
        self, keys: List[Tuple[str, Tuple[str, ...]]]
    ) -> Dict[Tuple[str, Tuple[str, ...]], float]:
        """Merge the given counter cells under all stripe locks at once."""
        stripes = self._all_stripes()
        for stripe in stripes:
            stripe.lock.acquire()
        try:
            totals = {key: 0.0 for key in keys}
            for stripe in stripes:
                counters = stripe.counters
                for key in keys:
                    value = counters.get(key)
                    if value:
                        totals[key] += value
            return totals
        finally:
            for stripe in reversed(stripes):
                stripe.lock.release()

    def _histogram_value(self, key: Tuple[str, Tuple[str, ...]],
                         buckets: Tuple[float, ...]) -> HistogramValue:
        total_sum = 0.0
        total_count = 0
        counts = [0] * (len(buckets) + 1)
        for stripe in self._all_stripes():
            with stripe.lock:
                entry = stripe.histograms.get(key)
                if entry is None:
                    continue
                total_sum += entry[0]
                total_count += entry[1]
                for index, bucket_count in enumerate(entry[2]):
                    counts[index] += bucket_count
        return HistogramValue(
            buckets=buckets, counts=tuple(counts),
            sum=total_sum, count=total_count,
        )

    def collect(self) -> List[MetricSnapshot]:
        """Consistent snapshot of every family, for exporters.

        All stripe locks are held at once while merging, so the result
        is a true cut: every multi-metric update (a ``CounterBlock``
        bump, a histogram's sum/count/bucket triplet) appears either
        fully or not at all.
        """
        with self._lock:
            families = dict(self._families)
        stripes = self._all_stripes()
        for stripe in stripes:
            stripe.lock.acquire()
        try:
            counters: Dict[Tuple[str, Tuple[str, ...]], float] = {}
            histograms: Dict[Tuple[str, Tuple[str, ...]], List[Any]] = {}
            for stripe in stripes:
                for key, value in stripe.counters.items():
                    counters[key] = counters.get(key, 0.0) + value
                for key, entry in stripe.histograms.items():
                    merged = histograms.get(key)
                    if merged is None:
                        histograms[key] = [
                            entry[0], entry[1], list(entry[2])
                        ]
                    else:
                        merged[0] += entry[0]
                        merged[1] += entry[1]
                        for index, count in enumerate(entry[2]):
                            merged[2][index] += count
        finally:
            for stripe in reversed(stripes):
                stripe.lock.release()

        snapshots: List[MetricSnapshot] = []
        for name in sorted(families):
            family = families[name]
            snapshot = MetricSnapshot(
                kind=family.kind, name=family.name, help=family.help,
                labelnames=family.labelnames, buckets=family.buckets,
            )
            if family.kind == "histogram":
                for (fam_name, labels), entry in histograms.items():
                    if fam_name != name:
                        continue
                    snapshot.samples[labels] = HistogramValue(
                        buckets=family.buckets, counts=tuple(entry[2]),
                        sum=entry[0], count=entry[1],
                    )
            else:
                for (fam_name, labels), value in counters.items():
                    if fam_name != name:
                        continue
                    snapshot.samples[labels] = value
            snapshots.append(snapshot)
        return snapshots

    def snapshot(self) -> Dict[str, Dict[Tuple[str, ...], Any]]:
        """``collect()`` as a nested dict: name -> labels -> value."""
        return {
            family.name: dict(family.samples)
            for family in self.collect()
        }

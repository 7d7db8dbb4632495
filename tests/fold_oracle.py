"""The observability plane's per-arrow folds, kept as a differential oracle.

The plane folds every observed activation's tally once, through a
program compiled per (method, tally shape)
(:meth:`repro.obs.plane.ObservabilityPlane.fold`). Before that it
subscribed two folds that walked each tally arrow by arrow: the metrics
listener's, resolving each ``(kind, method, concern, detail)`` to its
registry cells, and the span recorder's, bumping its exact counts. Both
are kept here verbatim but for their names, as the reference the
compiled fold is proved against (``tests/properties/
test_fold_differential.py``):

* :class:`ReferenceMetricsFold` — the metrics families (declared by the
  production :class:`~repro.obs.plane.MetricsListener`), with the
  per-arrow ``fold`` and its own copy of the cell resolution;
* :func:`reference_count_fold` — the recorder's per-arrow exact counts,
  written into a :class:`~repro.obs.spans.SpanRecorder`'s counters.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Sequence, Tuple

from repro.core.events import TallyItem
from repro.obs.plane import MetricsListener
from repro.obs.spans import SpanRecorder

#: event kinds whose ``detail`` is a metric label; the rest fold as ""
DETAIL_LABELS = frozenset(("precondition", "aspect_fault", "quarantine"))
#: event kind -> the recorder's exact counter it bumps
COUNTED = {
    "preactivation": "activations",
    "abort": "aborted",
    "timeout": "timeouts",
    "aspect_fault": "faults",
}


class ReferenceMetricsFold(MetricsListener):
    """The metrics fold as one arrow at a time."""

    def __init__(self, registry: Any) -> None:
        super().__init__(registry)
        #: per thread: (kind, method, concern, detail) -> resolved cells
        self._local = threading.local()

    def fold(self, method_id: str, items: Sequence[TallyItem]) -> None:
        cells = getattr(self._local, "cells", None)
        if cells is None:
            cells = self._local.cells = {}
        observed = []
        for kind, concern, detail, duration in items:
            key = (kind, method_id, concern,
                   detail if kind in DETAIL_LABELS else "")
            resolved = cells.get(key)
            if resolved is None:
                resolved = cells[key] = self._reference_resolve(*key)
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
            lock.acquire()
            try:
                for entry, index, duration in observed:
                    entry[0] += duration
                    entry[1] += 1
                    entry[2][index] += 1
            finally:
                lock.release()

    def _reference_resolve(self, kind: str, method_id: str, concern: str,
                           detail: str) -> Tuple[Any, ...]:
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


def reference_count_fold(recorder: SpanRecorder, method_id: str,
                         items: Sequence[TallyItem]) -> None:
    """The recorder's exact counts as one arrow at a time."""
    cells = getattr(recorder._local, "reference_cells", None)
    if cells is None:
        cells = recorder._local.reference_cells = {}
    for kind, _concern, _detail, _duration in items:
        name = COUNTED.get(kind)
        if name is None:
            continue
        cell = cells.get((name, method_id))
        if cell is None:
            cell = cells[(name, method_id)] = \
                recorder._counters.labels(method_id, name).cell()
        counters, key = cell
        counters[key] += 1

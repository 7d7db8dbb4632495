"""Differential: the plane's compiled fold ≡ the per-arrow folds.

:meth:`ObservabilityPlane.fold <repro.obs.plane.ObservabilityPlane.fold>`
compiles one program per (method, tally shape) on each thread and runs
its summed increments from then on. The reference
(``tests/fold_oracle.py``) walks every tally arrow by arrow, the way the
metrics listener and the span recorder folded before. Hypothesis drives
both with the same stream — tallies over every event kind, one-item
``emit`` tallies, free-text stall and timeout details, two methods, two
threads and a ``recorder.clear()`` part way — and the two must leave
equal registry snapshots, equal Prometheus text and equal exact
counts. A cached program that outlived ``clear()`` would keep counting
into the recorder's old registry and show here as lost counts.

The cache is bounded: a stream of distinct stall details (each one a
new shape) leaves every thread's program cache at most
``_MAX_PROGRAMS`` long, with the counts still exact.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AspectModerator
from repro.obs import export
from repro.obs.plane import _MAX_PROGRAMS, ObservabilityPlane
from tests.fold_oracle import ReferenceMetricsFold, reference_count_fold

pytestmark = pytest.mark.differential

METHODS = ("open", "assign")
CONCERNS = ("", "auth", "sync")
FREE_TEXT = st.text(max_size=12)
#: every event kind the runtime emits, with the details it carries
DETAILS = {
    "create_aspect": st.just(""),
    "register_aspect": st.just(""),
    "preactivation": st.just(""),
    "precondition": st.sampled_from(("resume", "block", "abort")),
    "blocked": st.just(""),
    "unblocked": st.just(""),
    "invoke": st.just(""),
    "postactivation": st.just(""),
    "postaction": st.just(""),
    "notify": st.sampled_from(("", "elided")),
    "abort": st.just(""),
    "compensate": st.just(""),
    "lock_domain": st.sampled_from(("", "domain-a")),
    "aspect_fault": st.sampled_from(
        ("precondition: RuntimeError", "postaction: ValueError")
    ),
    "quarantine": st.sampled_from(("fail_open", "fail_closed")),
    "reinstate": st.just(""),
    "degraded_skip": st.just(""),
    "watchdog_stall": FREE_TEXT,
    "timeout": FREE_TEXT,
    "contract_violation": FREE_TEXT,
    "node_state": st.sampled_from(("up", "down")),
    "recovery": st.just(""),
}
durations = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
)


@st.composite
def arrows(draw):
    """One arrow's shape: (kind, concern, detail)."""
    kind = draw(st.sampled_from(sorted(DETAILS)))
    return kind, draw(st.sampled_from(CONCERNS)), draw(DETAILS[kind])


@st.composite
def streams(draw):
    """Fold operations over a few shapes, so programs are reused."""
    shapes = draw(st.lists(st.lists(arrows(), min_size=1, max_size=10),
                           min_size=1, max_size=4))
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        thread = draw(st.integers(min_value=0, max_value=1))
        method = draw(st.sampled_from(METHODS))
        if draw(st.booleans()):
            shape = draw(st.sampled_from(shapes))
        else:  # one arrow as ``emit`` folds it
            shape = [draw(arrows())]
        items = [
            (kind, concern, detail, draw(durations))
            for kind, concern, detail in shape
        ]
        ops.append((thread, method, items))
    ops.insert(draw(st.integers(min_value=0, max_value=len(ops))), None)
    return ops


class Rig:
    """The plane and the reference, each on its own moderator and bus,
    folding on the same two threads."""

    def __init__(self) -> None:
        self.plane = ObservabilityPlane(AspectModerator()).enable()
        self.reference = ObservabilityPlane(AspectModerator())
        metrics = ReferenceMetricsFold(self.reference.registry)
        recorder = self.reference.recorder
        bus = self.reference.moderator.events
        bus.subscribe_fold(metrics.fold)
        bus.subscribe_fold(
            lambda method_id, items:
                reference_count_fold(recorder, method_id, items)
        )
        self.threads = [ThreadPoolExecutor(max_workers=1)
                        for _ in range(2)]

    def run(self, thread: int, method: str, items) -> None:
        def both() -> None:
            for plane in (self.plane, self.reference):
                bus = plane.moderator.events
                if len(items) == 1:
                    kind, concern, detail, duration = items[0]
                    bus.emit(kind, method, concern, detail,
                             duration=duration, sampled=False)
                else:
                    bus.flush(method, list(items))
        self.threads[thread].submit(both).result()

    def clear(self) -> None:
        self.plane.recorder.clear()
        self.reference.recorder.clear()

    def on_each_thread(self, fn):
        return [pool.submit(fn).result() for pool in self.threads]

    def close(self) -> None:
        for pool in self.threads:
            pool.shutdown()

    def assert_equal(self) -> None:
        plane, reference = self.plane, self.reference
        assert plane.registry.snapshot() == reference.registry.snapshot()
        assert export.to_prometheus(plane.registry) == \
            export.to_prometheus(reference.registry)
        assert plane.recorder.counts == reference.recorder.counts
        for bus in (plane.moderator.events, reference.moderator.events):
            assert bus.listener_errors == 0


@given(ops=streams())
@settings(max_examples=60, deadline=None)
def test_compiled_fold_matches_the_per_arrow_folds(ops):
    rig = Rig()
    try:
        for op in ops:
            if op is None:
                rig.assert_equal()
                rig.clear()
            else:
                rig.run(*op)
        rig.assert_equal()
    finally:
        rig.close()


def test_distinct_stall_details_keep_each_program_cache_bounded():
    rig = Rig()
    try:
        rig.run(0, "open", [("preactivation", "", "", 0.0),
                            ("invoke", "", "", 0.0)])
        for index in range(10_000):
            rig.run(index % 2, METHODS[index % 2],
                    [("watchdog_stall", "", f"parked {index}", 1.5)])
        sizes = rig.on_each_thread(
            lambda: len(rig.plane.recorder._local.programs)
        )
        assert all(0 < size <= _MAX_PROGRAMS for size in sizes)
        rig.assert_equal()
        stalls = rig.plane.registry.snapshot()[
            "repro_watchdog_stall_seconds"
        ]
        assert sum(value.count for value in stalls.values()) == 10_000
    finally:
        rig.close()

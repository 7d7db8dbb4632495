"""Unit tests for the continuation runtime (``repro.core.continuation``).

The differential suite proves the reactor indistinguishable from the
threaded bracket over the chaos schedules; these tests pin the pieces
that make that possible — the park/wake/timeout lifecycle, plan
segmentation, runtime attachment, the observability merge
(watchdog stalls and blocked spans see continuation parks exactly like
thread parks), contract re-anchoring across a suspension, and the
deterministic engine bridge.
"""

import collections
import sys
import threading
import time

import pytest

from repro.aspects.synchronization import BoundedBufferSync
from repro.contracts import ContractRegistry
from repro.core import (
    ActivationTimeout,
    AspectModerator,
    ComponentProxy,
    ContinuationRuntime,
    MethodAborted,
    NullAspect,
    PlanSegment,
    RegistrationError,
    Tracer,
)
from repro.core.results import ABORT, BLOCK, RESUME
from repro.core.watchdog import ActivationWatchdog
from repro.obs.spans import SpanRecorder
from repro.sim import Engine


class Gate(NullAspect):
    """Guarded suspension: BLOCKs until :attr:`open` flips."""

    concern = "gate"
    never_blocks = False

    def __init__(self):
        self.open = False

    def evaluate_precondition(self, joinpoint):
        return RESUME if self.open else BLOCK


class Sink:
    def __init__(self):
        self.values = []
        self.balance = 0

    def push(self, value):
        self.values.append(value)
        return value

    def deposit(self, amount):
        self.balance += amount
        return self.balance


def build(*aspects, method="push", **moderator_kwargs):
    moderator = AspectModerator(**moderator_kwargs)
    for name, aspect in aspects:
        moderator.register_aspect(method, name, aspect)
    sink = Sink()
    return moderator, sink


class TestPlanSegments:
    def test_straight_line_plan_is_one_segment(self):
        moderator, _ = build(("a", NullAspect()), ("b", NullAspect()))
        segments = moderator.plan_for("push").segments
        assert len(segments) == 1
        assert segments[0].index == 0
        assert segments[0].start == 0
        assert not segments[0].can_block
        assert [c.concern for c in segments[0].cells] == ["a", "b"]

    def test_blocking_cells_open_new_segments(self):
        moderator, _ = build(
            ("a", NullAspect()), ("gate", Gate()),
            ("b", NullAspect()), ("gate2", Gate()),
        )
        segments = moderator.plan_for("push").segments
        # split before every potential-BLOCK seam
        assert [(s.start, s.can_block,
                 tuple(c.concern for c in s.cells)) for s in segments] == [
            (0, False, ("a",)),
            (1, True, ("gate", "b")),
            (3, True, ("gate2",)),
        ]
        assert [s.index for s in segments] == [0, 1, 2]

    def test_empty_plan_has_one_empty_segment(self):
        moderator, _ = build()
        segments = moderator.plan_for("push").segments
        assert len(segments) == 1
        assert list(segments[0].cells) == []
        assert not segments[0].can_block

    def test_segments_are_a_partition_of_the_cells(self):
        moderator, _ = build(
            ("gate", Gate()), ("a", NullAspect()), ("gate2", Gate()),
        )
        plan = moderator.plan_for("push")
        flattened = [cell for seg in plan.segments for cell in seg.cells]
        assert flattened == list(plan.cells)

    def test_explain_includes_segments(self):
        moderator, _ = build(("a", NullAspect()), ("gate", Gate()))
        explanation = moderator.plan_for("push").explain()
        assert explanation["segments"] == [
            {"index": 0, "start": 0, "can_block": False,
             "concerns": ["a"]},
            {"index": 1, "start": 1, "can_block": True,
             "concerns": ["gate"]},
        ]

    def test_segment_repr_and_describe(self):
        moderator, _ = build(("gate", Gate()))
        segment = moderator.plan_for("push").segments[0]
        assert isinstance(segment, PlanSegment)
        assert "gate" in segment.describe()
        assert "can_block=True" in repr(segment)


class TestRuntimeAttachment:
    def test_second_runtime_rejected(self):
        moderator, _ = build()
        with ContinuationRuntime(moderator, workers=1):
            with pytest.raises(RegistrationError):
                ContinuationRuntime(moderator, workers=1)

    def test_close_detaches(self):
        moderator, _ = build()
        runtime = ContinuationRuntime(moderator, workers=1)
        runtime.close()
        # a fresh runtime may attach after close
        ContinuationRuntime(moderator, workers=1).close()

    def test_detach_is_idempotent(self):
        moderator, _ = build()
        runtime = ContinuationRuntime(moderator, workers=1)
        runtime.close()
        runtime.close()  # second close is a no-op

    def test_close_fails_parked_futures_and_releases_their_slots(self):
        gate = Gate()
        moderator, sink = build(("gate", gate))
        moderator.register_aspect("fast", "a", NullAspect())
        runtime = ContinuationRuntime(moderator, workers=1)
        future = runtime.submit("push", sink.push, 1, component=sink,
                                timeout=30.0)
        deadline = time.monotonic() + 5.0
        while runtime.parked_count == 0:
            assert time.monotonic() < deadline, "never parked"
            time.sleep(0.005)
        runtime.close()
        assert future.done
        with pytest.raises(RuntimeError, match="runtime closed"):
            future.result(timeout=0)
        assert runtime.parked_count == 0
        assert runtime.completed == runtime.submitted == 1
        assert moderator._waiters == 0
        assert moderator.parked_snapshot() == {}
        # with no slot left behind, fast-path completions elide the wake
        tracer = Tracer()
        moderator.events.subscribe(tracer)
        moderator.moderate_call("fast", sink.push, 2)
        notifies = [e for e in tracer.events if e.kind == "notify"]
        assert [e.detail for e in notifies] == ["elided"]
        assert moderator.stats.notifications == 0
        assert sink.values == [2]


class TestParkWakeTimeout:
    def test_fast_path_never_parks(self):
        moderator, sink = build(("a", NullAspect()))
        with ContinuationRuntime(moderator, workers=1) as runtime:
            future = runtime.submit("push", sink.push, 5, component=sink)
            assert future.result(timeout=5.0) == 5
            assert runtime.parked_count == 0
        stats = moderator.stats.as_dict()
        assert stats["fastpaths"] == 1
        assert stats["waits"] == 0

    def test_park_then_notify_completes(self):
        gate = Gate()
        moderator, sink = build(("gate", gate))
        tracer = Tracer()
        moderator.events.subscribe(tracer)
        with ContinuationRuntime(moderator, workers=1) as runtime:
            future = runtime.submit("push", sink.push, 9, component=sink)
            deadline = time.monotonic() + 5.0
            while runtime.parked_count == 0:
                assert time.monotonic() < deadline, "never parked"
                time.sleep(0.005)
            assert not future.done
            gate.open = True
            moderator.notify("push")
            assert future.result(timeout=5.0) == 9
            assert runtime.parked_count == 0
        assert sink.values == [9]
        stats = moderator.stats.as_dict()
        assert stats["waits"] == 1
        assert stats["wakeups"] == 1
        kinds = [event.kind for event in tracer.events]
        assert "blocked" in kinds
        assert "unblocked" in kinds

    def test_parked_continuation_times_out(self):
        moderator, sink = build(("gate", Gate()))
        tracer = Tracer()
        moderator.events.subscribe(tracer)
        with ContinuationRuntime(moderator, workers=1) as runtime:
            future = runtime.submit("push", sink.push, 1,
                                    component=sink, timeout=0.05)
            with pytest.raises(ActivationTimeout):
                future.result(timeout=5.0)
            assert runtime.parked_count == 0
        assert sink.values == []
        assert "timeout" in [event.kind for event in tracer.events]
        # expiry re-ran one final round but never got a normal wake
        assert moderator.stats.as_dict()["wakeups"] == 0

    def test_abort_propagates_concern(self):
        class Deny(NullAspect):
            concern = "deny"

            def evaluate_precondition(self, joinpoint):
                return ABORT

        moderator, sink = build(("deny", Deny()))
        with ContinuationRuntime(moderator, workers=1) as runtime:
            future = runtime.submit("push", sink.push, 3, component=sink)
            with pytest.raises(MethodAborted) as excinfo:
                future.result(timeout=5.0)
        assert excinfo.value.concern == "deny"
        assert sink.values == []

    def test_many_parked_one_worker(self):
        """The whole point: parked activations outnumber workers."""
        gate = Gate()
        moderator, sink = build(("gate", gate))
        with ContinuationRuntime(moderator, workers=1) as runtime:
            futures = [
                runtime.submit("push", sink.push, n, component=sink)
                for n in range(50)
            ]
            deadline = time.monotonic() + 10.0
            while runtime.parked_count < 50:
                assert time.monotonic() < deadline, (
                    f"only {runtime.parked_count} parked"
                )
                time.sleep(0.005)
            gate.open = True
            moderator.notify("push")
            results = sorted(f.result(timeout=10.0) for f in futures)
            assert results == list(range(50))
            assert runtime.parked_count == 0
        assert sorted(sink.values) == list(range(50))


class TestMixedRuntimes:
    def test_threads_and_continuations_park_on_one_buffer(self):
        """Both park seams on one moderator: nothing lost, nothing left."""

        class Buffer:
            capacity = 2

            def __init__(self):
                self.items = collections.deque()

            def put(self, value):
                self.items.append(value)
                return value

            def take(self):
                return self.items.popleft()

        buffer = Buffer()
        moderator = AspectModerator()
        sync = BoundedBufferSync(buffer, producer="put", consumer="take")
        moderator.register_aspect("put", "sync", sync)
        moderator.register_aspect("take", "sync", sync)
        proxy = ComponentProxy(buffer, moderator, timeout=10.0)
        values = list(range(120))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ContinuationRuntime(moderator, workers=2) as runtime:
                takes = [
                    runtime.submit("take", buffer.take, component=buffer,
                                   timeout=10.0)
                    for _ in values
                ]
                producers = [
                    threading.Thread(
                        target=lambda chunk=values[i::4]: [
                            proxy.put(value) for value in chunk
                        ],
                        daemon=True,
                    )
                    for i in range(4)
                ]
                for thread in producers:
                    thread.start()
                for thread in producers:
                    thread.join(10.0)
                    assert not thread.is_alive(), "producer wedged"
                taken = [future.result(timeout=10.0) for future in takes]
                assert runtime.parked_count == 0
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == values
        assert not buffer.items
        assert moderator._waiters == 0
        assert moderator.parked_snapshot() == {}
        assert (sync.items, sync.active_producers,
                sync.active_consumers) == (0, 0, 0)


class TestObservabilityMerge:
    def _park_one(self, runtime, moderator, sink):
        future = runtime.submit("push", sink.push, 1, component=sink)
        deadline = time.monotonic() + 5.0
        while runtime.parked_count == 0:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        return future

    def test_moderator_snapshot_includes_continuation_parks(self):
        gate = Gate()
        moderator, sink = build(("gate", gate))
        with ContinuationRuntime(moderator, workers=1) as runtime:
            future = self._park_one(runtime, moderator, sink)
            parked = moderator.parked_snapshot()
            assert len(parked) == 1
            (method_id, since), = parked.values()
            assert method_id == "push"
            assert since <= time.monotonic()
            assert moderator.queue_lengths().get("push") == 1
            gate.open = True
            moderator.notify("push")
            future.result(timeout=5.0)
        assert moderator.parked_snapshot() == {}

    def test_watchdog_reports_stalled_continuations(self):
        gate = Gate()
        moderator, sink = build(("gate", gate))
        with ContinuationRuntime(moderator, workers=1) as runtime:
            future = self._park_one(runtime, moderator, sink)
            watchdog = ActivationWatchdog(moderator, deadline=0.01)
            reports = watchdog.scan(now=time.monotonic() + 1.0)
            assert len(reports) == 1
            report = reports[0]
            assert report.method_id == "push"
            assert len(report.activations) == 1
            assert report.queue_lengths.get("push") == 1
            gate.open = True
            moderator.notify("push")
            future.result(timeout=5.0)
            # unparked continuations clear from the next pass
            assert watchdog.scan(now=time.monotonic() + 2.0) == []

    def test_blocked_span_segment_recorded(self):
        gate = Gate()
        moderator, sink = build(("gate", gate))
        recorder = SpanRecorder(node="unit")
        moderator.events.subscribe(recorder)
        with ContinuationRuntime(moderator, workers=1) as runtime:
            future = self._park_one(runtime, moderator, sink)
            gate.open = True
            moderator.notify("push")
            future.result(timeout=5.0)
        root, = recorder.finished
        names = [span.name for span in root.walk()]
        assert "blocked" in names
        blocked = next(s for s in root.walk() if s.name == "blocked")
        assert blocked.end is not None
        assert blocked.concern == "gate"


class TestContractReanchoring:
    def test_parked_rounds_do_not_misblame_foreign_writers(self):
        """State moved while parked; the resumed round re-anchors old."""

        class FundedGate(NullAspect):
            concern = "funded"
            never_blocks = False

            def evaluate_precondition(self, joinpoint):
                return RESUME if joinpoint.component.balance >= 100 \
                    else BLOCK

        moderator = AspectModerator()
        moderator.register_aspect("deposit", "funded", FundedGate())
        registry = ContractRegistry(node="unit")
        registry.declare(
            "deposit",
            ensure=[("grows",
                     lambda jp, old: jp.component.balance
                     == old.balance + jp.args[0])],
            observables=("balance",),
        )
        registry.install(moderator)
        sink = Sink()
        with ContinuationRuntime(moderator, workers=1) as runtime:
            future = runtime.submit("deposit", sink.deposit, 5,
                                    component=sink)
            deadline = time.monotonic() + 5.0
            while runtime.parked_count == 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            # Foreign writer funds the account while the continuation is
            # parked, then wakes it. If old-state were anchored at entry
            # the ensure clause would convict (5 != 100 + 5 - 0); the
            # re-anchored round holds old.balance == 100.
            sink.balance = 100
            moderator.notify("deposit")
            assert future.result(timeout=5.0) == 105


class TestEngineBridge:
    def test_virtual_time_park_wake_is_deterministic(self):
        engine = Engine()
        gate = Gate()
        moderator, sink = build(("gate", gate))
        runtime = ContinuationRuntime(moderator, engine=engine)
        try:
            future = runtime.submit("push", sink.push, 4, component=sink)
            engine.run(until=1.0)
            assert runtime.parked_count == 1
            assert not future.done

            def fund():
                gate.open = True
                moderator.notify("push")

            engine.call_at(3.0, fund)
            engine.run()
            assert engine.now == 3.0
            assert future.result(timeout=0) == 4
            assert runtime.parked_count == 0
        finally:
            runtime.close()

    def test_virtual_time_deadline_expiry(self):
        engine = Engine()
        moderator, sink = build(("gate", Gate()))
        runtime = ContinuationRuntime(moderator, engine=engine)
        try:
            future = runtime.submit("push", sink.push, 4,
                                    component=sink, timeout=1.0)
            engine.run(until=0.5)
            assert runtime.parked_count == 1
            engine.run(until=5.0)
            # expiry fired at exactly vt=1.0, nothing later
            with pytest.raises(ActivationTimeout):
                future.result(timeout=0)
            assert runtime.parked_count == 0
            assert sink.values == []
        finally:
            runtime.close()

    def test_engine_mode_starts_no_threads(self):
        engine = Engine()
        moderator, _ = build(("a", NullAspect()))
        before = threading.active_count()
        runtime = ContinuationRuntime(moderator, engine=engine)
        try:
            assert threading.active_count() == before
        finally:
            runtime.close()

"""Unit tests for the protocol event bus and tracer."""

import threading
import time

import pytest

from repro.apps import build_ticketing_cluster, make_session_manager
from repro.aspects.audit import AuditLog
from repro.concurrency.buffer import Ticket
from repro.core import (
    AspectModerator,
    ContinuationRuntime,
    FunctionAspect,
    NullAspect,
)
from repro.core.events import EventBus, TraceEvent, Tracer
from repro.obs import ObservabilityPlane
from repro.obs.spans import SpanRecorder


class TestEventBus:
    def test_emit_without_listeners_is_noop(self):
        bus = EventBus()
        bus.emit("preactivation", "open")  # must not raise
        assert not bus.has_listeners

    def test_subscribe_and_receive(self):
        bus = EventBus()
        received = []
        bus.subscribe(received.append)
        bus.emit("invoke", "open", detail="x", activation_id=7)
        assert len(received) == 1
        event = received[0]
        assert event.kind == "invoke"
        assert event.method_id == "open"
        assert event.activation_id == 7

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        received = []
        unsubscribe = bus.subscribe(received.append)
        bus.emit("a")
        unsubscribe()
        bus.emit("b")
        assert [e.kind for e in received] == ["a"]
        unsubscribe()  # idempotent

    def test_multiple_listeners_all_receive(self):
        bus = EventBus()
        first, second = [], []
        bus.subscribe(first.append)
        bus.subscribe(second.append)
        bus.emit("x")
        assert len(first) == len(second) == 1

    def test_listener_list_is_a_cow_tuple(self):
        """emit reads the listener tuple with one attribute load — no
        lock, no per-emit copy. Subscription replaces the tuple."""
        bus = EventBus()
        before = bus._listeners
        bus.subscribe(lambda event: None)
        after = bus._listeners
        assert isinstance(after, tuple)
        assert after is not before
        bus.emit("x")
        assert bus._listeners is after  # emit never rebuilds it

    def test_raising_listener_is_isolated(self):
        bus = EventBus()
        received = []

        def explode(event):
            raise RuntimeError("observer bug")

        bus.subscribe(explode)
        bus.subscribe(received.append)
        bus.emit("invoke", "open")  # must not raise
        bus.emit("notify", "open")
        # later listeners still ran, and every swallow was counted
        assert [event.kind for event in received] == ["invoke", "notify"]
        assert bus.listener_errors == 2

    def test_unsubscribe_removes_first_occurrence_only(self):
        bus = EventBus()
        received = []
        bus.subscribe(received.append)
        unsubscribe = bus.subscribe(received.append)
        bus.emit("a")
        unsubscribe()
        bus.emit("b")
        assert [event.kind for event in received] == ["a", "a", "b"]

    def test_subscribe_during_emit_does_not_disrupt_fanout(self):
        """A listener subscribing mid-emit sees the next event, not the
        one in flight — the emit loop iterates its own snapshot."""
        bus = EventBus()
        late = []

        def subscriber(event):
            if not late:
                bus.subscribe(late.append)

        bus.subscribe(subscriber)
        bus.emit("first")
        assert late == []
        bus.emit("second")
        assert [event.kind for event in late] == ["second"]

    def test_emit_under_concurrent_churn_never_fails(self):
        bus = EventBus()
        counts = [0]
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                unsubscribe = bus.subscribe(lambda event: None)
                unsubscribe()

        def emitter():
            for _ in range(2000):
                bus.emit("x")
                counts[0] += 1

        churners = [threading.Thread(target=churn) for _ in range(2)]
        for thread in churners:
            thread.start()
        emit_thread = threading.Thread(target=emitter)
        emit_thread.start()
        emit_thread.join()
        stop.set()
        for thread in churners:
            thread.join()
        assert counts[0] == 2000
        assert bus.listener_errors == 0

    def test_duration_rides_the_event(self):
        bus = EventBus()
        received = []
        bus.subscribe(received.append)
        bus.emit("precondition", "open", duration=0.25)
        assert received[0].duration == 0.25

    def test_wall_anchor_translation(self):
        bus = EventBus()
        wall, mono = bus.anchor
        now = time.monotonic()
        translated = bus.to_wall(now)
        assert abs(translated - time.time()) < 1.0
        assert translated == now - mono + wall

    def test_tracer_has_matching_anchor(self):
        tracer = Tracer()
        wall, mono = tracer.anchor
        assert tracer.to_wall(mono) == wall


class TestTraceEvent:
    def test_format_includes_fields(self):
        event = TraceEvent(kind="precondition", method_id="open",
                           concern="sync", detail="resume")
        text = event.format()
        assert "precondition" in text
        assert "open" in text
        assert "[sync]" in text
        assert "resume" in text

    def test_timestamps_monotonic(self):
        a = TraceEvent(kind="a")
        b = TraceEvent(kind="b")
        assert b.timestamp >= a.timestamp


class TestTracer:
    def make_traced_bus(self):
        bus = EventBus()
        tracer = Tracer()
        bus.subscribe(tracer)
        return bus, tracer

    def test_collects_in_order(self):
        bus, tracer = self.make_traced_bus()
        for kind in ("preactivation", "invoke", "postactivation"):
            bus.emit(kind, "open")
        assert tracer.kinds() == ["preactivation", "invoke", "postactivation"]

    def test_filters_by_activation_and_method(self):
        bus, tracer = self.make_traced_bus()
        bus.emit("invoke", "open", activation_id=1)
        bus.emit("invoke", "assign", activation_id=2)
        assert len(tracer.for_activation(1)) == 1
        assert len(tracer.for_method("assign")) == 1

    def test_count_and_summary(self):
        bus, tracer = self.make_traced_bus()
        bus.emit("invoke", "open")
        bus.emit("invoke", "open")
        bus.emit("notify", "open")
        assert tracer.count("invoke") == 2
        assert tracer.summary() == {"invoke": 2, "notify": 1}

    def test_render_and_clear(self):
        bus, tracer = self.make_traced_bus()
        bus.emit("invoke", "open")
        assert "invoke open" in tracer.render()
        tracer.clear()
        assert tracer.events == []


class _SeenRecorder(SpanRecorder):
    """A span recorder noting every event its ``__call__`` is given."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = []

    def __call__(self, event):
        self.seen.append((event.kind, event.activation_id))
        super().__call__(event)


def _never_blocking():
    moderator = AspectModerator()
    moderator.register_aspect("service", "null", NullAspect())
    return moderator


def _serve(moderator, calls):
    for _ in range(calls):
        moderator.moderate_call("service", lambda: None)


class TestHeadSampling:
    """The sampling decision is made once, at preactivation: an
    unsampled activation's events reach folds, never listeners."""

    def test_rate_16_recorder_is_called_for_one_activation_in_16(self):
        moderator = _never_blocking()
        recorder = _SeenRecorder(sample_rate=16)
        moderator.events.subscribe(recorder)
        _serve(moderator, 160)
        seen = {activation_id for _kind, activation_id in recorder.seen}
        assert len(seen) == 10
        assert len(recorder.finished) == 10
        # the fold still counted every activation
        assert recorder.counts["service"]["activations"] == 160

    def test_tracer_beside_a_sampled_plane_sees_every_event(self):
        moderator = _never_blocking()
        plane = ObservabilityPlane(moderator, sample_rate=16).enable()
        tracer = Tracer()
        moderator.events.subscribe(tracer)
        _serve(moderator, 32)
        assert tracer.summary() == {
            kind: 32 for kind in (
                "preactivation", "precondition", "invoke",
                "postactivation", "postaction", "notify",
            )
        }
        # the tracer's rate is the bus's: the plane gets every tree too
        assert len(plane.recorder.finished) == 32
        assert moderator.events.listener_errors == 0

    def test_tracer_after_a_sampled_plane_is_disabled_sees_every_event(
            self):
        moderator = _never_blocking()
        plane = ObservabilityPlane(moderator, sample_rate=16).enable()
        _serve(moderator, 20)
        plane.disable()
        tracer = Tracer()
        moderator.events.subscribe(tracer)
        _serve(moderator, 32)
        assert tracer.count("preactivation") == 32
        assert tracer.count("notify") == 32

    @pytest.mark.parametrize("runtime", ["threaded", "continuation"])
    def test_notify_that_woke_a_parked_activation_is_delivered(
            self, runtime):
        moderator = AspectModerator()
        ready = threading.Event()
        givers = []

        def give(joinpoint):
            givers.append(joinpoint.activation_id)
            ready.set()

        moderator.register_aspect("take", "gate", FunctionAspect(
            concern="gate", precondition=lambda jp: ready.is_set(),
        ))
        moderator.register_aspect("give", "gate", FunctionAspect(
            concern="gate", postaction=give,
        ))
        recorder = _SeenRecorder(sample_rate=16)
        moderator.events.subscribe(recorder)
        reactor = None
        if runtime == "continuation":
            reactor = ContinuationRuntime(moderator, workers=1)
            taken = reactor.submit("take", lambda: "taken")
        else:
            box = []
            taker = threading.Thread(target=lambda: box.append(
                moderator.moderate_call("take", lambda: "taken")
            ))
            taker.start()
        try:
            # activation 1 is sampled and parks; activation 2 is not
            # sampled, and its notify is what wakes activation 1
            deadline = time.monotonic() + 10.0
            while not moderator.parked_snapshot():
                assert time.monotonic() < deadline, "take never parked"
                time.sleep(0.001)
            if reactor is not None:
                reactor.submit("give", lambda: None).result(timeout=10.0)
                assert taken.result(timeout=10.0) == "taken"
            else:
                moderator.moderate_call("give", lambda: None)
                taker.join(10.0)
                assert not taker.is_alive() and box == ["taken"]
        finally:
            if reactor is not None:
                reactor.close()
        [giver] = givers
        assert [kind for kind, activation_id in recorder.seen
                if activation_id == giver] == ["notify"]
        [edge] = recorder.wake_edges
        assert edge.notifier_activation == giver
        [root] = recorder.finished
        assert edge.woken_activation == root.activation_id
        assert moderator.events.listener_errors == 0


def _kinds_of(tallies):
    """A fold recording ``(method_id, kinds)`` per tally into ``tallies``."""

    def fold(method_id, items):
        tallies.append((method_id, [item[0] for item in items]))

    return fold


#: a never-blocking one-aspect activation's arrows
_SERVICE_KINDS = ["preactivation", "precondition", "invoke",
                  "postactivation", "postaction", "notify"]


class TestTallyFolds:
    """An observed activation hands its tally of arrows to each fold
    once, whatever the listeners' sampling."""

    def test_raising_fold_counts_one_error_per_flush(self):
        moderator = _never_blocking()
        tallies = []

        def explode(method_id, items):
            raise RuntimeError("fold bug")

        moderator.events.subscribe_fold(explode)
        moderator.events.subscribe_fold(_kinds_of(tallies))
        assert moderator.moderate_call("service", lambda: "done") == "done"
        assert moderator.events.listener_errors == 1
        assert tallies == [("service", _SERVICE_KINDS)]

    def test_fold_subscribed_mid_activation_sees_the_next_one(self):
        moderator = _never_blocking()
        tallies = []

        def body():
            moderator.events.subscribe_fold(_kinds_of(tallies))
            return "done"

        assert moderator.moderate_call("service", body) == "done"
        assert tallies == []
        moderator.moderate_call("service", lambda: None)
        assert tallies == [("service", _SERVICE_KINDS)]

    @pytest.mark.parametrize("runtime", ["threaded", "continuation"])
    def test_parked_activation_already_counts_its_block(self, runtime):
        sessions = make_session_manager({"bench": "secret"})
        token = sessions.login("bench", "secret")
        cluster = build_ticketing_cluster(capacity=4, sessions=sessions,
                                          audit_log=AuditLog())
        moderator, store = cluster.moderator, cluster.component
        plane = ObservabilityPlane(moderator, sample_rate=16).enable()
        reactor = None
        if runtime == "continuation":
            reactor = ContinuationRuntime(moderator, workers=1)

        def start(method, *args):
            if reactor is not None:
                future = reactor.submit(method, getattr(store, method),
                                        *args, component=store,
                                        caller=token)
                return lambda: future.result(timeout=10.0)
            box = []
            thread = threading.Thread(target=lambda: box.append(
                cluster.proxy.call(method, *args, caller=token)
            ), daemon=True)
            thread.start()

            def result():
                thread.join(10.0)
                assert not thread.is_alive(), f"{method} wedged"
                return box[0]

            return result

        try:
            # activations 1 and 2 leave the buffer empty; the third,
            # unsampled, parks: only its tally can carry its outcome
            start("open", Ticket(summary="first"))()
            start("assign", "agent")()
            parked = start("assign", "agent")
            deadline = time.monotonic() + 10.0
            while not moderator.parked_snapshot():
                assert time.monotonic() < deadline, "assign never parked"
                time.sleep(0.001)
            snapshot = plane.registry.snapshot()
            outcomes = snapshot["repro_precondition_outcomes_total"]
            events = snapshot["repro_protocol_events_total"]
            assert outcomes[("assign", "sync", "block")] == 1
            assert events[("assign", "blocked")] == 1
            start("open", Ticket(summary="second"))()
            assert parked().summary == "second"
        finally:
            if reactor is not None:
                reactor.close()
        assert len(plane.recorder.finished) == 1
        assert plane.recorder.counts["assign"]["activations"] == 2
        assert moderator.events.listener_errors == 0

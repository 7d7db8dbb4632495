"""Unit tests: SpanRecorder folds the event stream into span trees."""

import threading
import time

import pytest

from repro.core import AspectModerator, FunctionAspect
from repro.core.events import EventBus, TraceEvent
from repro.obs import propagation
from repro.obs.spans import SpanRecorder, stitch_traces


def _event(kind, ts, method="open", concern="", detail="", aid=1,
           duration=0.0):
    return TraceEvent(
        kind=kind, method_id=method, concern=concern, detail=detail,
        activation_id=aid, timestamp=ts, duration=duration,
    )


def _feed(recorder, events):
    for event in events:
        recorder(event)


def resume_flow(aid=1, base=100.0, method="open"):
    """The Figure 3 sequence: one aspect, immediate RESUME."""
    return [
        _event("preactivation", base, aid=aid, method=method),
        _event("precondition", base + 0.001, concern="sync",
               detail="resume", aid=aid, duration=0.001, method=method),
        _event("invoke", base + 0.002, aid=aid, method=method),
        _event("postactivation", base + 0.003, aid=aid, method=method),
        _event("postaction", base + 0.004, concern="sync", aid=aid,
               duration=0.001, method=method),
        _event("notify", base + 0.005, aid=aid, method=method),
    ]


class TestTreeShapes:
    def test_resume_flow_builds_canonical_tree(self):
        recorder = SpanRecorder(node="test")
        _feed(recorder, resume_flow())
        [root] = recorder.finished
        assert root.name == "activation"
        assert root.status == "ok"
        assert root.node == "test"
        assert [child.name for child in root.children] == [
            "pre_activation", "invoke", "post_activation", "notify",
        ]
        pre, invoke, post, _notify = root.children
        assert [span.concern for span in pre.children] == ["sync"]
        assert pre.children[0].name == "precondition"
        assert post.children[0].name == "postaction"
        # precondition start is back-dated by the event's duration
        assert pre.children[0].duration == pytest.approx(0.001)
        assert root.duration == pytest.approx(0.005)
        assert recorder.active() == []

    def test_block_unblock_segment_and_wake_edge(self):
        recorder = SpanRecorder()
        _feed(recorder, [
            _event("preactivation", 10.0, aid=1),
            _event("precondition", 10.001, concern="sync",
                   detail="block", aid=1, duration=0.001),
            _event("blocked", 10.001, concern="sync", aid=1),
        ])
        assert len(recorder.active()) == 1
        # activation 2 completes and notifies, waking activation 1
        _feed(recorder, resume_flow(aid=2, base=10.002))
        _feed(recorder, [
            _event("unblocked", 10.010, concern="sync", aid=1,
                   duration=0.009),
            _event("precondition", 10.011, concern="sync",
                   detail="resume", aid=1, duration=0.001),
            _event("invoke", 10.012, aid=1),
            _event("postactivation", 10.013, aid=1),
            _event("postaction", 10.014, concern="sync", aid=1),
            _event("notify", 10.015, aid=1),
        ])
        roots = recorder.finished
        assert len(roots) == 2
        blocked_root = next(
            root for root in roots if root.activation_id == 1
        )
        pre = blocked_root.children[0]
        names = [span.name for span in pre.children]
        assert names == ["precondition", "blocked", "precondition"]
        blocked = pre.children[1]
        assert blocked.duration > 0.008
        [edge] = recorder.wake_edges
        assert edge.notifier_activation == 2
        assert edge.woken_activation == 1
        assert edge.woken_span == blocked.span_id

    def test_abort_finalizes_with_status(self):
        recorder = SpanRecorder()
        _feed(recorder, [
            _event("preactivation", 5.0, aid=3),
            _event("precondition", 5.001, concern="auth",
                   detail="abort", aid=3, duration=0.001),
            _event("abort", 5.001, concern="auth", aid=3),
        ])
        [root] = recorder.finished
        assert root.status == "aborted"
        assert root.children[0].children[0].status == "abort"
        assert any(
            "aborted by auth" in text for _, text in root.annotations
        )

    def test_precondition_fault_is_terminal(self):
        recorder = SpanRecorder()
        _feed(recorder, [
            _event("preactivation", 5.0, aid=4),
            _event("aspect_fault", 5.001, concern="sync",
                   detail="precondition: RuntimeError", aid=4),
        ])
        [root] = recorder.finished
        assert root.status == "fault"
        assert recorder.active() == []

    def test_postaction_fault_is_not_terminal(self):
        recorder = SpanRecorder()
        events = resume_flow(aid=5)
        events.insert(5, _event(
            "aspect_fault", 100.0045, concern="sync",
            detail="postaction: RuntimeError", aid=5,
        ))
        _feed(recorder, events)
        [root] = recorder.finished
        assert root.status == "ok"
        post = root.children[2]
        assert any("aspect_fault" in text for _, text in post.annotations)

    def test_timeout_finalizes_with_status(self):
        recorder = SpanRecorder()
        _feed(recorder, [
            _event("preactivation", 5.0, aid=6),
            _event("precondition", 5.001, concern="sync",
                   detail="block", aid=6),
            _event("blocked", 5.001, concern="sync", aid=6),
            _event("timeout", 6.0, detail="1.0s", aid=6),
        ])
        [root] = recorder.finished
        assert root.status == "timeout"
        # the open blocked segment was closed at finalization
        blocked = root.children[0].children[-1]
        assert blocked.name == "blocked"
        assert blocked.end == 6.0

    def test_watchdog_stall_annotates_active_root(self):
        recorder = SpanRecorder()
        _feed(recorder, [
            _event("preactivation", 5.0, aid=7),
            _event("blocked", 5.001, concern="sync", aid=7),
            _event("watchdog_stall", 7.0, detail="parked 2.0s", aid=7,
                   duration=2.0),
        ])
        [root] = recorder.active()
        assert root.status == "stalled"
        assert any(
            "watchdog_stall" in text for _, text in root.annotations
        )

    def test_unmatched_events_go_to_orphans(self):
        recorder = SpanRecorder()
        recorder(_event("quarantine", 1.0, concern="audit",
                        detail="fail_open", aid=0))
        recorder(_event("node_state", 2.0, method="node-b",
                        detail="alive -> suspect"))
        assert [event.kind for event in recorder.orphans] == [
            "quarantine", "node_state",
        ]


class TestRingAndAggregation:
    def test_finished_ring_drops_oldest(self):
        recorder = SpanRecorder(max_finished=2)
        for aid in range(4):
            _feed(recorder, resume_flow(aid=aid, base=float(aid)))
        assert recorder.dropped == 2
        assert [root.activation_id for root in recorder.finished] == [2, 3]

    def test_phase_totals_and_flame(self):
        recorder = SpanRecorder()
        _feed(recorder, resume_flow())
        totals = recorder.phase_totals("open")
        assert set(totals) == {
            "pre_activation", "precondition[sync]", "invoke",
            "post_activation", "postaction[sync]", "notify",
        }
        flame = recorder.flame("open")
        assert "1 activation(s)" in flame
        assert "precondition[sync]" in flame
        assert recorder.flame("missing") == \
            "missing: no completed activations"

    def test_clear_resets_everything(self):
        recorder = SpanRecorder(max_finished=1)
        for aid in range(3):
            _feed(recorder, resume_flow(aid=aid))
        recorder.clear()
        assert recorder.finished == []
        assert recorder.dropped == 0
        assert recorder.wake_edges == []


class TestExportAndStitch:
    def test_export_applies_wall_anchor(self):
        recorder = SpanRecorder(node="node-a")
        recorder.anchor = (1_000_000.0, 0.0)
        _feed(recorder, resume_flow(base=100.0))
        [exported] = recorder.export()
        assert exported["start"] == 1_000_100.0
        assert exported["duration"] == pytest.approx(0.005)
        assert exported["node"] == "node-a"
        assert exported["children"][0]["name"] == "pre_activation"

    def test_trace_context_roots_under_propagated_span(self):
        recorder = SpanRecorder()
        with propagation.start_trace() as context:
            _feed(recorder, resume_flow())
        [root] = recorder.finished
        assert root.trace_id == context.trace_id
        assert root.parent_id == context.span_id

    def test_without_context_each_activation_is_its_own_trace(self):
        recorder = SpanRecorder()
        _feed(recorder, resume_flow(aid=1))
        _feed(recorder, resume_flow(aid=2, base=200.0))
        first, second = recorder.finished
        assert first.trace_id != second.trace_id
        assert first.parent_id is None

    def test_stitch_traces_links_across_recorders(self):
        client = SpanRecorder(node="client")
        server = SpanRecorder(node="server")
        client.anchor = server.anchor = (0.0, 0.0)
        with propagation.start_trace() as context:
            _feed(client, resume_flow(aid=1, base=1.0))
            _feed(server, resume_flow(aid=9, base=2.0,
                                      method="remote_open"))
        traces = stitch_traces(client.export(), server.export())
        assert set(traces) == {context.trace_id}
        roots = traces[context.trace_id]
        # both activations share the propagated parent (which lives in
        # the client process, outside either recorder) so both remain
        # roots of the stitched trace, ordered by wall-clock start
        assert [root["node"] for root in roots] == ["client", "server"]
        assert all(
            root["parent_id"] == context.span_id for root in roots
        )

    def test_stitch_nests_when_parent_is_present(self):
        recorder = SpanRecorder()
        _feed(recorder, resume_flow(aid=1))
        export = recorder.export()
        # hand-craft a second export claiming the first root as parent
        foreign = [{
            "name": "activation", "method_id": "assign",
            "trace_id": export[0]["trace_id"], "span_id": "x-1",
            "parent_id": export[0]["span_id"], "start": 200.0,
            "end": 200.1, "duration": 0.1, "node": "other",
            "status": "ok", "children": [],
        }]
        traces = stitch_traces(export, foreign)
        [roots] = traces.values()
        assert len(roots) == 1
        nested = roots[0]["children"][-1]
        assert nested["span_id"] == "x-1"


class TestLiveCluster:
    def test_recorder_on_real_moderator(self):
        from repro.apps import build_ticketing_cluster
        from repro.concurrency import Ticket

        cluster = build_ticketing_cluster(capacity=2)
        recorder = SpanRecorder(node="live")
        unsubscribe = cluster.moderator.events.subscribe(recorder)
        try:
            cluster.proxy.open(Ticket(summary="s", reporter="r"))
            cluster.proxy.assign("alice")
        finally:
            unsubscribe()
        finished = recorder.finished
        assert {root.method_id for root in finished} == {"open", "assign"}
        for root in finished:
            names = [child.name for child in root.children]
            assert names[0] == "pre_activation"
            assert "invoke" in names
            assert names[-1] == "notify"
            assert root.status == "ok"
            assert root.duration > 0.0

    def test_recorder_sees_wake_edges_under_contention(self):
        from repro.apps import build_ticketing_cluster
        from repro.concurrency import Ticket

        cluster = build_ticketing_cluster(capacity=1)
        recorder = SpanRecorder()
        unsubscribe = cluster.moderator.events.subscribe(recorder)
        try:
            cluster.proxy.open(Ticket(summary="first", reporter="r"))

            def second_open():
                cluster.proxy.open(Ticket(summary="second", reporter="r"))

            blocked_thread = threading.Thread(target=second_open)
            blocked_thread.start()
            # wait until the second open is parked, then free capacity
            deadline = threading.Event()
            for _ in range(200):
                if cluster.moderator.parked_snapshot():
                    break
                deadline.wait(0.005)
            cluster.proxy.assign("alice")
            blocked_thread.join(timeout=5.0)
            assert not blocked_thread.is_alive()
        finally:
            unsubscribe()
        assert len(recorder.wake_edges) >= 1
        woken = {edge.woken_activation for edge in recorder.wake_edges}
        blocked_roots = [
            root for root in recorder.finished
            if root.activation_id in woken
        ]
        assert blocked_roots
        pre = blocked_roots[0].children[0]
        assert any(span.name == "blocked" for span in pre.children)


def _publish(bus, events):
    """Emit ``events`` the way the moderator does: one head decision per
    activation, at its ``preactivation``, passed on by its later emits."""
    sampled = {}
    for event in events:
        aid = event.activation_id
        if event.kind == "preactivation":
            sampled[aid] = bus.sample()
        bus.emit(event.kind, event.method_id, event.concern, event.detail,
                 aid, event.duration, sampled=sampled.get(aid, True))


def _sampled_bus(rate):
    bus = EventBus()
    recorder = SpanRecorder(sample_rate=rate)
    bus.subscribe(recorder)
    return bus, recorder


class TestSampledRecorder:
    """1-in-N span trees, decided at the bus's head; exact counters for
    every activation."""

    def test_counts_exact_while_trees_are_sampled(self):
        bus, recorder = _sampled_bus(4)
        for aid in range(1, 9):
            _publish(bus, resume_flow(aid=aid, base=float(aid)))
        # first activation sampled, then every 4th: aids 1 and 5
        sampled = sorted(root.activation_id for root in recorder.finished)
        assert sampled == [1, 5]
        assert recorder.counts["open"]["activations"] == 8

    def test_unsampled_events_are_swallowed_not_orphaned(self):
        bus, recorder = _sampled_bus(2)
        for aid in (1, 2, 3, 4):
            _publish(bus, resume_flow(aid=aid, base=float(aid)))
        assert list(recorder.orphans) == []
        assert recorder.active() == []

    def test_unsampled_abort_still_counted_and_retired(self):
        bus, recorder = _sampled_bus(2)
        _publish(bus, resume_flow(aid=1, base=1.0))  # sampled
        _publish(bus, [
            _event("preactivation", 5.0, aid=2),  # unsampled
            _event("precondition", 5.001, concern="auth",
                   detail="abort", aid=2, duration=0.001),
            _event("abort", 5.001, concern="auth", aid=2),
        ])
        assert recorder.counts["open"]["aborted"] == 1
        assert recorder.active() == []
        assert list(recorder.orphans) == []
        assert len(recorder.finished) == 1  # only aid 1 grew a tree

    def test_unsampled_notify_still_attributes_wake_edges(self):
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
        recorder = SpanRecorder(sample_rate=2)
        moderator.events.subscribe(recorder)
        taken = []
        # activation 1 (sampled) parks on the gate
        taker = threading.Thread(
            target=lambda: taken.append(
                moderator.moderate_call("take", lambda: "taken")
            ),
        )
        taker.start()
        deadline = time.monotonic() + 10.0
        while not moderator.parked_snapshot():
            assert time.monotonic() < deadline, "take never parked"
            time.sleep(0.001)
        # activation 2 is unsampled, but its notify is what wakes 1
        moderator.moderate_call("give", lambda: None)
        taker.join(10.0)
        assert not taker.is_alive() and taken == ["taken"]
        [edge] = recorder.wake_edges
        [root] = recorder.finished
        assert root.method_id == "take"
        assert edge.woken_activation == root.activation_id
        assert edge.notifier_activation == givers[0]
        assert edge.notifier_span == ""  # no tree for the notifier

    def test_clear_resets_trees_and_counts(self):
        bus, recorder = _sampled_bus(3)
        for aid in (1, 2):
            _publish(bus, resume_flow(aid=aid, base=float(aid)))
        recorder.clear()
        assert recorder.counts == {}
        assert recorder.finished == []
        _publish(bus, resume_flow(aid=9, base=9.0))
        assert recorder.counts["open"]["activations"] == 1

    def test_rate_one_is_full_fidelity(self):
        bus, recorder = _sampled_bus(1)
        for aid in (1, 2, 3):
            _publish(bus, resume_flow(aid=aid, base=float(aid)))
        assert len(recorder.finished) == 3
        assert recorder.counts["open"]["activations"] == 3

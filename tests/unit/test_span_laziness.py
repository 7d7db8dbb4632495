"""The span recorder keeps a sampled activation's events and builds its
tree only when something reads or links it."""

import sys
import threading
import uuid

from repro.core import AspectModerator, FunctionAspect
from repro.core.events import TraceEvent
from repro.obs import propagation
from repro.obs.spans import Span, SpanRecorder


def _event(kind, ts, aid, concern="", detail="", duration=0.0,
           method="open"):
    return TraceEvent(kind, method, concern, detail, aid, timestamp=ts,
                      duration=duration)


def _resume_flow(aid, base):
    return [
        _event("preactivation", base, aid),
        _event("precondition", base + 0.001, aid, concern="sync",
               detail="resume", duration=0.001),
        _event("invoke", base + 0.002, aid),
        _event("postactivation", base + 0.003, aid),
        _event("postaction", base + 0.004, aid, concern="sync",
               duration=0.001),
        _event("notify", base + 0.005, aid),
    ]


def _feed(recorder, events):
    for event in events:
        recorder(event)


def _span_ids(roots):
    return [span.span_id for root in roots for span in root.walk()]


def _unbuilt(recorder):
    """Ring entries still held as events (no root built yet)."""
    return [item for item in recorder._finished
            if not isinstance(item, Span) and item.root is None]


class _BuildFrames:
    """Counts the frames that build trees, on this thread."""

    CODES = {
        Span.__init__.__code__: "Span.__init__",
        Span.child.__code__: "Span.child",
        uuid.uuid4.__code__: "uuid4",
    }

    def __init__(self):
        self.seen = {}

    def __call__(self, frame, event, arg):
        if event == "call":
            name = self.CODES.get(frame.f_code)
            if name is not None:
                self.seen[name] = self.seen.get(name, 0) + 1

    def __enter__(self):
        sys.setprofile(self)
        return self

    def __exit__(self, *exc_info):
        sys.setprofile(None)


def test_sampled_fast_path_builds_nothing_until_read():
    moderator = AspectModerator()
    moderator.register_aspect("serve", "count", FunctionAspect(
        concern="count", precondition=lambda jp: True,
        postaction=lambda jp: None,
    ))
    recorder = SpanRecorder(sample_rate=1)
    moderator.events.subscribe(recorder)
    with _BuildFrames() as frames:
        for _ in range(64):
            moderator.moderate_call("serve", lambda: None)
    assert frames.seen == {}
    assert len(_unbuilt(recorder)) == 64

    with _BuildFrames() as frames:
        roots = recorder.finished
    # root, pre_activation, precondition, invoke, post_activation,
    # postaction, notify: one trace id and seven spans per activation
    assert len(roots) == 64
    assert frames.seen == {"Span.__init__": 64 * 7, "Span.child": 64 * 6,
                           "uuid4": 64}
    assert [child.name for child in roots[0].children] == [
        "pre_activation", "invoke", "post_activation", "notify",
    ]


def test_two_reads_give_the_same_span_ids():
    recorder = SpanRecorder()
    for aid in (1, 2, 3):
        _feed(recorder, _resume_flow(aid, float(aid)))
    first = _span_ids(recorder.finished)
    assert len(set(first)) == 3 * 7
    assert _span_ids(recorder.finished) == first
    assert _span_ids(recorder.all_roots()) == first
    assert [span["span_id"] for span in recorder.export()] == \
        [root.span_id for root in recorder.finished]


def test_wake_edge_names_the_notify_span_of_an_unbuilt_notifier():
    recorder = SpanRecorder()
    _feed(recorder, [
        _event("preactivation", 1.0, 1, method="take"),
        _event("precondition", 1.001, 1, concern="gate", detail="block",
               method="take"),
        _event("blocked", 1.002, 1, concern="gate", method="take"),
    ])
    # the giver stays on the fast path: held, not built, when it ends
    _feed(recorder, _resume_flow(2, 2.0))
    assert len(_unbuilt(recorder)) == 1
    recorder(_event("unblocked", 2.01, 1, concern="gate", method="take"))
    [edge] = recorder.wake_edges
    assert _unbuilt(recorder) == []  # linking built the notifier
    _feed(recorder, [
        _event("precondition", 2.011, 1, concern="gate", detail="resume",
               method="take"),
        _event("invoke", 2.012, 1, method="take"),
        _event("postactivation", 2.013, 1, method="take"),
        _event("notify", 2.014, 1, method="take"),
    ])
    giver, taker = recorder.finished
    notify = giver.children[-1]
    assert notify.name == "notify"
    assert (edge.notifier_activation, edge.notifier_span) == \
        (2, notify.span_id)
    blocked = taker.children[0].children[1]
    assert blocked.name == "blocked"
    assert (edge.woken_activation, edge.woken_span) == \
        (1, blocked.span_id)


def test_trace_of_an_in_flight_unbuilt_activation():
    recorder = SpanRecorder()
    events = _resume_flow(5, 10.0)
    with propagation.start_trace() as context:
        _feed(recorder, events[:2])
    trace_id, span_id = recorder.trace_of(5)
    assert trace_id == context.trace_id
    # the rest of the activation grows the tree trace_of built
    _feed(recorder, events[2:])
    [root] = recorder.finished
    assert (root.trace_id, root.span_id) == (trace_id, span_id)
    assert root.parent_id == context.span_id
    assert [child.name for child in root.children] == [
        "pre_activation", "invoke", "post_activation", "notify",
    ]
    assert recorder.trace_of(5) == (trace_id, span_id)


def test_trace_of_a_finished_unbuilt_activation():
    recorder = SpanRecorder()
    _feed(recorder, _resume_flow(6, 1.0))
    assert len(_unbuilt(recorder)) == 1
    ids = recorder.trace_of(6)
    [root] = recorder.finished
    assert ids == (root.trace_id, root.span_id)


def test_contract_verdict_after_finish_annotates_an_unbuilt_root():
    recorder = SpanRecorder()
    _feed(recorder, _resume_flow(7, 1.0))
    assert len(_unbuilt(recorder)) == 1
    recorder(_event("contract_violation", 1.01, 7,
                    detail="ensure:grows:open"))
    [root] = recorder.finished
    assert root.status == "contract"
    assert (1.01, "contract_violation: ensure:grows:open") in \
        root.annotations
    assert list(recorder.orphans) == []


def test_built_record_drops_its_events_and_eviction_counts():
    recorder = SpanRecorder(max_finished=2)
    for aid in range(5):
        _feed(recorder, _resume_flow(aid, float(aid)))
    # three evicted before anything read them
    assert recorder.dropped == 3
    held = _unbuilt(recorder)
    assert len(held) == 2 and all(len(item.events) == 6 for item in held)
    roots = recorder.finished
    assert [root.activation_id for root in roots] == [3, 4]
    assert all(item.events is None for item in held)
    assert [item.root for item in held] == roots
    assert _unbuilt(recorder) == []


def test_a_read_builds_finished_trees_with_the_lock_free():
    recorder = SpanRecorder()
    for aid in (1, 2, 3):
        _feed(recorder, _resume_flow(aid, float(aid)))
    held = recorder._lock.locked
    tree = recorder._tree
    locked_during_build = []

    def spy(item, events):
        locked_during_build.append(held())
        return tree(item, events)

    recorder._tree = spy
    roots = recorder.finished
    assert locked_during_build == [False, False, False]
    assert [root.activation_id for root in roots] == [1, 2, 3]
    assert recorder.finished == roots  # built once: no further builds
    assert len(locked_during_build) == 3


def test_readers_racing_writers_build_each_tree_once():
    moderator = AspectModerator()
    moderator.register_aspect("serve", "count", FunctionAspect(
        concern="count", precondition=lambda jp: True,
        postaction=lambda jp: None,
    ))
    recorder = SpanRecorder(sample_rate=1)
    moderator.events.subscribe(recorder)
    done = threading.Event()
    first_seen = {}
    conflicts = []

    def read():
        while not done.is_set():
            for root in recorder.all_roots():
                span_id = first_seen.setdefault(root.activation_id,
                                                root.span_id)
                if span_id != root.span_id:
                    conflicts.append(root.activation_id)

    def write():
        for _ in range(200):
            moderator.moderate_call("serve", lambda: None)

    writers = [threading.Thread(target=write) for _ in range(4)]
    readers = [threading.Thread(target=read) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join(30.0)
        done.set()
        for thread in readers:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers + readers)
    roots = recorder.finished
    assert len({root.activation_id for root in roots}) == len(roots) == 800
    assert conflicts == []
    assert all(first_seen.get(root.activation_id, root.span_id)
               == root.span_id for root in roots)
    spans = _span_ids(roots)
    assert len(set(spans)) == len(spans) == 800 * 7

"""Unit tests for heartbeat failure detection."""

import threading
import time

import pytest

from repro.dist import MemoryStore, NameService, Network, Node, \
    RecoveryPlan, Supervisor
from repro.dist.failure_detector import HeartbeatDetector, HeartbeatEmitter
from repro.dist.message import Message


@pytest.fixture
def world():
    network = Network()
    detector = HeartbeatDetector(
        network, "monitor", suspect_after=0.12, dead_after=0.3,
    )
    emitters = []

    def emit(node_id, interval=0.03):
        network.register(node_id)
        emitter = HeartbeatEmitter(
            network, node_id, "monitor", interval=interval,
        ).start()
        emitters.append(emitter)
        return emitter

    yield network, detector, emit
    for emitter in emitters:
        emitter.stop()
    detector.close()
    network.close()


class TestDetection:
    def test_heartbeating_node_is_alive(self, world):
        network, detector, emit = world
        emit("node-1")
        assert detector.wait_for_state("node-1", "alive", timeout=2.0)
        assert detector.heartbeats_received >= 1

    def test_silent_node_becomes_suspect_then_dead(self, world):
        network, detector, emit = world
        emitter = emit("node-1")
        assert detector.wait_for_state("node-1", "alive", timeout=2.0)
        emitter.stop()
        assert detector.wait_for_state("node-1", "suspect", timeout=2.0)
        assert detector.wait_for_state("node-1", "dead", timeout=2.0)

    def test_recovered_node_returns_to_alive(self, world):
        network, detector, emit = world
        emitter = emit("node-1")
        detector.wait_for_state("node-1", "alive", timeout=2.0)
        emitter.stop()
        detector.wait_for_state("node-1", "dead", timeout=2.0)
        emitter2 = HeartbeatEmitter(
            network, "node-1", "monitor", interval=0.03,
        ).start()
        try:
            assert detector.wait_for_state("node-1", "alive", timeout=2.0)
        finally:
            emitter2.stop()

    def test_crashed_node_detected_without_network_introspection(
        self, world,
    ):
        """Detection from silence alone — no is_up() calls."""
        network, detector, emit = world
        emit("node-1")
        detector.wait_for_state("node-1", "alive", timeout=2.0)
        network.take_down("node-1")  # heartbeats now dropped in flight
        assert detector.wait_for_state("node-1", "dead", timeout=2.0)

    def test_unknown_and_watched_states(self, world):
        network, detector, emit = world
        assert detector.state_of("ghost") == "unknown"
        detector.watch("pending-node")
        assert detector.state_of("pending-node") == "alive"

    def test_snapshot_lists_all_tracked(self, world):
        network, detector, emit = world
        emit("node-1")
        emit("node-2")
        detector.wait_for_state("node-1", "alive", timeout=2.0)
        detector.wait_for_state("node-2", "alive", timeout=2.0)
        snapshot = detector.snapshot()
        assert set(snapshot) >= {"node-1", "node-2"}

    def test_detector_starts_no_thread(self):
        network = Network()
        try:
            before = set(threading.enumerate())
            detector = HeartbeatDetector(network, "m")
            assert set(threading.enumerate()) - before == set()
            network.register("node-1")
            network.send(Message(source="node-1", dest="m", kind="event",
                                 payload={"heartbeat": "node-1"}))
            assert detector.wait_for_state("node-1", "alive", timeout=2.0)
            detector.close()
            assert set(threading.enumerate()) - before == set()
        finally:
            network.close()

    def test_heartbeat_stamped_on_the_sender_when_due_now_else_the_dispatcher(
            self):
        sender = threading.current_thread().name
        for latency, thread in ((0.0, sender),
                                (0.005, "network-dispatch")):
            network = Network(latency=latency)
            stamped_on = []

            def clock():
                stamped_on.append(threading.current_thread().name)
                return time.monotonic()

            detector = HeartbeatDetector(network, "m", clock=clock)
            network.register("node-1")
            try:
                network.send(Message(source="node-1", dest="m",
                                     kind="event",
                                     payload={"heartbeat": "node-1"}))
                deadline = time.monotonic() + 2.0
                while detector.heartbeats_received < 1 and \
                        time.monotonic() < deadline:
                    time.sleep(0.01)
                assert detector.heartbeats_received == 1
                assert stamped_on == [thread]
            finally:
                detector.close()
                network.close()

    def test_validation(self, world):
        network, _detector, _emit = world
        with pytest.raises(ValueError):
            HeartbeatDetector(network, "m2", suspect_after=0.5,
                              dead_after=0.4)


class Box:
    def __init__(self, value=None):
        self.value = value

    def get(self):
        return self.value


def heartbeat(network, node_id):
    """Heartbeats for a node that registered its own endpoint."""
    return HeartbeatEmitter(network, node_id, "monitor",
                            interval=0.03).start()


def box_plan():
    return RecoveryPlan(MemoryStore(), lambda box: {"value": box.value},
                        lambda state: Box(state.get("value")), mutating=[])


class TestDetectorFailover:
    """The supervisor's candidate choice on real heartbeat verdicts."""

    def test_chooses_first_alive_candidate(self, world):
        network, detector, _emit = world
        names = NameService()
        nodes = [Node(node_id, network).start()
                 for node_id in ("primary", "backup", "spare")]
        emitters = {node.node_id: heartbeat(network, node.node_id)
                    for node in nodes}
        supervisor = Supervisor(names, detector)
        spec = supervisor.supervise("box", "box", box_plan(), nodes,
                                    bootstrap=Box)
        try:
            for node in nodes:
                assert detector.wait_for_state(node.node_id, "alive",
                                               timeout=2.0)
            supervisor.place(spec, nodes[0])
            assert supervisor.check_once() == []  # alive holder stays
            emitters["primary"].stop()
            emitters["backup"].stop()
            assert detector.wait_for_state("primary", "dead", timeout=2.0)
            assert detector.wait_for_state("backup", "dead", timeout=2.0)
            reports = supervisor.check_once()
            assert [(r.from_node, r.to_node) for r in reports] == \
                [("primary", "spare")]
            assert names.resolve("box").node_id == "spare"
        finally:
            for emitter in emitters.values():
                emitter.stop()
            for node in nodes:
                node.stop()

    def test_no_alive_candidate_leaves_the_binding(self, world):
        network, detector, _emit = world
        names = NameService()
        only = Node("only", network).start()
        silent = Node("silent", network).start()
        emitter = heartbeat(network, "only")
        detector.watch("silent")
        supervisor = Supervisor(names, detector)
        spec = supervisor.supervise("box", "box", box_plan(),
                                    [only, silent], bootstrap=Box)
        try:
            assert detector.wait_for_state("only", "alive", timeout=2.0)
            supervisor.place(spec, only)
            emitter.stop()
            assert detector.wait_for_state("only", "dead", timeout=2.0)
            assert detector.wait_for_state("silent", "dead", timeout=2.0)
            assert supervisor.check_once() == []
            assert names.resolve("box").node_id == "only"
            assert supervisor.metrics()["failed_failovers"] == 1
        finally:
            emitter.stop()
            only.stop()
            silent.stop()


class TestFaultContainment:
    def test_emitter_survives_send_failures(self):
        network = Network()
        errors = []
        emitter = HeartbeatEmitter(
            network, "node-1", "monitor", interval=0.01,
            on_error=errors.append,
        )
        network.register("node-1")
        try:
            # no monitor endpoint yet: every beat raises NodeUnreachable
            emitter.start()
            deadline = time.monotonic() + 2.0
            while emitter.errors < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert emitter.errors >= 2, "emitter loop died on first error"
            assert errors and all(e is not None for e in errors)
            # the monitor appears; the same loop starts delivering
            inbox = network.register("monitor")
            beat = inbox.get(2.0)
            assert beat.payload["heartbeat"] == "node-1"
            assert emitter.sent >= 1
        finally:
            emitter.stop()
            network.close()

    def test_detector_survives_malformed_heartbeat(self, world):
        network, detector, emit = world
        network.register("evil")
        # wire-safe but unusable as a node id: dict insertion raises
        network.send(Message(
            source="evil", dest="monitor", kind="event",
            payload={"heartbeat": ["not", "hashable"]},
        ))
        deadline = time.monotonic() + 2.0
        while detector.errors < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert detector.errors == 1, \
            "malformed heartbeat not reported exactly once"
        # and good heartbeats still land after the bad one
        emit("node-1")
        assert detector.wait_for_state("node-1", "alive", timeout=2.0)

    def test_detector_on_error_hook_sees_the_exception(self):
        network = Network()
        seen = []
        detector = HeartbeatDetector(
            network, "m", suspect_after=0.1, dead_after=0.3,
            on_error=seen.append,
        )
        network.register("src")
        try:
            network.send(Message(
                source="src", dest="m", kind="event",
                payload={"heartbeat": ["boom"]},
            ))
            deadline = time.monotonic() + 2.0
            while not seen and time.monotonic() < deadline:
                time.sleep(0.01)
            assert seen and isinstance(seen[0], TypeError)
        finally:
            detector.close()
            network.close()

    def test_raising_on_error_hook_does_not_stop_delivery(self):
        network = Network()

        def hostile_hook(exc):
            raise RuntimeError("hook bug")

        detector = HeartbeatDetector(
            network, "m", suspect_after=0.1, dead_after=0.3,
            on_error=hostile_hook,
        )
        network.register("src")
        try:
            network.send(Message(
                source="src", dest="m", kind="event",
                payload={"heartbeat": ["boom"]},
            ))
            deadline = time.monotonic() + 2.0
            while detector.errors < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert detector.errors == 1
            # still delivering: a good heartbeat lands afterwards
            network.send(Message(
                source="src", dest="m", kind="event",
                payload={"heartbeat": "src"},
            ))
            assert detector.wait_for_state("src", "alive", timeout=2.0)
        finally:
            detector.close()
            network.close()


class FakeClock:
    """A hand-advanced monotonic clock for deterministic silence."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class RecordingBus:
    """Collects ``node_state`` events in emission order."""

    def __init__(self):
        self._lock = threading.Lock()
        self.events = []

    def emit(self, kind, **fields):
        with self._lock:
            self.events.append((kind, dict(fields)))

    def transitions(self, node_id):
        with self._lock:
            return [
                fields["detail"] for kind, fields in self.events
                if kind == "node_state" and fields["method_id"] == node_id
            ]


class TestSuspicionHysteresis:
    def test_confirm_dead_is_validated(self):
        network = Network()
        try:
            with pytest.raises(ValueError):
                HeartbeatDetector(network, "m-bad", confirm_dead=0)
        finally:
            network.close()

    def test_dead_verdict_needs_confirmation(self):
        network = Network()
        clock = FakeClock()
        detector = HeartbeatDetector(
            network, "m-hyst", suspect_after=0.1, dead_after=0.3,
            confirm_dead=3, clock=clock,
        )
        try:
            detector.watch("n")
            clock.now = 0.35  # silent past dead_after
            # an unconfirmed dead verdict is reported as suspect
            assert detector.state_of("n") == "suspect"
            assert detector.state_of("n") == "suspect"
            # the third consecutive verdict confirms it
            assert detector.state_of("n") == "dead"
            assert detector.state_of("n") == "dead"
        finally:
            detector.close()
            network.close()

    def test_heartbeat_resets_confirmation_votes(self):
        network = Network()
        clock = FakeClock()
        detector = HeartbeatDetector(
            network, "m-reset", suspect_after=0.1, dead_after=0.3,
            confirm_dead=2, clock=clock,
        )
        try:
            detector.watch("n")
            clock.now = 0.35
            assert detector.state_of("n") == "suspect"  # one vote cast
            # a delayed heartbeat arrives: the verdict is invalidated
            with detector._lock:
                detector._last_seen["n"] = clock.now
            assert detector.state_of("n") == "alive"
            clock.now = 0.75  # silent again, past dead_after
            # the earlier vote did not survive the heartbeat: the
            # fresh verdict must start confirmation over
            assert detector.state_of("n") == "suspect"
            assert detector.state_of("n") == "dead"
        finally:
            detector.close()
            network.close()

    def test_default_is_legacy_no_hysteresis(self):
        network = Network()
        clock = FakeClock()
        detector = HeartbeatDetector(
            network, "m-legacy", suspect_after=0.1, dead_after=0.3,
            clock=clock,
        )
        try:
            detector.watch("n")
            clock.now = 0.35
            # confirm_dead=1: the first dead verdict is final
            assert detector.state_of("n") == "dead"
        finally:
            detector.close()
            network.close()


class TestEventOrdering:
    def test_node_state_events_fire_in_transition_order(self):
        """Concurrent pollers may not reorder the emitted transitions.

        Many threads poll ``state_of`` while the clock walks the node
        through alive -> suspect -> dead -> alive -> ... Every emitted
        ``node_state`` event's ``previous`` must equal the prior
        event's new state — a torn cache-update/emit pair would break
        the chain.
        """
        network = Network()
        clock = FakeClock()
        bus = RecordingBus()
        detector = HeartbeatDetector(
            network, "m-order", suspect_after=0.1, dead_after=0.3,
            clock=clock, events=bus,
        )
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                detector.state_of("n")

        pollers = [threading.Thread(target=poll) for _ in range(4)]
        try:
            detector.watch("n")
            for thread in pollers:
                thread.start()
            # several full silence/recovery cycles under concurrent
            # polling: plenty of transitions to tear
            for _ in range(10):
                for tick in (0.05, 0.15, 0.35):
                    clock.now += tick
                    time.sleep(0.002)
                with detector._lock:  # the delayed heartbeat lands
                    detector._last_seen["n"] = clock.now
                time.sleep(0.002)
            stop.set()
            for thread in pollers:
                thread.join(timeout=5.0)
            assert not any(t.is_alive() for t in pollers)

            transitions = bus.transitions("n")
            assert len(transitions) >= 3, "storm produced no transitions"
            previous = "unknown"
            for detail in transitions:
                came_from, _, went_to = detail.partition(" -> ")
                assert came_from == previous, (
                    f"event chain broken: {detail!r} after state "
                    f"{previous!r} in {transitions}"
                )
                assert went_to in ("alive", "suspect", "dead")
                assert went_to != came_from, "no-op transition emitted"
                previous = went_to
        finally:
            stop.set()
            detector.close()
            network.close()

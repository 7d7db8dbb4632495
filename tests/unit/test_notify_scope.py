"""Unit tests for the moderator's post-activation wake."""

import threading
import time

from repro.apps.ticketing import (
    AssignSynchronizationAspect,
    OpenSynchronizationAspect,
    TicketSyncState,
)
from repro.aspects.synchronization import BoundedBufferSync
from repro.concurrency.buffer import Ticket, TicketStore
from repro.core import AspectModerator, ComponentProxy, JoinPoint
from repro.core.aspect import FunctionAspect
from repro.core.results import BLOCK, RESUME


class Buffer:
    def __init__(self, capacity=2):
        self.capacity = capacity
        self.items = []

    def put(self, item):
        self.items.append(item)

    def take(self):
        return self.items.pop(0)

    def unrelated(self):
        return "independent"


class Door:
    def open_gate(self):
        return "opened"

    def enter(self):
        return "entered"

    def leave(self):
        return "left"


def gated_on(flag):
    """A guard reading state that no aspect attribute holds."""
    return lambda joinpoint: RESUME if flag.is_set() else BLOCK


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestBroadcastWake:
    """Every completion wakes every queue; re-evaluation absorbs it."""

    def test_producer_consumer_handoff_works(self, threaded):
        moderator = AspectModerator()
        buffer = Buffer(capacity=1)
        sync = BoundedBufferSync(buffer, producer="put", consumer="take")
        moderator.register_aspect("put", "sync", sync)
        moderator.register_aspect("take", "sync", sync)
        proxy = ComponentProxy(buffer, moderator)
        got = []

        def consumer():
            for _ in range(10):
                got.append(proxy.take())

        def producer():
            for index in range(10):
                proxy.put(index)

        threaded(consumer, producer)
        assert got == list(range(10))

    def test_unrelated_waiter_is_reevaluated(self):
        moderator = AspectModerator()
        buffer = Buffer(capacity=4)
        sync = BoundedBufferSync(buffer, producer="put", consumer="take")
        moderator.register_aspect("put", "sync", sync)
        moderator.register_aspect("take", "sync", sync)
        evaluations = {"count": 0}
        moderator.register_aspect(
            "unrelated", "gate", FunctionAspect(
                concern="gate",
                precondition=lambda jp: (
                    evaluations.__setitem__(
                        "count", evaluations["count"] + 1
                    ) or BLOCK
                ),
            ),
        )
        proxy = ComponentProxy(buffer, moderator)
        blocker = threading.Thread(
            target=lambda: moderator.preactivation(
                "unrelated", JoinPoint(method_id="unrelated"), timeout=2.0,
            )
        )
        blocker.start()
        wait_for(lambda: evaluations["count"] >= 1)
        baseline = evaluations["count"]
        proxy.put(1)  # a completion on a method sharing no state
        wait_for(lambda: evaluations["count"] > baseline)
        baseline = evaluations["count"]
        moderator.notify("unrelated")  # the targeted wake
        wait_for(lambda: evaluations["count"] > baseline)
        moderator.unregister_aspect("unrelated", "gate")
        blocker.join(5)
        assert not blocker.is_alive()

    def test_distinct_aspects_sharing_state_hand_off(self, threaded):
        # The paper's Figure 7 shape: one aspect instance per method,
        # coupled only through the TicketSyncState they both hold.
        moderator = AspectModerator(default_timeout=5.0)
        state = TicketSyncState(capacity=1)
        moderator.register_aspect(
            "open", "sync", OpenSynchronizationAspect(state),
        )
        moderator.register_aspect(
            "assign", "sync", AssignSynchronizationAspect(state),
        )
        proxy = ComponentProxy(TicketStore(capacity=1), moderator)
        assigned = []

        def agent():
            for _ in range(8):
                assigned.append(proxy.assign().summary)

        def reporter():
            for index in range(8):
                proxy.open(Ticket(summary=f"t{index}"))

        threaded(agent, reporter)
        assert assigned == [f"t{index}" for index in range(8)]

    def test_closure_held_state_waiter_is_woken(self):
        # The guard on enter closes over a flag that open_gate's
        # postaction sets; no aspect attribute links the two methods.
        moderator = AspectModerator(default_timeout=5.0)
        opened = threading.Event()
        moderator.register_aspect("open_gate", "gate", FunctionAspect(
            concern="gate", postaction=lambda joinpoint: opened.set(),
        ))
        moderator.register_aspect("enter", "gate", FunctionAspect(
            concern="gate", precondition=gated_on(opened),
        ))
        proxy = ComponentProxy(Door(), moderator)
        results = []
        waiter = threading.Thread(target=lambda: results.append(
            proxy.enter()
        ))
        waiter.start()
        wait_for(lambda: moderator.parked_snapshot())
        assert proxy.open_gate() == "opened"
        waiter.join(5)
        assert not waiter.is_alive()
        assert results == ["entered"]

    def test_one_completion_wakes_every_domain(self):
        moderator = AspectModerator(default_timeout=5.0)
        opened = threading.Event()
        moderator.register_aspect("open_gate", "gate", FunctionAspect(
            concern="gate", postaction=lambda joinpoint: opened.set(),
            lock_domain="control",
        ))
        for method_id in ("enter", "leave"):
            moderator.register_aspect(method_id, "gate", FunctionAspect(
                concern="gate", precondition=gated_on(opened),
                lock_domain=f"{method_id}-domain",
            ))
        proxy = ComponentProxy(Door(), moderator)
        results = []
        waiters = [
            threading.Thread(target=lambda m=method_id: results.append(
                getattr(proxy, m)()
            ))
            for method_id in ("enter", "leave")
        ]
        for waiter in waiters:
            waiter.start()
        wait_for(lambda: len(moderator.parked_snapshot()) == 2)
        proxy.open_gate()
        for waiter in waiters:
            waiter.join(5)
        assert not any(waiter.is_alive() for waiter in waiters)
        assert sorted(results) == ["entered", "left"]

    def test_notify_without_method_wakes_every_queue(self):
        # A coupling outside the aspects: the flag changes with no
        # moderated completion, so the changer calls notify().
        moderator = AspectModerator(default_timeout=5.0)
        opened = threading.Event()
        for method_id in ("enter", "leave"):
            moderator.register_aspect(method_id, "gate", FunctionAspect(
                concern="gate", precondition=gated_on(opened),
            ))
        proxy = ComponentProxy(Door(), moderator)
        results = []
        waiters = [
            threading.Thread(target=lambda m=method_id: results.append(
                getattr(proxy, m)()
            ))
            for method_id in ("enter", "leave")
        ]
        for waiter in waiters:
            waiter.start()
        wait_for(lambda: len(moderator.parked_snapshot()) == 2)
        opened.set()
        moderator.notify()
        for waiter in waiters:
            waiter.join(5)
        assert not any(waiter.is_alive() for waiter in waiters)
        assert sorted(results) == ["entered", "left"]

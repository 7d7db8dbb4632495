"""Inline serving: a client caller's due-now request run on its own thread.

A node serves a request on the sending caller's thread when the request
is due now, names a moderated servant whose method has served quickly
on that node before, a serve slot is idle and nothing is queued;
otherwise a worker takes it from the inbox. These tests pin the serve
invariants (the ``workers=`` bound, arrival order, nested calls, the
serve-time gate), the failure semantics of an inline serve (crash
points, a BLOCK past the caller's wait, ``stop``/``crash`` mid-serve),
the in-flight count held until the dedup outcome, and the cached
caller-parameter check.
"""

import inspect
import sys
import threading
import time
from collections import deque

import pytest

from repro.aspects.retry import RetryPolicy
from repro.aspects.synchronization import BoundedBufferSync
from repro.core import (
    AspectModerator,
    ComponentProxy,
    ContinuationRuntime,
    FunctionAspect,
)
from repro.core.errors import DeadlineExceeded, MethodAborted
from repro.core.results import ABORT, BLOCK, RESUME
from repro.dist import (
    Client,
    MemoryStore,
    Network,
    Node,
    RecoveryPlan,
    RequestTimeout,
)
from repro.dist import node as node_module
from repro.dist.network import role
from repro.dist.resilience import RPC_TRANSIENT
from repro.faults import FaultInjector, FaultPlan, FaultSpec


class Recorder:
    """Records every call: its tag, its thread, and the peak overlap."""

    def __init__(self, gate=None):
        self.lock = threading.Lock()
        self.gate = gate
        self.active = 0
        self.peak = 0
        self.order = []
        self.threads = []

    def work(self, tag, pause=0.0):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.order.append(tag)
            self.threads.append(threading.current_thread().name)
        try:
            if self.gate is not None and tag == "first":
                self.gate.wait(5.0)
            if pause:
                time.sleep(pause)
            return tag
        finally:
            with self.lock:
                self.active -= 1


class KV:
    def __init__(self):
        self.data = {}
        self.applied = 0
        self.threads = []

    def put(self, key, value):
        self.applied += 1
        self.threads.append(threading.current_thread().name)
        self.data[key] = value
        return self.applied


def moderated(component, moderator=None):
    return ComponentProxy(component, moderator or AspectModerator())


def run_threads(targets, timeout=20.0):
    errors = []

    def guarded(target):
        def run():
            try:
                target()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
        return run

    threads = [threading.Thread(target=guarded(target), name=name)
               for name, target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


@pytest.fixture
def network():
    network = Network()
    yield network
    network.close()


def prime(client, node, service, method, *args, **kwargs):
    """Serve one quick call of ``method`` at ``node``: a node serves a
    method on its caller's thread only once it has seen it serve
    quickly."""
    client.call_node(node.node_id, service, method, *args, **kwargs)
    assert node.inbox.marks[(service, method)] <= node_module._INLINE_MAX_S


def wait_until(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


# ----------------------------------------------------------------------
# serve invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_workers_bound_counts_inline_callers(network, workers):
    node = Node("n1", network, workers=workers).start()
    recorder = Recorder()
    node.export("svc", moderated(recorder))
    client = Client("c", network, default_timeout=5.0)
    prime(client, node, "svc", "work", "warm")

    def caller(index):
        def run():
            for step in range(15):
                tag = f"{index}:{step}"
                assert client.call_node("n1", "svc", "work", tag,
                                        0.001) == tag
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the slot accounting hard
    try:
        run_threads([(f"caller-{index}", caller(index))
                     for index in range(6)])
    finally:
        sys.setswitchinterval(interval)
        client.close()
        node.stop()
    assert len(recorder.order) == 91
    assert recorder.peak <= workers
    assert node.inbox.free == workers  # every slot taken was given back
    served_on = {name.split("-")[0] for name in recorder.threads}
    assert served_on == {"caller", "n1"}  # both serve paths ran


def test_requests_are_served_in_arrival_order(network):
    gate = threading.Event()
    recorder = Recorder(gate)
    node = Node("n1", network, workers=1).start()
    node.export("svc", moderated(recorder))
    client = Client("c", network, default_timeout=5.0)
    threads = []

    def call(tag):
        thread = threading.Thread(
            target=lambda: client.call_node("n1", "svc", "work", tag),
            name=f"caller-{tag}")
        thread.start()
        threads.append(thread)

    try:
        prime(client, node, "svc", "work", "warm")
        call("first")  # served inline, holds the only slot
        wait_until(lambda: recorder.order == ["warm", "first"])
        for index in range(4):
            call(f"q{index}")
            wait_until(lambda: len(node.inbox) == index + 1)
        gate.set()
        call("late")  # must not overtake the queued ones
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        gate.set()
        client.close()
        node.stop()
    assert recorder.order == ["warm", "first", "q0", "q1", "q2", "q3",
                              "late"]
    assert recorder.threads[1] == "caller-first"
    assert recorder.threads[2:6] == ["n1-worker-0"] * 4


class Front:
    """A servant that calls another node while it is being served."""

    def __init__(self, client):
        self.client = client

    def relay(self, value):
        return [threading.current_thread().name,
                self.client.call_node("back", "svc", "work", value)]


@pytest.mark.parametrize("latency", [0.0, 1e-3])
def test_servant_calling_another_node_from_an_inline_serve_completes(
        latency):
    network = Network(latency=latency)
    front = Node("front", network).start()
    back = Node("back", network).start()
    recorder = Recorder()
    back.export("svc", moderated(recorder))
    inner = Client("inner", network, default_timeout=5.0)
    front.export("svc", moderated(Front(inner)))
    outer = Client("outer", network, default_timeout=5.0)
    results = []
    try:
        prime(outer, front, "svc", "relay", "warm")
        run_threads([("outer-caller", lambda: results.append(
            outer.call_node("front", "svc", "relay", "x")))])
    finally:
        outer.close()
        inner.close()
        front.stop()
        back.stop()
        network.close()
    served_front, value = results[0]
    assert value == "x"
    # the nested call from a serving thread always queues at ``back``
    assert recorder.threads == ["back-worker-0"] * 2
    assert served_front == ("outer-caller" if latency == 0.0
                            else "front-worker-0")


class Sleeper:
    def __init__(self):
        self.threads = []

    def nap(self, delay):
        self.threads.append(threading.current_thread().name)
        time.sleep(delay)
        return delay


def test_a_method_is_served_inline_only_while_its_serves_are_quick(
        network):
    node = Node("n1", network).start()
    sleeper = Sleeper()
    node.export("s", moderated(sleeper))
    client = Client("c", network, default_timeout=5.0)
    here = threading.current_thread().name
    try:
        # unknown: a worker serves it, and the caller's budget caps the
        # wait as it always did
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            client.call_node("n1", "s", "nap", 0.6, deadline=0.15)
        assert time.monotonic() - started < 0.5
        wait_until(lambda: node.inbox.free == 1)
        assert node.inbox.marks[("s", "nap")] >= 0.6
        # a slow serve keeps it on the workers until quick serves have
        # brought its mark down ...
        for _ in range(6):
            client.call_node("n1", "s", "nap", 0.0)
        assert sleeper.threads == ["n1-worker-0"] * 7
        while node.inbox.marks[("s", "nap")] > \
                node_module._INLINE_MAX_S:
            client.call_node("n1", "s", "nap", 0.0)
        # ... then the caller's thread serves it
        client.call_node("n1", "s", "nap", 0.0)
        assert sleeper.threads[-1] == here
        # a budget too short for its mark sends it to a worker again
        mark = node.inbox.marks[("s", "nap")]
        client.call_node("n1", "s", "nap", 0.0,
                         deadline=mark * node_module._INLINE_HEADROOM * 0.9)
        assert sleeper.threads[-1] == "n1-worker-0"
    finally:
        client.close()
        node.stop()


# ----------------------------------------------------------------------
# failure semantics of an inline serve
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget, expected", [
    ({"timeout": 0.3}, RequestTimeout),
    ({"deadline": 0.3}, DeadlineExceeded),
])
def test_crash_point_on_an_inline_serve_fail_stops_the_node(
        network, budget, expected):
    node = Node("n1", network).start()
    kv = KV()
    node.export("kv", moderated(kv))
    client = Client("c", network)
    prime(client, node, "kv", "put", "warm", "v")
    FaultInjector(FaultPlan([FaultSpec(
        phase="crash", method_id="n1", concern="applied",
    )])).install(node)
    try:
        with pytest.raises(expected):
            client.call_node("n1", "kv", "put", "k", "v", **budget)
        # the body ran on this thread, then the node died silently
        assert kv.threads == ["n1-worker-0",
                              threading.current_thread().name]
        assert node._crashed
        assert not node._running
        assert not network.is_up("n1")
        assert node.requests_served == 1  # the priming call
        assert client.timeouts == 1
        assert role.serving is False
        assert node.inbox.free == 1
    finally:
        client.close()
        node.stop()


@pytest.mark.parametrize("budget, expected", [
    ({"timeout": 0.2}, RequestTimeout),
    ({"deadline": 0.2}, DeadlineExceeded),
])
def test_inline_block_past_the_callers_wait_is_not_applied(
        network, budget, expected):
    gate = threading.Event()
    moderator = AspectModerator()
    moderator.register_aspect("put", "gate", FunctionAspect(
        concern="gate",
        precondition=lambda jp: RESUME if gate.is_set() else BLOCK,
    ))
    kv = KV()
    node = Node("n1", network).start()
    node.export("kv", moderated(kv, moderator))
    client = Client("c", network)
    gate.set()
    prime(client, node, "kv", "put", "warm", 0)
    gate.clear()
    try:
        started = time.monotonic()
        with pytest.raises(expected):
            client.call_node("n1", "kv", "put", "k", 1,
                             idempotency_key="put-1", **budget)
        elapsed = time.monotonic() - started
        assert 0.15 <= elapsed < 1.0  # the park ended at the wait
        assert client.timeouts == 1
        assert kv.applied == 1  # the priming call only
        # the caller's thread parked, not a worker's
        assert node.inbox.marks[("kv", "put")] >= 0.15
        gate.set()
        # the attempt was abandoned, so the keyed retry executes it ...
        assert client.call_node("n1", "kv", "put", "k", 1, timeout=2.0,
                                idempotency_key="put-1") == 2
        # ... exactly once
        assert client.call_node("n1", "kv", "put", "k", 1, timeout=2.0,
                                idempotency_key="put-1") == 2
        assert kv.applied == 2
    finally:
        client.close()
        node.stop()


@pytest.mark.parametrize("inline", [True, False])
def test_block_past_a_timeout_only_wait_inline_or_queued(inline):
    # A timed-out call's outcome is unknown to its caller on both
    # paths (docs/resilience.md). Served inline, the park ends with
    # the caller's wait and the call is never applied; queued, the
    # worker parks on (the request carries no deadline) and applies
    # once the guard opens, after the caller has given up. Neither
    # counts as an expired deadline.
    network = Network(latency=0.0 if inline else 1e-4)
    gate = threading.Event()
    moderator = AspectModerator()
    moderator.register_aspect("put", "gate", FunctionAspect(
        concern="gate",
        precondition=lambda jp: RESUME if gate.is_set() else BLOCK,
    ))
    kv = KV()
    node = Node("n1", network).start()
    node.export("kv", moderated(kv, moderator))
    client = Client("c", network)
    gate.set()
    prime(client, node, "kv", "put", "warm", 0)
    gate.clear()
    try:
        with pytest.raises(RequestTimeout):
            client.call_node("n1", "kv", "put", "k", 1, timeout=0.2)
        assert client.timeouts == 1
        if inline:
            # the caller's thread parked, and its park was cut
            assert node.inbox.marks[("kv", "put")] >= 0.15
            assert node.metrics()["requests_failed"] == 1
        gate.set()
        moderator.notify()
        if not inline:
            wait_until(lambda: kv.applied == 2)
        wait_until(lambda: node.inbox.free == 1)
        assert kv.applied == (1 if inline else 2)
        assert node.metrics()["deadline_expired"] == 0
        assert kv.threads == ["n1-worker-0"] * kv.applied
    finally:
        client.close()
        node.stop()
        network.close()


def test_retry_policy_runs_a_blocked_inline_call_exactly_once(network):
    gate = threading.Event()
    moderator = AspectModerator()
    moderator.register_aspect("put", "gate", FunctionAspect(
        concern="gate",
        precondition=lambda jp: RESUME if gate.is_set() else BLOCK,
    ))
    kv = KV()
    node = Node("n1", network).start()
    node.export("kv", moderated(kv, moderator))
    client = Client("c", network, retry_policy=RetryPolicy(
        max_attempts=5, base_delay=0.0, retry_on=RPC_TRANSIENT))
    gate.set()
    prime(client, node, "kv", "put", "warm", 0)
    gate.clear()

    def open_gate():
        gate.set()
        moderator.notify()

    timer = threading.Timer(0.3, open_gate)
    timer.start()
    try:
        assert client.call_node("n1", "kv", "put", "k", 1,
                                timeout=0.2) == 2
        assert client.timeouts >= 1
        assert client.retries >= 1
        assert kv.applied == 2
        # the first attempt parked on this thread and was cut at its
        # wait; that slow serve sent the retries to the worker
        assert node.inbox.marks[("kv", "put")] >= 0.15 * 0.5
        assert kv.threads == ["n1-worker-0", "n1-worker-0"]
    finally:
        timer.cancel()
        client.close()
        node.stop()


class Wedge:
    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def hold(self):
        self.entered.set()
        self.release.wait(5.0)
        return "done"


def start_wedged_call(network, node, client, timeout):
    wedge = Wedge()
    node.export("w", moderated(wedge))
    wedge.release.set()
    prime(client, node, "w", "hold")
    wedge.entered.clear()
    wedge.release.clear()
    outcome = []

    def call():
        try:
            outcome.append(client.call_node("n1", "w", "hold",
                                            timeout=timeout))
        except Exception as exc:  # noqa: BLE001 - recorded
            outcome.append(type(exc).__name__)

    thread = threading.Thread(target=call, name="wedged-caller")
    thread.start()
    assert wedge.entered.wait(2.0)
    return wedge, thread, outcome


def test_stop_surfaces_a_wedged_inline_serve_like_a_worker(network):
    node = Node("n1", network).start()
    client = Client("c", network)
    wedge, thread, outcome = start_wedged_call(network, node, client, 3.0)
    try:
        stragglers = node.stop(timeout=0.3)
        assert [straggler.name for straggler in stragglers] == \
            ["wedged-caller"]
        wedge.release.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        # like a worker caught mid-call, the serve finished and replied
        assert outcome == ["done"]
    finally:
        wedge.release.set()
        client.close()


@pytest.mark.parametrize("lose_memory", [False, True])
def test_crash_waits_for_an_inline_serve_and_drops_its_reply(
        network, lose_memory):
    node = Node("n1", network).start()
    client = Client("c", network)
    wedge, thread, outcome = start_wedged_call(network, node, client, 1.0)
    timer = threading.Timer(0.2, wedge.release.set)
    timer.start()
    try:
        started = time.monotonic()
        assert node.crash(lose_memory=lose_memory) == []
        assert time.monotonic() - started >= 0.1  # it waited the serve out
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert outcome == ["RequestTimeout"]  # the reply was dropped
        assert node.inbox.callers == set()
    finally:
        timer.cancel()
        wedge.release.set()
        client.close()


# ----------------------------------------------------------------------
# the in-flight count outlives the dedup outcome
# ----------------------------------------------------------------------
def hold(node, name):
    """Make ``node.dedup.<name>`` wait for a release event."""
    entered, release = threading.Event(), threading.Event()
    original = getattr(node.dedup, name)

    def held(*args, **kwargs):
        entered.set()
        release.wait(5.0)
        return original(*args, **kwargs)

    setattr(node.dedup, name, held)
    return entered, release


def assert_settle_waits_for(node, service, entered, release, thread):
    try:
        assert entered.wait(2.0)
        # the call applied, but its outcome is not cached yet: a
        # migrator's capture now would miss the cached reply
        assert node.settle(service, timeout=0.2) is False
    finally:
        release.set()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert node.settle(service, timeout=2.0) is True


@pytest.mark.parametrize("inline", [True, False])
def test_settle_waits_for_dedup_finish(inline):
    network = Network(latency=0.0 if inline else 1e-4)
    node = Node("n1", network).start()
    node.export("kv", moderated(KV()))
    client = Client("c", network)
    prime(client, node, "kv", "put", "warm", 0)
    entered, release = hold(node, "finish")
    thread = threading.Thread(target=lambda: client.call_node(
        "n1", "kv", "put", "k", 1, idempotency_key="put-1"))
    thread.start()
    try:
        assert_settle_waits_for(node, "kv", entered, release, thread)
    finally:
        client.close()
        node.stop()
        network.close()


def test_settle_waits_for_dedup_abandon_of_a_failed_call(network):
    moderator = AspectModerator()
    moderator.register_aspect("put", "veto", FunctionAspect(
        concern="veto", precondition=lambda jp: ABORT,
    ))
    node = Node("n1", network).start()
    node.export("kv", moderated(KV(), moderator))
    client = Client("c", network)
    entered, release = hold(node, "abandon")
    failures = []

    def call():
        try:
            client.call_node("n1", "kv", "put", "k", 1,
                             idempotency_key="put-1")
        except MethodAborted as exc:
            failures.append(exc)

    thread = threading.Thread(target=call)
    thread.start()
    try:
        assert_settle_waits_for(node, "kv", entered, release, thread)
        assert len(failures) == 1
    finally:
        client.close()
        node.stop()


class Buffer:
    capacity = 2

    def __init__(self):
        self.items = deque()

    def open(self, item):
        self.items.append(item)
        return len(self.items)

    def assign(self):
        return self.items.popleft()


def test_settle_waits_for_dedup_finish_on_the_reactor(network):
    moderator = AspectModerator()
    buffer = Buffer()
    sync = BoundedBufferSync(buffer)
    moderator.register_aspect("open", "sync", sync)
    moderator.register_aspect("assign", "sync", sync)
    runtime = ContinuationRuntime(moderator, workers=1)
    node = Node("n1", network).start()
    node.export("buffer", ComponentProxy(buffer, moderator),
                runtime=runtime)
    client = Client("c", network)
    entered, release = hold(node, "finish")
    thread = threading.Thread(target=lambda: client.call_node(
        "n1", "buffer", "open", "t1", idempotency_key="open-1"))
    thread.start()
    try:
        assert_settle_waits_for(node, "buffer", entered, release, thread)
    finally:
        client.close()
        node.stop()
        runtime.close()


# ----------------------------------------------------------------------
# the caller-parameter check is cached per underlying function
# ----------------------------------------------------------------------
class Plain:
    def plain(self, value):
        return value

    def with_caller(self, value, caller=None):
        return caller

    def loose(self, value, **kwargs):
        return kwargs.get("caller")


def uncached(target):
    try:
        parameters = inspect.signature(target).parameters
    except (TypeError, ValueError):
        return False
    return "caller" in parameters or any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def test_accepts_caller_cache_agrees_with_inspect(network):
    node = Node("n1", network)
    servant = Plain()
    node.attach_recovery("svc", RecoveryPlan(
        MemoryStore(), lambda s: {}, lambda state: Plain(),
        mutating=["with_caller", "loose"]))
    node.export("svc", servant)
    proxy = node._journaling["svc"].proxy
    wrapper = getattr(proxy, "with_caller")
    assert wrapper.__wrapped__ == servant.with_caller  # the guard
    with pytest.raises(ValueError):
        inspect.signature(min)  # a builtin inspect rejects
    targets = [servant.plain, servant.with_caller, servant.loose,
               wrapper, getattr(proxy, "loose"), min]
    for target in targets:
        first = Node._accepts_caller(target)
        assert first == uncached(target), target
        assert Node._accepts_caller(target) == first
    assert [uncached(target) for target in targets] == \
        [False, True, True, True, True, False]
    assert node_module._takes_caller[Plain.plain] is False
    assert node_module._takes_caller[Plain.with_caller] is True
    assert node_module._takes_caller[Plain.loose] is True


# ----------------------------------------------------------------------
# stopping an idle node
# ----------------------------------------------------------------------
@pytest.mark.parametrize("halt", ["stop", "crash"])
def test_stopping_an_idle_node_wakes_its_workers(network, halt):
    node = Node("n1", network, workers=2).start()
    client = Client("c", network)
    node.export("kv", KV())
    try:
        client.call_node("n1", "kv", "put", "a", 1)
        workers = list(node._threads)
        started = time.monotonic()
        if halt == "stop":
            assert node.stop(timeout=0.05) == []
        else:
            assert node.crash() == []
        assert time.monotonic() - started < 0.05
        assert not any(worker.is_alive() for worker in workers)
        node.recover()
        assert client.call_node("n1", "kv", "put", "b", 2,
                                timeout=2.0) == 2
    finally:
        node.stop()
        client.close()

"""Client/node resilience behaviour: deadlines, retries, dedup, shedding.

End-to-end unit tests of the resilient RPC path on a real (in-process)
network — small, targeted scenarios; the broad schedule sweeps live in
``tests/properties/test_resilience_chaos.py``.
"""

import threading
import time

import pytest

from repro.aspects.retry import RetryPolicy
from repro.core import AspectModerator, ComponentProxy, FunctionAspect
from repro.core.errors import (
    CircuitOpen,
    ClientClosed,
    DeadlineExceeded,
    Overloaded,
)
from repro.core.results import BLOCK
from repro.dist import (
    Client,
    Deadline,
    DestinationBreakers,
    NameService,
    Network,
    Node,
)
from repro.dist.resilience import RPC_TRANSIENT
from repro.faults import FaultInjector, single_loss_plans

#: fast, deterministic retry policy for tests
POLICY = RetryPolicy(max_attempts=4, base_delay=0.0, retry_on=RPC_TRANSIENT)


class CountingServant:
    """Counts applies — the double-apply detector."""

    def __init__(self):
        self._lock = threading.Lock()
        self.applied = 0

    def apply(self, value):
        with self._lock:
            self.applied += 1
            return self.applied

    def slow(self, value, delay=0.2):
        time.sleep(delay)
        return self.apply(value)


@pytest.fixture
def rig():
    network = Network()
    names = NameService()
    node = Node("server", network, workers=2)
    node.start()
    servant = CountingServant()
    node.export("svc", servant)
    names.bind("service", "server", "svc")
    client = Client("client", network, names, default_timeout=2.0)
    yield network, names, node, client, servant
    client.close()
    node.stop()
    network.close()


@pytest.fixture
def moderated_rig(rig):
    """``rig`` with its servant also exported behind a moderator, as
    ``moderated-svc``, and its quick ``apply`` already served there:
    a moderated servant's quick methods are served on the caller's
    thread, and the caller's budget must still cap every wait."""
    network, names, node, client, servant = rig
    node.export("moderated", ComponentProxy(servant, AspectModerator()))
    names.bind("moderated-svc", "server", "moderated")
    for value in range(2):
        client.call_name("moderated-svc", "apply", value)
    return rig


# ----------------------------------------------------------------------
# exactly-once retries
# ----------------------------------------------------------------------
class TestExactlyOnceRetries:
    def test_lost_reply_retry_applies_once(self, rig):
        network, names, node, client, servant = rig
        # Drop the first delivery to the client: the reply vanishes,
        # the request was executed. A naive retry would double-apply.
        plan = single_loss_plans(["client"])[0]
        injector = FaultInjector(plan).install(network)
        try:
            result = client.call_name(
                "service", "apply", 7,
                timeout=0.3, retry_policy=POLICY,
            )
        finally:
            FaultInjector.uninstall(network)
        assert injector.all_fired()
        assert servant.applied == 1
        # the replayed cached reply carries the original result
        assert result == 1
        assert node.dedup_hits == 1
        assert client.retries == 1
        assert client.timeouts == 1

    def test_lost_request_retry_applies_once(self, rig):
        network, names, node, client, servant = rig
        plan = single_loss_plans(["server"])[0]
        FaultInjector(plan).install(network)
        try:
            result = client.call_name(
                "service", "apply", 7,
                timeout=0.3, retry_policy=POLICY,
            )
        finally:
            FaultInjector.uninstall(network)
        assert servant.applied == 1
        assert result == 1
        # the first request never arrived: no dedup hit needed
        assert node.dedup_hits == 0

    def test_explicit_idempotency_key_dedups_without_policy(self, rig):
        network, names, node, client, servant = rig
        first = client.call_name("service", "apply", 1,
                                 idempotency_key="logical-1")
        second = client.call_name("service", "apply", 1,
                                  idempotency_key="logical-1")
        assert servant.applied == 1
        assert first == second == 1
        assert node.dedup_hits == 1

    def test_retries_exhausted_reraises(self, rig):
        network, names, node, client, servant = rig
        node.stop()  # nobody will answer
        policy = RetryPolicy(max_attempts=2, base_delay=0.0,
                             retry_on=RPC_TRANSIENT)
        from repro.dist import RequestTimeout
        with pytest.raises(RequestTimeout):
            client.call_name("service", "apply", 1,
                             timeout=0.2, retry_policy=policy)
        assert client.calls == 2
        assert client.retries == 1


# ----------------------------------------------------------------------
# deadline propagation
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_deadline_fails_before_sending(self, rig):
        network, names, node, client, servant = rig
        with pytest.raises(DeadlineExceeded):
            client.call_name("service", "apply", 1,
                             deadline=Deadline.after(-0.01),
                             retry_policy=POLICY)
        assert client.calls == 0  # nothing hit the wire
        assert client.metrics()["deadline_expired"] == 1

    def test_server_rejects_expired_request(self):
        # Transit takes longer than the budget: the node must reject
        # the request at dequeue instead of executing dead work.
        network = Network(latency=0.1)
        names = NameService()
        node = Node("server", network).start()
        servant = CountingServant()
        node.export("svc", servant)
        names.bind("service", "server", "svc")
        client = Client("client", network, names, default_timeout=2.0)
        try:
            with pytest.raises(DeadlineExceeded):
                client.call_name("service", "apply", 1, deadline=0.03)
            deadline_wait = time.monotonic() + 2.0
            while (node.metrics()["deadline_expired"] == 0
                   and time.monotonic() < deadline_wait):
                time.sleep(0.01)
            assert node.metrics()["deadline_expired"] == 1
            assert servant.applied == 0
        finally:
            client.close()
            node.stop()
            network.close()

    def test_deadline_caps_reply_wait(self, rig):
        network, names, node, client, servant = rig
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            # servant sleeps 1s; budget is 0.15s; timeout is 5s —
            # the wait must stop at the budget, not the timeout
            client.call_name("service", "slow", 1, delay=1.0,
                             timeout=5.0, deadline=0.15)
        assert time.monotonic() - started < 1.0

    def test_deadline_caps_reply_wait_of_a_moderated_servant(
            self, moderated_rig):
        network, names, node, client, servant = moderated_rig
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            client.call_name("moderated-svc", "slow", 1, delay=1.0,
                             timeout=5.0, deadline=0.15)
        assert time.monotonic() - started < 1.0

    def test_deadline_caps_moderator_block_park(self, rig):
        network, names, node, client, servant = rig
        moderator = AspectModerator()
        moderator.register_aspect("apply", "sync", FunctionAspect(
            concern="sync", precondition=lambda jp: BLOCK,
        ))
        proxy = ComponentProxy(CountingServant(), moderator)
        node.export("guarded", proxy)
        names.bind("guarded-svc", "server", "guarded")
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            client.call_name("guarded-svc", "apply", 1,
                             timeout=5.0, deadline=0.2)
        # the park was cut at the 0.2s budget, not the 5s timeout
        assert time.monotonic() - started < 2.0

    def test_remaining_budget_histogram_observed(self, rig):
        network, names, node, client, servant = rig
        client.call_name("service", "apply", 1, deadline=5.0)
        families = {
            snapshot.name: snapshot
            for snapshot in client.registry.collect()
        }
        hist = families["repro_rpc_remaining_budget_seconds"]
        value = hist.samples[()]
        assert value.count == 1
        assert 0 < value.sum <= 5.0


# ----------------------------------------------------------------------
# circuit breakers
# ----------------------------------------------------------------------
class TestCircuitBreakers:
    def test_fail_fast_after_threshold(self):
        network = Network()
        names = NameService()
        node = Node("server", network).start()
        node.export("svc", CountingServant())
        names.bind("service", "server", "svc")
        breakers = DestinationBreakers(failure_threshold=2,
                                       reset_timeout=60.0)
        client = Client("client", network, names, default_timeout=2.0,
                        breakers=breakers)
        try:
            network.take_down("server")
            for _ in range(2):
                with pytest.raises(Exception):
                    client.call_name("service", "apply", 1, timeout=0.15)
            started = time.monotonic()
            with pytest.raises(CircuitOpen):
                client.call_name("service", "apply", 1, timeout=5.0)
            # fail-fast: no timeout was burned
            assert time.monotonic() - started < 1.0
            assert client.metrics()["breaker_rejections"] == 1
            assert breakers.states()["server"] == "open"
        finally:
            client.close()
            node.stop()
            network.close()

    def test_half_open_probe_recovers(self):
        now = [0.0]
        network = Network()
        names = NameService()
        node = Node("server", network).start()
        node.export("svc", CountingServant())
        names.bind("service", "server", "svc")
        breakers = DestinationBreakers(failure_threshold=1,
                                       reset_timeout=5.0,
                                       clock=lambda: now[0])
        client = Client("client", network, names, default_timeout=2.0,
                        breakers=breakers)
        try:
            network.take_down("server")
            with pytest.raises(Exception):
                client.call_name("service", "apply", 1, timeout=0.15)
            with pytest.raises(CircuitOpen):
                client.call_name("service", "apply", 1)
            network.bring_up("server")
            now[0] = 6.0  # past reset_timeout: half-open probe allowed
            assert client.call_name("service", "apply", 1) == 1
            assert breakers.states()["server"] == "closed"
        finally:
            client.close()
            node.stop()
            network.close()


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def make_rig(self, policy="reject", limit=2):
        network = Network()
        names = NameService()
        node = Node("server", network, workers=1, inbox_limit=limit,
                    shed_policy=policy, retry_after=0.05)
        node.start()
        servant = CountingServant()
        node.export("svc", servant)
        names.bind("service", "server", "svc")
        client = Client("client", network, names, default_timeout=5.0)
        return network, names, node, client, servant

    def teardown_rig(self, network, node, client):
        client.close()
        node.stop()
        network.close()

    def flood(self, client, calls, timeout=3.0):
        """Issue ``calls`` concurrent slow calls; return the errors."""
        errors = []
        lock = threading.Lock()

        def one(n):
            try:
                client.call_name("service", "slow", n, delay=0.15,
                                 timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - collected
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=one, args=(n,))
                   for n in range(calls)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return errors

    def test_reject_policy_answers_overloaded_with_retry_after(self):
        network, names, node, client, servant = self.make_rig("reject")
        try:
            errors = self.flood(client, 8)
            overloaded = [e for e in errors if isinstance(e, Overloaded)]
            assert overloaded, f"no Overloaded among {errors!r}"
            assert all(e.retry_after == pytest.approx(0.05)
                       for e in overloaded)
            assert node.requests_shed == len(overloaded)
            # worker + bounded queue: at most limit+1 ever executed
            # concurrently-queued; the rest were shed, not enqueued
            assert servant.applied + len(overloaded) == 8
        finally:
            self.teardown_rig(network, node, client)

    def test_drop_oldest_policy_evicts_and_answers(self):
        network, names, node, client, servant = self.make_rig("drop_oldest")
        try:
            errors = self.flood(client, 8)
            overloaded = [e for e in errors if isinstance(e, Overloaded)]
            assert node.requests_shed > 0
            assert len(overloaded) == node.requests_shed
            assert servant.applied + len(overloaded) == 8
        finally:
            self.teardown_rig(network, node, client)

    def test_inbox_depth_stays_bounded(self):
        network, names, node, client, servant = self.make_rig("reject",
                                                              limit=3)
        try:
            peak = [0]
            stop = threading.Event()

            def watch():
                while not stop.is_set():
                    peak[0] = max(peak[0], node.load)
                    time.sleep(0.002)

            watcher = threading.Thread(target=watch)
            watcher.start()
            self.flood(client, 12)
            stop.set()
            watcher.join()
            assert peak[0] <= 3
        finally:
            self.teardown_rig(network, node, client)

    def test_retry_after_floors_backoff(self, rig):
        network, names, node, client, servant = rig
        delays = []
        client._sleep = delays.append
        policy = RetryPolicy(max_attempts=2, base_delay=0.0,
                             retry_on=RPC_TRANSIENT)
        # fake a shedding node: first attempt is rejected Overloaded
        original = client._send_once
        attempts = [0]

        def flaky(*args, **kwargs):
            attempts[0] += 1
            if attempts[0] == 1:
                raise Overloaded("synthetic", retry_after=0.25)
            return original(*args, **kwargs)

        client._send_once = flaky
        result = client.call_name("service", "apply", 1,
                                  retry_policy=policy)
        assert result == 1
        # base_delay is 0, but the node's hint floors the backoff
        assert delays == [pytest.approx(0.25)]
        assert client.retries == 1


# ----------------------------------------------------------------------
# client close (satellite)
# ----------------------------------------------------------------------
class TestClientClose:
    def test_close_wakes_inflight_callers(self, rig):
        network, names, node, client, servant = rig
        outcome = []

        def call():
            try:
                client.call_name("service", "slow", 1, delay=2.0,
                                 timeout=10.0)
                outcome.append("ok")
            except ClientClosed:
                outcome.append("closed")
            except Exception as exc:  # noqa: BLE001
                outcome.append(type(exc).__name__)

        thread = threading.Thread(target=call)
        thread.start()
        time.sleep(0.1)  # let the request get in flight
        started = time.monotonic()
        client.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        # the caller woke promptly, not after its 10s timeout
        assert time.monotonic() - started < 1.5
        assert outcome == ["closed"]

    def test_close_wakes_inflight_callers_of_a_moderated_servant(
            self, moderated_rig):
        network, names, node, client, servant = moderated_rig
        outcome = []

        def call():
            try:
                client.call_name("moderated-svc", "slow", 1, delay=2.0,
                                 timeout=10.0)
                outcome.append("ok")
            except ClientClosed:
                outcome.append("closed")
            except Exception as exc:  # noqa: BLE001
                outcome.append(type(exc).__name__)

        thread = threading.Thread(target=call)
        thread.start()
        time.sleep(0.1)  # let the request get in flight
        started = time.monotonic()
        client.close()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert time.monotonic() - started < 1.5
        assert outcome == ["closed"]

    def test_close_is_idempotent(self, rig):
        network, names, node, client, servant = rig
        client.close()
        client.close()

    def test_call_after_close_raises(self, rig):
        network, names, node, client, servant = rig
        client.close()
        with pytest.raises(ClientClosed):
            client.call_name("service", "apply", 1)


# ----------------------------------------------------------------------
# striped counters (satellite)
# ----------------------------------------------------------------------
class TestStripedCounters:
    def test_node_counts_exact_with_many_workers(self):
        network = Network()
        names = NameService()
        node = Node("server", network, workers=4)
        node.start()
        node.export("svc", CountingServant())
        names.bind("service", "server", "svc")
        clients = [
            Client(f"client-{n}", network, names, default_timeout=5.0)
            for n in range(4)
        ]
        try:
            threads = []
            per_client = 25

            def burst(c):
                for n in range(per_client):
                    c.call_name("service", "apply", n)

            for c in clients:
                thread = threading.Thread(target=burst, args=(c,))
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
            assert node.requests_served == 4 * per_client
            assert sum(c.calls for c in clients) == 4 * per_client
        finally:
            for c in clients:
                c.close()
            node.stop()
            network.close()

    def test_metrics_snapshot_consistent(self, rig):
        network, names, node, client, servant = rig
        client.call_name("service", "apply", 1)
        snapshot = node.metrics()
        assert snapshot["requests_served"] == 1
        assert snapshot["requests_failed"] == 0
        assert client.metrics()["calls"] == 1

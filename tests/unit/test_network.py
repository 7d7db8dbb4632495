"""Unit tests for the simulated network."""

import threading
import time

import pytest

from repro.core.errors import NodeUnreachable
from repro.dist.message import Message
from repro.dist.network import Network, Sink


def msg(source, dest, tag=0):
    return Message(source=source, dest=dest, kind="event",
                   payload={"tag": tag})


@pytest.fixture
def network():
    net = Network()
    yield net
    net.close()


def drain(inbox, n, timeout=2.0):
    return [inbox.get(timeout) for _ in range(n)]


class TestDelivery:
    def test_basic_delivery(self, network):
        inbox = network.register("b")
        network.register("a")
        network.send(msg("a", "b", tag=1))
        delivered = inbox.get(2.0)
        assert delivered.payload["tag"] == 1
        assert network.stats()["delivered"] == 1

    def test_unknown_destination_raises(self, network):
        network.register("a")
        with pytest.raises(NodeUnreachable):
            network.send(msg("a", "ghost"))

    def test_fifo_per_link_without_jitter(self, network):
        inbox = network.register("b")
        network.register("a")
        for tag in range(10):
            network.send(msg("a", "b", tag))
        received = [m.payload["tag"] for m in drain(inbox, 10)]
        assert received == list(range(10))

    def test_latency_delays_delivery(self):
        net = Network(latency=0.1)
        try:
            inbox = net.register("b")
            net.register("a")
            started = time.monotonic()
            net.send(msg("a", "b"))
            inbox.get(2.0)
            assert time.monotonic() - started >= 0.08
        finally:
            net.close()

    def test_duplicate_registration_rejected(self, network):
        network.register("x")
        with pytest.raises(ValueError):
            network.register("x")

    def test_endpoints_listing(self, network):
        network.register("a")
        network.register("b")
        assert sorted(network.endpoints()) == ["a", "b"]


class TestFaults:
    def test_loss_drops_messages(self):
        net = Network(loss=1.0)
        try:
            net.register("a")
            net.register("b")
            net.send(msg("a", "b"))
            assert net.stats()["dropped"] == 1
            assert net.stats()["delivered"] == 0
        finally:
            net.close()

    def test_partition_blocks_cross_group_traffic(self, network):
        inbox_b = network.register("b")
        inbox_c = network.register("c")
        network.register("a")
        network.partition({"a"}, {"b"})
        network.send(msg("a", "b"))       # cross-partition: dropped
        network.send(msg("a", "c"))       # c in neither group: a is isolated from...
        # a is in group {a}; c is in no group -> a/c differ on group {a} membership
        assert network.stats()["dropped"] == 2

    def test_same_group_traffic_flows(self, network):
        inbox = network.register("b")
        network.register("a")
        network.partition({"a", "b"}, {"c"})
        network.send(msg("a", "b"))
        assert inbox.get(2.0).source == "a"

    def test_heal_restores_traffic(self, network):
        inbox = network.register("b")
        network.register("a")
        network.partition({"a"}, {"b"})
        network.send(msg("a", "b"))
        network.heal()
        network.send(msg("a", "b"))
        assert inbox.get(2.0) is not None
        assert network.stats()["dropped"] == 1

    def test_down_node_drops_traffic(self, network):
        network.register("b")
        network.register("a")
        network.take_down("b")
        assert not network.is_up("b")
        network.send(msg("a", "b"))
        assert network.stats()["dropped"] == 1
        network.bring_up("b")
        assert network.is_up("b")

    def test_unregister_closes_inbox(self, network):
        inbox = network.register("b")
        network.unregister("b")
        assert inbox.closed


class TestDispatcherSurvival:
    def test_dispatcher_survives_poisoned_inbox(self):
        errors = []
        net = Network(on_error=errors.append)
        try:
            inbox = net.register("b")
            net.register("a")
            original_put = inbox.put

            def poisoned_put(message):
                inbox.put = original_put  # fail exactly once
                raise RuntimeError("inbox corrupted")

            inbox.put = poisoned_put
            net.send(msg("a", "b", tag=1))
            deadline = time.monotonic() + 2.0
            while net.stats()["dispatch_errors"] < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            stats = net.stats()
            assert stats["dispatch_errors"] == 1, \
                "dispatcher thread died instead of containing the error"
            assert stats["dropped"] == 1 and stats["delivered"] == 0
            assert errors and isinstance(errors[0], RuntimeError)
            # the dispatcher is still alive: the next send delivers
            net.send(msg("a", "b", tag=2))
            assert inbox.get(2.0).payload["tag"] == 2
        finally:
            net.close()

    def test_raising_on_error_hook_is_contained(self):
        def hostile_hook(exc):
            raise ValueError("hook bug")

        net = Network(on_error=hostile_hook)
        try:
            inbox = net.register("b")
            net.register("a")
            original_put = inbox.put

            def poisoned_put(message):
                inbox.put = original_put
                raise RuntimeError("inbox corrupted")

            inbox.put = poisoned_put
            net.send(msg("a", "b", tag=1))
            net.send(msg("a", "b", tag=2))
            assert inbox.get(2.0).payload["tag"] == 2
            assert net.stats()["dispatch_errors"] == 1
        finally:
            net.close()

    def test_delivery_to_closing_inbox_counts_as_drop(self, network):
        inbox = network.register("b")
        network.register("a")
        inbox.close()  # closed but still registered: put raises Closed
        network.send(msg("a", "b"))
        deadline = time.monotonic() + 2.0
        while network.stats()["dropped"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = network.stats()
        assert stats["dropped"] == 1 and stats["delivered"] == 0
        # WaitQueue.Closed is an expected race, not a dispatcher error
        assert stats["dispatch_errors"] == 0


class TestSink:
    """An inbox whose ``put`` handles the message on the delivering thread."""

    def test_sink_runs_on_the_sender_when_due_now_else_the_dispatcher(
            self, network):
        sender = threading.current_thread().name
        delayed = Network(latency=0.005)
        try:
            for net, thread in ((network, sender),
                                (delayed, "network-dispatch")):
                seen = []
                net.register("b", Sink(lambda message: seen.append(
                    (message.payload["tag"],
                     threading.current_thread().name))))
                net.register("a")
                for tag in range(3):
                    net.send(msg("a", "b", tag))
                deadline = time.monotonic() + 2.0
                while len(seen) < 3 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert seen == [(tag, thread) for tag in range(3)]
                assert net.stats()["delivered"] == 3
        finally:
            delayed.close()

    def test_raising_deliver_is_reported_and_delivery_continues(self):
        errors = []
        net = Network(on_error=errors.append)
        seen = []

        def deliver(message):
            if message.payload["tag"] == 0:
                raise ValueError("poisoned")
            seen.append(message.payload["tag"])

        try:
            net.register("b", Sink(deliver))
            net.register("a")
            for tag in range(3):
                net.send(msg("a", "b", tag))
            deadline = time.monotonic() + 2.0
            while len(seen) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            stats = net.stats()
            assert seen == [1, 2]
            assert [type(exc) for exc in errors] == [ValueError]
            assert stats["dispatch_errors"] == 1
            assert stats["delivered"] == 2 and stats["dropped"] == 1
        finally:
            net.close()

    def test_unregister_closes_the_sink_and_later_puts_drop(self, network):
        seen = []
        sink = network.register("b", Sink(seen.append))
        network.register("a")
        network.unregister("b")
        assert sink.closed
        # registered again while closed: the dispatcher's put is refused
        network.register("b", sink)
        network.send(msg("a", "b"))
        deadline = time.monotonic() + 2.0
        while network.stats()["dropped"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = network.stats()
        assert seen == []
        assert stats["dropped"] == 1 and stats["delivered"] == 0
        assert stats["dispatch_errors"] == 0


class PoisonedCopy(Message):
    def copy_for_delivery(self):
        raise ValueError("payload does not copy")


class TestDirectDelivery:
    """A due-now send runs the inbox's ``put`` on the sender's thread."""

    def test_due_now_send_never_overtakes_the_dispatchers_put(self):
        from repro.faults import FaultInjector, FaultPlan, FaultSpec
        net = Network()
        FaultInjector(FaultPlan([FaultSpec(
            phase="delivery", method_id="b", occurrence=1,
            action="delay", arg=0.01,
        )])).install(net)
        handing_over, release = threading.Event(), threading.Event()
        seen = []

        def deliver(message):
            if message.payload["tag"] == "A":
                handing_over.set()
                release.wait(2.0)
            seen.append((message.payload["tag"],
                         threading.current_thread().name))

        try:
            net.register("b", Sink(deliver))
            net.register("a")
            net.send(msg("a", "b", "A"))  # delayed: the dispatcher's job
            assert handing_over.wait(2.0)
            # the heap is empty, but A is still being handed over
            net.send(msg("a", "b", "B"))
            release.set()
            deadline = time.monotonic() + 2.0
            while len(seen) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert seen == [("A", "network-dispatch"),
                            ("B", "network-dispatch")]
        finally:
            release.set()
            net.close()

    @pytest.mark.parametrize("poison", ["put", "copy"])
    def test_raising_put_is_a_reported_drop_not_the_senders(self, poison):
        errors = []
        net = Network(on_error=errors.append)

        def deliver(message):
            if poison == "put":
                raise ValueError("poisoned")

        try:
            net.register("b", Sink(deliver))
            net.register("a")
            message = (msg("a", "b") if poison == "put"
                       else PoisonedCopy(source="a", dest="b", kind="event"))
            net.send(message)  # returns: the error is not the sender's
            # handled on this thread, before send returned
            stats = net.stats()
            assert [type(exc) for exc in errors] == [ValueError]
            assert stats["dispatch_errors"] == 1
            assert stats["dropped"] == 1 and stats["delivered"] == 0
        finally:
            net.close()

    def test_closed_inbox_is_a_drop(self, network):
        inbox = network.register("b")
        network.register("a")
        inbox.close()
        network.send(msg("a", "b"))
        stats = network.stats()
        assert stats["dropped"] == 1 and stats["delivered"] == 0
        assert stats["dispatch_errors"] == 0

    def test_loss_and_partition_drop_at_send_as_on_the_dispatcher(self):
        def run(latency):
            net = Network(latency=latency, loss=0.3, seed=11)
            try:
                inbox = net.register("b")
                net.register("a")
                net.register("c")
                for tag in range(40):
                    if tag == 10:
                        net.partition({"a"}, {"b", "c"})
                    if tag == 20:
                        net.heal()
                    net.send(msg("a", "b", tag))
                deadline = time.monotonic() + 2.0
                while net.stats()["in_flight"] and \
                        time.monotonic() < deadline:
                    time.sleep(0.01)
                received = [inbox.get(2.0).payload["tag"]
                            for _ in range(net.stats()["delivered"])]
                return net.stats(), received
            finally:
                net.close()

        direct, dispatched = run(0.0), run(1e-6)
        assert direct == dispatched
        stats, received = direct
        assert stats["in_flight"] == 0
        assert stats["dropped"] >= 10  # the partitioned stretch at least
        assert not set(received) & set(range(10, 20))


class TestDeliveryInjection:
    def _wired(self, plan):
        from repro.faults import FaultInjector
        net = Network()
        injector = FaultInjector(plan).install(net)
        return net, injector

    def test_skip_drops_the_kth_delivery(self):
        from repro.faults import FaultPlan, FaultSpec
        net, injector = self._wired(FaultPlan([FaultSpec(
            phase="delivery", method_id="b", occurrence=2, action="skip",
        )]))
        try:
            inbox = net.register("b")
            net.register("a")
            for tag in range(3):
                net.send(msg("a", "b", tag))
            received = [m.payload["tag"] for m in drain(inbox, 2)]
            assert received == [0, 2]  # the second delivery vanished
            assert net.stats()["dropped"] == 1
            assert injector.all_fired()
        finally:
            net.close()

    def test_raise_surfaces_to_the_sender(self):
        from repro.faults import FaultPlan, FaultSpec
        from repro.faults.plan import InjectedFault
        net, injector = self._wired(FaultPlan([FaultSpec(
            phase="delivery", method_id="b", occurrence=1, action="raise",
        )]))
        try:
            inbox = net.register("b")
            net.register("a")
            with pytest.raises(InjectedFault):
                net.send(msg("a", "b", tag=0))
            assert net.stats()["dropped"] == 1
            net.send(msg("a", "b", tag=1))  # only the 1st send faults
            assert inbox.get(2.0).payload["tag"] == 1
        finally:
            net.close()

    def test_delay_widens_latency_of_one_delivery(self):
        from repro.faults import FaultPlan, FaultSpec
        net, injector = self._wired(FaultPlan([FaultSpec(
            phase="delivery", method_id="b", occurrence=1,
            action="delay", arg=0.15,
        )]))
        try:
            inbox = net.register("b")
            net.register("a")
            started = time.monotonic()
            net.send(msg("a", "b"))
            inbox.get(2.0)
            assert time.monotonic() - started >= 0.12
            net.send(msg("a", "b"))  # second delivery is immediate
            started = time.monotonic()
            inbox.get(2.0)
            assert time.monotonic() - started < 0.1
        finally:
            net.close()

    def test_injection_is_per_destination(self):
        from repro.faults import FaultPlan, FaultSpec
        net, injector = self._wired(FaultPlan([FaultSpec(
            phase="delivery", method_id="b", occurrence=1, action="skip",
        )]))
        try:
            inbox_b = net.register("b")
            inbox_c = net.register("c")
            net.register("a")
            net.send(msg("a", "c", tag=7))  # c is not a planned site
            assert inbox_c.get(2.0).payload["tag"] == 7
            net.send(msg("a", "b", tag=8))  # b's 1st delivery: dropped
            assert net.stats()["dropped"] == 1
        finally:
            net.close()

    def test_install_requires_the_hook(self):
        from repro.faults import FaultInjector

        class NoHook:
            pass

        with pytest.raises(TypeError):
            FaultInjector().install(NoHook())

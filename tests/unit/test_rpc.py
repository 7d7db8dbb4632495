"""Unit tests for nodes, the RPC client, and remote proxies."""

import threading
import time

import pytest

from repro.core import AspectModerator, ComponentProxy, FunctionAspect, MethodAborted
from repro.core.errors import NodeUnreachable
from repro.core.results import ABORT
from repro.dist import (
    Client,
    NameService,
    Network,
    Node,
    RemoteError,
    RequestTimeout,
)
from repro.dist.message import reply, request


class Calculator:
    def add(self, a, b):
        return a + b

    def div(self, a, b):
        return a / b


@pytest.fixture
def rig():
    network = Network()
    names = NameService()
    node = Node("server", network).start()
    node.export("calc", Calculator())
    names.bind("calculator", "server", "calc")
    client = Client("client", network, names, default_timeout=2.0)
    yield network, names, node, client
    client.close()
    node.stop()
    network.close()


class TestNode:
    def test_export_withdraw_services(self, rig):
        network, names, node, client = rig
        assert node.services() == ["calc"]
        node.export("extra", Calculator())
        assert node.services() == ["calc", "extra"]
        node.withdraw("extra")
        assert node.services() == ["calc"]

    def test_duplicate_export_rejected(self, rig):
        network, names, node, client = rig
        with pytest.raises(ValueError):
            node.export("calc", Calculator())

    def test_requests_served_counter(self, rig):
        network, names, node, client = rig
        client.call_node("server", "calc", "add", 1, 2)
        assert node.requests_served == 1


class TestClientCalls:
    def test_call_node_roundtrip(self, rig):
        network, names, node, client = rig
        assert client.call_node("server", "calc", "add", 2, 3) == 5

    def test_call_name_resolves(self, rig):
        network, names, node, client = rig
        assert client.call_name("calculator", "add", 10, 5) == 15

    def test_remote_exception_surfaces_as_remote_error(self, rig):
        network, names, node, client = rig
        with pytest.raises(RemoteError) as excinfo:
            client.call_name("calculator", "div", 1, 0)
        assert excinfo.value.error_type == "ZeroDivisionError"
        assert node.requests_failed == 1

    def test_unknown_service_is_remote_error(self, rig):
        network, names, node, client = rig
        with pytest.raises(RemoteError):
            client.call_node("server", "ghost", "add", 1, 2)

    def test_timeout_on_dead_node(self, rig):
        network, names, node, client = rig
        network.take_down("server")
        with pytest.raises(RequestTimeout):
            client.call_name("calculator", "add", 1, 2, timeout=0.2)
        assert client.timeouts == 1

    def test_unreachable_endpoint_leaves_no_pending_future(self, rig):
        network, names, node, client = rig
        with pytest.raises(NodeUnreachable):
            client.call_node("nowhere", "calc", "add", 1, 2)
        assert client._pending == {}
        assert client.call_node("server", "calc", "add", 1, 2) == 3

    def test_rebind_redirects_subsequent_calls(self, rig):
        network, names, node, client = rig
        second = Node("server-2", network).start()
        second.export("calc", Calculator())
        names.rebind("calculator", "server-2", "calc")
        assert client.call_name("calculator", "add", 1, 1) == 2
        assert second.requests_served == 1
        second.stop()


class TestReplyDelivery:
    """The dispatcher completes the caller's future; no reply thread."""

    def test_building_a_client_starts_no_thread(self):
        network = Network()
        try:
            before = set(threading.enumerate())
            client = Client("client", network)
            assert set(threading.enumerate()) - before == set()
            client.close()
        finally:
            network.close()

    def test_concurrent_callers_each_get_their_own_reply(self, rig):
        network, names, node, client = rig
        results = {}

        def caller(index):
            results[index] = [client.call_node("server", "calc", "add",
                                               index, step)
                              for step in range(20)]

        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {index: [index + step for step in range(20)]
                           for index in range(6)}
        assert client._pending == {}

    def test_reply_completes_on_the_sender_when_due_now_else_the_dispatcher(
            self, rig):
        # the network looks up ``inbox.put`` per delivery, so a wrapper
        # set on the instance sees every reply: when due now, on the
        # thread that served the request (the calling thread itself for
        # a moderated servant on an idle node, once the node has seen
        # the method serve quickly, else the node's worker), else on
        # the dispatcher
        network, names, node, client = rig
        node.export("moderated", ComponentProxy(Calculator(),
                                                AspectModerator()))
        delayed = Network(latency=0.005)
        far = Node("far", delayed).start()
        far.export("calc", Calculator())
        far_client = Client("client", delayed, default_timeout=2.0)
        try:
            for rpc, server, service, thread in (
                    (client, "server", "moderated",
                     threading.current_thread().name),
                    (client, "server", "calc", "server-worker-0"),
                    (far_client, "far", "calc", "network-dispatch")):
                # a first, untraced call gives the method a serve time
                rpc.call_node(server, service, "add", 0, 0)
                seen = []
                put = rpc.inbox.put

                def traced(message, put=put, seen=seen):
                    seen.append(threading.current_thread().name)
                    put(message)

                rpc.inbox.put = traced
                assert rpc.call_node(server, service, "add", 1, 2) == 3
                assert rpc.call_node(server, service, "add", 3, 4) == 7
                assert seen == [thread] * 2
                del rpc.inbox.put
        finally:
            far_client.close()
            far.stop()
            delayed.close()

    def test_reply_after_timeout_is_ignored(self):
        network = Network(latency=0.1)
        node = Node("server", network).start()
        node.export("calc", Calculator())
        client = Client("client", network)
        try:
            with pytest.raises(RequestTimeout):
                client.call_node("server", "calc", "add", 1, 1,
                                 timeout=0.02)
            deadline = time.monotonic() + 2.0
            while network.stats()["delivered"] < 2 and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            # the late reply reached the sink and found no waiter
            stats = network.stats()
            assert stats["delivered"] == 2
            assert stats["dispatch_errors"] == 0
            assert client._pending == {}
            # and it cannot complete a later call's future
            assert client.call_node("server", "calc", "add", 2, 5,
                                    timeout=2.0) == 7
        finally:
            client.close()
            node.stop()
            network.close()

    def test_reply_delivered_after_close_is_dropped(self):
        network = Network(latency=0.3)
        network.register("server")
        client = Client("client", network)
        try:
            network.send(reply(request("client", "server", "calc", "add"), 3))
            client.close()  # the reply is still in flight
            deadline = time.monotonic() + 2.0
            while network.stats()["in_flight"] and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            stats = network.stats()
            assert stats["delivered"] == 0 and stats["dropped"] == 1
            assert stats["dispatch_errors"] == 0
        finally:
            network.close()


class TestRemoteProxy:
    def test_attribute_calls_dispatch_remotely(self, rig):
        network, names, node, client = rig
        stub = client.proxy("calculator")
        assert stub.add(4, 4) == 8

    def test_private_attributes_raise(self, rig):
        network, names, node, client = rig
        stub = client.proxy("calculator")
        with pytest.raises(AttributeError):
            stub._secret()


class TestModeratedServant:
    def test_remote_call_passes_through_moderation(self, rig):
        network, names, node, client = rig
        moderator = AspectModerator()
        seen = {}
        moderator.register_aspect("add", "auth", FunctionAspect(
            concern="auth",
            precondition=lambda jp: (
                seen.update(caller=jp.caller) or
                (True if jp.caller == "alice" else ABORT)
            ),
        ))
        proxy = ComponentProxy(Calculator(), moderator)
        node.export("guarded", proxy)
        names.bind("guarded-calc", "server", "guarded")

        assert client.call_name(
            "guarded-calc", "add", 1, 2, caller="alice"
        ) == 3
        assert seen["caller"] == "alice"

        with pytest.raises(MethodAborted):
            client.call_name("guarded-calc", "add", 1, 2, caller="mallory")

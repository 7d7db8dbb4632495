"""Unit tests for the node's wire-result coercion, caller forwarding,
and the unarmed wire contract (``docs/resilience.md`` § Overhead)."""

import pytest

from repro.core import AspectModerator, ComponentProxy, ContinuationRuntime
from repro.dist import (
    Client,
    MemoryStore,
    NameService,
    Network,
    Node,
    RecoveryPlan,
)
from repro.obs import propagation


class Shapes:
    """Servant returning progressively less wire-friendly results."""

    def scalar(self):
        return 42

    def containers(self):
        return {"items": [1, 2, 3], "nested": {"ok": True}}

    def rich_object(self):
        class Ticket:
            def __init__(self):
                self.ticket_id = 7
                self.summary = "vpn"
                self.handler = lambda: None  # not wire-safe

        return Ticket()

    def opaque(self):
        return object()


class CallerEcho:
    def with_caller(self, caller=None):
        return f"caller={caller}"

    def kwargs_sink(self, **kwargs):
        return sorted(kwargs)

    def no_caller(self, value):
        return value


@pytest.fixture
def rig():
    network = Network()
    names = NameService()
    node = Node("server", network).start()
    node.export("shapes", Shapes())
    node.export("echo", CallerEcho())
    names.bind("shapes", "server", "shapes")
    names.bind("echo", "server", "echo")
    client = Client("client", network, names, default_timeout=2.0)
    yield node, client
    client.close()
    node.stop()
    network.close()


class TestWireResultCoercion:
    def test_scalars_pass_through(self, rig):
        _node, client = rig
        assert client.call_name("shapes", "scalar") == 42

    def test_containers_pass_through(self, rig):
        _node, client = rig
        result = client.call_name("shapes", "containers")
        assert result == {"items": [1, 2, 3], "nested": {"ok": True}}

    def test_rich_objects_flattened_with_type_tag(self, rig):
        _node, client = rig
        result = client.call_name("shapes", "rich_object")
        assert result["__type__"] == "Ticket"
        assert result["ticket_id"] == 7
        assert result["summary"] == "vpn"
        assert "handler" not in result  # unsafe attr dropped

    def test_opaque_objects_become_repr(self, rig):
        _node, client = rig
        result = client.call_name("shapes", "opaque")
        assert isinstance(result, str)
        assert "object" in result


class TestCallerForwarding:
    def test_caller_param_receives_principal(self, rig):
        _node, client = rig
        assert client.call_name(
            "echo", "with_caller", caller="alice"
        ) == "caller=alice"

    def test_var_kwargs_servant_receives_caller(self, rig):
        _node, client = rig
        assert client.call_name(
            "echo", "kwargs_sink", caller="alice"
        ) == ["caller"]

    def test_servant_without_caller_param_unchanged(self, rig):
        _node, client = rig
        assert client.call_name(
            "echo", "no_caller", "payload", caller="alice"
        ) == "payload"

    def test_no_caller_no_injection(self, rig):
        _node, client = rig
        assert client.call_name("echo", "with_caller") == "caller=None"


class Calculator:
    def add(self, a, b):
        return a + b


class Faulty:
    def explode(self):
        raise ValueError("boom")


class Store:
    def __init__(self, data=None):
        self.data = dict(data or {})

    def put(self, key, value):
        self.data[key] = value
        return value


#: the fields of a request that arms nothing
PLAIN_FIELDS = {"service", "method", "args", "kwargs", "caller"}


@pytest.fixture
def sent(rig, monkeypatch):
    """Payloads of every request the network carries, in order."""
    _node, client = rig
    network = client.network
    payloads = []
    send = network.send

    def spy(message):
        if message.kind == "request":
            payloads.append(dict(message.payload))
        send(message)

    monkeypatch.setattr(network, "send", spy)
    return payloads


class TestUnarmedWire:
    def test_call_node_request_carries_only_the_call(self, rig, sent):
        _node, client = rig
        assert client.call_node("server", "echo", "no_caller", 1) == 1
        assert set(sent[0]) == PLAIN_FIELDS

    def test_call_name_request_carries_no_fence(self, rig, sent):
        _node, client = rig
        assert client.call_name("echo", "no_caller", 1) == 1
        assert set(sent[0]) == PLAIN_FIELDS

    def test_trace_rides_under_an_active_context(self, rig, sent):
        _node, client = rig
        with propagation.start_trace():
            client.call_node("server", "echo", "no_caller", 1)
            client.call_name("echo", "no_caller", 2)
        assert [set(payload) for payload in sent] == \
            [PLAIN_FIELDS | {"trace"}] * 2


def _plain(node):
    return "echo", "no_caller", ("x",), {}


def _accepts_caller(node):
    return "echo", "with_caller", (), {"caller": "alice"}


def _proxy(node):
    node.export("calc", ComponentProxy(Calculator(), AspectModerator()))
    return "calc", "add", (1, 2), {}


def _raising(node):
    node.export("faulty", Faulty())
    return "faulty", "explode", (), {}


def _unknown(node):
    return "ghost", "add", (1, 2), {}


def _moving(node):
    node.export("mover", Calculator())
    node.withdraw("mover", moving=True)
    return "mover", "add", (1, 2), {}


def _journaled(node):
    store = MemoryStore()
    node.attach_recovery("kv", RecoveryPlan(
        store, lambda servant: {"data": dict(servant.data)},
        lambda state: Store(state.get("data")), mutating=["put"],
    ))
    node.export("kv", Store())
    return "kv", "put", ("k", "v"), {}


def _journaled_proxy(node):
    node.attach_recovery("kvp", RecoveryPlan(
        MemoryStore(), lambda proxy: {"data": dict(proxy.data)},
        lambda state: ComponentProxy(Store(state.get("data")),
                                     AspectModerator()),
        mutating=["put"],
    ))
    node.export("kvp", ComponentProxy(Store(), AspectModerator()))
    return "kvp", "put", ("k", "v"), {}


def _journaled_reactor(node):
    moderator = AspectModerator()
    node.attach_recovery("kvr", RecoveryPlan(
        MemoryStore(), lambda proxy: {"data": dict(proxy.data)},
        lambda state: ComponentProxy(Store(state.get("data")),
                                     AspectModerator()),
        mutating=["put"],
    ))
    node.export("kvr", ComponentProxy(Store(), moderator),
                runtime=ContinuationRuntime(moderator, workers=1))
    return "kvr", "put", ("k", "v"), {}


SERVICES = [_plain, _accepts_caller, _proxy, _raising, _unknown, _moving,
            _journaled, _journaled_proxy, _journaled_reactor]


def _outcome(call):
    try:
        return "reply", call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return "error", type(exc).__name__, getattr(exc, "error_type", None)


@pytest.mark.parametrize("setup", SERVICES,
                         ids=[setup.__name__.strip("_") for setup in SERVICES])
def test_unarmed_and_deadline_calls_agree(rig, setup):
    """Arming a deadline changes neither the answer nor the counters."""
    node, client = rig
    service, method, args, kwargs = setup(node)
    journal = node._journals.get(service)
    observed = []
    for arming in ({}, {"deadline": 60}):
        before = (node.requests_served, node.requests_failed,
                  journal.store.last_seq(service) if journal else 0)
        outcome = _outcome(lambda: client.call_node(
            "server", service, method, *args, **kwargs, **arming))
        after = (node.requests_served, node.requests_failed,
                 journal.store.last_seq(service) if journal else 0)
        observed.append((outcome,
                         tuple(b - a for a, b in zip(before, after))))
    assert observed[0] == observed[1]


class Box:
    def __init__(self):
        self.items = []

    def add(self, item):
        self.items.append(item)
        return self.items  # the servant's live list


def test_a_replayed_reply_is_the_reply_as_sent():
    network = Network()
    names = NameService()
    node = Node("server", network).start()
    box = Box()
    node.export("box", box)
    names.bind("box", "server", "box")
    client = Client("client", network, names, default_timeout=2.0)
    try:
        assert client.call_name("box", "add", 1, idempotency_key="k") == [1]
        box.items.append(99)  # the servant moves on after replying
        assert client.call_name("box", "add", 1,
                                idempotency_key="k") == [1]
        assert box.items == [1, 99]  # replayed, not re-executed
    finally:
        client.close()
        node.stop()
        network.close()

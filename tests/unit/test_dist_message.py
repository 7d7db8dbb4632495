"""Unit tests for messages and the wire-safety contract."""

import enum
from collections import OrderedDict

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.dist import MemoryStore
from repro.dist.message import (
    Message,
    WireFormatError,
    check_wire_safe,
    decode,
    encode,
    error_reply,
    reply,
    request,
)
from repro.dist.network import Network
from tests.oracle import legacy_check_wire_safe


class TestWireSafety:
    def test_scalars_are_safe(self):
        for value in (None, True, 1, 2.5, "s", b"b"):
            assert check_wire_safe(value)

    def test_containers_of_safe_values(self):
        assert check_wire_safe([1, 2, (3, "x")])
        assert check_wire_safe({"k": [1, {"nested": None}]})

    def test_objects_rejected(self):
        assert not check_wire_safe(object())
        assert not check_wire_safe({"k": object()})

    def test_non_string_dict_keys_rejected(self):
        assert not check_wire_safe({1: "x"})

    def test_depth_bound(self):
        value = "leaf"
        for _ in range(20):
            value = [value]
        assert not check_wire_safe(value)


class TestMessage:
    def test_unsafe_payload_rejected_at_construction(self):
        with pytest.raises(WireFormatError):
            Message(source="a", dest="b", kind="event",
                    payload={"obj": object()})

    def test_ids_unique(self):
        a = Message(source="a", dest="b", kind="event")
        b = Message(source="a", dest="b", kind="event")
        assert a.msg_id != b.msg_id

    def test_copy_for_delivery_is_deep(self):
        original = Message(source="a", dest="b", kind="event",
                           payload={"items": [1, 2]})
        delivered = original.copy_for_delivery()
        assert delivered.payload == original.payload
        assert delivered.payload is not original.payload
        assert delivered.payload["items"] is not original.payload["items"]
        assert delivered.msg_id == original.msg_id


class TestBuilders:
    def test_request_shape(self):
        message = request("client", "server", "tickets", "open",
                          args=("x",), kwargs={"severity": 2},
                          caller="alice")
        assert message.kind == "request"
        assert message.payload["service"] == "tickets"
        assert message.payload["method"] == "open"
        assert message.payload["args"] == ["x"]
        assert message.payload["kwargs"] == {"severity": 2}
        assert message.payload["caller"] == "alice"

    def test_reply_routes_back(self):
        req = request("client", "server", "s", "m")
        rep = reply(req, 42)
        assert rep.source == "server"
        assert rep.dest == "client"
        assert rep.reply_to == req.msg_id
        assert rep.payload["result"] == 42

    def test_error_reply_carries_type_and_text(self):
        req = request("client", "server", "s", "m")
        rep = error_reply(req, ValueError("broken"))
        assert rep.kind == "error"
        assert rep.payload["error_type"] == "ValueError"
        assert "broken" in rep.payload["error"]


class TestSendTimeSnapshot:
    """The receiver sees the payload as it was when the message was built."""

    def test_copy_for_delivery_ignores_later_mutation(self):
        items = [1, 2]
        original = Message(source="a", dest="b", kind="event",
                           payload={"items": items})
        items.append(3)
        original.payload["late"] = True
        delivered = original.copy_for_delivery()
        assert delivered.payload == {"items": [1, 2]}
        assert delivered.msg_id == original.msg_id
        assert delivered.sent_at == original.sent_at

    def test_delayed_delivery_carries_the_send_time_payload(self):
        network = Network(latency=0.2)
        try:
            inbox = network.register("b")
            network.register("a")
            items = [1, 2]
            network.send(Message(source="a", dest="b", kind="event",
                                 payload={"items": items}))
            items.append(3)  # while the message is in flight
            delivered = inbox.get(2.0)
            assert delivered.payload == {"items": [1, 2]}
        finally:
            network.close()


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


#: values marshal would take, or coerce to a base type, that the wire refuses
REJECTED = {
    "set": {1, 2},
    "frozenset": frozenset({1}),
    "complex": 1 + 2j,
    "bytearray": bytearray(b"x"),
    "int key": {1: "x"},
    "IntEnum": Level.LOW,
    "OrderedDict": OrderedDict(a=1),
    "str subclass": Tag("t"),
}


class TestCodecStrictness:
    @pytest.mark.parametrize("value", list(REJECTED.values()),
                             ids=list(REJECTED))
    def test_refused_at_send_and_at_the_store(self, value):
        assert not check_wire_safe({"v": value})
        with pytest.raises(WireFormatError):
            encode({"v": value})
        with pytest.raises(WireFormatError):
            Message(source="a", dest="b", kind="event",
                    payload={"v": value})
        store = MemoryStore()
        with pytest.raises(WireFormatError):
            store.append("kv", {"method": "put", "v": value})
        with pytest.raises(WireFormatError):
            store.save_checkpoint("kv", {"state": {"v": value}})
        assert store.entries("kv") == []
        assert store.load_checkpoint("kv") is None

    def test_a_tuple_arrives_as_a_tuple(self):
        delivered = Message(source="a", dest="b", kind="event",
                            payload={"pair": (1, ("x", b"y"))},
                            ).copy_for_delivery()
        assert delivered.payload["pair"] == (1, ("x", b"y"))
        assert type(delivered.payload["pair"]) is tuple
        assert type(delivered.payload["pair"][1]) is tuple

    def test_shared_sub_objects_decode_equal(self):
        shared = {"k": [1, 2]}
        value = decode(encode({"a": shared, "b": shared, "c": [shared]}))
        assert value["a"] == value["b"] == value["c"][0] == shared

    def test_depth_bound_is_unchanged(self):
        deepest, too_deep = nested(16), nested(17)
        assert check_wire_safe(deepest)
        assert decode(encode(deepest)) == deepest
        assert not check_wire_safe(too_deep)
        with pytest.raises(WireFormatError):
            encode(too_deep)
        # an empty container may sit at depth 16; a dict's value may not
        for value, safe in ((nested(16, []), True), (nested(16, {}), True),
                            (nested(15, {"k": 1}), True),
                            (nested(16, {"k": 1}), False)):
            assert check_wire_safe(value) is safe
            assert legacy_check_wire_safe(value) is safe


def nested(depth, leaf="leaf"):
    """``leaf`` wrapped in ``depth`` lists: it sits at ``depth``."""
    for _ in range(depth):
        leaf = [leaf]
    return leaf


EXACT_LEAVES = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=6)
                | st.binary(max_size=6))


def exact_values(leaves, keys=st.text(max_size=4)):
    return st.recursive(
        leaves,
        lambda children: (st.lists(children, max_size=3)
                          | st.lists(children, max_size=3).map(tuple)
                          | st.dictionaries(keys, children, max_size=3)),
        max_leaves=12,
    )


#: exact-type values, some of which the wire refuses: foreign leaves,
#: non-``str`` keys, and nesting around the depth bound
ANY_VALUES = st.one_of(
    exact_values(EXACT_LEAVES | st.sampled_from(
        [{1}, frozenset(), 1j, bytearray(b"b"), object()]),
        keys=st.text(max_size=4) | st.integers(0, 3)),
    st.builds(nested, st.integers(0, 20)),
)


def same_types(left, right):
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            same_types(left[key], right[key]) for key in left)
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            same_types(a, b) for a, b in zip(left, right))
    return True


@given(value=exact_values(EXACT_LEAVES))
@settings(max_examples=200, deadline=None)
def test_exact_values_round_trip_with_their_types(value):
    assume(check_wire_safe(value))  # a rare draw nests past the bound
    decoded = decode(encode(value))
    assert decoded == value
    assert same_types(decoded, value)


@given(value=ANY_VALUES)
@settings(max_examples=300, deadline=None)
def test_check_agrees_with_the_legacy_predicate(value):
    assert check_wire_safe(value) == legacy_check_wire_safe(value)

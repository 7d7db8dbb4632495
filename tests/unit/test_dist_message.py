"""Unit tests for messages and the wire-safety contract."""

import enum
import time
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
from repro.dist.resilience import Deadline
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


ENVELOPE = ("source", "dest", "kind", "msg_id", "reply_to", "sent_at")


class TestMessageContract:
    """The slotted ``Message`` keeps the frozen dataclass's contract,
    except that a field may be assigned."""

    def test_keyword_defaults(self):
        before = time.monotonic()
        first = Message(source="a", dest="b", kind="event")
        second = Message(source="a", dest="b", kind="event")
        assert first.payload == {} and first.payload is not second.payload
        assert second.msg_id > first.msg_id
        assert before <= first.sent_at <= second.sent_at <= time.monotonic()
        assert first.reply_to is None

    def test_explicit_fields_are_kept(self):
        message = Message(source="a", dest="b", kind="reply",
                          payload={"result": 1}, msg_id=7, reply_to=3,
                          sent_at=1.5)
        assert [getattr(message, name) for name in ENVELOPE] == \
            ["a", "b", "reply", 7, 3, 1.5]
        assert message.payload == {"result": 1}

    def test_wire_is_fixed_at_construction(self):
        built = request("client", "server", "s", "m", args=([1, 2],),
                        kwargs={"tags": ["x"]})
        built.payload["args"][0].append(3)
        built.payload["kwargs"]["tags"].append("y")
        delivered = built.copy_for_delivery()
        assert delivered.payload["args"] == [[1, 2]]
        assert delivered.payload["kwargs"] == {"tags": ["x"]}

    def test_the_copy_keeps_the_envelope(self):
        original = reply(request("client", "server", "s", "m"), [1])
        delivered = original.copy_for_delivery()
        for name in ENVELOPE:
            assert getattr(delivered, name) == getattr(original, name)
        assert delivered.wire == original.wire

    def test_fields_may_be_assigned_but_the_wire_is_as_built(self):
        message = Message(source="a", dest="b", kind="event",
                          payload={"v": 1})
        message.payload = {"v": 2}
        message.dest = "c"
        delivered = message.copy_for_delivery()
        assert delivered.payload == {"v": 1}
        assert delivered.dest == "c"

    def test_no_other_attributes(self):
        message = Message(source="a", dest="b", kind="event")
        assert not hasattr(message, "__dict__")
        with pytest.raises(AttributeError):
            message.extra = 1


class TestDeadlineContract:
    def test_after_and_remaining(self):
        deadline = Deadline.after(5.0, clock=lambda: 100.0)
        assert deadline.expires_at == 105.0
        assert deadline.remaining(clock=lambda: 103.0) == 2.0
        assert Deadline(expires_at=1.0).expires_at == 1.0

    def test_coerce(self):
        deadline = Deadline.after(1.0)
        assert Deadline.coerce(deadline) is deadline
        assert Deadline.coerce(None) is None
        before = time.monotonic()
        coerced = Deadline.coerce(2)
        assert before + 2 <= coerced.expires_at <= time.monotonic() + 2

    def test_from_wire(self):
        assert Deadline.from_wire(None) is None
        assert Deadline.from_wire(2.0, anchor=10.0).expires_at == 12.0
        assert Deadline.from_wire("2.5", anchor=10).expires_at == 12.5
        before = time.monotonic()
        rebuilt = Deadline.from_wire(3.0)
        assert before + 3 <= rebuilt.expires_at <= time.monotonic() + 3

    def test_expired_to_wire_and_cap(self):
        past, future = Deadline.after(-1.0), Deadline.after(60.0)
        assert past.expired and not future.expired
        assert past.to_wire() == 0.0
        assert 59.0 < future.to_wire() <= 60.0
        assert future.cap(5.0) == 5.0
        assert 59.0 < future.cap(None) <= 60.0
        assert past.cap(5.0) < 0


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


def recursive_check_wire_safe(value, depth=0):
    """``check_wire_safe`` as it was before it judged empty containers
    in its loop (one call per container item): the reference below."""
    kind = type(value)
    if depth > 16 or kind in LEAVES:
        return depth <= 16
    if kind is not dict and kind is not list and kind is not tuple:
        return False
    depth += 1
    if value and depth > 16:
        return False
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str or (type(item) not in LEAVES
                                        and not recursive_check_wire_safe(
                                            item, depth)):
                return False
    else:
        for item in value:
            if type(item) not in LEAVES \
                    and not recursive_check_wire_safe(item, depth):
                return False
    return True


LEAVES = frozenset((type(None), bool, int, float, str, bytes))
EMPTIES = st.sampled_from([[], {}, (), [[]], {"k": ()}, ([], {}), "leaf"])


@given(value=st.one_of(
           ANY_VALUES,
           exact_values(EXACT_LEAVES | EMPTIES),
           st.builds(nested, st.integers(12, 20), EMPTIES),
           st.builds(nested, st.integers(12, 20),
                     exact_values(EXACT_LEAVES | EMPTIES))),
       depth=st.integers(0, 18))
@settings(max_examples=400, deadline=None)
def test_check_agrees_with_the_recursive_reference(value, depth):
    assert check_wire_safe(value, depth) == \
        recursive_check_wire_safe(value, depth)


def test_empty_containers_at_and_past_the_depth_bound():
    for depth in (15, 16, 17):
        for leaf in ([], {}, (), [[]], {"k": []}):
            for start in (0, 1, 2):
                value = nested(depth - start, leaf)
                assert check_wire_safe(value, start) is \
                    recursive_check_wire_safe(value, start)
    assert check_wire_safe(nested(16, []))
    assert not check_wire_safe(nested(17, []))
    assert not check_wire_safe(nested(16, [[]]))

"""A structural guard on the RPC request path.

Untraced reads and keyed writes on a two-shard journaled KV must run no
generator-based context manager (``contextlib``), no dataclass-built
``__init__``/``__post_init__`` for ``Message`` or ``Deadline`` and no
``threading.Event`` construction. The guard counts what runs, not how
many frames, so it holds on every Python version.
"""

import dataclasses
import sys
import threading

import pytest

from repro.aspects.synchronization import ReadersWriterAspect
from repro.core import AspectModerator, ComponentProxy
from repro.dist import (
    Client,
    MemoryStore,
    NameService,
    Network,
    Node,
    RecoveryPlan,
    message,
    node as node_module,
    resilience,
)
from repro.dist.message import Message
from repro.dist.resilience import Deadline

SHARDS = ("s0", "s1")
KEYS = [f"k{index:02d}" for index in range(50)]


class KV:
    def __init__(self, data=None):
        self.data = dict(data or {})

    def get(self, key):
        return self.data.get(key)

    def put(self, key, value):
        self.data[key] = value
        return value


@pytest.fixture
def router(monkeypatch):
    # A generous inline bound: a serve slowed by a loaded host must not
    # send the next call to a worker, whose reply the caller would then
    # wait for on an event.
    monkeypatch.setattr(node_module, "_INLINE_MAX_S", 1.0)
    network = Network()
    names = NameService()
    store = MemoryStore()
    names.bind_sharded("kv", SHARDS, vnodes=16)
    nodes = []
    for index, shard in enumerate(SHARDS):
        service = f"kv#{shard}"
        node = Node(f"n{index}", network).start()
        moderator = AspectModerator()
        rw = ReadersWriterAspect(readers={"get"}, writers={"put"})
        moderator.register_aspect("get", "rw", rw)
        moderator.register_aspect("put", "rw", rw)
        node.attach_recovery(service, RecoveryPlan(
            store, lambda proxy: {"data": dict(proxy.data)},
            lambda state: KV(state.get("data")), mutating=["put"],
        ))
        node.export(service, ComponentProxy(KV(), moderator))
        names.bind(service, node.node_id, service)
        nodes.append(node)
    client = Client("client", network, names, default_timeout=30.0)
    yield client.shard_router("kv")
    client.close()
    for node in nodes:
        assert node.stop() == []
    network.close()


def test_served_requests_run_no_context_managers_dataclasses_or_events(
        router):
    # A method's first serve on a node takes a worker: warm every one.
    for key in KEYS:
        router.call("put", key, 0, idempotency_key=f"warm-{key}")
        router.call("get", key)
    own_inits = {message.__file__, resilience.__file__}
    event_init = threading.Event.__init__.__code__
    seen = []

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.endswith("contextlib.py") or code is event_init:
            seen.append((code.co_filename, code.co_name))
        elif code.co_name in ("__init__", "__post_init__") \
                and isinstance(frame.f_locals.get("self"),
                               (Message, Deadline)) \
                and code.co_filename not in own_inits:
            seen.append((code.co_filename, code.co_name))

    results = []
    sys.setprofile(profile)
    try:
        for index, key in enumerate(KEYS):
            results.append(router.call("get", key, deadline=5.0))
            results.append(router.call("put", key, index, deadline=5.0,
                                       idempotency_key=f"put-{key}"))
    finally:
        sys.setprofile(None)
    assert results == [value for index in range(len(KEYS))
                       for value in (0, index)]
    assert seen == []
    assert not dataclasses.is_dataclass(Message)
    assert not dataclasses.is_dataclass(Deadline)

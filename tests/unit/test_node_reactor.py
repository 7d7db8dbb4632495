"""Reactor serving: a node hands moderated calls to a continuation runtime.

A BLOCKed remote call parks as a heap continuation and the node's serve
thread goes back to its inbox, so one serve thread can take the call
that wakes it. The reply is sent from the future's completion callback
(``Node._finish_reactor``), and a keyed call is cached for replay
exactly as on the threaded path.
"""

import threading
import time
from collections import deque

import pytest

from repro.aspects.synchronization import BoundedBufferSync
from repro.core import AspectModerator, ComponentProxy, ContinuationRuntime
from repro.dist import Client, NameService, Network, Node


class Buffer:
    """A sequential buffer; ``BoundedBufferSync`` adds the blocking."""

    capacity = 2

    def __init__(self):
        self.items = deque()

    def open(self, item):
        self.items.append(item)
        return len(self.items)

    def assign(self):
        return self.items.popleft()


@pytest.fixture
def rig():
    network = Network()
    names = NameService()
    node = Node("server", network, workers=1).start()
    moderator = AspectModerator()
    buffer = Buffer()
    sync = BoundedBufferSync(buffer)
    moderator.register_aspect("open", "sync", sync)
    moderator.register_aspect("assign", "sync", sync)
    runtime = ContinuationRuntime(moderator, workers=1)
    node.export("buffer", ComponentProxy(buffer, moderator), runtime=runtime)
    names.bind("buffer", "server", "buffer")
    consumer = Client("consumer", network, names, default_timeout=5.0)
    producer = Client("producer", network, names, default_timeout=5.0)
    yield node, runtime, consumer, producer
    consumer.close()
    producer.close()
    node.stop()
    runtime.close()
    network.close()


def test_parked_call_is_woken_by_a_call_on_the_same_worker(rig):
    node, runtime, consumer, producer = rig
    assigned = []
    waiter = threading.Thread(target=lambda: assigned.append(
        consumer.call_name("buffer", "assign", idempotency_key="assign-1")
    ))
    waiter.start()
    try:
        deadline = time.monotonic() + 2.0
        while runtime.parked_count != 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert runtime.parked_count == 1, "assign did not park"
        assert assigned == []
        # the node's one serve thread is free: it takes the open, whose
        # completion wakes the parked assign
        assert producer.call_name("buffer", "open", "ticket-1") == 1
    finally:
        waiter.join(timeout=5.0)
    assert not waiter.is_alive()
    assert assigned == ["ticket-1"]
    assert runtime.parked_count == 0
    assert node.requests_served == 2
    # the keyed retry replays the cached reply instead of re-executing
    assert consumer.call_name(
        "buffer", "assign", idempotency_key="assign-1") == "ticket-1"
    assert node.dedup_hits == 1
    assert node.requests_served == 2

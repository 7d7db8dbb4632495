"""Inline ≡ worker serving: caller threads on disjoint keys, two serve paths.

On ``Network()`` a client caller's due-now request is served on the
caller's own thread whenever the node has an idle slot and nothing
queued, and by a worker otherwise; ``Network(latency=1e-6)`` routes
every request through the dispatcher, so only workers serve. Several
caller threads run the same seeded 70/30 get/put mix on disjoint keys
over two journaled single-worker shards. Both paths must give every
thread the same replies, apply every put once, journal the same
records, checkpoint at the same sequence numbers and recover the same
state, and the ``Network()`` run must have used both serve paths.
"""

import random
import threading

import pytest

from repro.aspects import ReadersWriterAspect
from repro.core import AspectModerator, ComponentProxy
from repro.dist import (
    Client,
    MemoryStore,
    NameService,
    Network,
    Node,
    RecoveryPlan,
    recover_service,
)

pytestmark = pytest.mark.differential

SHARDS = ("s0", "s1")
THREADS = 3
OPS = 150
KEYS = 16
PUT_SHARE = 0.3


class KV:
    def __init__(self, data=None):
        self.data = dict(data or {})
        self.applies = {}
        self.served_by = set()

    def get(self, key):
        self.served_by.add(threading.current_thread().name.split("-")[0])
        return self.data.get(key)

    def put(self, key, value):
        self.served_by.add(threading.current_thread().name.split("-")[0])
        self.applies[key] = self.applies.get(key, 0) + 1
        self.data[key] = value
        return value


def run_mix(network, seed):
    names = NameService()
    store = MemoryStore()
    journaled = []
    append = store.append

    def recording_append(service, record, *args, **kwargs):
        journaled.append((service, record["method"], tuple(record["args"]),
                          record["key"]))
        return append(service, record, *args, **kwargs)

    store.append = recording_append
    names.bind_sharded("kv", SHARDS, vnodes=64)
    nodes, plans, servants = [], [], []
    for index, shard in enumerate(SHARDS):
        service = f"kv#{shard}"
        node = Node(f"node{index}", network, workers=1).start()
        moderator = AspectModerator()
        rw = ReadersWriterAspect(readers={"get"}, writers={"put"})
        moderator.register_aspect("get", "rw", rw)
        moderator.register_aspect("put", "rw", rw)
        plan = RecoveryPlan(store,
                            lambda servant: {"data": dict(servant.data)},
                            lambda state: KV(state.get("data")),
                            mutating=["put"], checkpoint_every=16)
        servant = KV()
        node.attach_recovery(service, plan)
        node.export(service, ComponentProxy(servant, moderator))
        names.bind(service, node.node_id, service)
        nodes.append(node)
        plans.append(plan)
        servants.append(servant)
    client = Client("client", network, names, default_timeout=5.0)
    router = client.shard_router("kv")
    replies = {}

    def caller(thread):
        rng = random.Random(seed * 1000 + thread)
        mine = replies[thread] = []
        for op in range(OPS):
            key = f"t{thread}k{rng.randrange(KEYS):02d}"
            if rng.random() < PUT_SHARE:
                mine.append(router.put(key, rng.getrandbits(31),
                                       deadline=5.0,
                                       idempotency_key=f"{thread}:{op}"))
            else:
                mine.append(router.get(key, deadline=5.0))

    threads = [threading.Thread(target=caller, args=(index,),
                                name=f"caller-{index}")
               for index in range(THREADS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        services = [f"kv#{shard}" for shard in SHARDS]
        checkpoints = [store.load_checkpoint(service)
                       for service in services]
        recovered = [recover_service(plan, service, bootstrap=KV).servant.data
                     for plan, service in zip(plans, services)]
        return {
            "replies": replies,
            "applies": [servant.applies for servant in servants],
            "data": [servant.data for servant in servants],
            "appended": [plan.appended for plan in plans],
            "journaled": sorted(journaled),
            "checkpoint_seqs": [checkpoint["seq"]
                                for checkpoint in checkpoints],
            "recovered": recovered,
            "dedup_hits": [node.dedup_hits for node in nodes],
            "failed": [node.requests_failed for node in nodes],
            "client": client.metrics(),
        }, set().union(*(servant.served_by for servant in servants))
    finally:
        client.close()
        for node in nodes:
            node.stop()
        network.close()


@pytest.mark.parametrize("seed", [5, 11])
def test_inline_and_worker_serving_agree(seed):
    inline, inline_paths = run_mix(Network(), seed)
    queued, queued_paths = run_mix(Network(latency=1e-6), seed)
    assert inline == queued
    # callers served some requests themselves, workers the rest
    assert "caller" in inline_paths
    assert inline_paths & {"node0", "node1"}
    assert queued_paths == {"node0", "node1"}
    assert inline["dedup_hits"] == [0, 0]
    assert inline["failed"] == [0, 0]
    # every put applied and journaled once
    applies = sum(sum(counts.values()) for counts in inline["applies"])
    assert applies == sum(inline["appended"]) == len(inline["journaled"])
    assert inline["recovered"] == inline["data"]
    assert all(inline["checkpoint_seqs"])

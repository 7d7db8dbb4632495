"""Direct ≡ dispatcher delivery: one seeded sharded KV mix, two paths.

``Network()`` hands a due-now message to its inbox on the sender's
thread; ``Network(latency=1e-6)`` routes every message through the
dispatcher thread. The same seeded mix — two journaled shards, keyed
puts, 70/30 get/put — must give the same reply to every call, the same
journal appends per shard and the same durable journal and checkpoint
per service, with no dedup hit on either path (no request was ever
delivered twice).
"""

import random

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
)

pytestmark = pytest.mark.differential

SHARDS = ("s0", "s1")
OPS = 600
KEYS = 64
PUT_SHARE = 0.3


class KV:
    def __init__(self, data=None):
        self.data = dict(data or {})

    def get(self, key):
        return self.data.get(key)

    def put(self, key, value):
        self.data[key] = value
        return value


def run_mix(network, seed):
    names = NameService()
    store = MemoryStore()
    names.bind_sharded("kv", SHARDS, vnodes=64)
    nodes, plans = [], []
    for index, shard in enumerate(SHARDS):
        service = f"kv#{shard}"
        node = Node(f"n{index}", network, workers=1).start()
        moderator = AspectModerator()
        rw = ReadersWriterAspect(readers={"get"}, writers={"put"})
        moderator.register_aspect("get", "rw", rw)
        moderator.register_aspect("put", "rw", rw)
        plan = RecoveryPlan(store, lambda servant: {"data": servant.data},
                            lambda state: KV(state.get("data")),
                            mutating=["put"], checkpoint_every=32)
        node.attach_recovery(service, plan)
        node.export(service, ComponentProxy(KV(), moderator))
        names.bind(service, node.node_id, service)
        nodes.append(node)
        plans.append(plan)
    client = Client("client", network, names, default_timeout=5.0)
    router = client.shard_router("kv")
    rng = random.Random(seed)
    replies, puts = [], 0
    try:
        for op in range(OPS):
            key = f"k{rng.randrange(KEYS):02d}"
            if rng.random() < PUT_SHARE:
                puts += 1
                replies.append(router.put(key, rng.getrandbits(31),
                                          deadline=5.0,
                                          idempotency_key=f"{seed}:{op}"))
            else:
                replies.append(router.get(key, deadline=5.0))
        services = [f"kv#{shard}" for shard in SHARDS]
        return {
            "replies": replies,
            "puts": puts,
            "appended": [plan.appended for plan in plans],
            "entries": [store.entries(service) for service in services],
            "checkpoints": [store.load_checkpoint(service)
                            for service in services],
            "dedup_hits": [node.dedup_hits for node in nodes],
            "failed": [node.requests_failed for node in nodes],
            "client": client.metrics(),
        }
    finally:
        client.close()
        for node in nodes:
            node.stop()
        network.close()


@pytest.mark.parametrize("seed", [3, 17])
def test_direct_and_dispatcher_delivery_agree(seed):
    direct = run_mix(Network(), seed)
    dispatched = run_mix(Network(latency=1e-6), seed)
    assert direct == dispatched
    assert direct["dedup_hits"] == [0, 0]
    assert direct["failed"] == [0, 0]
    assert sum(direct["appended"]) == direct["puts"]
    # the mix exercised both shards, puts, checkpoints and journal tails
    assert all(direct["appended"])
    assert all(direct["checkpoints"])

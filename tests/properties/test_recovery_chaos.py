"""Crash-restart chaos: exactly-once effects across crash × loss space.

The acceptance sweep for the recovery plane (``docs/recovery.md``). A
journaled key-value service under supervised failover is driven by a
retry-armed client while a deterministic :class:`FaultPlan` crashes the
serving node at a named point *inside* one request's serving sequence
(``serve`` / ``applied`` / ``journaled`` / ``replied``) and optionally
eats one message. Invariants, for every schedule:

* **exactly-once effects** — every acknowledged ``put`` was applied
  exactly once in the authoritative view (the live servant after
  failover *and* an independent audit recovery from the durable store);
* **no lost acknowledged effects** — every acknowledged key is present
  in the recovered durable view;
* **fenced zombies** — a node returning after it was declared dead gets
  its late durable writes rejected, applies nothing to the
  authoritative view, and steps aside.

Crash semantics under test (the four points):

========== =========================================================
point      what the crash loses
========== =========================================================
serve      nothing applied — a retry simply re-executes elsewhere
applied    the volatile effect only — never journaled, never acked,
           so the retry's re-execution is the *first* durable apply
journaled  the reply — the journal seeds the new home's dedup cache,
           so the retry replays the recorded reply, not the effect
replied    nothing — the effect is durable and the client acked
========== =========================================================
"""

import threading
import time

import pytest

from repro.aspects.retry import RetryPolicy
from repro.core.errors import FencedOut
from repro.dist import (
    Client,
    HeartbeatDetector,
    HeartbeatEmitter,
    MemoryStore,
    NameService,
    Network,
    Node,
    RecoveryPlan,
    Supervisor,
    recover_service,
)
from repro.dist.resilience import RPC_TRANSIENT
from repro.faults import FaultInjector, FaultPlan, FaultSpec, CRASH_POINTS

#: generous retry budget: the client must outlive detection + failover
POLICY = RetryPolicy(max_attempts=40, base_delay=0.02, multiplier=1.2,
                     max_delay=0.1, retry_on=RPC_TRANSIENT)

#: loss variants swept against every crash point: no loss, a lost
#: reply (client endpoint), a lost request to the primary, and a lost
#: request to the failover target
LOSS_ENDPOINTS = (None, "client", "n1", "n2")

SCHEDULES = [
    (point, loss)
    for point in CRASH_POINTS
    for loss in LOSS_ENDPOINTS
]


def _schedule_id(schedule):
    point, loss = schedule
    return f"crash@{point}-loss@{loss or 'none'}"


class CountingKV:
    """Counts applies per key — any count above 1 is a double-apply."""

    def __init__(self, data=None, counts=None):
        self._lock = threading.Lock()
        self.data = dict(data or {})
        self.counts = dict(counts or {})

    def put(self, key, value):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1
            self.data[key] = value
            return self.counts[key]

    def get(self, key):
        return self.data.get(key)

    def applied(self, key):
        return self.counts.get(key, 0)


def kv_capture(servant):
    return {"data": dict(servant.data), "counts": dict(servant.counts)}


def kv_rebuild(state):
    return CountingKV(data=state.get("data"), counts=state.get("counts"))


class FrozenNames:
    """A naming 'service' pinned to one stale binding — a zombie's map."""

    def __init__(self, binding):
        self.binding = binding

    def resolve(self, name):
        return self.binding


class SupervisedRig:
    """Two candidate nodes, heartbeats, a supervisor, a durable store."""

    def __init__(self):
        self.network = Network()
        self.names = NameService()
        self.n1 = Node("n1", self.network).start()
        self.n2 = Node("n2", self.network).start()
        self.store = MemoryStore()
        self.plan = RecoveryPlan(self.store, kv_capture, kv_rebuild,
                                 mutating=["put"])
        self.detector = HeartbeatDetector(
            self.network, "monitor",
            suspect_after=0.08, dead_after=0.2, confirm_dead=2,
        )
        self.emitters = [
            HeartbeatEmitter(self.network, node.node_id, "monitor",
                             interval=0.02).start()
            for node in (self.n1, self.n2)
        ]
        self.supervisor = Supervisor(self.names, self.detector)
        self.spec = self.supervisor.supervise(
            "kv", "kv", self.plan, [self.n1, self.n2],
            bootstrap=CountingKV, backoff=0.05,
        )
        # both candidates must be visibly alive before placement
        assert self.detector.wait_for_state("n1", "alive", timeout=5.0)
        assert self.detector.wait_for_state("n2", "alive", timeout=5.0)
        self.supervisor.place(self.spec, self.n1)
        self.supervisor.start(interval=0.02)
        self.client = Client("client", self.network, self.names,
                             default_timeout=2.0)

    def close(self):
        self.supervisor.stop()
        self.client.close()
        for emitter in self.emitters:
            emitter.stop()
        self.detector.close()
        self.n1.stop()
        self.n2.stop()
        self.network.close()

    def put(self, key, value):
        return self.client.call_name("kv", "put", key, value,
                                     timeout=0.1, retry_policy=POLICY)

    def audit_recovery(self):
        """Independent rebuild from the durable store alone."""
        return recover_service(self.plan, "kv", bootstrap=CountingKV)

    def assert_exactly_once(self, keys):
        """Both authoritative views applied every key exactly once."""
        audited = self.audit_recovery().servant
        for key in keys:
            live = self.client.call_name("kv", "applied", key,
                                         timeout=0.1, retry_policy=POLICY)
            assert live == 1, (
                f"live servant applied {key!r} {live} times"
            )
            durable = audited.counts.get(key, 0)
            assert durable == 1, (
                f"durable view applied {key!r} {durable} times"
            )


@pytest.mark.parametrize(
    "schedule", SCHEDULES, ids=[_schedule_id(s) for s in SCHEDULES])
def test_every_crash_point_and_loss_schedule_is_exactly_once(schedule):
    point, loss = schedule
    plan = FaultPlan([FaultSpec(phase="crash", method_id="n1",
                                concern=point, occurrence=2)])
    if loss is not None:
        plan = plan | FaultPlan([FaultSpec(
            phase="delivery", method_id=loss, concern="",
            occurrence=1, action="skip",
        )])
    rig = SupervisedRig()
    injector = FaultInjector(plan).install(rig.network, rig.n1)
    try:
        keys = ("k0", "k1", "k2")
        for index, key in enumerate(keys):
            result = rig.put(key, f"v-{index}")
            assert result == 1, (
                f"{key!r} observed a double-apply under "
                f"{_schedule_id(schedule)}"
            )
        # the crash actually struck (loss may or may not have: a lost
        # n2 delivery only fires once traffic reaches n2)
        assert any(spec.phase == "crash" for spec in injector.fired), (
            f"schedule {_schedule_id(schedule)} never crashed n1"
        )
        # every acknowledged effect: exactly once, in both views
        rig.assert_exactly_once(keys)
        # the service failed over off the crashed node
        assert rig.names.resolve("kv").node_id == "n2"
        assert rig.supervisor.metrics()["failovers"] >= 1
    finally:
        FaultInjector.uninstall(rig.network, rig.n1)
        rig.close()


def test_zombie_return_after_failover_is_fenced_out():
    """A paused (not amnesiac) node returns after its replacement won.

    The zombie still holds the servant, the plan, and its stale epoch.
    A stale-bound client writing to it directly gets the effect applied
    to doomed volatile state — but the durable append is rejected by
    the store fence, the caller sees a retryable ``FencedOut``, the
    zombie withdraws, and the authoritative view never sees the write
    until a correctly-bound retry lands it exactly once.
    """
    rig = SupervisedRig()
    try:
        assert rig.put("k-before", "v") == 1
        stale_binding = rig.names.resolve("kv")
        assert stale_binding.node_id == "n1"

        # pause, don't kill: memory (and the stale epoch) survive
        rig.n1.crash(lose_memory=False)
        deadline = time.monotonic() + 5.0
        while rig.names.resolve("kv").node_id != "n2":
            assert time.monotonic() < deadline, "failover never happened"
            time.sleep(0.01)
        fresh_epoch = rig.names.resolve("kv").epoch
        assert fresh_epoch > stale_binding.epoch

        assert rig.put("k-during", "v") == 1  # lands on n2

        # the zombie comes back, servant and stale epoch intact
        rig.n1.recover()
        assert "kv" in rig.n1.services()
        journal_before = len(rig.store.entries("kv"))

        stale_client = Client("stale", rig.network,
                              FrozenNames(stale_binding),
                              default_timeout=2.0)
        try:
            with pytest.raises(FencedOut):
                stale_client.call_name("kv", "put", "k-zombie", "v",
                                       timeout=0.5,
                                       idempotency_key="stale:1")
        finally:
            stale_client.close()

        # the rejected write reached no durable or authoritative state
        assert len(rig.store.entries("kv")) == journal_before
        audited = rig.audit_recovery().servant
        assert audited.counts.get("k-zombie", 0) == 0
        # the zombie stepped aside entirely
        assert "kv" not in rig.n1.services()
        # a correctly-bound retry of the same logical write: exactly once
        assert rig.put("k-zombie", "v") == 1
        rig.assert_exactly_once(["k-before", "k-during", "k-zombie"])
        assert rig.names.resolve("kv").node_id == "n2"
    finally:
        rig.close()


def test_zombie_cannot_checkpoint_over_the_replacement():
    """The store-side fence also rejects a zombie's late checkpoint."""
    rig = SupervisedRig()
    try:
        assert rig.put("k", "v") == 1
        rig.n1.crash(lose_memory=False)
        deadline = time.monotonic() + 5.0
        while rig.names.resolve("kv").node_id != "n2":
            assert time.monotonic() < deadline, "failover never happened"
            time.sleep(0.01)
        assert rig.put("k2", "v2") == 1
        rig.n1.recover()
        with pytest.raises(FencedOut):
            rig.n1.checkpoint("kv")
        # the replacement's durable view is untouched
        audited = rig.audit_recovery().servant
        assert audited.data == {"k": "v", "k2": "v2"}
    finally:
        rig.close()


def test_crash_during_rebalance_aborts_cleanly_then_recovers():
    """A source crash inside the move window aborts the move atomically.

    The rebalancer's quiesce hook fires right before the withdraw; a
    memory-losing crash there leaves the migrator nothing to withdraw,
    so the move fails with ``MigrationError`` — binding untouched, no
    half-moved shard on the target. The recovery plane then restores
    the service on a third node from the durable store, and racing
    armed clients end exactly-once.
    """
    from repro.dist import MigrationError, Rebalancer

    network = Network()
    names = NameService()
    n1 = Node("n1", network).start()
    n2 = Node("n2", network).start()
    n3 = Node("n3", network).start()
    store = MemoryStore()
    plan = RecoveryPlan(store, kv_capture, kv_rebuild, mutating=["put"])
    client = Client("client", network, names, default_timeout=2.0)
    try:
        names.bind_sharded("kv", ["s0"], vnodes=8)
        shard_name = names.resolve_sharded("kv").shard_name("s0")
        binding = names.rebind(shard_name, "n1", shard_name)
        n1.attach_recovery(shard_name, plan)
        n1.export(shard_name, CountingKV(), epoch=binding.epoch)
        store.fence(shard_name, binding.epoch)
        assert client.call_name(shard_name, "put", "k", "v",
                                idempotency_key="c:1") == 1
        n1.checkpoint(shard_name)

        rebalancer = Rebalancer(names)
        with pytest.raises(MigrationError):
            rebalancer.rebalance(
                "kv", "s0", n1, n2, kv_capture, kv_rebuild,
                quiesce=lambda: n1.crash(lose_memory=True),
            )
        # atomic abort: binding unchanged, nothing half-moved to n2
        assert names.resolve(shard_name).node_id == "n1"
        assert shard_name not in n2.services()

        # recovery-plane restoration on a third node, with racing
        # armed clients landing exactly once through the window
        results = {}

        def racer(key):
            results[key] = client.call_name(
                shard_name, "put", key, f"v-{key}",
                timeout=0.1, retry_policy=POLICY,
            )

        racers = [threading.Thread(target=racer, args=(f"r{i}",))
                  for i in range(3)]
        for thread in racers:
            thread.start()
        n3.expect(shard_name)
        fresh = names.rebind(shard_name, "n3", shard_name)
        store.fence(shard_name, fresh.epoch)
        recovered = recover_service(plan, shard_name)
        n3.dedup.seed(recovered.dedup_seed)
        n3.attach_recovery(shard_name, plan)
        n3.export(shard_name, recovered.servant, epoch=fresh.epoch)
        for thread in racers:
            thread.join(timeout=10.0)
        assert not any(t.is_alive() for t in racers), "stranded racer"

        assert recovered.servant.counts.get("k") == 1  # survived crash
        assert results == {"r0": 1, "r1": 1, "r2": 1}
        for key in ("k", "r0", "r1", "r2"):
            live = client.call_name(shard_name, "applied", key,
                                    retry_policy=POLICY, timeout=0.1)
            assert live == 1, f"{key!r} applied {live} times"
        # and the durable view agrees
        audited = recover_service(plan, shard_name,
                                  bootstrap=CountingKV).servant
        for key in ("k", "r0", "r1", "r2"):
            assert audited.counts.get(key) == 1
    finally:
        client.close()
        n1.stop()
        n2.stop()
        n3.stop()
        network.close()


def test_rebalanced_journaled_shard_is_exactly_once_after_failover():
    """A rebalance carries the journal with the shard.

    A supervised, journaled shard moves to a new home; puts
    acknowledged there must hit the durable journal exactly as at the
    old home, so crashing the new home and failing over loses none of
    them and applies none twice.
    """
    from repro.dist import Rebalancer

    network = Network()
    names = NameService()
    nodes = [Node(tag, network).start() for tag in ("n1", "n2", "n3")]
    n1, n2, _ = nodes
    store = MemoryStore()
    plan = RecoveryPlan(store, kv_capture, kv_rebuild, mutating=["put"])
    detector = HeartbeatDetector(
        network, "monitor",
        suspect_after=0.08, dead_after=0.2, confirm_dead=2,
    )
    emitters = [
        HeartbeatEmitter(network, node.node_id, "monitor",
                         interval=0.02).start()
        for node in nodes
    ]
    supervisor = Supervisor(names, detector)
    client = Client("client", network, names, default_timeout=2.0)
    try:
        names.bind_sharded("kv", ["s0"], vnodes=8)
        shard_name = names.resolve_sharded("kv").shard_name("s0")
        spec = supervisor.supervise(
            shard_name, shard_name, plan, nodes,
            bootstrap=CountingKV, backoff=0.05,
        )
        for node in nodes:
            assert detector.wait_for_state(node.node_id, "alive",
                                           timeout=5.0)
        supervisor.place(spec, n1)
        supervisor.start(interval=0.02)
        router = client.shard_router("kv")

        def put(key):
            return router.put(key, f"v-{key}", timeout=0.1,
                              retry_policy=POLICY)

        assert put("before") == 1
        Rebalancer(names).rebalance("kv", "s0", n1, n2,
                                    kv_capture, kv_rebuild)
        keys = ("before", "after0", "after1")
        for key in keys[1:]:
            assert put(key) == 1

        n2.crash(lose_memory=True)
        deadline = time.monotonic() + 5.0
        while names.resolve(shard_name).node_id == "n2":
            assert time.monotonic() < deadline, "failover never happened"
            time.sleep(0.01)

        audited = recover_service(plan, shard_name,
                                  bootstrap=CountingKV).servant
        for key in keys:
            live = router.applied(key, timeout=0.1, retry_policy=POLICY)
            assert live == 1, f"live servant applied {key!r} {live} times"
            durable = audited.counts.get(key, 0)
            assert durable == 1, (
                f"durable view applied {key!r} {durable} times"
            )
    finally:
        supervisor.stop()
        client.close()
        for emitter in emitters:
            emitter.stop()
        detector.close()
        for node in nodes:
            node.stop()
        network.close()


def test_supervisor_gives_up_after_max_failovers():
    """A service that cannot stay up stops bouncing across the cluster."""
    rig = SupervisedRig()
    try:
        rig.spec.max_failovers = 0
        rig.n1.crash(lose_memory=True)
        deadline = time.monotonic() + 3.0
        while not rig.spec.gave_up:
            assert time.monotonic() < deadline, "supervisor never gave up"
            time.sleep(0.01)
        assert rig.names.resolve("kv").node_id == "n1"  # never moved
        metrics = rig.supervisor.metrics()
        assert metrics["failed_failovers"] >= 1
        assert metrics["failovers"] == 0
    finally:
        rig.close()


def test_schedule_space_is_deterministic():
    assert len(SCHEDULES) == len(CRASH_POINTS) * len(LOSS_ENDPOINTS)
    assert len({_schedule_id(s) for s in SCHEDULES}) == len(SCHEDULES)

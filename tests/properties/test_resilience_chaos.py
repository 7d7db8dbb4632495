"""Resilience chaos: exactly-once effects under loss, partition, overload.

The acceptance sweep for the resilient RPC layer. A journaled key-value
service, placed by a :class:`~repro.dist.recovery.Supervisor` on a
primary with a backup as the second candidate, serves retried mutating
calls while deterministic :class:`FaultPlan` schedules lose messages,
partitions split the network, and the primary fails over. Invariants,
for every schedule:

* **exactly-once effects** — every logical mutating call that reports
  success was applied exactly once on its live home and in an
  independent audit rebuild from the durable store (the dedup cache
  absorbs every replay the retry loop emits, and the journal seeds it
  at the new home);
* **no stranded callers** — a caller with a deadline returns (result or
  typed error) within its budget plus a bounded grace;
* **bounded inboxes** — under 10x offered load a shedding node's queue
  depth never exceeds its admission limit.
"""

import threading
import time

import pytest

from repro.aspects.retry import RetryPolicy
from repro.core.errors import (
    DeadlineExceeded,
    NetworkError,
    Overloaded,
)
from repro.dist import (
    Client,
    MemoryStore,
    NameService,
    Network,
    Node,
    RecoveryPlan,
    Supervisor,
    recover_service,
)
from repro.dist.resilience import RPC_TRANSIENT
from repro.faults import FaultInjector, FaultPlan, single_loss_plans

POLICY = RetryPolicy(max_attempts=6, base_delay=0.0, retry_on=RPC_TRANSIENT)

#: every endpoint a message can be lost on its way to
ENDPOINTS = ("client", "primary", "backup")

#: the full single-loss schedule space: each plan silently drops the
#: k-th delivery to one endpoint — lost requests to either home and
#: lost replies alike
LOSS_PLANS = single_loss_plans(ENDPOINTS, occurrences=(1, 2))


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


class Cluster:
    """Supervised primary/backup rig with a journaled store."""

    def __init__(self):
        self.network = Network()
        self.names = NameService()
        self.primary = Node("primary", self.network).start()
        self.backup = Node("backup", self.network).start()
        self.plan = RecoveryPlan(MemoryStore(), kv_capture, kv_rebuild,
                                 mutating=["put"])
        # failovers here are driven by hand, so no detector is consulted
        self.supervisor = Supervisor(self.names, detector=None)
        self.spec = self.supervisor.supervise(
            "kv", "kv", self.plan, [self.primary, self.backup],
            bootstrap=CountingKV,
        )
        self.supervisor.place(self.spec, self.primary)
        self.client = Client("client", self.network, self.names,
                             default_timeout=2.0)

    def close(self):
        self.client.close()
        self.primary.stop()
        self.backup.stop()
        self.network.close()

    def put(self, key, timeout=0.25):
        return self.client.call_name(
            "kv", "put", key, f"v-{key}",
            timeout=timeout, retry_policy=POLICY,
        )

    def fail_over_to_backup(self):
        return self.supervisor.failover(self.spec, self.backup,
                                        from_node="primary")

    def assert_effects_exactly_once(self, keys):
        """The live home and an audit rebuild applied each key once."""
        audited = recover_service(self.plan, "kv",
                                  bootstrap=CountingKV).servant
        for key in keys:
            live = self.client.call_name("kv", "applied", key,
                                         timeout=0.25, retry_policy=POLICY)
            assert live == 1, f"live home applied {key!r} {live} times"
            durable = audited.applied(key)
            assert durable == 1, (
                f"audit rebuild applied {key!r} {durable} times"
            )


@pytest.mark.parametrize(
    "plan", LOSS_PLANS, ids=[str(p) for p in LOSS_PLANS])
def test_every_single_loss_schedule_applies_exactly_once(plan):
    cluster = Cluster()
    injector = FaultInjector(plan).install(cluster.network)
    try:
        for key in ("k1", "k2"):
            assert cluster.put(key) == 1, f"{key!r} observed a double-apply"
        cluster.primary.crash()
        cluster.fail_over_to_backup()
        assert cluster.names.resolve("kv").node_id == "backup"
        assert cluster.put("k3") == 1, "'k3' observed a double-apply"
        # success ⇒ exactly once on the new home and in the durable
        # view — regardless of which delivery the schedule ate
        cluster.assert_effects_exactly_once(("k1", "k2", "k3"))
    finally:
        FaultInjector.uninstall(cluster.network)
        cluster.close()


def test_partition_failover_schedule_applies_exactly_once():
    """Partition the primary mid-call; the rebound retry must dedup."""
    cluster = Cluster()
    # the reply to the client is lost, then the primary is cut off
    plan = single_loss_plans(["client"])[0]
    FaultInjector(plan).install(cluster.network)
    try:
        def sever():
            deadline = time.monotonic() + 3.0
            while not cluster.plan.store.entries("kv"):
                if time.monotonic() > deadline:
                    return
                time.sleep(0.005)
            cluster.network.take_down("primary")
            cluster.fail_over_to_backup()

        severer = threading.Thread(target=sever)
        severer.start()
        result = cluster.put("k", timeout=0.4)
        severer.join(timeout=5.0)
        assert result == 1
        assert cluster.names.resolve("kv").node_id == "backup"
        cluster.assert_effects_exactly_once(["k"])
    finally:
        FaultInjector.uninstall(cluster.network)
        cluster.close()


def test_partitioned_cluster_never_double_applies():
    """Requests swallowed by a partition are retried, never duplicated."""
    cluster = Cluster()
    cluster.network.partition({"primary"}, {"client", "backup"})
    try:
        def heal():
            time.sleep(0.3)
            cluster.network.heal()

        healer = threading.Thread(target=heal)
        healer.start()
        result = cluster.put("k", timeout=0.2)
        healer.join(timeout=5.0)
        assert result == 1
        cluster.assert_effects_exactly_once(["k"])
    finally:
        cluster.close()


def test_no_caller_stranded_past_deadline():
    """Every deadline-carrying caller returns within budget + grace."""
    network = Network(latency=0.02, loss=0.2, seed=11)
    names = NameService()
    node = Node("server", network).start()
    node.export("kv", CountingKV())
    names.bind("kv", "server", "kv")
    client = Client("client", network, names, default_timeout=5.0)
    budget, grace = 0.4, 0.5
    overruns, lock = [], threading.Lock()
    try:
        def call(n):
            started = time.monotonic()
            try:
                client.call_name("kv", "put", f"k{n}", n,
                                 timeout=0.1, deadline=budget,
                                 retry_policy=POLICY)
            except (DeadlineExceeded, NetworkError, TimeoutError):
                pass
            elapsed = time.monotonic() - started
            if elapsed > budget + grace:
                with lock:
                    overruns.append((n, elapsed))

        threads = [threading.Thread(target=call, args=(n,))
                   for n in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads), "stranded caller"
        assert overruns == []
    finally:
        client.close()
        node.stop()
        network.close()


class SlowKV(CountingKV):
    """A servant that takes ~50ms per ``put``, so one worker is the
    bottleneck and the offered load really exceeds the service rate."""

    def put(self, key, value):
        time.sleep(0.05)
        return super().put(key, value)


@pytest.mark.parametrize("policy", ["reject", "drop_oldest"])
def test_inbox_depth_bounded_under_10x_load(policy):
    """10x offered load: queue depth never exceeds the admission limit."""
    limit = 4
    network = Network()
    names = NameService()
    node = Node("server", network, workers=1, inbox_limit=limit,
                shed_policy=policy, retry_after=0.02)
    node.start()
    servant = SlowKV()
    node.export("kv", servant)
    names.bind("kv", "server", "kv")
    client = Client("client", network, names, default_timeout=5.0)
    peak, stop = [0], threading.Event()

    def watch():
        while not stop.is_set():
            peak[0] = max(peak[0], node.load)
            time.sleep(0.001)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        # one worker draining ~50ms calls; 10x that service rate
        def storm(n):
            for call_index in range(5):
                try:
                    client.call_name("kv", "put",
                                     f"k-{n}-{call_index}", 1,
                                     timeout=3.0)
                except (Overloaded, NetworkError, TimeoutError):
                    pass

        threads = [threading.Thread(target=storm, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stop.set()
        watcher.join(timeout=2.0)
        assert peak[0] <= limit, (
            f"inbox depth peaked at {peak[0]} > limit {limit}"
        )
        assert node.requests_shed > 0, "the storm never tripped shedding"
        # shed + served accounts for every admitted-or-rejected request
        assert node.requests_served + node.requests_shed > 0
    finally:
        stop.set()
        client.close()
        node.stop()
        network.close()


def test_loss_plan_space_is_reproducible():
    """The schedule space itself is deterministic run over run."""
    again = single_loss_plans(ENDPOINTS, occurrences=(1, 2))
    assert [str(p) for p in again] == [str(p) for p in LOSS_PLANS]
    assert len(again) == len(ENDPOINTS) * 2

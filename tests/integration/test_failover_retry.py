"""Crash → failover → retry re-resolution, with cross-failover dedup.

A client mid-retry follows a :class:`~repro.dist.recovery.Supervisor`
rebind to the backup, and the idempotency cache prevents the replayed
logical call from double-applying: the primary journaled the mutation
with its key and reply before the reply was lost, and recovery seeded
the backup's dedup cache from that journal record — so the retry
replays the recorded reply instead of executing the mutation again.
"""

import threading
import time

import pytest

from repro.aspects.retry import RetryPolicy
from repro.dist import (
    Client,
    MemoryStore,
    NameService,
    Network,
    Node,
    RecoveryPlan,
    Supervisor,
)
from repro.dist.resilience import RPC_TRANSIENT
from repro.faults import FaultInjector, single_loss_plans

POLICY = RetryPolicy(max_attempts=5, base_delay=0.0, retry_on=RPC_TRANSIENT)


class CountingKV:
    """A KV store that counts mutations — the double-apply detector."""

    def __init__(self, data=None, applies=0):
        self._lock = threading.Lock()
        self.data = dict(data or {})
        self.applies = applies

    def put(self, key, value):
        with self._lock:
            self.applies += 1
            self.data[key] = value
            return self.applies

    def get(self, key):
        return self.data.get(key)


class Cluster:
    """A journaled KV placed on ``primary`` with ``backup`` standing by."""

    def __init__(self):
        self.network = Network()
        self.names = NameService()
        self.primary = Node("primary", self.network).start()
        self.backup = Node("backup", self.network).start()
        #: every servant the plan built, in order: bootstrap, then one
        #: rebuild per placement (baseline checkpoint or failover)
        self.servants = []
        self.store = MemoryStore()
        self.plan = RecoveryPlan(
            self.store,
            lambda kv: {"data": dict(kv.data), "applies": kv.applies},
            lambda state: self._built(CountingKV(**state)),
            mutating=["put"],
        )
        self.supervisor = Supervisor(self.names, detector=None)
        self.spec = self.supervisor.supervise(
            "kv", "kv", self.plan, [self.primary, self.backup],
            bootstrap=lambda: self._built(CountingKV()),
        )
        self.supervisor.place(self.spec, self.primary)
        self.client = Client("client", self.network, self.names,
                             default_timeout=1.0)

    def _built(self, servant):
        self.servants.append(servant)
        return servant

    def fail_over(self):
        return self.supervisor.failover(self.spec, self.backup,
                                        from_node="primary")

    def close(self):
        self.client.close()
        self.primary.stop()
        self.backup.stop()
        self.network.close()


@pytest.fixture
def cluster():
    cluster = Cluster()
    yield cluster
    cluster.close()


def _await(predicate, timeout=3.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, message
        time.sleep(0.01)


class TestFailoverRetryDedup:
    def test_retry_follows_rebind_without_double_apply(self, cluster):
        primary_store = cluster.servants[-1]

        # Lose the reply to the client: the primary applies and
        # journals the mutation, but the caller never hears back and
        # will retry.
        plan = single_loss_plans(["client"])[0]
        FaultInjector(plan).install(cluster.network)

        failed_over = threading.Event()

        def fail_over():
            # After the primary has applied + journaled, crash it and
            # fail over to the backup — while the client is mid-retry.
            _await(lambda: cluster.store.entries("kv"),
                   message="the primary never journaled the put")
            cluster.primary.crash()
            cluster.fail_over()
            failed_over.set()

        crasher = threading.Thread(target=fail_over)
        crasher.start()
        try:
            result = cluster.client.call_name(
                "kv", "put", "k", "v",
                timeout=0.5, retry_policy=POLICY,
            )
        finally:
            crasher.join(timeout=5.0)
            FaultInjector.uninstall(cluster.network)
        assert failed_over.is_set()

        # The retry resolved the rebound name (per-attempt resolution)
        # and the backup's journal-seeded dedup cache replayed the
        # recorded reply instead of executing the mutation again.
        backup_store = cluster.servants[-1]
        assert backup_store is not primary_store
        assert cluster.names.resolve("kv").node_id == "backup"
        assert primary_store.applies == 1
        assert backup_store.applies == 1  # by replay, not re-execution
        assert cluster.backup.dedup_hits >= 1
        # the replayed reply is the primary's original result
        assert result == 1
        assert cluster.client.retries >= 1

    def test_partitioned_primary_retry_lands_on_backup(self, cluster):
        primary_store = cluster.servants[-1]

        # Split the primary away from the client. The first attempt's
        # request is swallowed by the partition; the mutation is never
        # applied anywhere until the failover routes a retry to the
        # backup.
        cluster.network.partition({"primary"}, {"client", "backup"})

        def fail_over():
            time.sleep(0.2)  # let at least one attempt hit the wall
            cluster.fail_over()

        promoter = threading.Thread(target=fail_over)
        promoter.start()
        try:
            result = cluster.client.call_name(
                "kv", "put", "k", "v",
                timeout=0.3, retry_policy=POLICY,
            )
        finally:
            promoter.join(timeout=5.0)

        assert result == 1
        assert primary_store.applies == 0  # partition swallowed it all
        assert cluster.servants[-1].applies == 1
        assert cluster.client.retries >= 1

    def test_wait_for_observes_failover_rebind(self, cluster):
        observed = []

        def wait():
            observed.append(
                cluster.names.wait_for("kv", version=2, timeout=3.0))

        waiter = threading.Thread(target=wait)
        waiter.start()
        cluster.primary.crash()
        cluster.fail_over()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        binding = observed[0]
        assert binding is not None
        assert binding.node_id == "backup"
        assert binding.version == 2

    def test_wait_for_times_out_without_rebind(self, cluster):
        assert cluster.names.wait_for("kv", version=2, timeout=0.1) is None
        # version 1 (the placement) is already satisfied: returns at once
        binding = cluster.names.wait_for("kv", version=1, timeout=0.1)
        assert binding is not None and binding.version == 1

"""Unit tests for the crash-restart recovery plane.

Covers the durable stores (memory and file), checkpoint + journal-suffix
recovery, the node-side journaling/fencing/checkpoint machinery, the
real crash model (``lose_memory=True``), the ``Node.stop`` straggler
surfacing regression, and the supervisor's candidate choice.
"""

import threading
import time

import pytest

from repro.core.errors import FencedOut, Overloaded
from repro.dist import (
    Client,
    DestinationBreakers,
    FileStore,
    MemoryStore,
    NameService,
    Network,
    Node,
    RecoveryError,
    RecoveryPlan,
    RequestTimeout,
    Supervisor,
    recover_service,
)
from repro.dist.message import WireFormatError
from repro.dist.recovery import HANDOFF_KEY
from repro.faults import FaultInjector, FaultPlan, FaultSpec


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


def kv_plan(store, **kwargs):
    kwargs.setdefault("mutating", ["put"])
    return RecoveryPlan(store, kv_capture, kv_rebuild, **kwargs)


# ----------------------------------------------------------------------
# stores
# ----------------------------------------------------------------------
@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return FileStore(str(tmp_path / "store"))


class TestStores:
    def test_append_assigns_monotonic_sequences(self, store):
        assert store.append("kv", {"method": "put"}) == 1
        assert store.append("kv", {"method": "put"}) == 2
        assert store.last_seq("kv") == 2
        entries = store.entries("kv")
        assert [e["seq"] for e in entries] == [1, 2]

    def test_entries_after_filters_the_prefix(self, store):
        for _ in range(3):
            store.append("kv", {"method": "put"})
        assert [e["seq"] for e in store.entries("kv", after=2)] == [3]

    def test_prune_drops_prefix_but_sequences_survive(self, store):
        for _ in range(3):
            store.append("kv", {"method": "put"})
        assert store.prune("kv", 2) == 2
        assert [e["seq"] for e in store.entries("kv")] == [3]
        # the sequence counter is not reset by pruning
        assert store.append("kv", {"method": "put"}) == 4
        assert store.last_seq("kv") == 4

    def test_checkpoint_round_trip(self, store):
        checkpoint = {"state": {"data": {"k": "v"}}, "seq": 7, "epoch": 2}
        store.save_checkpoint("kv", checkpoint, epoch=2)
        assert store.load_checkpoint("kv") == checkpoint
        assert store.load_checkpoint("other") is None

    def test_fence_is_monotonic_high_water(self, store):
        assert store.fenced_epoch("kv") == 0
        assert store.fence("kv", 3) == 3
        # lowering is refused — the fence only rises
        assert store.fence("kv", 1) == 3
        assert store.fenced_epoch("kv") == 3

    def test_fenced_append_and_checkpoint_rejected(self, store):
        store.fence("kv", 5)
        with pytest.raises(FencedOut):
            store.append("kv", {"method": "put"}, epoch=4)
        with pytest.raises(FencedOut):
            store.save_checkpoint("kv", {"state": {}}, epoch=4)
        # the current epoch (and any newer) still writes
        assert store.append("kv", {"method": "put"}, epoch=5) == 1

    def test_fenced_out_is_retryable_overloaded(self, store):
        store.fence("kv", 5)
        with pytest.raises(Overloaded):
            store.append("kv", {"method": "put"}, epoch=1)

    def test_non_wire_safe_records_rejected(self, store):
        with pytest.raises(WireFormatError):
            store.append("kv", {"method": "put", "bad": object()})
        with pytest.raises(WireFormatError):
            store.save_checkpoint("kv", {"state": {"bad": object()}})

    def test_services_are_isolated(self, store):
        store.append("a", {"method": "x"})
        store.fence("a", 9)
        assert store.last_seq("b") == 0
        assert store.fenced_epoch("b") == 0
        assert store.entries("b") == []


class TestFileStore:
    def test_journal_and_fence_survive_reopen(self, tmp_path):
        root = str(tmp_path / "durable")
        first = FileStore(root)
        first.append("kv", {"method": "put", "args": ["k", "v"]}, epoch=1)
        first.save_checkpoint("kv", {"state": {}, "seq": 1}, epoch=1)
        first.fence("kv", 4)
        # a fresh instance over the same root: the process restarted
        second = FileStore(root)
        assert second.last_seq("kv") == 1
        assert second.fenced_epoch("kv") == 4
        assert second.load_checkpoint("kv") == {"state": {}, "seq": 1}
        assert second.entries("kv")[0]["record"]["args"] == ["k", "v"]
        with pytest.raises(FencedOut):
            second.append("kv", {"method": "put"}, epoch=3)

    def test_sequences_resume_past_checkpoint_after_prune(self, tmp_path):
        root = str(tmp_path / "durable")
        first = FileStore(root)
        for _ in range(3):
            first.append("kv", {"method": "put"}, epoch=1)
        first.save_checkpoint("kv", {"state": {}, "seq": 3}, epoch=1)
        first.prune("kv", 3)
        second = FileStore(root)
        # the journal file is empty but the checkpoint pins the
        # high-water sequence: appends continue, never reuse
        assert second.append("kv", {"method": "put"}, epoch=1) == 4

    def test_sharded_service_names_store_cleanly(self, tmp_path):
        store = FileStore(str(tmp_path / "durable"))
        store.append("kv#s0/x", {"method": "put"})
        assert store.last_seq("kv#s0/x") == 1


# ----------------------------------------------------------------------
# recover_service
# ----------------------------------------------------------------------
class TestRecoverService:
    def test_bootstrap_when_no_checkpoint(self):
        plan = kv_plan(MemoryStore())
        recovered = recover_service(plan, "kv", bootstrap=CountingKV)
        assert recovered.servant.data == {}
        assert recovered.replayed == 0
        assert recovered.checkpoint_seq == 0

    def test_no_checkpoint_and_no_bootstrap_fails_loud(self):
        plan = kv_plan(MemoryStore())
        with pytest.raises(RecoveryError):
            recover_service(plan, "kv")

    def test_checkpoint_plus_journal_suffix_replay(self):
        store = MemoryStore()
        plan = kv_plan(store)
        state = kv_capture(CountingKV(data={"a": 1}, counts={"a": 1}))
        state[HANDOFF_KEY] = {"dedup": {"c1:1": {
            "kind": "reply", "payload": {"result": 1}}}}
        store.save_checkpoint("kv", {"state": state, "seq": 0})
        store.append("kv", {"method": "put", "args": ["b", 2],
                            "kwargs": {}, "caller": None, "key": "c1:2",
                            "reply": {"kind": "reply",
                                      "payload": {"result": 1}}})
        recovered = recover_service(plan, "kv")
        assert recovered.servant.data == {"a": 1, "b": 2}
        assert recovered.servant.counts == {"a": 1, "b": 1}
        assert recovered.replayed == 1
        # dedup seed = checkpoint handoff + the keyed journaled reply
        assert set(recovered.dedup_seed) == {"c1:1", "c1:2"}
        assert recovered.dedup_seed["c1:2"]["payload"] == {"result": 1}

    def test_entries_before_checkpoint_seq_not_replayed(self):
        store = MemoryStore()
        plan = kv_plan(store)
        store.append("kv", {"method": "put", "args": ["stale", 0],
                            "kwargs": {}})
        state = kv_capture(CountingKV(data={"stale": 0},
                                      counts={"stale": 1}))
        store.save_checkpoint("kv", {"state": state, "seq": 1})
        recovered = recover_service(plan, "kv")
        # the checkpoint already contains seq 1's effect: not re-applied
        assert recovered.servant.counts == {"stale": 1}
        assert recovered.replayed == 0

    def test_replay_failure_is_recovery_error(self):
        store = MemoryStore()
        plan = kv_plan(store)
        store.save_checkpoint("kv", {"state": kv_capture(CountingKV()),
                                     "seq": 0})
        store.append("kv", {"method": "no_such_method", "args": [],
                            "kwargs": {}})
        with pytest.raises(RecoveryError):
            recover_service(plan, "kv")

    def test_plan_journals_respects_mutating_set(self):
        plan = kv_plan(MemoryStore(), mutating=["put"])
        assert plan.journals("put")
        assert not plan.journals("get")
        journal_all = RecoveryPlan(MemoryStore(), kv_capture, kv_rebuild)
        assert journal_all.journals("anything")


# ----------------------------------------------------------------------
# node-side journaling, fencing, checkpoints
# ----------------------------------------------------------------------
class Rig:
    """One serving node + armed client over a fresh network."""

    def __init__(self, **node_kwargs):
        self.network = Network()
        self.names = NameService()
        self.node = Node("n1", self.network, **node_kwargs).start()
        self.client = Client("client", self.network, self.names,
                             default_timeout=2.0)

    def close(self):
        self.client.close()
        self.node.stop()
        self.network.close()


@pytest.fixture
def rig():
    rig = Rig()
    yield rig
    rig.close()


class TestNodeJournaling:
    def test_armed_mutation_is_journaled_with_reply(self, rig):
        store = MemoryStore()
        plan = kv_plan(store)
        rig.node.attach_recovery("kv", plan)
        rig.node.export("kv", CountingKV(), epoch=1)
        rig.names.bind("kv", "n1", "kv")
        result = rig.client.call_name("kv", "put", "k", "v",
                                      idempotency_key="c:1")
        assert result == 1
        entries = store.entries("kv")
        assert len(entries) == 1
        record = entries[0]["record"]
        assert record["method"] == "put"
        assert record["args"] == ["k", "v"]
        assert record["key"] == "c:1"
        assert record["reply"]["payload"] == {"result": 1}
        assert entries[0]["epoch"] == 1

    def test_unarmed_call_to_journaled_method_still_journaled(self, rig):
        store = MemoryStore()
        rig.node.attach_recovery("kv", kv_plan(store))
        rig.node.export("kv", CountingKV())
        rig.names.bind("kv", "n1", "kv")
        assert rig.client.call_name("kv", "put", "k", "v") == 1
        entries = store.entries("kv")
        assert len(entries) == 1
        assert entries[0]["record"]["key"] is None

    def test_non_mutating_methods_skip_the_journal(self, rig):
        store = MemoryStore()
        rig.node.attach_recovery("kv", kv_plan(store))
        rig.node.export("kv", CountingKV())
        rig.names.bind("kv", "n1", "kv")
        rig.client.call_name("kv", "put", "k", "v")
        assert rig.client.call_name("kv", "get", "k") == "v"
        assert len(store.entries("kv")) == 1

    def test_failed_call_is_not_journaled(self, rig):
        store = MemoryStore()
        rig.node.attach_recovery("kv", kv_plan(store))
        rig.node.export("kv", CountingKV())
        rig.names.bind("kv", "n1", "kv")
        with pytest.raises(Exception):
            rig.client.call_name("kv", "put", idempotency_key="c:1")
        assert store.entries("kv") == []

    def test_checkpoint_captures_state_and_prunes(self, rig):
        store = MemoryStore()
        rig.node.attach_recovery("kv", kv_plan(store))
        rig.node.export("kv", CountingKV(), epoch=1)
        rig.names.bind("kv", "n1", "kv")
        rig.client.call_name("kv", "put", "k", "v", idempotency_key="c:1")
        seq = rig.node.checkpoint("kv")
        assert seq == 1
        assert store.entries("kv") == []  # pruned up to the checkpoint
        checkpoint = store.load_checkpoint("kv")
        assert checkpoint["seq"] == 1
        assert checkpoint["epoch"] == 1
        assert checkpoint["state"]["data"] == {"k": "v"}
        # the handoff bundle carries the completed dedup entries
        assert "c:1" in checkpoint["state"][HANDOFF_KEY]["dedup"]

    def test_checkpoint_wakes_a_mutator_parked_on_another_node(self):
        # A paused node that comes back keeps its journal aspect on the
        # plan it shares with the new home; a put it parks while the new
        # home checkpoints must wake when the checkpoint releases.
        network = Network()
        capturing, go = threading.Event(), threading.Event()

        def capture(servant):
            capturing.set()
            go.wait(5.0)
            return kv_capture(servant)

        plan = RecoveryPlan(MemoryStore(), capture, kv_rebuild,
                            mutating=["put"])
        home, zombie = (Node(node_id, network).start()
                        for node_id in ("n1", "n2"))
        for node in (home, zombie):
            node.attach_recovery("kv", plan)
            node.export("kv", CountingKV())
        client = Client("c", network)
        outcome = []
        checkpoint = threading.Thread(target=home.checkpoint, args=("kv",))
        put = threading.Thread(target=lambda: outcome.append(
            client.call_node("n2", "kv", "put", "k", "v", timeout=2.0)))
        try:
            checkpoint.start()
            assert capturing.wait(2.0)
            put.start()
            moderator = zombie._journaling["kv"].moderator
            deadline = time.monotonic() + 2.0
            while moderator.stats.as_dict()["blocks"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            go.set()
            put.join(timeout=5.0)
            checkpoint.join(timeout=5.0)
            assert outcome == [1]
        finally:
            go.set()
            client.close()
            home.stop()
            zombie.stop()
            network.close()

    def test_journal_release_wakes_a_mutator_parked_on_another_node(self):
        # The same shape with the lock held by a mutation instead of a
        # checkpoint: the new home's put holds the plan lock, the
        # returning node's put parks behind it, and the release must
        # wake it well before its caller's wait runs out.
        network = Network()
        entered, go = threading.Event(), threading.Event()

        class GatedKV(CountingKV):
            def put(self, key, value):
                if key == "held":
                    entered.set()
                    go.wait(5.0)
                return super().put(key, value)

        plan = kv_plan(MemoryStore())
        home, zombie = (Node(node_id, network).start()
                        for node_id in ("n1", "n2"))
        for node in (home, zombie):
            node.attach_recovery("kv", plan)
            node.export("kv", GatedKV())
        clients = [Client(client_id, network) for client_id in "ab"]
        outcome = []

        def call(client, node_id, key):
            def run():
                outcome.append(client.call_node(node_id, "kv", "put", key,
                                                "v", timeout=3.0))
            return threading.Thread(target=run)

        holder = call(clients[0], "n1", "held")
        parked = call(clients[1], "n2", "k")
        try:
            holder.start()
            assert entered.wait(2.0)
            parked.start()
            moderator = zombie._journaling["kv"].moderator
            deadline = time.monotonic() + 2.0
            while moderator.stats.as_dict()["blocks"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            go.set()
            released = time.monotonic()
            parked.join(timeout=5.0)
            assert time.monotonic() - released < 1.0
            holder.join(timeout=5.0)
            assert outcome == [1, 1]
            # the wake forgot them, so later releases notify no one
            assert not plan.parked
        finally:
            go.set()
            for client in clients:
                client.close()
            home.stop()
            zombie.stop()
            network.close()

    def test_checkpoint_every_takes_automatic_checkpoints(self, rig):
        store = MemoryStore()
        rig.node.attach_recovery("kv", kv_plan(store, checkpoint_every=2))
        rig.node.export("kv", CountingKV())
        rig.names.bind("kv", "n1", "kv")
        for n in range(4):
            rig.client.call_name("kv", "put", f"k{n}", n,
                                 idempotency_key=f"c:{n}")
        checkpoint = store.load_checkpoint("kv")
        assert checkpoint is not None
        assert checkpoint["seq"] == 4
        assert store.entries("kv") == []

    def test_checkpoint_requires_plan_and_servant(self, rig):
        with pytest.raises(KeyError):
            rig.node.checkpoint("kv")
        rig.node.attach_recovery("kv", kv_plan(MemoryStore()))
        with pytest.raises(KeyError):
            rig.node.checkpoint("kv")

    def test_round_trip_through_checkpoint_and_recovery(self, rig):
        store = MemoryStore()
        plan = kv_plan(store)
        rig.node.attach_recovery("kv", plan)
        rig.node.export("kv", CountingKV(), epoch=1)
        rig.names.bind("kv", "n1", "kv")
        rig.client.call_name("kv", "put", "a", 1, idempotency_key="c:1")
        rig.node.checkpoint("kv")
        rig.client.call_name("kv", "put", "b", 2, idempotency_key="c:2")
        recovered = recover_service(plan, "kv")
        assert recovered.servant.data == {"a": 1, "b": 2}
        assert recovered.servant.counts == {"a": 1, "b": 1}
        assert recovered.replayed == 1
        assert set(recovered.dedup_seed) == {"c:1", "c:2"}

    def test_journal_uninstalled_path_writes_nothing(self, rig):
        rig.node.export("kv", CountingKV())
        rig.names.bind("kv", "n1", "kv")
        assert rig.client.call_name("kv", "put", "k", "v") == 1
        assert rig.client.call_name("kv", "put", "k2", "v",
                                    idempotency_key="c:1") == 1
        assert rig.node._journals == {}


class TestNodeFencing:
    def test_stale_fence_rejected_without_touching_servant(self, rig):
        servant = CountingKV()
        rig.node.export("kv", servant, epoch=2)
        rig.names.bind("kv", "n1", "kv")  # binding epoch is 1
        with pytest.raises(FencedOut) as caught:
            rig.client.call_name("kv", "put", "k", "v",
                                 idempotency_key="c:1")
        # the epochs rehydrate through the wire payload, so a caller
        # can reason about how stale its binding was
        assert caught.value.stale_epoch == 1
        assert caught.value.current_epoch == 2
        assert servant.counts == {}  # the effect never applied
        assert rig.node.dedup.stats()["entries"] == 0  # no slot pinned

    def test_breaker_armed_call_is_fenced_too(self, rig):
        # breakers alone arm the call: it carries the binding epoch
        # without a key or deadline, and the node checks that fence
        servant = CountingKV()
        rig.node.export("kv", servant, epoch=2)
        rig.names.bind("kv", "n1", "kv")  # binding epoch is 1
        client = Client("breakers", rig.network, rig.names,
                        default_timeout=2.0, breakers=DestinationBreakers())
        try:
            with pytest.raises(FencedOut):
                client.call_name("kv", "put", "k", "v")
        finally:
            client.close()
        assert servant.counts == {}

    def test_matching_fence_serves(self, rig):
        rig.names.bind("kv", "n1", "kv")  # epoch 1
        rig.node.export("kv", CountingKV(), epoch=1)
        assert rig.client.call_name("kv", "put", "k", "v",
                                    idempotency_key="c:1") == 1

    def test_epochless_export_ignores_fences(self, rig):
        # legacy exports never opted into fencing: armed requests
        # carrying a fence are served as before
        rig.node.export("kv", CountingKV())
        rig.names.bind("kv", "n1", "kv")
        assert rig.client.call_name("kv", "put", "k", "v",
                                    idempotency_key="c:1") == 1

    def test_fenced_store_append_withdraws_the_zombie(self, rig):
        store = MemoryStore()
        rig.node.attach_recovery("kv", kv_plan(store))
        rig.node.export("kv", CountingKV(), epoch=1)
        rig.names.bind("kv", "n1", "kv")
        # a replacement was promoted at epoch 2 behind our back
        store.fence("kv", 2)
        with pytest.raises(FencedOut):
            rig.client.call_name("kv", "put", "k", "v",
                                 idempotency_key="c:1")
        # the zombie stepped aside: service withdrawn, window retryable
        assert "kv" not in rig.node.services()
        assert store.entries("kv") == []

    def test_rebind_mints_strictly_greater_epochs(self, rig):
        first = rig.names.bind("kv", "n1", "kv")
        second = rig.names.rebind("kv", "n2", "kv")
        assert second.epoch > first.epoch
        rig.names.unbind("kv")
        third = rig.names.rebind("kv", "n3", "kv")
        assert third.epoch > second.epoch


class TestJournaledReactorServing:
    """A journaled service may ride a continuation runtime, whichever
    of ``export`` and ``attach_recovery`` comes first."""

    def test_attach_recovery_after_reactor_export_journals(self, rig):
        from repro.core import AspectModerator, ComponentProxy
        from repro.core.continuation import ContinuationRuntime

        store = MemoryStore()
        moderator = AspectModerator()
        runtime = ContinuationRuntime(moderator)
        proxy = ComponentProxy(CountingKV(), moderator)
        rig.node.export("kv", proxy, runtime=runtime)
        rig.node.attach_recovery("kv", kv_plan(store))
        rig.names.bind("kv", "n1", "kv")
        try:
            assert rig.client.call_name("kv", "put", "k", "v",
                                        idempotency_key="c:1") == 1
            assert runtime.submitted == 1  # served on the reactor
            assert [entry["record"]["key"]
                    for entry in store.entries("kv")] == ["c:1"]
        finally:
            runtime.close()

    def test_export_with_runtime_after_attach_journals(self, rig):
        from repro.core import AspectModerator, ComponentProxy
        from repro.core.continuation import ContinuationRuntime

        store = MemoryStore()
        rig.node.attach_recovery("kv", kv_plan(store))
        moderator = AspectModerator()
        runtime = ContinuationRuntime(moderator)
        proxy = ComponentProxy(CountingKV(), moderator)
        rig.node.export("kv", proxy, runtime=runtime)
        rig.names.bind("kv", "n1", "kv")
        try:
            assert rig.client.call_name("kv", "put", "k", "v",
                                        idempotency_key="c:1") == 1
            assert rig.client.call_name("kv", "get", "k") == "v"
            assert runtime.submitted == 1  # get does not participate
            assert [entry["record"]["method"]
                    for entry in store.entries("kv")] == ["put"]
        finally:
            runtime.close()


# ----------------------------------------------------------------------
# crash model and lifecycle
# ----------------------------------------------------------------------
class TestCrashModel:
    def test_crash_without_memory_loss_keeps_state(self):
        network = Network()
        node = Node("n1", network).start()
        servant = CountingKV(data={"k": "v"})
        node.export("kv", servant)
        node.dedup.begin("c:1")
        node.dedup.finish("c:1", "reply", {"result": 1})
        node.crash()
        assert node.services() == ["kv"]
        assert node.dedup.stats()["entries"] == 1
        assert not network.is_up("n1")
        network.close()

    def test_crash_with_memory_loss_discards_volatile_state(self):
        network = Network()
        node = Node("n1", network).start()
        node.attach_recovery("kv", kv_plan(MemoryStore()))
        node.export("kv", CountingKV(), epoch=3)
        node.dedup.begin("c:1")
        node.dedup.finish("c:1", "reply", {"result": 1})
        node.crash(lose_memory=True)
        assert node.services() == []
        assert node.dedup.stats()["entries"] == 0
        assert node._journals == {}
        assert node._epochs == {}
        network.close()

    def test_settle_is_false_after_memory_loss(self):
        network = Network()
        node = Node("n1", network).start()
        node.export("kv", CountingKV())
        assert node.settle("kv", timeout=0.5)
        node.crash(lose_memory=True)
        # an amnesiac node cannot prove anything about in-flight work
        assert not node.settle("kv", timeout=0.1)
        node.recover()
        assert node.settle("kv", timeout=0.5)
        node.stop()
        network.close()

    def test_serve_crash_point_fail_stops_an_unarmed_request(self):
        # crash points are consulted on every threaded-served request,
        # not only on ones carrying a deadline or an idempotency key
        network = Network()
        node = Node("n1", network).start()
        servant = CountingKV()
        node.export("kv", servant)
        FaultInjector(FaultPlan([FaultSpec(
            phase="crash", method_id="n1", concern="serve",
        )])).install(node)
        client = Client("c", network)
        try:
            with pytest.raises(RequestTimeout):
                client.call_node("n1", "kv", "put", "k", "v", timeout=0.3)
            assert node._crashed
            assert servant.applied("k") == 0
            assert node.requests_served == 0
            assert not network.is_up("n1")
        finally:
            client.close()
            node.stop()
            network.close()

    def test_expect_opens_retryable_window(self, rig):
        from repro.dist import RemoteError

        rig.names.bind("kv", "n1", "kv")
        with pytest.raises(RemoteError):  # terminal: unknown service
            rig.client.call_name("kv", "get", "k")
        rig.node.expect("kv")
        with pytest.raises(Overloaded):
            rig.client.call_name("kv", "get", "k")
        # export closes the window
        rig.node.export("kv", CountingKV())
        assert rig.client.call_name("kv", "get", "k") is None


class TestStopStragglers:
    def test_stop_surfaces_wedged_serve_threads(self):
        network = Network()
        names = NameService()
        node = Node("n1", network).start()
        release = threading.Event()
        entered = threading.Event()

        class Wedge:
            def hold(self):
                entered.set()
                release.wait(5.0)
                return "done"

        node.export("svc", Wedge())
        names.bind("svc", "n1", "svc")
        client = Client("client", network, names, default_timeout=10.0)
        caller = threading.Thread(
            target=lambda: client.call_name("svc", "hold"))
        caller.start()
        try:
            assert entered.wait(5.0)
            stragglers = node.stop(timeout=0.05)
            # the serve thread wedged in the servant call is surfaced,
            # not silently dropped
            assert stragglers
            assert all(t.is_alive() for t in stragglers)
        finally:
            release.set()
            caller.join(timeout=5.0)
            client.close()
            network.close()
        for thread in stragglers:
            thread.join(timeout=5.0)
        assert not any(t.is_alive() for t in stragglers)

    def test_clean_stop_returns_no_stragglers(self):
        network = Network()
        node = Node("n1", network).start()
        assert node.stop() == []
        network.close()


# ----------------------------------------------------------------------
# supervision: the one failover path
# ----------------------------------------------------------------------
class StubDetector:
    """Dict-backed verdicts, so candidate choice is deterministic."""

    def __init__(self, **states):
        self.states = dict(states)

    def state_of(self, node_id):
        return self.states.get(node_id, "unknown")


class SupervisedRig:
    """Three candidate nodes under a supervisor with scripted verdicts."""

    def __init__(self, supervisor_kwargs=None, spec_kwargs=None):
        self.network = Network()
        self.names = NameService()
        self.nodes = [Node(f"n{index}", self.network).start()
                      for index in (1, 2, 3)]
        self.detector = StubDetector(n1="alive", n2="alive", n3="alive")
        self.supervisor = Supervisor(self.names, self.detector,
                                     **(supervisor_kwargs or {}))
        self.plan = kv_plan(MemoryStore())
        self.spec = self.supervisor.supervise(
            "kv", "kv", self.plan, self.nodes, bootstrap=CountingKV,
            **(spec_kwargs or {}),
        )
        self.supervisor.place(self.spec, self.nodes[0])
        self.client = Client("client", self.network, self.names,
                             default_timeout=2.0)

    def close(self):
        self.supervisor.stop()
        self.client.close()
        for node in self.nodes:
            node.stop()
        self.network.close()


@pytest.fixture
def supervised():
    rig = SupervisedRig()
    yield rig
    rig.close()


class TestSupervisorFailover:
    def test_place_returns_binding_and_recovered_service(self):
        network = Network()
        names = NameService()
        node = Node("n1", network).start()
        store = MemoryStore()
        store.append("kv", {"method": "put", "args": ["k", "v"],
                            "kwargs": {}, "caller": None, "key": "c:1",
                            "reply": {"kind": "reply",
                                      "payload": {"result": 1}}})
        supervisor = Supervisor(names, StubDetector())
        spec = supervisor.supervise("kv", "kv", kv_plan(store), [node],
                                    bootstrap=CountingKV)
        try:
            binding, recovered = supervisor.place(spec, node)
            assert binding.node_id == "n1"
            assert binding.epoch == names.resolve("kv").epoch
            assert recovered.replayed == 1
            assert set(recovered.dedup_seed) == {"c:1"}
        finally:
            node.stop()
            network.close()

    def test_healthy_binding_is_a_noop(self, supervised):
        before = supervised.names.resolve("kv")
        assert supervised.supervisor.check_once() == []
        assert supervised.names.resolve("kv") == before
        assert supervised.supervisor.metrics()["failovers"] == 0

    def test_first_alive_candidate_skips_dead_holder_and_candidates(
            self, supervised):
        supervised.detector.states.update(n1="dead", n2="dead")
        reports = supervised.supervisor.check_once()
        assert [(r.from_node, r.to_node) for r in reports] == \
            [("n1", "n3")]
        binding = supervised.names.resolve("kv")
        assert binding.node_id == "n3"
        assert reports[0].epoch == binding.epoch
        assert supervised.supervisor.metrics()["failovers"] == 1

    def test_client_follows_failover_with_state(self, supervised):
        assert supervised.client.call_name("kv", "put", "k", "v") == 1
        supervised.nodes[0].crash(lose_memory=True)
        supervised.detector.states["n1"] = "dead"
        reports = supervised.supervisor.check_once()
        assert reports[0].to_node == "n2"
        # the journal rebuilt the servant at the new home
        assert supervised.client.call_name("kv", "get", "k") == "v"
        assert supervised.client.call_name("kv", "applied", "k") == 1

    def test_no_alive_candidate_counts_failed_failover(self, supervised):
        before = supervised.names.resolve("kv")
        supervised.detector.states.update(
            n1="dead", n2="dead", n3="suspect")
        assert supervised.supervisor.check_once() == []
        assert supervised.names.resolve("kv") == before
        metrics = supervised.supervisor.metrics()
        assert metrics["failed_failovers"] == 1
        assert metrics["failovers"] == 0

    def test_start_rebinds_in_background(self, supervised):
        supervised.supervisor.start(interval=0.02)
        supervised.detector.states["n1"] = "dead"
        deadline = time.monotonic() + 3.0
        while supervised.names.resolve("kv").node_id != "n2":
            assert time.monotonic() < deadline, "supervisor never rebound"
            time.sleep(0.02)
        assert supervised.supervisor.history[-1].from_node == "n1"

    def test_report_counts_replayed_effects_and_seeds(self, supervised):
        for key in ("k1", "k2"):
            assert supervised.client.call_name(
                "kv", "put", key, "v", idempotency_key=f"c:{key}") == 1
        supervised.nodes[0].crash(lose_memory=True)
        report = supervised.supervisor.failover(
            supervised.spec, supervised.nodes[1], from_node="n1")
        assert (report.name, report.service) == ("kv", "kv")
        assert (report.from_node, report.to_node) == ("n1", "n2")
        assert report.replayed == 2
        assert report.seeded == 2
        assert report.duration >= 0.0
        assert supervised.supervisor.history == [report]
        metrics = supervised.supervisor.metrics()
        assert metrics["failovers"] == 1
        assert metrics["effects_replayed"] == 2
        assert metrics["dedup_seeded"] == 2

    def test_acknowledged_retry_replays_at_the_new_home(self, supervised):
        assert supervised.client.call_name(
            "kv", "put", "k", "v", idempotency_key="c:1") == 1
        supervised.nodes[0].crash(lose_memory=True)
        supervised.supervisor.failover(
            supervised.spec, supervised.nodes[1], from_node="n1")
        # the client never saw the ack and retries under the same key:
        # the seeded dedup cache answers, the servant does not re-apply
        assert supervised.client.call_name(
            "kv", "put", "k", "v", idempotency_key="c:1") == 1
        assert supervised.client.call_name("kv", "applied", "k") == 1

    def test_failover_folds_the_journal_into_a_checkpoint(self, supervised):
        assert supervised.client.call_name("kv", "put", "k", "v") == 1
        assert supervised.plan.store.entries("kv")
        supervised.nodes[0].crash(lose_memory=True)
        supervised.supervisor.failover(
            supervised.spec, supervised.nodes[1], from_node="n1")
        # the baseline checkpoint at the new home pruned the suffix, so
        # the next recovery starts from it and replays nothing
        assert supervised.plan.store.entries("kv") == []
        again = recover_service(supervised.plan, "kv")
        assert again.replayed == 0
        assert again.servant.data == {"k": "v"}
        assert again.servant.applied("k") == 1

    def test_zombie_holder_is_fenced_after_manual_failover(
            self, supervised):
        zombie = supervised.nodes[0]
        supervised.supervisor.failover(
            supervised.spec, supervised.nodes[1], from_node="n1")
        epoch = supervised.names.resolve("kv").epoch
        assert supervised.plan.store.fenced_epoch("kv") == epoch
        # the old home never crashed; a write that still reaches it is
        # rejected at the store and the zombie steps aside
        with pytest.raises(FencedOut):
            supervised.client.call_node("n1", "kv", "put", "k", "late",
                                        idempotency_key="z:1")
        assert "kv" not in zombie.services()
        assert supervised.client.call_name("kv", "get", "k") is None

    def test_unplaced_and_unbound_names_are_skipped(self, supervised):
        supervised.supervisor.supervise(
            "ghost", "ghost", kv_plan(MemoryStore()), supervised.nodes,
            bootstrap=CountingKV,
        )
        supervised.names.unbind("kv")
        supervised.detector.states.update(n1="dead", n2="dead", n3="dead")
        assert supervised.supervisor.check_once() == []
        metrics = supervised.supervisor.metrics()
        assert metrics["failovers"] == 0
        assert metrics["failed_failovers"] == 0

    def test_failover_error_is_counted_and_reported(self):
        errors = []
        rig = SupervisedRig(supervisor_kwargs={"on_error": errors.append})
        try:
            def broken_rebuild(state):
                raise ValueError("corrupt checkpoint")

            rig.plan.rebuild = broken_rebuild
            rig.detector.states["n1"] = "dead"
            assert rig.supervisor.check_once() == []
            assert [str(exc) for exc in errors] == ["corrupt checkpoint"]
            metrics = rig.supervisor.metrics()
            assert metrics["failed_failovers"] == 1
            assert metrics["failovers"] == 0
            assert rig.supervisor.history == []
        finally:
            rig.close()


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class RecordingBus:
    def __init__(self, fail=False):
        self.fail = fail
        self.events = []

    def emit(self, kind, **fields):
        if self.fail:
            raise RuntimeError("bus down")
        self.events.append((kind, fields))


class TestSupervisorRestartPolicy:
    def test_backoff_damps_a_second_move(self):
        clock = FakeClock()
        rig = SupervisedRig(supervisor_kwargs={"clock": clock},
                            spec_kwargs={"backoff": 1.0})
        try:
            rig.detector.states["n1"] = "dead"
            assert [r.to_node for r in rig.supervisor.check_once()] == \
                ["n2"]
            # the new home dies at once: inside the backoff window the
            # supervisor holds still
            rig.detector.states["n2"] = "dead"
            clock.now += 0.5
            assert rig.supervisor.check_once() == []
            assert rig.names.resolve("kv").node_id == "n2"
            clock.now += 1.0
            assert [r.to_node for r in rig.supervisor.check_once()] == \
                ["n3"]
            assert rig.supervisor.metrics()["failovers"] == 2
        finally:
            rig.close()

    def test_failover_cap_gives_up_once(self):
        clock = FakeClock()
        rig = SupervisedRig(supervisor_kwargs={"clock": clock},
                            spec_kwargs={"backoff": 0.0,
                                         "max_failovers": 1})
        try:
            rig.detector.states["n1"] = "dead"
            assert len(rig.supervisor.check_once()) == 1
            rig.detector.states["n2"] = "dead"
            clock.now += 1.0
            assert rig.supervisor.check_once() == []
            assert rig.spec.gave_up
            assert rig.names.resolve("kv").node_id == "n2"
            clock.now += 1.0
            assert rig.supervisor.check_once() == []
            metrics = rig.supervisor.metrics()
            assert metrics["failovers"] == 1
            assert metrics["failed_failovers"] == 1
        finally:
            rig.close()

    def test_failover_emits_a_recovery_event(self):
        bus = RecordingBus()
        rig = SupervisedRig(supervisor_kwargs={"events": bus})
        try:
            report = rig.supervisor.failover(rig.spec, rig.nodes[1],
                                             from_node="n1")
            assert len(bus.events) == 1
            kind, fields = bus.events[0]
            assert kind == "recovery"
            assert fields["method_id"] == "kv"
            assert fields["detail"].startswith(
                f"failover n1 -> n2 epoch {report.epoch}")
            assert fields["duration"] == report.duration
        finally:
            rig.close()

    def test_broken_event_bus_does_not_abort_failover(self):
        errors = []
        rig = SupervisedRig(supervisor_kwargs={
            "events": RecordingBus(fail=True), "on_error": errors.append,
        })
        try:
            report = rig.supervisor.failover(rig.spec, rig.nodes[1],
                                             from_node="n1")
            assert report.to_node == "n2"
            assert rig.names.resolve("kv").node_id == "n2"
            assert [str(exc) for exc in errors] == ["bus down"]
        finally:
            rig.close()

    def test_start_twice_runs_one_loop_and_stop_joins_it(self, supervised):
        supervisor = supervised.supervisor
        assert supervisor.start(interval=0.02) is supervisor
        thread = supervisor._thread
        assert supervisor.start(interval=0.02) is supervisor
        assert supervisor._thread is thread
        supervisor.stop()
        assert supervisor._thread is None
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# the journal as a moderated concern
# ----------------------------------------------------------------------
def buffer_capture(servant):
    buffer = servant.component
    return {"items": buffer.snapshot(), "put": buffer.total_put,
            "taken": buffer.total_taken}


def buffer_rebuild(state=None):
    """A capacity-1 buffer guarded by ``BoundedBufferSync``."""
    from repro.aspects.synchronization import BoundedBufferSync
    from repro.concurrency.buffer import BoundedBuffer
    from repro.core import AspectModerator, ComponentProxy

    state = state or {}
    buffer = BoundedBuffer(1)
    for item in state.get("items", ()):
        buffer.put(item)
    buffer.total_put = state.get("put", 0)
    buffer.total_taken = state.get("taken", 0)
    sync = BoundedBufferSync(buffer, producer="put", consumer="take")
    sync.items = len(buffer)
    moderator = AspectModerator()
    moderator.register_aspect("put", "sync", sync)
    moderator.register_aspect("take", "sync", sync)
    return ComponentProxy(buffer, moderator)


class TestJournalAspect:
    @pytest.mark.parametrize("reactor", [False, True],
                             ids=["threaded", "continuation"])
    def test_take_wakes_a_parked_put_and_recovery_replays_once(
            self, reactor):
        # A journaled mutator parked by the sync aspect holds nothing,
        # so the take that wakes it is not locked out.
        from repro.core.continuation import ContinuationRuntime

        network = Network()
        node = Node("n1", network, workers=2).start()
        store = MemoryStore()
        plan = RecoveryPlan(store, buffer_capture, buffer_rebuild,
                            mutating=["put", "take"])
        proxy = buffer_rebuild()
        runtime = ContinuationRuntime(proxy.moderator) if reactor else None
        node.attach_recovery("buf", plan)
        node.export("buf", proxy, runtime=runtime)
        client = Client("c", network, default_timeout=3.0)
        parked = []
        putter = threading.Thread(target=lambda: parked.append(
            client.call_node("n1", "buf", "put", 2, idempotency_key="p2")))
        try:
            assert client.call_node("n1", "buf", "put", 1,
                                    idempotency_key="p1") is None
            putter.start()
            waited = time.monotonic() + 2.0
            while not proxy.moderator.parked_snapshot() \
                    and time.monotonic() < waited:
                time.sleep(0.005)
            assert proxy.moderator.parked_snapshot()
            started = time.monotonic()
            assert client.call_node("n1", "buf", "take",
                                    idempotency_key="t1") == 1
            assert time.monotonic() - started < 1.0
            putter.join(3.0)
            assert not putter.is_alive() and parked == [None]
            assert client.call_node("n1", "buf", "take",
                                    idempotency_key="t2") == 2
            live = buffer_capture(proxy)
            assert [entry["record"]["method"]
                    for entry in store.entries("buf")] == \
                ["put", "take", "put", "take"]
            node.crash(lose_memory=True)
            recovered = recover_service(plan, "buf",
                                        bootstrap=buffer_rebuild)
            assert recovered.replayed == 4
            assert set(recovered.dedup_seed) == {"p1", "p2", "t1", "t2"}
            assert buffer_capture(recovered.servant) == live == \
                {"items": [], "put": 2, "taken": 2}
        finally:
            putter.join(3.0)
            client.close()
            node.stop()
            if runtime is not None:
                runtime.close()
            network.close()

    def test_a_put_parked_across_detach_is_still_journaled(self):
        # Journaling is decided when serving starts: detaching the plan
        # must not turn an already-parked mutator into an unjournaled
        # apply when it wakes.
        network = Network()
        node = Node("n1", network, workers=2).start()
        store = MemoryStore()
        plan = RecoveryPlan(store, buffer_capture, buffer_rebuild,
                            mutating=["put", "take"])
        proxy = buffer_rebuild()
        node.attach_recovery("buf", plan)
        node.export("buf", proxy)
        client = Client("c", network, default_timeout=3.0)
        putter = threading.Thread(target=lambda: client.call_node(
            "n1", "buf", "put", 2))
        try:
            client.call_node("n1", "buf", "put", 1)
            putter.start()
            waited = time.monotonic() + 2.0
            while not proxy.moderator.parked_snapshot() \
                    and time.monotonic() < waited:
                time.sleep(0.005)
            assert node.detach_recovery("buf") is plan
            assert proxy.take() == 1  # a local call: never journaled
            putter.join(3.0)
            assert not putter.is_alive()
            assert [entry["record"]["args"]
                    for entry in store.entries("buf")] == [[1], [2]]
            assert client.call_node("n1", "buf", "take") == 2
            assert len(store.entries("buf")) == 2  # detached: not journaled
        finally:
            putter.join(3.0)
            client.close()
            node.stop()
            network.close()

    def test_checkpoints_racing_keyed_puts_recover_the_live_state(self):
        network = Network()
        node = Node("n1", network, workers=4).start()
        store = MemoryStore()
        plan = kv_plan(store, checkpoint_every=7)
        servant = CountingKV()
        node.attach_recovery("kv", plan)
        node.export("kv", servant)
        client = Client("c", network, default_timeout=5.0)
        done = threading.Event()
        failures = []

        def checkpointer():
            while not done.is_set():
                node.checkpoint("kv")
                time.sleep(0.001)

        def writer(index):
            try:
                for n in range(150):
                    client.call_node("n1", "kv", "put", f"k{n % 8}",
                                     (index, n),
                                     idempotency_key=f"w{index}:{n}")
            except Exception as exc:  # noqa: BLE001 - asserted below
                failures.append(exc)

        writers = [threading.Thread(target=writer, args=(index,))
                   for index in range(4)]
        checkpoints = threading.Thread(target=checkpointer)
        try:
            checkpoints.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in writers)
        finally:
            done.set()
            checkpoints.join(5.0)
            client.close()
            node.stop()
            network.close()
        assert failures == []
        assert sum(servant.counts.values()) == 600
        recovered = recover_service(plan, "kv")
        assert recovered.servant.counts == servant.counts
        assert recovered.servant.data == servant.data

    def test_journaled_plain_servant_still_receives_caller(self, rig):
        class Ledger:
            def __init__(self, entries=()):
                self.entries = [tuple(entry) for entry in entries]

            def record(self, value, caller=None):
                self.entries.append((value, caller))
                return len(self.entries)

        store = MemoryStore()
        plan = RecoveryPlan(
            store, lambda ledger: {"entries": list(ledger.entries)},
            lambda state: Ledger(state.get("entries", ())),
            mutating=["record"],
        )
        ledger = Ledger()
        rig.node.attach_recovery("ledger", plan)
        rig.node.export("ledger", ledger)
        rig.names.bind("ledger", "n1", "ledger")
        assert rig.client.call_name("ledger", "record", 7,
                                    caller="alice") == 1
        assert ledger.entries == [(7, "alice")]
        record = store.entries("ledger")[0]["record"]
        assert record["caller"] == "alice"
        assert record["kwargs"] == {}
        recovered = recover_service(plan, "ledger", bootstrap=Ledger)
        assert recovered.servant.entries == [(7, "alice")]

"""The four workloads: inputs from a seed, a rig, a closed loop, a gate.

Every workload is a single caller in a closed loop: ``Client`` calls are
synchronous, so a caller that waits for each reply is what this system
serves, and a closed loop never builds a backlog when the host slows
down (its capacity swings up to 1.7x between host phases).

Each workload class provides:

* ``build()`` / ``first_calls(rig)`` — a fresh rig, then one call per
  method; the pair is what ``setup_s`` times;
* ``census(rig)`` — a fixed number of steps from the seed, run before
  timing to fill caches; returns the counts that repeat exactly;
* ``step(rig, window)`` — one closed-loop step, latencies into the
  window;
* ``check(rig)`` — the correctness gate (failures go to ``errors``);
* ``counters(rig)`` — the program's own counters, diffed around traced
  segments;
* ``instrument(rig, ledger, patches)`` — the traced run's spans.
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Any, Dict, List, Optional

from repro.apps import build_ticketing_cluster, make_session_manager
from repro.aspects.audit import AuditLog
from repro.aspects.synchronization import (
    BoundedBufferSync,
    ReadersWriterAspect,
)
from repro.concurrency.buffer import Ticket, TicketStore
from repro.core import AspectModerator, ComponentProxy, ContinuationRuntime
from repro.dist import (
    Client,
    MemoryStore,
    NameService,
    Network,
    Node,
    RecoveryPlan,
)
from repro.obs import ObservabilityPlane

from estimate import Window
from ledger import Ledger, Patches, Span, instrument_cluster, instrument_plane

_now = time.perf_counter_ns

#: length of the generated input cycle (the loop wraps around it)
INPUTS = 8192
#: the planted defects the smoke tests use to prove the gates trip
PLANTS = ("wrong_read", "double_assign")
#: the planted defect fires on this call of the planted method
PLANT_AT = 100

_WORDS = ("printer", "login", "disk", "network", "mail", "vpn", "badge",
          "laptop", "backup", "phone", "license", "screen")


class Workload:
    """Shared plumbing: seeded inputs, gate failures, exact counts."""

    name = ""
    #: steps between checks that a rig is due for replacement
    rotate_steps: Optional[int] = None

    def __init__(self, seed: int, plant: Optional[str] = None) -> None:
        self.seed = seed
        self.plant = plant
        self.rng = random.Random(seed)
        self.errors: List[str] = []
        self.index = 0

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def next_index(self) -> int:
        index = self.index % INPUTS
        self.index += 1
        return index

    def warm(self, rig: Any, steps: int) -> None:
        window = Window()
        for _ in range(steps):
            self.step(rig, window)
        if window.failed:
            self.fail(f"{window.failed} operations failed while warming")


# ----------------------------------------------------------------------
# fig3_local / fig3_observed: the paper's ticketing cluster in-process
# ----------------------------------------------------------------------
class Fig3Rig:
    def __init__(self, cluster: Any, token: str, log: AuditLog,
                 plane: Optional[ObservabilityPlane]) -> None:
        self.cluster = cluster
        self.proxy = cluster.proxy
        self.moderator = cluster.moderator
        self.store = cluster.component
        self.token = token
        self.log = log
        self.plane = plane
        self.calls = 0
        self.steps = 0


class Fig3(Workload):
    """Sync + authenticate + audit around ``open``/``assign`` (Figures 3
    and 13-16); ``observed`` adds the 1-in-16 sampled observability
    plane, the ROADMAP's always-on candidate."""

    CENSUS_STEPS = 2048
    #: a rig's audit log grows one record per call; replacing the rig
    #: keeps memory flat, so ``rss_mb`` does not follow throughput
    rotate_steps = 16384
    SECRET = "bench-secret"

    def __init__(self, seed: int, plant: Optional[str] = None,
                 observed: bool = False) -> None:
        super().__init__(seed, plant)
        self.observed = observed
        self.name = "fig3_observed" if observed else "fig3_local"
        rng = self.rng
        self.summaries = [f"{rng.choice(_WORDS)} fault {rng.getrandbits(24):06x}"
                          for _ in range(INPUTS)]
        self.reporters = [f"user{rng.randrange(64)}" for _ in range(INPUTS)]
        self.severities = [rng.randint(1, 5) for _ in range(INPUTS)]
        self.agents = [f"agent{rng.randrange(16)}" for _ in range(INPUTS)]

    def build(self) -> Fig3Rig:
        sessions = make_session_manager({"bench": self.SECRET})
        token = sessions.login("bench", self.SECRET)
        log = AuditLog()
        cluster = build_ticketing_cluster(capacity=16, sessions=sessions,
                                          audit_log=log)
        plane = None
        if self.observed:
            plane = ObservabilityPlane(cluster.moderator, sample_rate=16)
            plane.enable()
        if self.plant == "double_assign":
            _plant_double_assign(cluster.component)
        return Fig3Rig(cluster, token, log, plane)

    def first_calls(self, rig: Fig3Rig) -> None:
        self.warm(rig, 1)

    def step(self, rig: Fig3Rig, window: Window) -> None:
        index = self.next_index()
        ticket = Ticket(summary=self.summaries[index],
                        reporter=self.reporters[index],
                        severity=self.severities[index])
        call = rig.proxy.call
        token = rig.token
        rig.steps += 1
        started = _now()
        try:
            opened = call("open", ticket, caller=token)
        except Exception as exc:  # noqa: BLE001 - counted, gated
            window.failed += 1
            self.fail(f"open failed: {exc!r}")
            return
        middle = _now()
        window.writes.append(middle - started)
        rig.calls += 1
        try:
            got = call("assign", self.agents[index], caller=token)
        except Exception as exc:  # noqa: BLE001 - counted, gated
            window.failed += 1
            self.fail(f"assign failed: {exc!r}")
            return
        window.reads.append(_now() - middle)
        rig.calls += 1
        if opened != ticket.ticket_id or got.ticket_id != opened:
            self.fail(f"assign returned ticket {got.ticket_id}, "
                      f"expected {ticket.ticket_id}")

    def census(self, rig: Fig3Rig) -> Dict[str, float]:
        sampled_before, activations_before = _sampled(rig.plane)
        self.warm(rig, self.CENSUS_STEPS)
        sampled_after, activations_after = _sampled(rig.plane)
        activations = activations_after - activations_before
        return {"exact.sampled_roots": sampled_after - sampled_before,
                "exact.sampled_roots_per_activation":
                    (sampled_after - sampled_before) / activations
                    if activations else 0.0}

    def check(self, rig: Fig3Rig) -> None:
        stats = rig.moderator.stats.as_dict()
        if stats["blocks"] or stats["aborts"]:
            self.fail(f"{stats['blocks']} blocks and {stats['aborts']} "
                      f"aborts on a never-blocking loop")
        if not rig.log.verify_chain():
            self.fail("audit hash chain does not verify")
        if len(rig.log) != rig.calls:
            self.fail(f"audit log holds {len(rig.log)} records for "
                      f"{rig.calls} calls")

    def close(self, rig: Fig3Rig) -> None:
        if rig.plane is not None:
            rig.plane.disable()

    def counters(self, rig: Fig3Rig) -> Dict[str, float]:
        counts = _moderation(rig.moderator)
        if rig.plane is not None:
            sampled, activations = _sampled(rig.plane)
            counts["obs.sampled"] = sampled
            counts["obs.activations"] = activations
        return counts

    def instrument(self, rig: Fig3Rig, ledger: Ledger,
                   patches: Patches) -> None:
        instrument_cluster(ledger, patches, rig.proxy, rig.moderator,
                           rig.store, ["open", "assign"])
        if rig.plane is not None:
            instrument_plane(ledger, patches, rig.plane)


def _sampled(plane: Optional[ObservabilityPlane]) -> "tuple[int, int]":
    """(span trees sampled, activations counted) by a plane's recorder."""
    if plane is None:
        return 0, 0
    recorder = plane.recorder
    activations = sum(entry["activations"]
                      for entry in recorder.counts.values())
    return len(recorder.finished) + recorder.dropped, activations


def _moderation(*moderators: Any) -> Dict[str, float]:
    counts: Dict[str, float] = {}
    for moderator in moderators:
        for name, value in moderator.stats.as_dict().items():
            key = f"moderator.{name}"
            counts[key] = counts.get(key, 0) + value
    return counts


def _plant_double_assign(store: TicketStore) -> None:
    """Make the ``PLANT_AT``-th ``assign`` take the next ticket but
    return the previous one again."""
    original = store.assign
    state = {"calls": 0, "last": None}

    def assign(agent: str = "agent") -> Ticket:
        state["calls"] += 1
        ticket = original(agent)
        if state["calls"] == PLANT_AT and state["last"] is not None:
            return state["last"]
        state["last"] = ticket
        return ticket
    store.assign = assign


# ----------------------------------------------------------------------
# kv_rpc: a moderated, sharded, journaled KV over the simulated network
# ----------------------------------------------------------------------
class BenchKV:
    """The servant: a plain dict. Its readers/writer aspect, not a lock,
    keeps ``put`` exclusive."""

    def __init__(self, data: Optional[Dict[str, int]] = None) -> None:
        self.data = dict(data or {})

    def get(self, key: str) -> Optional[int]:
        return self.data.get(key)

    def put(self, key: str, value: int) -> int:
        self.data[key] = value
        return value


class KVRig:
    def __init__(self) -> None:
        self.network = Network()
        self.names = NameService()
        self.store = MemoryStore()
        self.nodes: List[Node] = []
        self.proxies: List[ComponentProxy] = []
        self.plans: List[RecoveryPlan] = []
        self.model: Dict[str, int] = {}
        self.puts = 0
        self.checkpoints = 0
        self.ledger: Optional[Ledger] = None
        self.client: Any = None
        self.router: Any = None

    def capture(self, servant: Any) -> Dict[str, Any]:
        """Recovery capture: starts a checkpoint; the store's ``prune``
        ends it (the traced run spans the pair)."""
        self.checkpoints += 1
        if self.ledger is not None:
            self.ledger.open("dist.recovery.checkpoint")
        return {"data": dict(servant.data)}


def _rebuild(state: Dict[str, Any]) -> BenchKV:
    return BenchKV(state.get("data"))


class KV(Workload):
    """One client over ``Network`` to ``kv`` sharded two ways across two
    single-worker nodes; 70% ``get`` / 30% ``put`` over 4096 keys."""

    name = "kv_rpc"
    SHARDS = ("s0", "s1")
    KEYS = 4096
    PUT_SHARE = 0.3
    CHECKPOINT_EVERY = 512
    #: enough puts to fill both nodes' 1024-entry dedup LRUs and to
    #: checkpoint each shard's journal several times before timing
    CENSUS_OPS = 8192
    DEADLINE_S = 5.0

    def __init__(self, seed: int, plant: Optional[str] = None) -> None:
        super().__init__(seed, plant)
        rng = self.rng
        self.ops = [(rng.random() < self.PUT_SHARE,
                     f"k{rng.randrange(self.KEYS):04d}",
                     rng.getrandbits(31)) for _ in range(INPUTS)]
        self.puts_sent = 0

    def build(self) -> KVRig:
        rig = KVRig()
        rig.names.bind_sharded("kv", self.SHARDS, vnodes=64)
        for index, shard in enumerate(self.SHARDS):
            service = f"kv#{shard}"
            node = Node(f"n{index}", rig.network, workers=1).start()
            moderator = AspectModerator()
            rw = ReadersWriterAspect(readers={"get"}, writers={"put"})
            moderator.register_aspect("get", "rw", rw)
            moderator.register_aspect("put", "rw", rw)
            servant = BenchKV()
            if self.plant == "wrong_read":
                _plant_wrong_read(servant)
            proxy = ComponentProxy(servant, moderator)
            plan = RecoveryPlan(rig.store, rig.capture, _rebuild,
                                mutating=["put"],
                                checkpoint_every=self.CHECKPOINT_EVERY)
            node.attach_recovery(service, plan)
            node.export(service, proxy)
            rig.names.bind(service, node.node_id, service)
            rig.nodes.append(node)
            rig.proxies.append(proxy)
            rig.plans.append(plan)
        rig.client = Client("client", rig.network, rig.names,
                            default_timeout=self.DEADLINE_S)
        rig.router = rig.client.shard_router("kv")
        return rig

    def first_calls(self, rig: KVRig) -> None:
        window = Window()
        index = self.next_index()
        _put, key, value = self.ops[index]
        self._call(rig, window, True, key, value)
        self._call(rig, window, False, key, value)

    def step(self, rig: KVRig, window: Window) -> None:
        put, key, value = self.ops[self.next_index()]
        self._call(rig, window, put, key, value)

    def _call(self, rig: KVRig, window: Window, put: bool, key: str,
              value: int) -> None:
        call = rig.router.call
        started = _now()
        try:
            if put:
                self.puts_sent += 1
                result = call("put", key, value, deadline=self.DEADLINE_S,
                              idempotency_key=f"{self.seed}:{self.puts_sent}")
            else:
                result = call("get", key, deadline=self.DEADLINE_S)
        except Exception as exc:  # noqa: BLE001 - counted, gated
            window.failed += 1
            self.fail(f"{'put' if put else 'get'} {key} failed: {exc!r}")
            return
        elapsed = _now() - started
        if put:
            window.writes.append(elapsed)
            rig.puts += 1
            if result != value:
                self.fail(f"put {key} returned {result!r}, sent {value}")
            rig.model[key] = value
        else:
            window.reads.append(elapsed)
            expected = rig.model.get(key)
            if result != expected:
                self.fail(f"get {key} returned {result!r}, last put "
                          f"{expected!r}")

    def census(self, rig: KVRig) -> Dict[str, float]:
        before = self.counters(rig)
        self.warm(rig, self.CENSUS_OPS)
        after = self.counters(rig)
        return {
            "exact.journal_appends":
                after["recovery.appends"] - before["recovery.appends"],
            "exact.journal_checkpoints":
                after["recovery.checkpoints"] - before["recovery.checkpoints"],
            "exact.network_sends_per_call":
                (after["network.sent"] - before["network.sent"])
                / self.CENSUS_OPS,
        }

    def check(self, rig: KVRig) -> None:
        appended = sum(plan.appended for plan in rig.plans)
        if appended != rig.puts:
            self.fail(f"{appended} journal appends for {rig.puts} puts")
        for node in rig.nodes:
            if node.dedup_hits:
                self.fail(f"{node.node_id}: {node.dedup_hits} dedup hits")
            if node.requests_failed:
                self.fail(f"{node.node_id}: {node.requests_failed} "
                          f"failed requests")
        if rig.client.retries or rig.client.timeouts:
            self.fail(f"{rig.client.retries} retries and "
                      f"{rig.client.timeouts} timeouts")

    def close(self, rig: KVRig) -> None:
        rig.network.close()
        rig.client.close()
        for node in rig.nodes:
            node.stop()

    def counters(self, rig: KVRig) -> Dict[str, float]:
        counts = _moderation(*(proxy.moderator for proxy in rig.proxies))
        for name, value in rig.client.metrics().items():
            counts[f"rpc.{name}"] = value
        for node in rig.nodes:
            for name, value in node.metrics().items():
                key = f"node.{name}"
                counts[key] = counts.get(key, 0) + value
            counts["dedup.hits"] = counts.get("dedup.hits", 0) \
                + node.dedup_hits
        counts["network.sent"] = rig.network.sent
        counts["network.dropped"] = rig.network.dropped
        counts["recovery.appends"] = sum(plan.appended for plan in rig.plans)
        counts["recovery.checkpoints"] = rig.checkpoints
        return counts

    def instrument(self, rig: KVRig, ledger: Ledger,
                   patches: Patches) -> None:
        for proxy in rig.proxies:
            instrument_cluster(ledger, patches, proxy, proxy.moderator,
                               proxy.component, ["get", "put"])
        _instrument_rpc(rig, ledger, patches)


def _plant_wrong_read(servant: BenchKV) -> None:
    """Make the ``PLANT_AT``-th ``get`` on this shard return a value
    that was never put."""
    original = servant.get
    state = {"calls": 0}

    def get(key: str) -> Optional[int]:
        state["calls"] += 1
        value = original(key)
        if state["calls"] == PLANT_AT:
            return -1 if value is None else value + 1
        return value
    servant.get = get


def _instrument_rpc(rig: KVRig, ledger: Ledger, patches: Patches) -> None:
    """Spans along the RPC critical path, stitched by message id.

    client: sharding -> rpc -> {naming, network.send, reply_wait};
    dispatcher: network.delivery (both legs);
    node worker: node.inbox_wait, node.serve -> {dedup, proxy ...,
    recovery.append, recovery.checkpoint, network.send}.
    The reply wait's self time is what no other layer covers: the
    client reply thread's inbox wait and its hand-off to the caller.
    """
    timed = ledger.timed
    msg_rid: Dict[int, int] = {}
    sent_end: Dict[int, int] = {}
    delivered: Dict[int, int] = {}
    waits: Dict[int, Span] = {}
    records = ledger.records

    patches.wrap(rig.router, "call", lambda fn: timed("dist.sharding", fn))

    def shard_for(fn):
        def wrapper(*args: Any, **kwargs: Any) -> str:
            shard = fn(*args, **kwargs)
            ledger.count(f"dist.sharding.routes.{shard}")
            return shard
        return wrapper
    patches.wrap(rig.router, "shard_for", shard_for)

    def call_name(fn):
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = ledger.open("dist.rpc")
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                wait = waits.pop(span.rid, None)
                if wait is not None:
                    ledger.close(wait, end)
                ledger.close(span, end)
        return wrapper
    patches.wrap(rig.client, "call_name", call_name)
    patches.wrap(rig.names, "resolve", lambda fn: timed("dist.naming", fn))

    def send(fn):
        def wrapper(message: Any) -> None:
            span = ledger.open("dist.network.send")
            rid = span.rid
            request = message.kind == "request"
            wait = None
            if request:
                # registered before the send: the node may pick the
                # request up before this thread runs again
                wait = Span("dist.rpc.reply_wait", rid, 0, span.parent)
                waits[rid] = wait
            msg_rid[message.msg_id] = rid
            try:
                fn(message)
            finally:
                ledger.close(span)
                sent_end[message.msg_id] = span.end
                if request:
                    wait.start = span.end
                    ledger.stack().append(wait)
                else:
                    msg_rid.pop(message.reply_to, None)
                    stack = ledger.stack()
                    if stack and stack[-1].layer == "dist.node.serve":
                        ledger.close(stack[-1], span.end)
        return wrapper
    patches.wrap(rig.network, "send", send)

    def deliver(fn, final: bool):
        def wrapper(message: Any, *args: Any) -> None:
            now = _now()
            rid = (msg_rid.pop if final else msg_rid.get)(message.msg_id, None)
            if rid is not None:
                start = sent_end.pop(message.msg_id, now)
                ledger.interval("dist.network.delivery", waits.get(rid),
                                rid, start, now)
                if not final:
                    delivered[message.msg_id] = now
            return fn(message, *args)
        return wrapper

    def serve(fn):
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            message = fn(*args, **kwargs)
            now = _now()
            rid = msg_rid.get(message.msg_id)
            if rid is not None and message.kind == "request":
                parent = waits.get(rid)
                ledger.interval("dist.node.inbox_wait", parent, rid,
                                delivered.pop(message.msg_id, now), now)
                ledger.open("dist.node.serve", parent=parent, rid=rid,
                            start=now)
            return message
        return wrapper

    for node in rig.nodes:
        patches.wrap(node.inbox, "put", lambda fn: deliver(fn, False))
        patches.wrap(node.inbox, "get", serve)
        patches.wrap(node.dedup, "begin",
                     lambda fn: timed("dist.resilience.dedup_begin", fn))
        patches.wrap(node.dedup, "finish",
                     lambda fn: timed("dist.resilience.dedup_finish", fn))
    patches.wrap(rig.client.inbox, "put", lambda fn: deliver(fn, True))

    def append(fn):
        def wrapper(service: str, record: Any, *args: Any,
                    **kwargs: Any) -> int:
            span = ledger.open("dist.recovery.append")
            try:
                return fn(service, record, *args, **kwargs)
            finally:
                ledger.close(span)
                if len(records) < 4096:
                    records.append(record)
        return wrapper
    patches.wrap(rig.store, "append", append)

    def prune(fn):
        def wrapper(*args: Any, **kwargs: Any) -> int:
            try:
                return fn(*args, **kwargs)
            finally:
                stack = ledger.stack()
                if stack and stack[-1].layer == "dist.recovery.checkpoint":
                    ledger.close(stack[-1])
        return wrapper
    patches.wrap(rig.store, "prune", prune)
    rig.ledger = ledger
    patches.on_undo(lambda: setattr(rig, "ledger", None))


def record_bytes(records: List[Any]) -> float:
    """Mean size of the JSON encoding of journal records."""
    if not records:
        return 0.0
    return sum(len(json.dumps(record, default=repr))
               for record in records) / len(records)


# ----------------------------------------------------------------------
# tickets_park: BLOCK -> park -> notify -> resume on the reactor
# ----------------------------------------------------------------------
class ParkRig:
    def __init__(self, batch: int) -> None:
        self.moderator = AspectModerator()
        self.store = TicketStore(capacity=batch)
        sync = BoundedBufferSync(self.store, capacity=batch)
        self.moderator.register_aspect("open", "sync", sync)
        self.moderator.register_aspect("assign", "sync", sync)
        self.runtime = ContinuationRuntime(self.moderator, workers=1)
        self.batches = 0
        self.steps = 0


class TicketsPark(Workload):
    """A batch of ``assign``s parks on an empty buffer; the ``open``s
    submitted next wake them. Every ``assign`` parks exactly once.

    The loop first submits a ``hold`` activation (no aspects) whose
    body waits on an event: it keeps the single worker busy until every
    ``open`` of the batch is queued, so no woken ``assign`` can
    re-evaluate before the buffer is full and re-park."""

    name = "tickets_park"
    BATCH = 16
    CENSUS_STEPS = 256
    #: the ticket store keeps every opened and assigned id; replacing
    #: the rig keeps memory flat
    rotate_steps = 2048
    WAIT_S = 10.0

    def __init__(self, seed: int, plant: Optional[str] = None) -> None:
        super().__init__(seed, plant)
        rng = self.rng
        self.summaries = [f"{rng.choice(_WORDS)} fault {rng.getrandbits(24):06x}"
                          for _ in range(INPUTS)]
        self.severities = [rng.randint(1, 5) for _ in range(INPUTS)]
        self.agents = [f"agent{rng.randrange(16)}" for _ in range(INPUTS)]

    def build(self) -> ParkRig:
        rig = ParkRig(self.BATCH)
        if self.plant == "double_assign":
            _plant_double_assign(rig.store)
        return rig

    def first_calls(self, rig: ParkRig) -> None:
        self.warm(rig, 1)

    def step(self, rig: ParkRig, window: Window) -> None:
        submit = rig.runtime.submit
        store = rig.store
        batch = self.BATCH
        done = [0] * (2 * batch)
        futures = []
        began = []
        waits_before = rig.moderator.stats.waits
        for slot in range(batch):
            index = self.next_index()
            began.append(_now())
            future = submit("assign", store.assign, self.agents[index],
                            component=store)
            future.add_callback(
                lambda _f, slot=slot: done.__setitem__(slot, _now()))
            futures.append(future)
        release = threading.Event()
        hold = submit("hold", release.wait, self.WAIT_S)
        for slot in range(batch, 2 * batch):
            index = self.next_index()
            ticket = Ticket(summary=self.summaries[index],
                            severity=self.severities[index])
            began.append(_now())
            future = submit("open", store.open, ticket, component=store)
            future.add_callback(
                lambda _f, slot=slot: done.__setitem__(slot, _now()))
            futures.append(future)
        release.set()
        results = []
        for slot, future in enumerate(futures):
            try:
                results.append(future.result(self.WAIT_S))
            except Exception as exc:  # noqa: BLE001 - counted, gated
                window.failed += 1
                self.fail(f"{'assign' if slot < batch else 'open'} "
                          f"failed: {exc!r}")
                results.append(None)
                continue
            latency = done[slot] - began[slot]
            (window.reads if slot < batch else window.writes).append(latency)
        if not hold.result(self.WAIT_S):
            self.fail("hold activation timed out")
        rig.steps += 1
        parks = rig.moderator.stats.waits - waits_before
        if parks != batch:
            self.fail(f"{parks} parks for {batch} assigns")
        assigned = sorted(t.ticket_id for t in results[:batch]
                          if t is not None)
        opened = sorted(i for i in results[batch:] if i is not None)
        if assigned != opened:
            self.fail(f"assigned ids {assigned} != opened ids {opened}")

    def census(self, rig: ParkRig) -> Dict[str, float]:
        before = rig.moderator.stats.waits
        self.warm(rig, self.CENSUS_STEPS)
        parks = rig.moderator.stats.waits - before
        return {"exact.parks_per_assign":
                parks / (self.CENSUS_STEPS * self.BATCH)}

    def check(self, rig: ParkRig) -> None:
        runtime = rig.runtime
        if runtime.parked_count:
            self.fail(f"{runtime.parked_count} activations still parked")
        if runtime.submitted != runtime.completed:
            self.fail(f"{runtime.submitted} submitted, "
                      f"{runtime.completed} completed")

    def close(self, rig: ParkRig) -> None:
        rig.runtime.close()

    def counters(self, rig: ParkRig) -> Dict[str, float]:
        counts = _moderation(rig.moderator)
        counts["continuation.submitted"] = rig.runtime.submitted
        counts["continuation.parked_peak"] = rig.runtime.parked_peak
        return counts

    def instrument(self, rig: ParkRig, ledger: Ledger,
                   patches: Patches) -> None:
        instrument_cluster(ledger, patches, None, rig.moderator, rig.store,
                           ["open", "assign"])
        _instrument_runtime(rig.runtime, ledger, patches)


class _Request:
    __slots__ = ("root", "ready_at", "parked_at", "done")

    def __init__(self, root: Span) -> None:
        self.root = root
        self.ready_at: Optional[int] = None
        self.parked_at: Optional[int] = None
        self.done = False


class _Segment:
    """Context manager the runtime enters around every segment run of
    one activation: queue wait, park and wake-to-resume intervals are
    read off the gaps between segments."""

    def __init__(self, ledger: Ledger, request: _Request,
                 wakes: List[int]) -> None:
        self.ledger = ledger
        self.request = request
        self.wakes = wakes
        self.span: Optional[Span] = None

    def __enter__(self) -> None:
        now = _now()
        request = self.request
        root = request.root
        ledger = self.ledger
        if request.parked_at is not None:
            woke = min(max(self.wakes[-1], request.parked_at), now)
            ledger.interval("core.continuation.parked", root, root.rid,
                            request.parked_at, woke)
            ledger.interval("core.continuation.wake_to_resume", root,
                            root.rid, woke, now)
            request.parked_at = None
        else:
            ready = request.ready_at if request.ready_at is not None else now
            ledger.interval("core.continuation.queue_wait", root, root.rid,
                            ready, now)
        self.span = ledger.open("core.continuation.segment", parent=root,
                                rid=root.rid, start=now)

    def __exit__(self, *exc_info: Any) -> None:
        self.ledger.close(self.span)
        self.request.root.end = self.span.end
        if not self.request.done:
            self.request.parked_at = self.span.end


def _instrument_runtime(runtime: ContinuationRuntime, ledger: Ledger,
                        patches: Patches) -> None:
    """Each submitted activation is a request: a root from submit to
    its last segment, with the submit call, queue waits, segments, the
    park and the wake-to-resume gap as children. The moderator's
    pre-activation has no public entry on this path: its time is the
    segment's remainder."""
    wakes = [0]

    def submit(fn):
        def wrapper(method_id: str, *args: Any, **kwargs: Any) -> Any:
            rid = ledger.new_rid()
            root = Span("core.continuation", rid, _now(), None)
            request = _Request(root)
            span = ledger.open("core.continuation.submit", parent=root,
                               rid=rid)
            kwargs["wrap"] = lambda: _Segment(ledger, request, wakes)
            try:
                future = fn(method_id, *args, **kwargs)
            finally:
                ledger.close(span)
                request.ready_at = span.end
            future.add_callback(lambda _f: setattr(request, "done", True))
            ledger.closed.append(root)
            return future
        return wrapper
    patches.wrap(runtime, "submit", submit)

    def wake(fn):
        def wrapper(*args: Any, **kwargs: Any) -> None:
            if runtime.parked_count:
                wakes.append(_now())
                del wakes[:-1]
            return fn(*args, **kwargs)
        return wrapper
    patches.wrap(runtime, "wake", wake)


WORKLOADS = {
    "fig3_local": lambda seed, plant=None: Fig3(seed, plant, observed=False),
    "fig3_observed": lambda seed, plant=None: Fig3(seed, plant,
                                                    observed=True),
    "kv_rpc": KV,
    "tickets_park": TicketsPark,
}

"""B-RECOV bench: what the recovery plane costs when off — and on.

The plane's contract (``docs/recovery.md``): with no recovery plan
attached, a node's one serving path must stay within 2% round-trip
latency of the pre-recovery unarmed serving path, kept below as a
verbatim control. This bench measures three configurations of the
same end-to-end call — client → network → node → servant → reply:

* **legacy**      — a node with the recovery deltas removed from the
  serving path verbatim (the pre-recovery control);
* **uninstalled** — the current stack with no recovery plan attached
  (the acceptance bound applies here);
* **journaled**   — an armed, idempotency-keyed mutation whose effect
  is journaled to a :class:`MemoryStore` before the reply leaves (the
  price of durability, reported for EXPERIMENTS.md B-RECOV, not
  bounded).

It also times the supervised failover sequence itself (rebind → fence →
checkpoint load → journal replay → dedup seed → export), reported as
median and quartile milliseconds.

``python benchmarks/bench_recovery.py [--smoke]`` writes
``.bench/BENCH_RECOVERY.json`` (see ``harness.run``); ``pytest
--benchmark-only`` archives the two single-configuration timings.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from typing import Any

from repro.dist import (
    Client,
    MemoryStore,
    NameService,
    Network,
    Node,
    RecoveryPlan,
    Supervisor,
)
from repro.dist.message import check_wire_safe, error_reply, reply
from repro.obs import propagation

import harness

OVERHEAD_BOUND = 0.02  # uninstalled round-trip latency bound (2%)
SMOKE = dict(iterations=400, rounds=24, attempts=4)  # --smoke, pytest gate


class KVServant:
    def __init__(self, data=None):
        self._lock = threading.Lock()
        self.data = dict(data or {})

    def put(self, key, value):
        with self._lock:
            self.data[key] = value
            return len(self.data)

    def get(self, key):
        return self.data.get(key)


def kv_capture(servant):
    return {"data": dict(servant.data)}


def kv_rebuild(state):
    return KVServant(data=state.get("data"))


# ----------------------------------------------------------------------
# legacy control: the pre-recovery unarmed serving path, verbatim
# ----------------------------------------------------------------------
class LegacyNode(Node):
    """Current :class:`Node` with the recovery deltas removed.

    The unarmed ``_handle_request`` body below is the pre-recovery
    inline serving path verbatim, reading the request's payload as it
    did: no journaled-method routing, no crash points, no
    fence/deadline/claim steps. The stock node serves every request on
    its one path; this control is what that path is bounded against.
    Armed requests (never measured on this control) delegate to the
    stock handler.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # the pre-recovery node's bound single-counter increment, which
        # the verbatim body below still calls
        self._inc = self._counters.inc

    def _handle_request(self, request: Any) -> None:
        message = request.message
        payload = message.payload
        budget = payload.get("deadline_budget")
        key = payload.get("idempotency_key")
        if key is not None or budget is not None:
            Node._handle_request(self, request)
            return
        service = payload.get("service", "")
        method = payload.get("method", "")
        if self._runtimes and self._serve_on_reactor(request):
            return
        args = tuple(payload.get("args", ()))
        kwargs = dict(payload.get("kwargs", {}))
        caller = payload.get("caller")
        context = propagation.from_wire(payload.get("trace"))
        with self._lock:
            servant = self._servants.get(service)
            if servant is None:
                moving = service in self._moving
            else:
                self._inflight[service] = \
                    self._inflight.get(service, 0) + 1
        try:
            if servant is None:
                raise self._unavailable(service, moving)
            try:
                with propagation.activate(context):
                    target = getattr(servant, method)
                    if caller is not None \
                            and self._accepts_caller(target):
                        kwargs.setdefault("caller", caller)
                    result = target(*args, **kwargs)
            finally:
                self._release(service)
            response = reply(message, self._wire_result(result))
            self._inc("requests_served")
        except BaseException as exc:  # noqa: BLE001 - to the caller
            self._inc("requests_failed")
            response = error_reply(message, exc)
        try:
            self.network.send(response)
        except Exception:  # noqa: BLE001 - reply to a vanished client
            pass

    @staticmethod
    def _wire_result(result: Any) -> Any:
        """The pre-recovery result coercion, verbatim: a check here,
        then the reply's own (the stock node checks once)."""
        if check_wire_safe(result):
            return result
        if hasattr(result, "__dict__"):
            flat = {
                key: value for key, value in vars(result).items()
                if check_wire_safe(value)
            }
            flat["__type__"] = type(result).__name__
            return flat
        return repr(result)


# ----------------------------------------------------------------------
# rigs
# ----------------------------------------------------------------------
class Rig:
    """One client/node pair on a private network, plus its call thunk."""

    def __init__(self, *, legacy=False, journaled=False):
        self.network = Network()
        node_class = LegacyNode if legacy else Node
        self.node = node_class("server", self.network).start()
        self.client = Client("client", self.network)
        servant = KVServant()
        if journaled:
            self.store = MemoryStore()
            self.plan = RecoveryPlan(self.store, kv_capture, kv_rebuild,
                                     mutating=["put"])
            self.node.attach_recovery("kv", self.plan)
            self.node.export("kv", servant, epoch=1)
            sequence = itertools.count()
            # every call is a fresh logical mutation: unique key, so
            # the dedup cache never replays and every effect journals
            self.call = lambda: self.client.call_node(
                "server", "kv", "put", f"k{next(sequence)}", 1,
                timeout=5.0,
                idempotency_key=f"bench:{next(sequence)}",
            )
        else:
            self.node.export("kv", servant)
            sequence = itertools.count()
            self.call = lambda: self.client.call_node(
                "server", "kv", "put", f"k{next(sequence)}", 1,
                timeout=5.0,
            )

    def close(self):
        self.network.close()
        self.client.close()
        self.node.stop()


@contextlib.contextmanager
def round_rigs(facts):
    """Fresh legacy/uninstalled/journaled rigs for one round; on exit,
    checks that the uninstalled node journaled nothing and every
    journaled-rig mutation hit the durable log, then closes all three."""
    legacy = Rig(legacy=True)
    uninstalled = Rig()
    journaled = Rig(journaled=True)
    try:
        rigs = {"legacy": legacy, "uninstalled": uninstalled,
                "journaled": journaled}
        for rig in rigs.values():
            assert rig.call() >= 1
        yield {name: rig.call for name, rig in rigs.items()}
        assert uninstalled.node._journals == {}
        facts["journal_appends_last_round"] = journaled.store.last_seq("kv")
        assert facts["journal_appends_last_round"] > 0
    finally:
        legacy.close()
        uninstalled.close()
        journaled.close()


def check_roundtrip(roundtrip):
    return harness.overhead_failures(roundtrip,
                                     {"uninstalled": OVERHEAD_BOUND})


def measure(iterations=1000, rounds=24, attempts=3):
    """Paired fresh-rig rounds of legacy/uninstalled/journaled trips,
    each side a floor of interleaved sub-chunks, re-measured while over
    bound (the same protocol as ``bench_resilience``)."""
    return harness.remeasure(
        lambda: harness.paired_rounds(
            round_rigs, "legacy", "uninstalled", extras=("journaled",),
            rounds=rounds, iterations=iterations,
            timer=harness.floor_pair_ns,
            extra_iterations=max(iterations // 5, 20),
            warm_iterations=max(iterations // 10, 10), fresh=True),
        attempts, key=lambda results: results["ratio"]["uninstalled"],
        failures=check_roundtrip,
    )


def measure_failover(keys=200, suffix=50, rounds=10):
    """Median and quartile wall time of the supervised failover sequence.

    Each round rebuilds the durable store with a ``keys``-entry
    checkpoint plus a ``suffix``-record journal, then times
    ``Supervisor.place`` onto a fresh node: rebind → fence → checkpoint
    load → journal replay → dedup seed → export → baseline checkpoint.
    """
    network = Network()
    durations = []
    replayed = 0
    try:
        for round_index in range(rounds):
            names = NameService()
            store = MemoryStore()
            plan = RecoveryPlan(store, kv_capture, kv_rebuild,
                                mutating=["put"])
            state = {"data": {f"k{n}": n for n in range(keys)}}
            store.save_checkpoint("kv", {"state": state, "seq": 0})
            for n in range(suffix):
                store.append("kv", {
                    "method": "put", "args": [f"s{n}", n], "kwargs": {},
                    "caller": None, "key": f"c:{n}",
                    "reply": {"kind": "reply",
                              "payload": {"result": keys + n}},
                })
            supervisor = Supervisor(names, detector=None)
            spec = supervisor.supervise("kv", "kv", plan, [])
            target = Node(f"t{round_index}", network).start()
            started = time.perf_counter()
            _binding, recovered = supervisor.place(spec, target)
            durations.append(time.perf_counter() - started)
            replayed = recovered.replayed
            target.stop()
        return {
            "checkpoint_keys": keys,
            "journal_suffix": suffix,
            "rounds": rounds,
            "ms": harness.spread([d * 1000.0 for d in durations]),
            "replayed": replayed,
        }
    finally:
        network.close()


def measure_all(smoke):
    return {"roundtrip": measure(**SMOKE) if smoke else measure(),
            "failover": measure_failover(rounds=5 if smoke else 10)}


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_uninstalled_fast_path_within_bound():
    assert not check_roundtrip(measure(**SMOKE))


def test_bench_roundtrip_uninstalled(benchmark):
    rig = Rig()
    try:
        assert benchmark(rig.call) >= 1
    finally:
        rig.close()


def test_bench_roundtrip_journaled(benchmark):
    rig = Rig(journaled=True)
    try:
        assert benchmark(rig.call) >= 1
    finally:
        rig.close()


def main(argv=None):
    return harness.run(argv, __doc__, "BENCH_RECOVERY.json", measure_all,
                       {"roundtrip": check_roundtrip},
                       {"uninstalled_overhead": OVERHEAD_BOUND})


if __name__ == "__main__":
    import sys

    sys.exit(main())

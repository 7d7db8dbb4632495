"""Differential proof: a 1-in-16 sampled plane loses fidelity, not accuracy.

One seeded Figure-3 workload runs twice per runtime, once under an
:class:`~repro.obs.plane.ObservabilityPlane` at ``sample_rate=1`` and
once at ``sample_rate=16``. The mix has good-token ``open``s, ``assign``s
that park on an empty buffer until the next ``open`` wakes them,
bad-token calls that ``authenticate`` aborts, and ``boom`` opens whose
``flaky`` aspect raises until its fail-open cell is quarantined. It runs
on the threaded runtime (the parked ``assign`` on a helper thread) and on
a one-worker :class:`~repro.core.continuation.ContinuationRuntime`.

Both rates must agree on everything the plane promises to keep exact:

* every registry counter, and every histogram's bucket counts (sums are
  float totals whose rounding depends on merge order, so they are left
  out);
* ``recorder.counts``;
* span trees: the rate-16 recorder grows trees for exactly the
  activations 1, 17, 33, ... of the run, each shaped like the rate-1
  tree of the same activation;
* wake edges: every edge into a sampled activation names the notifier
  the full-fidelity run names;
* no listener ever raised.

The script is sequential (one call in flight, a parked call resumes
before the next step), so both rates see the same interleaving. The
moderator's clock is replaced by a deterministic ticking clock, so
latency histograms are comparable bucket by bucket.
"""

import itertools
import random
import threading
import time

import pytest

import repro.core.moderator as moderator_module
from repro.apps.ticketing import build_ticketing_cluster, make_session_manager
from repro.aspects.audit import AuditLog
from repro.concurrency.buffer import Ticket
from repro.core import (
    AspectFault,
    ContinuationRuntime,
    FunctionAspect,
    MethodAborted,
)
from repro.core.joinpoint import JoinPoint
from repro.core.moderator import ConditionSeam
from repro.core.results import AspectResult
from repro.obs import ObservabilityPlane

pytestmark = pytest.mark.differential

RATE = 16
SECRET = "sampling-secret"
RUNTIMES = ("threaded", "continuation")
SEEDS = (3, 11)


class _TickingClock:
    """A deterministic stand-in for ``time.monotonic``.

    Every read advances by a varying step (4-52 µs), so phase latencies
    spread over several histogram buckets, identically on every run that
    makes the same reads.
    """

    def __init__(self):
        self._reads = itertools.count()
        self._now = 1000.0

    def monotonic(self):
        step = next(self._reads) * 7 % 13 + 1
        self._now += step * 4e-6
        return self._now


@pytest.fixture
def ticking_clock(monkeypatch):
    """Route the moderator's clock reads through a fresh ticking clock."""

    def install():
        clock = _TickingClock()
        monkeypatch.setattr(moderator_module, "time", clock)
        monkeypatch.setattr(ConditionSeam, "now",
                            staticmethod(clock.monotonic))
        return clock

    return install


def _script(seed, length=260):
    """A seeded op list: opens, assigns, bad-token calls and boom opens."""
    rng = random.Random(seed)
    ops = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.08:
            ops.append(("bad", rng.choice(("open", "assign"))))
        elif roll < 0.14:
            ops.append(("boom",))
        elif roll < 0.40:
            ops.append(("open",))
        else:
            ops.append(("assign",))
    return ops


def _flaky_precondition(joinpoint):
    if joinpoint.args[0].summary.startswith("boom"):
        raise RuntimeError("flaky aspect")
    return AspectResult.RESUME


class _Run:
    """One cluster, one plane, one runtime; drives the script."""

    def __init__(self, runtime, rate, clock):
        sessions = make_session_manager({"bench": SECRET})
        self.token = sessions.login("bench", SECRET)
        self.cluster = build_ticketing_cluster(
            capacity=8, sessions=sessions, audit_log=AuditLog(),
        )
        self.moderator = self.cluster.moderator
        self.store = self.cluster.component
        self.moderator.register_aspect(
            "open", "flaky",
            FunctionAspect(concern="flaky",
                           precondition=_flaky_precondition),
            fault_policy="fail_open", fault_threshold=3,
        )
        self.plane = ObservabilityPlane(self.moderator, sample_rate=rate)
        self.runtime = None
        if runtime == "continuation":
            self.runtime = ContinuationRuntime(self.moderator, workers=1)
            self.runtime.now = clock.monotonic
        self.outcomes = []
        self.tickets = itertools.count()

    # -- one call ------------------------------------------------------
    def _args(self, method):
        if method == "open":
            index = next(self.tickets)
            return (Ticket(summary=f"ticket {index}", reporter="r"),)
        return ("agent",)

    def _start_with(self, method, args, caller, inline=False):
        if self.runtime is not None:
            future = self.runtime.submit(
                method, getattr(self.store, method), *args,
                component=self.store, caller=caller,
            )
            return lambda: future.result(timeout=10.0)
        if inline:
            return lambda: self.cluster.proxy.call(method, *args,
                                                   caller=caller)
        box = {}

        def call():
            try:
                box["value"] = self.cluster.proxy.call(
                    method, *args, caller=caller
                )
            except Exception as exc:  # noqa: BLE001 - recorded
                box["error"] = exc

        thread = threading.Thread(target=call, daemon=True)
        thread.start()

        def result():
            thread.join(10.0)
            assert not thread.is_alive(), f"{method} wedged"
            if "error" in box:
                raise box["error"]
            return box["value"]

        return result

    def _call(self, method, caller, args=None):
        if args is None:
            args = self._args(method)
        result = self._start_with(method, args, caller, inline=True)
        try:
            value = result()
        except MethodAborted as exc:
            self.outcomes.append(("aborted", method, exc.concern))
            return
        except AspectFault as fault:
            self.outcomes.append(("fault", method, fault.concern))
            return
        self.outcomes.append(("ok", method, getattr(value, "summary",
                                                    None)))

    def _await_park(self):
        deadline = time.monotonic() + 10.0
        while not self.moderator.parked_snapshot():
            assert time.monotonic() < deadline, "assign never parked"
            time.sleep(0.0005)

    # -- the script ------------------------------------------------------
    def drive(self, ops):
        self.plane.enable()
        try:
            for op in ops:
                self._step(op)
        finally:
            self.plane.disable()
            if self.runtime is not None:
                self.runtime.close()

    def _step(self, op):
        kind = op[0]
        pending = self.store.pending
        if kind == "bad":
            self._call(op[1], "forged-token")
        elif kind == "boom":
            index = next(self.tickets)
            ticket = Ticket(summary=f"boom {index}", reporter="r")
            if pending < self.store.capacity:
                self._call("open", self.token, args=(ticket,))
        elif kind == "open" and pending < self.store.capacity:
            self._call("open", self.token)
        elif pending:
            self._call("assign", self.token)
        else:
            # park: the assign blocks on the empty buffer until the next
            # open's notify wakes it; both finish before the next step
            parked = self._start_with("assign", self._args("assign"),
                                      self.token)
            self._await_park()
            self._call("open", self.token)
            try:
                value = parked()
            except Exception as exc:  # noqa: BLE001 - recorded
                self.outcomes.append(("error", "assign", repr(exc)))
            else:
                self.outcomes.append(("ok", "assign", value.summary))


def _span_shape(span):
    annotations = tuple(text for _ts, text in span.annotations)
    return (
        span.name, span.concern, span.status, annotations,
        tuple(_span_shape(child) for child in span.children),
    )


def _registry(registry):
    """Counters as values, histograms as bucket counts (sums excluded)."""
    snapshot = {}
    for name, samples in registry.snapshot().items():
        snapshot[name] = {
            labels: (value.counts, value.count)
            if hasattr(value, "counts") else value
            for labels, value in samples.items()
        }
    return snapshot


def _observe(runtime, rate, ops, install_clock):
    clock = install_clock()
    # Activation ids come from a process-global counter; a probe join
    # point taken just before the run anchors each activation's ordinal.
    base = JoinPoint(method_id="probe").activation_id
    run = _Run(runtime, rate, clock)
    run.drive(ops)
    recorder = run.plane.recorder
    roots = recorder.all_roots()
    edges = {
        edge.woken_activation - base:
            edge.notifier_activation - base
            if edge.notifier_activation else 0
        for edge in recorder.wake_edges
    }
    return {
        "outcomes": run.outcomes,
        "registry": _registry(run.plane.registry),
        "counts": recorder.counts,
        "trees": {
            root.activation_id - base: (root.method_id,) + _span_shape(root)
            for root in roots
        },
        "edges": edges,
        "orphans": [(event.kind, event.method_id, event.detail)
                    for event in recorder.orphans],
        "activations": sum(entry["activations"]
                           for entry in recorder.counts.values()),
        "listener_errors": run.moderator.events.listener_errors,
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_sampled_plane_matches_full_fidelity(runtime, seed, ticking_clock):
    ops = _script(seed)
    full = _observe(runtime, 1, ops, ticking_clock)
    sampled = _observe(runtime, RATE, ops, ticking_clock)

    assert full["listener_errors"] == sampled["listener_errors"] == 0
    # the same workload ran: outcomes (assigns name the drained ticket)
    assert sampled["outcomes"] == full["outcomes"]
    kinds = {outcome[0] for outcome in full["outcomes"]}
    assert {"ok", "aborted", "fault"} <= kinds
    assert sampled["registry"] == full["registry"]
    assert sampled["counts"] == full["counts"]

    activations = full["activations"]
    assert sorted(full["trees"]) == list(range(1, activations + 1))
    expected = list(range(1, activations + 1, RATE))
    assert sorted(sampled["trees"]) == expected
    for ordinal in expected:
        assert sampled["trees"][ordinal] == full["trees"][ordinal]

    # every sampled run saw parks wake, and attributes them identically
    assert sampled["edges"], "no parked activation was sampled"
    for woken, notifier in sampled["edges"].items():
        assert woken in sampled["trees"]
        assert full["edges"][woken] == notifier
    assert sampled["orphans"] == full["orphans"]

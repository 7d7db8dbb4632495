"""Differential proof: threaded runtime ≡ continuation runtime ≡ oracle.

Both runtimes run Figure 11's loop through one moderator stepper that
differs only at its park seam (``Condition.wait`` vs. a parked-table
entry). The reference both are held to is
:class:`tests.oracle.ThreadedReferenceModerator`: the threaded loop as
it was written before the merge, kept as a test oracle. This suite runs
the fault-chaos composition (audit, mutex, semaphore(2), fail-open
probe, a deterministic contract-interfering tamper aspect, and a
declared contract on ``push``) three times per fault schedule — through
``ComponentProxy`` on the calling thread over the oracle and over the
production moderator, and submitted to a
:class:`~repro.core.continuation.ContinuationRuntime` — through an
identical sequential call script, and requires equal observations:

* per-call outcomes (result / abort / fault signature / contract
  verdict with blame and evidence shape);
* the full protocol event stream (activation ids normalized to
  appearance order — they are drawn from a process-global counter);
* span-tree shapes with recording on, and recorder orphans;
* every moderation counter except ``plan_compiles``;
* accepted values, at-rest aspect state, injector fired schedule,
  quarantine state and fault accounting;
* the compiled plan's segment partition (both runtimes execute the
  same segment sequence — the seams where they may suspend).

The schedule space is the chaos suite's own (imported, not re-derived):
every single-fault and every double-fault plan, 228 schedules.
Sequential driving (one reactor worker, one call in flight) makes every
run deterministic — a divergence is a semantic difference, not an
interleaving artifact.

Sequential chaos calls never park, so scripted parking scenarios cover
the park seam itself: park → wake → admit, park → deadline → final-round
admit, park → deadline → timeout, and park → lock-domain move → re-park
→ admit. The blocked call runs on a helper thread (or the reactor), and
the script steps only once ``parked_snapshot()`` shows the park.
"""

import threading
import time

import pytest

from repro.contracts import ContractRegistry, ContractViolation
from repro.core import (
    ActivationTimeout,
    AspectFault,
    AspectModerator,
    ComponentProxy,
    CompositionErrors,
    ContinuationRuntime,
    MethodAborted,
    NullAspect,
    Tracer,
)
from repro.core.aspect import FunctionAspect
from repro.core.results import BLOCK, RESUME
from repro.aspects.audit import AuditAspect
from repro.aspects.synchronization import MutexAspect, SemaphoreAspect
from repro.faults import FaultInjector, FaultPlan
from repro.obs.spans import SpanRecorder

from tests.oracle import ThreadedReferenceModerator

from tests.properties.test_fault_chaos import (
    CALLS,
    DOUBLE_PLANS,
    SINGLE_PLANS,
    THREADS,
)

pytestmark = pytest.mark.differential

#: the three sides every observation is compared across; the first is
#: the reference
SIDES = ("oracle", "threaded", "continuation")

#: values whose activation the tamper aspect interferes with — every
#: schedule sees both clean calls and contract-convicted calls
_TAMPERED = frozenset(
    index * 100 + call
    for index in range(THREADS) for call in range(CALLS)
    if (index * 100 + call) % 2 == 0
)


class Sink:
    def __init__(self):
        self.accepted = []
        self.checksum = 0

    def push(self, value):
        self.accepted.append(value)
        self.checksum += value
        return value


class TamperAspect(NullAspect):
    """Deterministic interference: skims the contract observable."""

    concern = "tamper"

    def evaluate_precondition(self, joinpoint):
        if joinpoint.args and joinpoint.args[0] in _TAMPERED:
            joinpoint.component.checksum += 1
        return super().evaluate_precondition(joinpoint)


def _moderator_for(side, **kwargs):
    if side == "oracle":
        return ThreadedReferenceModerator(**kwargs)
    return AspectModerator(**kwargs)


def _build(side):
    moderator = _moderator_for(side, default_timeout=10.0,
                               fault_threshold=2)
    audit = AuditAspect()
    mutex = MutexAspect()
    semaphore = SemaphoreAspect(2)
    probe = FunctionAspect(concern="probe")
    moderator.register_aspect("push", "audit", audit)
    moderator.register_aspect("push", "mutex", mutex)
    moderator.register_aspect("push", "semaphore", semaphore)
    moderator.register_aspect("push", "probe", probe,
                              fault_policy="fail_open")
    moderator.register_aspect("push", "tamper", TamperAspect())

    registry = ContractRegistry(node="diff")
    registry.declare(
        "push",
        require=[("value_int",
                  lambda jp: isinstance(jp.args[0], int))],
        ensure=[("checksum_grew",
                 lambda jp, old: jp.component.checksum
                 == old.checksum + jp.args[0])],
        observables=("checksum",),
    )
    registry.install(moderator)

    sink = Sink()
    aspects = {"mutex": mutex, "semaphore": semaphore}
    return moderator, aspects, sink, ComponentProxy(sink, moderator)


def _fault_signature(fault):
    if isinstance(fault, CompositionErrors):
        return ("composition",) + tuple(
            _fault_signature(part) for part in fault.exceptions
        )
    assert isinstance(fault, AspectFault)
    return ("aspect_fault", fault.concern, fault.phase)


def _verdict_signature(violation):
    """The id-free shape of one verdict, evidence included."""
    return (
        violation.method_id, violation.clause, violation.kind,
        violation.blame,
        tuple(
            (record["seam"], record.get("concern", ""),
             tuple(record.get("changed", ())))
            for record in violation.evidence
        ),
    )


def _normalize_events(events):
    ordinals = {}
    normalized = []
    for event in events:
        aid = event.activation_id
        if aid not in ordinals:
            ordinals[aid] = len(ordinals)
        normalized.append((
            event.kind, event.method_id, event.concern, event.detail,
            ordinals[aid],
        ))
    return normalized


def _span_shape(span):
    annotations = tuple(text for _ts, text in span.annotations)
    return (
        span.name, span.concern, span.status, annotations,
        tuple(_span_shape(child) for child in span.children),
    )


def _observe(side, plan):
    continuation = side == "continuation"
    moderator, aspects, sink, proxy = _build(side)
    injector = FaultInjector(plan)
    injector.install(moderator)
    tracer = Tracer()
    recorder = SpanRecorder(node="diff")
    unsubscribe = moderator.events.subscribe(tracer)
    unsubscribe_spans = moderator.events.subscribe(recorder)
    runtime = None
    if continuation:
        # One worker, one call in flight at a time: futures are awaited
        # immediately, so the reactor replays the threaded interleaving.
        runtime = ContinuationRuntime(moderator, workers=1)

    def body(value):
        return sink.push(value)

    outcomes = []
    try:
        for index in range(THREADS):
            for call_index in range(CALLS):
                value = index * 100 + call_index
                try:
                    if continuation:
                        outcomes.append((
                            "ok",
                            runtime.submit(
                                "push", body, value, component=sink
                            ).result(timeout=30.0),
                        ))
                    else:
                        outcomes.append(("ok", proxy.push(value)))
                except ContractViolation as violation:
                    outcomes.append(
                        ("contract", value, _verdict_signature(violation))
                    )
                except MethodAborted as exc:
                    outcomes.append(("aborted", value, exc.concern))
                except (AspectFault, CompositionErrors) as fault:
                    outcomes.append(
                        ("fault", value, _fault_signature(fault))
                    )
    finally:
        unsubscribe()
        unsubscribe_spans()
        if runtime is not None:
            runtime.close()

    stats = moderator.stats.as_dict()
    stats.pop("plan_compiles")
    return {
        "outcomes": outcomes,
        "events": _normalize_events(tracer.events),
        "span_shapes": [
            (root.method_id,) + _span_shape(root)
            for root in recorder.all_roots()
        ],
        "span_orphans": [
            (event.kind, event.concern, event.detail)
            for event in recorder.orphans
        ],
        "stats": stats,
        "accepted": list(sink.accepted),
        "checksum": sink.checksum,
        "fired": injector.fired_summary(),
        "mutex_holder": aspects["mutex"].holder,
        "semaphore_in_use": aspects["semaphore"].in_use,
        "quarantined": moderator.health.quarantined_cells(),
        "fault_counts": {
            cell: (record["faults"], record["quarantined"])
            for cell, record in moderator.health.snapshot().items()
        },
        "segments": [
            (segment.index, segment.start, segment.can_block,
             tuple(cell.concern for cell in segment.cells))
            for segment in moderator.plan_for("push").segments
        ],
    }


def _assert_sides_identical(observations, label):
    reference = observations["oracle"]
    for side in SIDES[1:]:
        observed = observations[side]
        for key in reference:
            assert observed[key] == reference[key], (
                f"{key} diverged ({side} vs oracle) under {label}:\n"
                f"  oracle: {reference[key]!r}\n"
                f"  {side}: {observed[key]!r}"
            )


def _assert_identical(plan):
    observations = {side: _observe(side, plan) for side in SIDES}
    _assert_sides_identical(observations, f"plan {plan.describe()}")
    # every side fully unwound — nothing wedged, nothing leaked
    assert observations["oracle"]["mutex_holder"] is None
    assert observations["oracle"]["semaphore_in_use"] == 0


@pytest.mark.parametrize(
    "plan", SINGLE_PLANS, ids=[plan.describe() for plan in SINGLE_PLANS])
def test_single_fault_schedules_identical(plan):
    _assert_identical(plan)


@pytest.mark.parametrize(
    "plan", DOUBLE_PLANS, ids=[plan.describe() for plan in DOUBLE_PLANS])
def test_double_fault_schedules_identical(plan):
    _assert_identical(plan)


def test_fault_free_run_identical():
    _assert_identical(FaultPlan())


def test_plan_space_is_the_chaos_suites():
    """Guard: the imported schedule space stays the chaos suite's full
    enumeration (24 single-fault + 204 double-fault plans)."""
    assert len(SINGLE_PLANS) == 24
    assert len(DOUBLE_PLANS) == 204


# ----------------------------------------------------------------------
# scripted parking scenarios: the park seam itself
# ----------------------------------------------------------------------
class Gate(NullAspect):
    """Guarded suspension: BLOCKs until :attr:`open` flips."""

    concern = "gate"
    never_blocks = False

    def __init__(self):
        self.open = False

    def evaluate_precondition(self, joinpoint):
        return RESUME if self.open else BLOCK


class HoldUnblocked:
    """Bus listener that holds a woken activation's ``unblocked`` emit.

    The step that wakes a parked activation may emit events of its own
    after the wake (``assign_lock_domain`` emits ``lock_domain``). While
    the hold is armed, the woken side waits inside its ``unblocked``
    emit until the script releases it, so the script's events always
    land first and the stream stays deterministic.
    """

    def __init__(self):
        self._released = threading.Event()
        self._released.set()

    def __call__(self, event):
        if event.kind == "unblocked":
            assert self._released.wait(10.0), "hold never released"

    def __enter__(self):
        self._released.clear()

    def __exit__(self, *exc_info):
        self._released.set()


class ParkingRun:
    """One side of a parking scenario: a single ``push`` that parks."""

    def __init__(self, side):
        self.side = side
        self.moderator = _moderator_for(side)
        self.gate = Gate()
        self.semaphore = SemaphoreAspect(1)
        self.moderator.register_aspect("push", "audit", AuditAspect())
        self.moderator.register_aspect("push", "semaphore", self.semaphore)
        self.moderator.register_aspect("push", "gate", self.gate)
        self.sink = Sink()
        self.proxy = ComponentProxy(self.sink, self.moderator)
        self.hold = HoldUnblocked()
        self.tracer = Tracer()
        self.recorder = SpanRecorder(node="diff")
        # the hold first: a held emit reaches no recorder until released
        self._unsubscribe = [
            self.moderator.events.subscribe(listener)
            for listener in (self.hold, self.tracer, self.recorder)
        ]
        self.runtime = (
            ContinuationRuntime(self.moderator, workers=1)
            if side == "continuation" else None
        )
        self._future = None
        self._thread = None
        self._outcome = None

    def start(self, value, timeout):
        if self.runtime is not None:
            self._future = self.runtime.submit(
                "push", self.sink.push, value, component=self.sink,
                timeout=timeout,
            )
            return

        def call():
            try:
                self._outcome = (
                    "ok", self.proxy.call("push", value, timeout=timeout)
                )
            except ActivationTimeout as exc:
                self._outcome = ("timeout", exc.method_id, exc.timeout)

        self._thread = threading.Thread(target=call, daemon=True)
        self._thread.start()

    def await_parks(self, count):
        """Step until the ``count``-th park is registered and visible."""
        deadline = time.monotonic() + 10.0
        while not (self.moderator.stats.waits >= count
                   and self.moderator.parked_snapshot()):
            assert time.monotonic() < deadline, f"park {count} never seen"
            time.sleep(0.001)

    def outcome(self):
        if self.runtime is None:
            self._thread.join(10.0)
            assert not self._thread.is_alive(), "blocked call wedged"
            return self._outcome
        try:
            return ("ok", self._future.result(timeout=10.0))
        except ActivationTimeout as exc:
            return ("timeout", exc.method_id, exc.timeout)

    def observe(self, outcome):
        for unsubscribe in self._unsubscribe:
            unsubscribe()
        if self.runtime is not None:
            self.runtime.close()
        stats = self.moderator.stats.as_dict()
        stats.pop("plan_compiles")
        return {
            "outcomes": [outcome],
            "events": _normalize_events(self.tracer.events),
            "span_shapes": [
                (root.method_id,) + _span_shape(root)
                for root in self.recorder.all_roots()
            ],
            "span_orphans": [
                (event.kind, event.concern, event.detail)
                for event in self.recorder.orphans
            ],
            "stats": stats,
            "accepted": list(self.sink.accepted),
            "semaphore_in_use": self.semaphore.in_use,
            "lock_domain": self.moderator.lock_domain_of("push"),
            "parked": self.moderator.parked_snapshot(),
        }


def _park_wake_admit(run):
    run.start(7, timeout=None)
    run.await_parks(1)
    run.gate.open = True
    with run.hold:
        run.moderator.notify("push")
    return run.outcome()


def _park_deadline_admit(run):
    run.start(7, timeout=0.5)
    run.await_parks(1)
    # No notify: only the final round after the deadline sees the gate.
    run.gate.open = True
    return run.outcome()


def _park_deadline_timeout(run):
    run.start(7, timeout=0.05)
    run.await_parks(1)
    return run.outcome()


def _park_move_repark_admit(run):
    run.start(7, timeout=None)
    run.await_parks(1)
    with run.hold:
        run.moderator.assign_lock_domain("moved", "push")
    run.await_parks(2)
    run.gate.open = True
    with run.hold:
        run.moderator.notify("push")
    return run.outcome()


PARKING_SCENARIOS = {
    "park-wake-admit": (_park_wake_admit, ("ok", 7), 1),
    "park-deadline-admit": (_park_deadline_admit, ("ok", 7), 0),
    "park-deadline-timeout": (
        _park_deadline_timeout, ("timeout", "push", 0.05), 0,
    ),
    "park-move-repark-admit": (_park_move_repark_admit, ("ok", 7), 2),
}


@pytest.mark.parametrize("scenario", sorted(PARKING_SCENARIOS))
def test_parking_scenarios_identical(scenario):
    script, expected, wakeups = PARKING_SCENARIOS[scenario]
    observations = {}
    for side in SIDES:
        run = ParkingRun(side)
        observations[side] = run.observe(script(run))
    _assert_sides_identical(observations, f"scenario {scenario}")
    reference = observations["oracle"]
    assert reference["outcomes"] == [expected]
    # every scenario reaches the park seam — the suite cannot go
    # park-free again
    assert reference["stats"]["waits"] >= 1
    assert reference["stats"]["wakeups"] == wakeups
    assert reference["parked"] == {}
    assert reference["semaphore_in_use"] == 0
    assert reference["lock_domain"] == (
        "moved" if scenario == "park-move-repark-admit" else "~method:push"
    )

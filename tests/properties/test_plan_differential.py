"""Differential proof: compiled plans are observably identical to the
interpreter oracle.

The compiled pipeline is only a valid refactor of the paper's moderator
if no observer can tell it from the paper's per-call interpreter, kept
as :class:`tests.oracle.InterpretingModerator`. This suite runs the
fault-chaos composition (audit, mutex, semaphore(2), fail-open probe —
the same chain ``test_fault_chaos`` storms) twice per fault schedule —
once on the oracle, once on the production moderator — through an
identical *sequential* call script, and requires byte-equal
observations:

* per-call outcomes (result / abort / fault type, concern, phase);
* the full protocol event stream — kind, method, concern, detail, and
  activation id (normalized to appearance order: ids are drawn from a
  process-global counter, so their absolute values differ between the
  two runs by construction);
* every moderation counter except ``plan_compiles`` (cache
  bookkeeping, not protocol);
* the component's accepted values, the injector's fired schedule and
  at-rest sync-aspect state (no leaked admissions in either mode);
* fault accounting and quarantine state in the health tracker.

The schedule space is the chaos suite's own: every single-fault plan
and every double-fault plan (228 schedules), imported rather than
re-derived so the two suites can never drift apart. Sequential driving
makes both runs deterministic — any divergence is a real semantic
difference, not an interleaving artifact. The oracle counts the rounds
it interpreted; that count must be nonzero and equal the production
run's round count, so the reference side can never silently fall back
to the compiled executors.
"""

import pytest

from repro.core import (
    AspectFault,
    AspectModerator,
    ComponentProxy,
    CompositionErrors,
    MethodAborted,
    Tracer,
)
from repro.core.aspect import FunctionAspect
from repro.aspects.audit import AuditAspect
from repro.aspects.synchronization import MutexAspect, SemaphoreAspect
from repro.faults import FaultInjector
from repro.obs.spans import SpanRecorder

from tests.oracle import InterpretingModerator, count_rounds
from tests.properties.test_fault_chaos import (
    CALLS,
    DOUBLE_PLANS,
    SINGLE_PLANS,
    THREADS,
)

pytestmark = pytest.mark.differential


def _build(interpreted):
    moderator = (InterpretingModerator if interpreted else AspectModerator)(
        default_timeout=10.0, fault_threshold=2,
    )
    audit = AuditAspect()
    mutex = MutexAspect()
    semaphore = SemaphoreAspect(2)
    probe = FunctionAspect(concern="probe")
    moderator.register_aspect("push", "audit", audit)
    moderator.register_aspect("push", "mutex", mutex)
    moderator.register_aspect("push", "semaphore", semaphore)
    moderator.register_aspect("push", "probe", probe,
                              fault_policy="fail_open")

    class Sink:
        def __init__(self):
            self.accepted = []

        def push(self, value):
            self.accepted.append(value)
            return value

    sink = Sink()
    aspects = {"audit": audit, "mutex": mutex, "semaphore": semaphore}
    return moderator, aspects, sink, ComponentProxy(sink, moderator)


def _fault_signature(fault):
    if isinstance(fault, CompositionErrors):
        return ("composition",) + tuple(
            _fault_signature(part) for part in fault.exceptions
        )
    assert isinstance(fault, AspectFault)
    return ("aspect_fault", fault.concern, fault.phase)


def _normalize_events(events):
    """(kind, method, concern, detail, ordinal-activation-id) tuples."""
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
    """Timestamp- and id-free structure of one span (sub)tree."""
    annotations = tuple(text for _ts, text in span.annotations)
    return (
        span.name, span.concern, span.status, annotations,
        tuple(_span_shape(child) for child in span.children),
    )


def _observe(interpreted, plan):
    """One sequential run; everything an observer could compare."""
    moderator, aspects, sink, proxy = _build(interpreted)
    rounds = None if interpreted else count_rounds(moderator)
    # plan=None installs no injector at all, so the run with nothing
    # armed is held to the oracle too
    injector = FaultInjector(plan) if plan is not None else None
    if injector is not None:
        injector.install(moderator)
    tracer = Tracer()
    recorder = SpanRecorder()
    unsubscribe = moderator.events.subscribe(tracer)
    unsubscribe_spans = moderator.events.subscribe(recorder)

    outcomes = []
    for index in range(THREADS):
        for call in range(CALLS):
            value = index * 100 + call
            try:
                outcomes.append(("ok", proxy.push(value)))
            except MethodAborted as exc:
                outcomes.append(("aborted", value, exc.concern))
            except (AspectFault, CompositionErrors) as fault:
                outcomes.append(
                    ("fault", value, _fault_signature(fault))
                )
    unsubscribe()
    unsubscribe_spans()

    stats = moderator.stats.as_dict()
    stats.pop("plan_compiles")
    return {
        "rounds": (moderator.interpreted_rounds if interpreted
                   else rounds[0]),
        "outcomes": outcomes,
        "events": _normalize_events(tracer.events),
        # span recording on: the tree *shapes* (names, concerns,
        # statuses, annotations — no timestamps or ids) must match too
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
        "fired": injector.fired_summary() if injector is not None else None,
        "mutex_holder": aspects["mutex"].holder,
        "semaphore_in_use": aspects["semaphore"].in_use,
        "quarantined": moderator.health.quarantined_cells(),
        "fault_counts": {
            cell: (record["faults"], record["quarantined"])
            for cell, record in moderator.health.snapshot().items()
        },
    }


def _assert_identical(plan):
    interpreted = _observe(True, plan)
    compiled = _observe(False, plan)
    # the oracle interpreted every round the production run evaluated
    assert interpreted["rounds"] >= 1
    for key in interpreted:
        assert compiled[key] == interpreted[key], (
            f"{key} diverged under plan "
            f"{plan.describe() if plan is not None else None}:\n"
            f"  interpreted: {interpreted[key]!r}\n"
            f"  compiled:    {compiled[key]!r}"
        )
    # both modes are fully unwound — nothing wedged, nothing leaked
    assert interpreted["mutex_holder"] is None
    assert interpreted["semaphore_in_use"] == 0


@pytest.mark.parametrize(
    "plan", SINGLE_PLANS, ids=[plan.describe() for plan in SINGLE_PLANS])
def test_single_fault_schedules_identical(plan):
    _assert_identical(plan)


@pytest.mark.parametrize(
    "plan", DOUBLE_PLANS, ids=[plan.describe() for plan in DOUBLE_PLANS])
def test_double_fault_schedules_identical(plan):
    _assert_identical(plan)


def test_fault_free_run_identical():
    from repro.faults import FaultPlan

    _assert_identical(FaultPlan())


def test_uninjected_run_identical():
    """No injector installed: the fast prefix executor and the compiled
    unwind run, and must match the oracle too."""
    _assert_identical(None)


def test_plan_space_is_the_chaos_suites():
    """Guard: the imported schedule space stays the chaos suite's full
    enumeration (24 single-fault + 204 double-fault plans)."""
    assert len(SINGLE_PLANS) == 24
    assert len(DOUBLE_PLANS) == 204

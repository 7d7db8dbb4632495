"""Differential proof: profile-optimized plans are observably identical
to unoptimized compiled plans.

The clause profiler's three feedbacks — commutative reordering,
idempotent-precondition memoization, pure-observer elision — are only
valid optimizations if no observer can tell an optimized composition
from the reference one. This suite extends the fault-chaos chain
(audit, mutex, semaphore(2), fail-open probe) with four profile-bait
cells:

* ``obs`` — a declared pure observer (elision target);
* ``chk_a`` / ``chk_b`` — a mutually-commuting, never-vetoing pair with
  a large cost asymmetry (reordering target);
* ``memo`` — an idempotent always-RESUME precondition with an
  aspect-supplied cache key (memoization target);

and runs every fault-chaos schedule (the imported 24 single + 204
double plans — the spaces can never drift apart) twice through an
identical sequential call script: once on plain compiled plans, once
with a :class:`~repro.obs.profile.ClauseProfiler` installed and
``refresh()`` invoked mid-workload so the optimized recompile happens
*while faults are flying*. Both runs must agree on:

* per-call outcomes (result / abort concern / fault signature);
* the normalized protocol event stream and span-tree shapes — after
  erasing exactly the differences the optimizations are *licensed* to
  make: ``obs`` events/spans are dropped (elision removes the cell
  wholesale) and the ``chk`` pair's concerns are folded to one label
  (mutual commutativity is precisely the license to swap them);
* every moderation counter except ``plan_compiles`` (the profiled run
  recompiles at refresh by design) — note ``resumes``/``aborts`` count
  whole-chain verdicts, so elision cannot hide behind the normalization;
* accepted values, injector fired schedule, at-rest sync state,
  quarantine set and fault accounting.

Each profiled run also asserts its decisions actually engaged (elided,
memoized, reordered after refresh) — a differential against a no-op
optimizer would prove nothing.

When the commuting pair *does* veto, reordering legitimately
short-circuits the expensive clause, so event streams differ by
construction; the vetoing test therefore compares outcomes and end
state only (that asymmetry is the whole point of the optimization).
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
from repro.core.results import AspectResult
from repro.aspects.audit import AuditAspect
from repro.aspects.synchronization import MutexAspect, SemaphoreAspect
from repro.faults import FaultInjector, FaultPlan
from repro.obs.profile import ClauseProfiler
from repro.obs.spans import SpanRecorder

from tests.properties.test_fault_chaos import (
    CALLS,
    DOUBLE_PLANS,
    SINGLE_PLANS,
    THREADS,
)

pytestmark = pytest.mark.differential

#: erased from events/spans when comparing: elision removes the cell
_ELIDED_CONCERNS = frozenset({"obs"})
#: folded to one label: mutual commutativity licenses any relative order
_COMMUTING_FOLD = {"chk_a": "chk", "chk_b": "chk"}

_TOTAL = THREADS * CALLS
_REFRESH_AT = _TOTAL // 2 + 1  # refresh mid-workload, faults in flight


def _expensive_check(joinpoint):
    total = 0
    for index in range(3000):
        total += index
    return AspectResult.RESUME


def _build(profiled):
    moderator = AspectModerator(
        default_timeout=10.0, fault_threshold=2,
    )
    moderator.register_aspect("push", "chk_a", FunctionAspect(
        concern="chk_a", precondition=_expensive_check,
        never_blocks=True, commutes_with=("chk_b",),
    ))
    moderator.register_aspect("push", "chk_b", FunctionAspect(
        concern="chk_b", never_blocks=True, commutes_with=("chk_a",),
    ))
    moderator.register_aspect("push", "memo", FunctionAspect(
        concern="memo", never_blocks=True,
        idempotent_precondition=True,
        cache_key=lambda joinpoint: joinpoint.args[0] % 4,
    ))
    audit = AuditAspect()
    # AuditAspect declares itself a pure observer, which would let the
    # profiler elide it — but the chaos schedules inject faults *into*
    # audit, and an elided cell can never fault. Keep it material here;
    # elision coverage comes from the dedicated ``obs`` cell.
    audit.pure_observer = False
    mutex = MutexAspect()
    semaphore = SemaphoreAspect(2)
    probe = FunctionAspect(concern="probe")
    moderator.register_aspect("push", "audit", audit)
    moderator.register_aspect("push", "mutex", mutex)
    moderator.register_aspect("push", "semaphore", semaphore)
    moderator.register_aspect("push", "probe", probe,
                              fault_policy="fail_open")
    # last on purpose: ``compensations`` counts each unwound cell, and a
    # cell the optimizer removed can't be unwound — registering the
    # elision target after every fault site keeps it out of all unwinds,
    # so the counter compares exactly instead of modulo elision.
    moderator.register_aspect("push", "obs", FunctionAspect(
        concern="obs", never_blocks=True, pure_observer=True,
    ))
    profiler = None
    if profiled:
        profiler = ClauseProfiler(sample_rate=1, min_samples=3)
        profiler.install(moderator)

    class Sink:
        def __init__(self):
            self.accepted = []

        def push(self, value):
            self.accepted.append(value)
            return value

    sink = Sink()
    aspects = {"audit": audit, "mutex": mutex, "semaphore": semaphore}
    return moderator, profiler, aspects, sink, \
        ComponentProxy(sink, moderator)


def _fault_signature(fault):
    if isinstance(fault, CompositionErrors):
        return ("composition",) + tuple(
            _fault_signature(part) for part in fault.exceptions
        )
    assert isinstance(fault, AspectFault)
    return ("aspect_fault", fault.concern, fault.phase)


def _fold(concern):
    return _COMMUTING_FOLD.get(concern, concern)


def _normalize_events(events):
    """(kind, method, folded-concern, detail, ordinal-aid) tuples,
    minus events the optimizer is licensed to remove."""
    ordinals = {}
    normalized = []
    for event in events:
        if event.concern in _ELIDED_CONCERNS:
            continue
        aid = event.activation_id
        if aid not in ordinals:
            ordinals[aid] = len(ordinals)
        normalized.append((
            event.kind, event.method_id, _fold(event.concern),
            event.detail, ordinals[aid],
        ))
    return normalized


def _span_shape(span):
    """Timestamp- and id-free structure, with elided concerns erased
    and the commuting pair folded to one label."""
    annotations = tuple(text for _ts, text in span.annotations)
    children = tuple(
        _span_shape(child) for child in span.children
        if child.concern not in _ELIDED_CONCERNS
    )
    return (
        span.name, _fold(span.concern), span.status, annotations,
        children,
    )


def _observe(profiled, plan):
    """One sequential run; everything an observer could compare."""
    moderator, profiler, aspects, sink, proxy = _build(profiled)
    injector = FaultInjector(plan)
    injector.install(moderator)
    tracer = Tracer()
    recorder = SpanRecorder()
    unsubscribe = moderator.events.subscribe(tracer)
    unsubscribe_spans = moderator.events.subscribe(recorder)

    outcomes = []
    sequence = 0
    for index in range(THREADS):
        for call in range(CALLS):
            if profiled and sequence == _REFRESH_AT:
                profiler.refresh()
            sequence += 1
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

    if profiled:
        # the differential is vacuous unless the feedbacks engaged
        profile = moderator.plan_for("push").profile
        assert profile["elided"] == ["obs"], plan.describe()
        assert "memo" in profile["memoized"], plan.describe()
        assert profile["reordered"] is True, plan.describe()
        order = profile["order"]
        assert order.index("chk_b") < order.index("chk_a"), \
            plan.describe()

    stats = moderator.stats.as_dict()
    stats.pop("plan_compiles")  # refresh recompiles by design
    return {
        "outcomes": outcomes,
        "events": _normalize_events(tracer.events),
        "span_shapes": [
            (root.method_id,) + _span_shape(root)
            for root in recorder.all_roots()
        ],
        "span_orphans": [
            (event.kind, _fold(event.concern), event.detail)
            for event in recorder.orphans
            if event.concern not in _ELIDED_CONCERNS
        ],
        "stats": stats,
        "accepted": list(sink.accepted),
        "fired": injector.fired_summary(),
        "mutex_holder": aspects["mutex"].holder,
        "semaphore_in_use": aspects["semaphore"].in_use,
        "quarantined": moderator.health.quarantined_cells(),
        "fault_counts": {
            cell: (record["faults"], record["quarantined"])
            for cell, record in moderator.health.snapshot().items()
        },
    }


def _assert_identical(plan):
    reference = _observe(False, plan)
    optimized = _observe(True, plan)
    for key in reference:
        assert optimized[key] == reference[key], (
            f"{key} diverged under plan {plan.describe()}:\n"
            f"  reference: {reference[key]!r}\n"
            f"  optimized: {optimized[key]!r}"
        )
    assert reference["mutex_holder"] is None
    assert reference["semaphore_in_use"] == 0


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
# single-toggle runs: each feedback alone must also be equivalent
# ----------------------------------------------------------------------
def _observe_toggled(**toggles):
    moderator, profiler, aspects, sink, proxy = _build(False)
    profiler = ClauseProfiler(sample_rate=1, min_samples=3, **toggles)
    profiler.install(moderator)
    outcomes = []
    for index in range(THREADS):
        for call in range(CALLS):
            if index * CALLS + call == _REFRESH_AT:
                profiler.refresh()
            outcomes.append(("ok", proxy.push(index * 100 + call)))
    return outcomes, list(sink.accepted)


@pytest.mark.parametrize("toggles", [
    {"reorder": True, "memoize": False, "skip_analysis": False},
    {"reorder": False, "memoize": True, "skip_analysis": False},
    {"reorder": False, "memoize": False, "skip_analysis": True},
], ids=["reorder-only", "memoize-only", "elide-only"])
def test_single_toggle_fault_free_equivalent(toggles):
    moderator, _p, _a, sink, proxy = _build(False)
    reference = []
    for index in range(THREADS):
        for call in range(CALLS):
            reference.append(("ok", proxy.push(index * 100 + call)))
    outcomes, accepted = _observe_toggled(**toggles)
    assert outcomes == reference
    assert accepted == list(sink.accepted)


# ----------------------------------------------------------------------
# vetoing commutative stack: outcome equivalence under short-circuit
# ----------------------------------------------------------------------
def _vetoing_rig(profiled):
    moderator = AspectModerator()
    calls = {"expensive": 0}

    def expensive(joinpoint):
        calls["expensive"] += 1
        return _expensive_check(joinpoint)

    moderator.register_aspect("push", "deep", FunctionAspect(
        concern="deep", precondition=expensive, never_blocks=True,
        commutes_with=("gate",),
    ))
    moderator.register_aspect("push", "gate", FunctionAspect(
        concern="gate",
        precondition=lambda jp: (
            AspectResult.ABORT if jp.args[0] % 3 else AspectResult.RESUME
        ),
        never_blocks=True, commutes_with=("deep",),
    ))
    profiler = None
    if profiled:
        profiler = ClauseProfiler(sample_rate=1, min_samples=5)
        profiler.install(moderator)

    class Sink:
        def __init__(self):
            self.accepted = []

        def push(self, value):
            self.accepted.append(value)
            return value

    sink = Sink()
    return moderator, profiler, calls, sink, \
        ComponentProxy(sink, moderator)


def _drive_vetoing(proxy, outcomes, count=60):
    for value in range(count):
        try:
            outcomes.append(("ok", proxy.push(value)))
        except MethodAborted as exc:
            outcomes.append(("aborted", value, exc.concern))


def test_vetoing_commutative_stack_same_verdicts_fewer_evals():
    """Reordering a vetoing commutative pair preserves every verdict
    while short-circuiting the expensive clause — the event stream
    *should* shrink (that is the optimization), so only outcomes,
    accepted values and abort concerns are compared."""
    _m, _p, ref_calls, ref_sink, ref_proxy = _vetoing_rig(False)
    reference = []
    _drive_vetoing(ref_proxy, reference)

    moderator, profiler, calls, sink, proxy = _vetoing_rig(True)
    optimized = []
    _drive_vetoing(proxy, optimized, count=30)
    profiler.refresh()
    assert [cell.concern
            for cell in moderator.plan_for("push").cells] == \
        ["gate", "deep"]
    _drive_vetoing(proxy, optimized, count=30)
    # both profiled halves replay values 0..29, so each must match the
    # reference's verdicts for those same values — before AND after the
    # reorder took effect
    assert optimized[:30] == reference[:30]
    assert optimized[30:] == reference[:30]
    assert sink.accepted == ref_sink.accepted[:10] * 2
    # the whole point: post-reorder, vetoed calls never paid for "deep"
    vetoed_after = sum(
        1 for entry in optimized[30:] if entry[0] == "aborted"
    )
    assert vetoed_after == 20
    assert calls["expensive"] == ref_calls["expensive"] - vetoed_after

"""Differential proof for the contract plane, over the chaos schedules.

Two equivalences, both run across the fault-chaos suite's full schedule
space (imported, not re-derived — the suites can never drift apart):

* **compiled vs interpreter oracle**: with a contract declared on
  ``push`` and a deterministic interfering aspect in the chain, the
  verdict stream — which calls violate, the blame, the clause, the
  checkpoint evidence shape — and every other observation must be
  identical whether the moderator runs compiled activation plans or the
  paper's per-call interpreter (:class:`tests.oracle
  .InterpretingModerator`, which also counts its rounds: nonzero and
  equal to the compiled run's). Contract methods run the one plan
  executor with the runner's check points armed, so this is the proof
  that the seam placement matches in both pipelines.
* **recording on vs off**: subscribing a span recorder must not change
  a single verdict, outcome or counter — observation is passive even
  when the observed run is busy convicting aspects.

On top, the causal slices computed from the compiled and interpreted
runs' span exports must agree in shape (members, edge kinds, target
method), and a structural proof pins contracts-off to the legacy path:
a moderator whose registry was uninstalled (or never declared for the
method) is observably identical to one that never saw a registry.
"""

import pytest

from repro.contracts import ContractRegistry, ContractViolation, causal_slice
from repro.core import (
    AspectFault,
    AspectModerator,
    ComponentProxy,
    CompositionErrors,
    MethodAborted,
    NullAspect,
    Tracer,
)
from repro.core.aspect import FunctionAspect
from repro.core.moderator import CONTRACT_KEY
from repro.aspects.audit import AuditAspect
from repro.aspects.synchronization import MutexAspect, SemaphoreAspect
from repro.faults import FaultInjector, FaultPlan
from repro.obs.spans import SpanRecorder

from tests.oracle import InterpretingModerator, count_rounds
from tests.properties.test_fault_chaos import (
    CALLS,
    DOUBLE_PLANS,
    SINGLE_PLANS,
    THREADS,
)

pytestmark = pytest.mark.differential

#: values whose activation the tamper aspect interferes with — chosen
#: so every schedule sees both clean calls and convicted calls
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


def _slice_signature(export, violation):
    """The id-free shape of one violation's causal slice."""
    target = ("diff", violation.activation_id)
    slice_ = causal_slice(export, target=target,
                          evidence=violation.evidence)
    return (
        slice_.activations[slice_.target].method_id,
        len(slice_.activations),
        tuple(sorted(kind for _c, _e, kind in slice_.edges)),
    )


def _observe(interpreted, plan, recording=True):
    moderator, aspects, sink, proxy = _build(interpreted)
    rounds = None if interpreted else count_rounds(moderator)
    injector = FaultInjector(plan)
    injector.install(moderator)
    tracer = Tracer()
    recorder = SpanRecorder(node="diff")
    unsubscribes = [moderator.events.subscribe(tracer)]
    if recording:
        unsubscribes.append(moderator.events.subscribe(recorder))

    outcomes = []
    violations = []
    for index in range(THREADS):
        for call in range(CALLS):
            value = index * 100 + call
            try:
                outcomes.append(("ok", proxy.push(value)))
            except ContractViolation as violation:
                violations.append(violation)
                outcomes.append(
                    ("contract", value, _verdict_signature(violation))
                )
            except MethodAborted as exc:
                outcomes.append(("aborted", value, exc.concern))
            except (AspectFault, CompositionErrors) as fault:
                outcomes.append(
                    ("fault", value, _fault_signature(fault))
                )
    for unsubscribe in unsubscribes:
        unsubscribe()

    stats = moderator.stats.as_dict()
    stats.pop("plan_compiles")
    observation = {
        "rounds": (moderator.interpreted_rounds if interpreted
                   else rounds[0]),
        "outcomes": outcomes,
        "events": _normalize_events(tracer.events),
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
    }
    if recording:
        export = recorder.export()
        observation["slices"] = [
            _slice_signature(export, violation)
            for violation in violations
        ]
    return observation


def _assert_identical(plan):
    interpreted = _observe(True, plan)
    compiled = _observe(False, plan)
    # the oracle interpreted every round the compiled run evaluated
    assert interpreted["rounds"] >= 1
    for key in interpreted:
        assert compiled[key] == interpreted[key], (
            f"{key} diverged under plan {plan.describe()}:\n"
            f"  interpreted: {interpreted[key]!r}\n"
            f"  compiled:    {compiled[key]!r}"
        )
    # Recording off must not change a single semantic observation.
    dark = _observe(False, plan, recording=False)
    for key in dark:
        assert dark[key] == compiled[key], (
            f"{key} diverged when recording was disabled under plan "
            f"{plan.describe()}"
        )
    # Every schedule convicts the tamper aspect on the tampered calls
    # that reached the post-body check point.
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
    _assert_identical(FaultPlan())


def test_fault_free_run_convicts_every_tampered_call():
    observation = _observe(False, FaultPlan())
    convicted = [entry for entry in observation["outcomes"]
                 if entry[0] == "contract"]
    assert len(convicted) == len(_TAMPERED)
    for _tag, _value, signature in convicted:
        assert signature[3] == "aspect:tamper"
    clean = [entry for entry in observation["outcomes"]
             if entry[0] == "ok"]
    assert len(clean) == THREADS * CALLS - len(_TAMPERED)
    # One slice per conviction, all single-activation (no upstream).
    assert len(observation["slices"]) == len(convicted)


def test_plan_space_is_the_chaos_suites():
    assert len(SINGLE_PLANS) == 24
    assert len(DOUBLE_PLANS) == 204


# ----------------------------------------------------------------------
# structural proof: contracts-off is the legacy path
# ----------------------------------------------------------------------
class TestContractsOffIsLegacy:
    def _legacy_observe(self, mutate):
        """Run the plan-differential composition; ``mutate`` may touch
        the moderator's contract wiring before the calls."""
        moderator = AspectModerator()
        probe_context = []

        class Probe(NullAspect):
            concern = "probe"

            def evaluate_precondition(self, joinpoint):
                probe_context.append(
                    CONTRACT_KEY in joinpoint.context)
                return super().evaluate_precondition(joinpoint)

        moderator.register_aspect("push", "probe", Probe())
        sink = Sink()
        proxy = ComponentProxy(sink, moderator)
        mutate(moderator)
        for value in range(5):
            proxy.push(value)
        return {
            "accepted": sink.accepted,
            "stats": moderator.stats.as_dict(),
            "runner_seen": any(probe_context),
            "contract": moderator.plan_for("push").contract,
        }

    def test_never_installed_never_allocates(self):
        observation = self._legacy_observe(lambda moderator: None)
        assert observation["runner_seen"] is False
        assert observation["contract"] is None

    def test_uninstalled_registry_restores_legacy(self):
        def mutate(moderator):
            registry = ContractRegistry()
            registry.declare("push", observables=("checksum",))
            registry.install(moderator)
            registry.uninstall(moderator)

        baseline = self._legacy_observe(lambda moderator: None)
        uninstalled = self._legacy_observe(mutate)
        assert uninstalled == baseline

    def test_undeclared_method_is_legacy_even_when_installed(self):
        def mutate(moderator):
            registry = ContractRegistry()
            registry.declare("some_other_method")
            registry.install(moderator)

        baseline = self._legacy_observe(lambda moderator: None)
        installed = self._legacy_observe(mutate)
        assert installed["runner_seen"] is False
        assert installed["contract"] is None
        assert installed["accepted"] == baseline["accepted"]
        assert installed["stats"] == baseline["stats"]

"""The paper's per-call interpreter, kept as the differential oracle.

The production moderator runs every round through a compiled
:class:`~repro.core.plan.ActivationPlan`. :class:`InterpretingModerator`
is the reference it is proved against: a subclass whose only override
is :meth:`_evaluate_plan`, re-deciding each round the way the paper's
``AspectModerator`` (Figures 11-12) does —

* it reads the aspect bank afresh,
* it calls the ordering policy on what it read,
* it visits each fault-injection site through the injector's live
  ``fire()`` rather than the plan's pre-resolved hooks.

The plan is used only for its method id. Because the round returns a
fresh chain and never ``plan.pairs``, post-activation cannot recognize a
compiled full-chain RESUME and unwinds through the generic
``_run_postactions`` — the interpreter's unwind. Everything else
(parking, compensation, stats, events, wakes) is the production code.

The oracle counts its own rounds in :attr:`interpreted_rounds`;
:func:`count_rounds` counts a production moderator's, so a suite can
prove every round of the reference run was interpreted.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Tuple

from repro.core import AspectModerator
from repro.core.aspect import Aspect
from repro.core.errors import AspectFault
from repro.core.health import FAIL_CLOSED, FAIL_OPEN
from repro.core.joinpoint import JoinPoint
from repro.core.moderator import CONTRACT_KEY
from repro.core.plan import ActivationPlan
from repro.core.results import AspectResult


class InterpretingModerator(AspectModerator):
    """An :class:`AspectModerator` that interprets every round."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: evaluation rounds run by the interpreter below
        self.interpreted_rounds = 0

    def _evaluate_plan(
        self, plan: ActivationPlan, joinpoint: JoinPoint
    ) -> Tuple[AspectResult, List[Tuple[str, Aspect]], Optional[str]]:
        self.interpreted_rounds += 1
        method_id = plan.method_id
        pairs = self.ordering(method_id, self.bank.aspects_for(method_id))
        resumed: List[Tuple[str, Aspect]] = []
        quarantine_active = self.health.active
        injector = self.fault_injector
        runner = (
            joinpoint.context.get(CONTRACT_KEY)
            if self.contracts is not None else None
        )
        if runner is not None:
            runner.start_round(joinpoint)
        timed = self.events.has_listeners
        for concern, aspect in pairs:
            if quarantine_active:
                policy = self.health.quarantine_policy(method_id, concern)
                if policy == FAIL_OPEN:
                    self.stats.bump("degraded_skips")
                    self.events.emit(
                        "degraded_skip", method_id, concern,
                        activation_id=joinpoint.activation_id,
                    )
                    continue
                if policy == FAIL_CLOSED:
                    return AspectResult.ABORT, resumed, concern
            began = time.monotonic() if timed else 0.0
            try:
                if injector is not None and injector.fire(
                        "precondition", method_id, concern):
                    continue  # injected no-op crash: aspect never ran
                result = aspect.evaluate_precondition(joinpoint)
            except Exception as exc:  # noqa: BLE001 - contract violation
                fault = AspectFault(method_id, concern, "precondition", exc)
                self._note_fault(method_id, concern, "precondition", exc,
                                 joinpoint)
                joinpoint.context["__compensation__"] = "fault"
                comp_faults = self._compensate(resumed, joinpoint)
                joinpoint.context.pop("__compensation__", None)
                self._raise_faults([fault, *comp_faults])
            self.events.emit(
                "precondition", method_id, concern, detail=result.value,
                activation_id=joinpoint.activation_id,
                duration=time.monotonic() - began if timed else 0.0,
            )
            if result is AspectResult.RESUME:
                resumed.append((concern, aspect))
                if runner is not None:
                    runner.checkpoint("precondition", concern, joinpoint)
                continue
            return result, resumed, concern
        return AspectResult.RESUME, resumed, None


def count_rounds(moderator: AspectModerator) -> List[int]:
    """Count ``moderator``'s evaluation rounds from now on.

    Returns a one-element list holding the running count. The counter
    wraps the instance's round executor, so it sees every round the
    moderator evaluates and changes nothing else.
    """
    counter = [0]
    evaluate = moderator._evaluate_plan

    def counting(plan: ActivationPlan, joinpoint: JoinPoint) -> Any:
        counter[0] += 1
        return evaluate(plan, joinpoint)

    moderator._evaluate_plan = counting  # type: ignore[method-assign]
    return counter

"""The paper's per-call interpreter, kept as the differential oracle.

The production moderator runs every round through a compiled
:class:`~repro.core.plan.ActivationPlan`. :class:`InterpretingModerator`
is the reference it is proved against: a subclass whose only override
is :meth:`_evaluate_plan`, re-deciding each round the way the paper's
``AspectModerator`` (Figures 11-12) does —

* it reads the aspect bank afresh,
* it calls the ordering policy on what it read,
* it runs each aspect's own ``evaluate_precondition`` rather than the
  plan cells' pre-bound callables.

The plan is used only for its method id. Because the round returns a
fresh chain and never ``plan.pairs``, post-activation cannot recognize a
full-chain RESUME of the plan, and ``_run_postactions`` unwinds aspect
by aspect — the interpreter's unwind. Everything else (parking,
compensation, stats, events, wakes) is the production code.

The oracle counts its own rounds in :attr:`interpreted_rounds`;
:func:`count_rounds` counts a production moderator's, so a suite can
prove every round of the reference run was interpreted.

:class:`ThreadedReferenceModerator` is the second oracle: Figure 11's
loop as the threaded runtime wrote it before both runtimes came to share
one loop (``AspectModerator._rounds``). It overrides only that loop.

:func:`legacy_check_wire_safe` is the third: the recursive wire-safety
predicate ``repro.dist.message`` used before its codec, verbatim but for
its name. On values built from exact wire types the codec's
``check_wire_safe`` must agree with it.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Tuple

from repro.core import AspectModerator
from repro.core.aspect import Aspect
from repro.core.errors import ActivationTimeout, AspectFault
from repro.core.health import FAIL_CLOSED, FAIL_OPEN
from repro.core.joinpoint import JoinPoint
from repro.core.moderator import CONTRACT_KEY, Activation
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
        quarantine_active = self.health.degraded.get(method_id)
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
                        sampled=joinpoint.sampled,
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
                sampled=joinpoint.sampled,
            )
            if result is AspectResult.RESUME:
                resumed.append((concern, aspect))
                if runner is not None:
                    runner.checkpoint("precondition", concern, joinpoint)
                continue
            return result, resumed, concern
        return AspectResult.RESUME, resumed, None


class ThreadedReferenceModerator(AspectModerator):
    """An :class:`AspectModerator` running the pre-merge threaded loop."""

    def _rounds(self, activation: Activation, seam: Any) -> AspectResult:
        """Figure 11's blocking evaluation loop, under the method's domain.

        The shared entry step resolved the bounds and took the waiter
        slot; this loop gives it back. ``seam`` is ignored: the loop
        waits on the domain ``Condition`` itself.
        """
        method_id = activation.method_id
        joinpoint = activation.joinpoint
        deadline = activation.expires_at
        effective_timeout = activation.effective_timeout
        try:
            timed_out = False
            while True:
                queue = self.plan_for(method_id).queue
                with queue:
                    # LockDomain caches conditions per key, so a plan of
                    # the current domain resolves this very object.
                    if self._queue_for(method_id) is not queue:
                        continue  # method changed domains; re-acquire
                    while True:
                        # Bare read is safe: a stale value only makes the
                        # pre-park re-check conservatively re-evaluate.
                        epoch = self._wake_epoch
                        # Revalidate per round: a dict probe plus an int
                        # compare when nothing changed.
                        plan = self.plan_for(method_id)
                        outcome = self._run_round(method_id, joinpoint,
                                                  plan)
                        if outcome is not AspectResult.BLOCK:
                            return outcome
                        if timed_out:
                            self.events.emit(
                                "timeout", method_id,
                                detail=f"{effective_timeout}s",
                                activation_id=joinpoint.activation_id,
                                sampled=joinpoint.sampled,
                            )
                            raise ActivationTimeout(
                                method_id, effective_timeout
                            )
                        with self._waiter_guard:
                            raced = self._wake_epoch != epoch
                            if not raced:
                                self._parked += 1
                                self._parked_info[
                                    joinpoint.activation_id
                                ] = (method_id, time.monotonic())
                        if raced:
                            # A completion landed while this round was
                            # evaluating (its wake may have skipped the
                            # not-yet-parked queue): re-evaluate against
                            # the post-postaction state instead of
                            # parking on a notification already sent.
                            continue
                        self.stats.bump("waits")
                        try:
                            if deadline is None:
                                queue.wait()
                            else:
                                remaining = deadline - time.monotonic()
                                if remaining <= 0 or not queue.wait(
                                    remaining
                                ):
                                    # Deadline passed while parked; loop
                                    # for one final round before giving
                                    # up — a notify may have raced the
                                    # timeout.
                                    timed_out = True
                                    continue
                        finally:
                            with self._waiter_guard:
                                self._parked -= 1
                                parked_info = self._parked_info.pop(
                                    joinpoint.activation_id, None
                                )
                        self.stats.bump("wakeups")
                        self.events.emit(
                            "unblocked", method_id,
                            activation_id=joinpoint.activation_id,
                            # park duration, for blocked-span accounting
                            duration=(
                                time.monotonic() - parked_info[1]
                                if parked_info is not None else 0.0
                            ),
                            sampled=joinpoint.sampled,
                        )
                        if self._queue_for(method_id) is not queue:
                            break  # re-park under the new domain
        finally:
            with self._waiter_guard:
                self._waiters -= 1


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


#: Types allowed on the simulated wire.
WIRE_SAFE_TYPES = (type(None), bool, int, float, str, bytes)


def legacy_check_wire_safe(value: Any, depth: int = 0) -> bool:
    """Whether ``value`` could survive a real serialization boundary."""
    if depth > 16:
        return False
    if isinstance(value, WIRE_SAFE_TYPES):
        return True
    if isinstance(value, (list, tuple)):
        return all(legacy_check_wire_safe(item, depth + 1) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and legacy_check_wire_safe(item, depth + 1)
            for key, item in value.items()
        )
    return False

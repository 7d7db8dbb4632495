"""The fault injector: executes a :class:`FaultPlan` against live code.

One injector instance can be installed on any number of moderators and
networks at once; all of them share the injector's per-site visit
counters, so a plan's coordinates span the whole system under test.

Thread safety: visit counting happens under a leaf lock; the fault
itself (raise / sleep / skip) executes outside it, so injection never
serializes the code paths it perturbs beyond one counter increment.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Tuple

from .plan import FaultPlan, FaultSpec, InjectedFault


class FaultInjector:
    """Counts site visits and fires the faults a plan assigns to them.

    Protocol sites are driven by the moderator calling :meth:`fire`;
    network delivery sites by ``Network`` calling :meth:`deliver`.
    ``fired`` records every spec that actually triggered, in order — the
    assertion surface for chaos tests ("this schedule fully executed").

    Args:
        plan: the fault schedule; an empty plan makes the injector a
            pure site-visit counter.
        sleep: clock hook for ``"delay"`` actions (injectable for
            virtual-time tests).
    """

    def __init__(self, plan: Optional[FaultPlan] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._sleep = sleep
        self._lock = threading.Lock()
        self._visits: dict = {}
        self.fired: List[FaultSpec] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, *targets: object) -> "FaultInjector":
        """Attach to moderators and/or networks (``fault_injector`` hook)."""
        for target in targets:
            if not hasattr(target, "fault_injector"):
                raise TypeError(
                    f"{type(target).__name__} has no fault_injector hook"
                )
            target.fault_injector = self
        return self

    @staticmethod
    def uninstall(*targets: object) -> None:
        for target in targets:
            target.fault_injector = None

    # ------------------------------------------------------------------
    # site visits
    # ------------------------------------------------------------------
    def _visit(self, phase: str, method_id: str,
               concern: str) -> Optional[FaultSpec]:
        key = (phase, method_id, concern)
        with self._lock:
            occurrence = self._visits.get(key, 0) + 1
            self._visits[key] = occurrence
            spec = self.plan.match(phase, method_id, concern, occurrence)
            if spec is not None:
                self.fired.append(spec)
            return spec

    def fire(self, phase: str, method_id: str, concern: str = "") -> bool:
        """Moderator hook: perform any planned fault at this site visit.

        Returns True when the site must be *skipped* (no-op crash), False
        to proceed normally; raises :class:`InjectedFault` for ``raise``
        actions. ``delay`` sleeps here and then proceeds.
        """
        spec = self._visit(phase, method_id, concern)
        if spec is None:
            return False
        if spec.action == "delay":
            self._sleep(spec.arg)
            return False
        if spec.action == "skip":
            return True
        raise InjectedFault(spec)

    def site_specs(self, phase: str, method_id: str,
                   concern: str = "") -> List[FaultSpec]:
        """Every planned spec targeting one site (any occurrence)."""
        return self.plan.specs_at((phase, method_id, concern))

    def crash_due(self, node_id: str, point: str) -> Optional[FaultSpec]:
        """Node hook: the planned crash for this serving checkpoint.

        Visit-counted like every other site, so "crash ``n1`` the
        second time an effect has just been applied" is a stable
        schedule coordinate. The node applies the crash itself
        (discarding volatile state and stopping its serve loops) —
        only the node knows how to die.
        """
        return self._visit("crash", node_id, point)

    def deliver(self, dest: str) -> Optional[FaultSpec]:
        """Network hook: the planned fault for this delivery, if any.

        The network applies the action itself (``skip`` drops the
        message, ``delay`` widens its latency, ``raise`` surfaces to the
        sender), because only the network knows how to do each one.
        """
        return self._visit("delivery", dest, "")

    # ------------------------------------------------------------------
    # introspection / reuse
    # ------------------------------------------------------------------
    def visits(self, phase: str, method_id: str, concern: str = "") -> int:
        """How many times a site has been visited so far."""
        with self._lock:
            return self._visits.get((phase, method_id, concern), 0)

    def all_fired(self) -> bool:
        """Whether every spec in the plan triggered at least once."""
        with self._lock:
            fired = set(id(spec) for spec in self.fired)
        return all(id(spec) in fired for spec in self.plan.specs) \
            if self.plan.specs else True

    def fired_summary(self) -> List[str]:
        with self._lock:
            return [spec.describe() for spec in self.fired]

    def reset(self, plan: Optional[FaultPlan] = None) -> "FaultInjector":
        """Clear counters (and optionally swap the plan) for a new run."""
        with self._lock:
            self._visits.clear()
            self.fired.clear()
            if plan is not None:
                self.plan = plan
        return self

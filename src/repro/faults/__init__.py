"""Deterministic fault injection for the moderation protocol.

The containment guarantees of :mod:`repro.core.moderator` (exception-safe
unwind, quarantine, wake-always) are only as good as the failure
schedules they survive. This package makes those schedules *first class
and reproducible*:

* :class:`FaultSpec` names one fault site — the k-th precondition of
  concern X on method Y, the k-th postaction, the k-th compensation, the
  k-th network delivery to an endpoint — plus the action to take there
  (raise, delay, or a silent no-op "crash").
* :class:`FaultPlan` is an immutable set of specs; helpers enumerate the
  whole single- and double-fault plan space for a given site list, and
  ``FaultPlan.seeded`` samples it deterministically.
* :class:`FaultInjector` executes a plan: installed on a moderator (or a
  ``repro.dist.Network``) it counts visits per site and fires exactly
  the planned faults, every run, in the same places.

With no injector installed the hot path pays a single ``is None``
attribute check — measured in ``benchmarks/bench_faults.py``.
"""

from .plan import (
    CRASH_POINTS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    delivery_sites,
    double_fault_plans,
    protocol_sites,
    single_fault_plans,
    single_loss_plans,
)
from .injector import FaultInjector

__all__ = [
    "CRASH_POINTS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "delivery_sites",
    "double_fault_plans",
    "protocol_sites",
    "single_fault_plans",
    "single_loss_plans",
]

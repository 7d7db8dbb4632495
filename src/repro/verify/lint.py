"""Composition linter: static detection of composition anomalies.

The paper grounds its motivation in "composition anomalies" (Bergmans &
Aksit, cited in Section 1): concerns that are individually correct but
interact badly when composed. The model checker finds behavioural
anomalies by exploration; this linter finds the *structural* ones by
inspecting a chain's shape — instant feedback at bind time, no state
space needed.

Rules (each with a stable id, severity, and rationale):

=========  ========  ====================================================
rule id    severity  anomaly
=========  ========  ====================================================
OBS-LATE   warning   an observer (audit/timing) placed after a guard
                     never sees the activations the guard rejects
CACHE-PRE  error     a caching aspect placed before an access-control
                     guard serves cached results to unauthorized callers
BLOCK-2    warning   two blocking synchronization aspects on one chain
                     can deadlock pairwise (hold-and-wait across rounds)
TXN-OUT    warning   a transaction aspect (concern ``txn``) outside
                     (before) the synchronization aspect snapshots
                     unsynchronized state
GUARD-DUP  info      duplicate guard kinds on one chain (usually a
                     wiring mistake, occasionally intentional)
EMPTY      info      a participating method with an empty chain is a
                     plain method — registration may be missing
=========  ========  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.aspect import Aspect
from repro.core.registry import Cluster

#: aspect classes considered blocking synchronization primitives
_BLOCKING_HINTS = (
    "BoundedBufferSync", "MutexAspect", "ReentrantMutexAspect",
    "SemaphoreAspect", "ReadersWriterAspect", "BarrierAspect",
    "GuardAspect", "FifoSchedulingAspect", "LifoSchedulingAspect",
    "PrioritySchedulingAspect", "ConcurrencyWindowAspect",
    "TurnTakingAspect", "PhaseAspect", "QuorumAspect",
    "DependencyAspect", "OpenSynchronizationAspect",
    "AssignSynchronizationAspect",
)


@dataclass(frozen=True)
class Finding:
    """One linter finding."""

    rule: str
    severity: str  # "error" | "warning" | "info"
    method_id: str
    detail: str

    def format(self) -> str:
        return f"[{self.severity}] {self.rule} @ {self.method_id}: {self.detail}"


def _is_observer(concern: str, aspect: Aspect) -> bool:
    return bool(getattr(aspect, "is_observer", False)) or concern.lower() in (
        "audit", "timing", "trace", "metrics",
    )


def _is_guard(concern: str, aspect: Aspect) -> bool:
    return bool(getattr(aspect, "is_guard", False)) or concern.lower() in (
        "authenticate", "authorize", "authorization", "auth", "security",
        "validate", "typecheck",
    )


def _is_cache(concern: str, aspect: Aspect) -> bool:
    return type(aspect).__name__ == "CachingAspect" or concern.lower() == "cache"


def _is_blocking(aspect: Aspect) -> bool:
    return type(aspect).__name__ in _BLOCKING_HINTS


def _is_txn(concern: str) -> bool:
    return concern.lower() == "txn"


def lint_chain(method_id: str,
               pairs: Sequence[Tuple[str, Aspect]]) -> List[Finding]:
    """Lint one method's ordered (concern, aspect) chain."""
    findings: List[Finding] = []
    if not pairs:
        findings.append(Finding(
            rule="EMPTY", severity="info", method_id=method_id,
            detail="participating method has no aspects bound",
        ))
        return findings

    guard_positions = [
        index for index, (concern, aspect) in enumerate(pairs)
        if _is_guard(concern, aspect)
    ]
    first_guard = guard_positions[0] if guard_positions else None

    # OBS-LATE: observers after the first guard miss rejected attempts
    if first_guard is not None:
        for index, (concern, aspect) in enumerate(pairs):
            if index > first_guard and _is_observer(concern, aspect):
                findings.append(Finding(
                    rule="OBS-LATE", severity="warning",
                    method_id=method_id,
                    detail=(
                        f"observer {concern!r} runs after guard "
                        f"{pairs[first_guard][0]!r}; rejected activations "
                        f"will not be observed"
                    ),
                ))

    # CACHE-PRE: cache before any guard serves unauthorized hits
    if first_guard is not None:
        for index, (concern, aspect) in enumerate(pairs):
            if index < first_guard and _is_cache(concern, aspect):
                findings.append(Finding(
                    rule="CACHE-PRE", severity="error",
                    method_id=method_id,
                    detail=(
                        f"cache {concern!r} precedes guard "
                        f"{pairs[first_guard][0]!r}: cached results are "
                        f"served without access control"
                    ),
                ))

    # BLOCK-2: multiple blocking primitives can hold-and-wait
    blocking = [
        (concern, aspect) for concern, aspect in pairs
        if _is_blocking(aspect)
    ]
    if len(blocking) >= 2:
        names = ", ".join(
            f"{concern}:{type(aspect).__name__}"
            for concern, aspect in blocking
        )
        findings.append(Finding(
            rule="BLOCK-2", severity="warning", method_id=method_id,
            detail=(
                f"{len(blocking)} blocking aspects on one chain "
                f"({names}); verify deadlock-freedom with repro.verify"
            ),
        ))

    # TXN-OUT: transaction outside synchronization
    txn_positions = [
        index for index, (concern, _aspect) in enumerate(pairs)
        if _is_txn(concern)
    ]
    sync_positions = [
        index for index, (_concern, aspect) in enumerate(pairs)
        if _is_blocking(aspect)
    ]
    if txn_positions and sync_positions \
            and txn_positions[0] < sync_positions[0]:
        findings.append(Finding(
            rule="TXN-OUT", severity="warning", method_id=method_id,
            detail=(
                "transaction aspect precedes synchronization: snapshots "
                "may capture state mid-mutation by a concurrent activation"
            ),
        ))

    # GUARD-DUP: the same guard class twice
    seen_guard_types: dict = {}
    for concern, aspect in pairs:
        if _is_guard(concern, aspect):
            type_name = type(aspect).__name__
            if type_name in seen_guard_types:
                findings.append(Finding(
                    rule="GUARD-DUP", severity="info",
                    method_id=method_id,
                    detail=(
                        f"guard class {type_name} appears more than once "
                        f"({seen_guard_types[type_name]!r} and {concern!r})"
                    ),
                ))
            else:
                seen_guard_types[type_name] = concern

    return findings


def lint_plan(plan: "object") -> List[Finding]:
    """Lint one compiled :class:`~repro.core.plan.ActivationPlan`.

    Runs every structural chain rule on the plan's effective order, then
    adds plan-level rules that only a compiled contract exposes:

    =============  ========  =============================================
    rule id        severity  anomaly
    =============  ========  =============================================
    QUAR-OPEN      info      a fail-open cell is currently quarantined:
                             activations silently proceed without it
    QUAR-CLOSED    warning   a fail-closed cell is currently quarantined:
                             every activation of the method ABORTs until
                             the aspect is swapped or reinstated
    INJ-ARMED      info      a fault injector is compiled into the plan
                             (expected in chaos tests, not in production)
    =============  ========  =============================================

    A healthy plan (nothing quarantined, no injector) yields exactly the
    findings :func:`lint_chain` would for the same chain.
    """
    report = plan.explain()
    method_id = report["method_id"]
    findings = lint_chain(method_id, plan.pairs)
    for cell in report["cells"]:
        if cell["degraded"] == "fail_open":
            findings.append(Finding(
                rule="QUAR-OPEN", severity="info", method_id=method_id,
                detail=(
                    f"quarantined fail-open cell {cell['concern']!r} is "
                    f"compiled out: activations proceed without it"
                ),
            ))
        elif cell["degraded"] == "fail_closed":
            findings.append(Finding(
                rule="QUAR-CLOSED", severity="warning",
                method_id=method_id,
                detail=(
                    f"quarantined fail-closed cell {cell['concern']!r} "
                    f"aborts every activation until swapped or reinstated"
                ),
            ))
    if report["injector_armed"]:
        findings.append(Finding(
            rule="INJ-ARMED", severity="info", method_id=method_id,
            detail="a fault injector is compiled into this plan",
        ))
    return findings


def lint_cluster(cluster: Cluster) -> List[Finding]:
    """Lint every participating method of a cluster.

    Each method is linted through its compiled activation plan
    (compilation is pure, so this holds even for clusters running the
    interpreter), which is the moderator's *effective* composition —
    ordering policy applied, quarantine state included. What is linted
    is what runs.
    """
    findings: List[Finding] = []
    for method_id in cluster.bank.methods():
        findings.extend(lint_plan(cluster.moderator.plan_for(method_id)))
    return findings

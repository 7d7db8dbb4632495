"""Per-(method, concern) aspect health tracking and quarantine policy.

Lorenz & Skotiniotis (*Extending Design by Contract for AOP*, see
PAPERS.md) argue that aspect advice is contract-bearing code whose
violations must be detected and contained. The framework's containment
policy follows the invasive-pattern classification: an aspect that only
*observes* the activation (audit, timing) can safely be skipped when it
keeps faulting — ``fail_open`` — whereas an aspect that *guards* the
activation (authentication, synchronization) must fail the activation
rather than silently wave it through — ``fail_closed``.

:class:`HealthTracker` is the moderator-side bookkeeping: it counts
faults per bank cell and flips a cell to *quarantined* once the count
reaches the cell's threshold. The hot path pays one lock-free
``degraded.get(method_id)`` per round: :attr:`HealthTracker.degraded`
maps only methods with a quarantined cell, so a healthy method's round
never looks at a cell, whatever is quarantined elsewhere.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

#: Quarantine policy for observer-style aspects: once degraded, the
#: aspect is skipped and the activation proceeds without it.
FAIL_OPEN = "fail_open"

#: Quarantine policy for guard-style aspects: once degraded, activations
#: of the method are ABORTed rather than admitted unguarded.
FAIL_CLOSED = "fail_closed"

_POLICIES = (FAIL_OPEN, FAIL_CLOSED)


@dataclass
class AspectHealth:
    """Health record of one bank cell.

    ``policy is None`` means the cell never quarantines: every fault
    still propagates to the caller (wrapped in ``AspectFault``), but the
    aspect is never taken out of the chain.
    """

    policy: Optional[str] = None
    threshold: int = 3
    faults: int = 0
    quarantined: bool = False
    last_fault: str = ""
    phases: Dict[str, int] = field(default_factory=dict)
    #: structured evidence of the most recent fault: exception type and
    #: message, protocol phase, activation id, and — when the fault was
    #: a contract violation — the blame verdict. ``last_fault`` keeps
    #: the legacy one-line form; this is the machine-readable record.
    last_fault_info: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "threshold": self.threshold,
            "faults": self.faults,
            "quarantined": self.quarantined,
            "last_fault": self.last_fault,
            "last_fault_info": dict(self.last_fault_info),
            "phases": dict(self.phases),
        }


class HealthTracker:
    """Fault accounting and quarantine state for a moderator's bank cells.

    Thread safety: all mutation happens under an internal leaf lock that
    is never held while calling aspect or listener code. ``degraded`` is
    copy-on-write — replaced whole, never mutated — so a bare read is a
    consistent snapshot; a stale one merely applies a quarantine flip
    one round late.
    """

    def __init__(self, default_threshold: int = 3,
                 on_change: Optional[Callable[[], None]] = None) -> None:
        if default_threshold < 1:
            raise ValueError("default_threshold must be at least 1")
        self.default_threshold = default_threshold
        self._lock = threading.Lock()
        self._cells: Dict[Tuple[str, str], AspectHealth] = {}
        self._policies: Dict[Tuple[str, str], Tuple[Optional[str], int]] = {}
        #: method -> {concern: policy} of every quarantined cell,
        #: rebuilt under the lock at each flip, reinstate or drop
        self.degraded: Dict[str, Dict[str, str]] = {}
        #: Monotonic counter bumped by every change that could alter
        #: what a compiled plan snapshots: a policy (re)declaration, a
        #: cell being dropped, a quarantine flip, a reinstatement.
        #: Bare reads are safe (int reads are atomic; a stale read
        #: merely revalidates one round late, like ``degraded``).
        self.epoch = 0
        #: called (under the lock) with every epoch bump: the owning
        #: moderator's ``registration_version`` moves with it, so
        #: quarantine transitions invalidate compiled plans
        self._on_change = on_change

    # ------------------------------------------------------------------
    # policy registration
    # ------------------------------------------------------------------
    def set_policy(self, method_id: str, concern: str,
                   policy: Optional[str],
                   threshold: Optional[int] = None) -> None:
        """Declare the quarantine policy for a cell (registration time).

        Re-registering a cell resets its fault history: a freshly swapped
        aspect starts healthy.
        """
        if policy is not None and policy not in _POLICIES:
            raise ValueError(
                f"fault_policy must be one of {_POLICIES}, got {policy!r}"
            )
        key = (method_id, concern)
        with self._lock:
            self._policies[key] = (
                policy, threshold if threshold is not None
                else self.default_threshold,
            )
            self._cells.pop(key, None)
            self._refresh_degraded_locked()
            self._moved()

    def drop(self, method_id: str, concern: str) -> None:
        """Forget a cell entirely (unregistration)."""
        key = (method_id, concern)
        with self._lock:
            self._policies.pop(key, None)
            self._cells.pop(key, None)
            self._refresh_degraded_locked()
            self._moved()

    def declared_policy(
        self, method_id: str, concern: str
    ) -> Tuple[Optional[str], int]:
        """The declared (policy, threshold) of a cell — compile-time hook.

        Unlike :meth:`quarantine_policy` this reports the registration
        contract regardless of current quarantine state; activation-plan
        ``explain()`` reports use it to show how a cell *would* degrade.
        """
        with self._lock:
            return self._policies.get(
                (method_id, concern), (None, self.default_threshold)
            )

    # ------------------------------------------------------------------
    # fault accounting
    # ------------------------------------------------------------------
    def record_fault(self, method_id: str, concern: str, phase: str,
                     exc: BaseException, activation_id: int = 0,
                     blame: Optional[str] = None) -> bool:
        """Count one fault; return True when the cell just quarantined.

        ``activation_id`` and ``blame`` (a contract verdict such as
        ``"aspect:discount"``) flow into the cell's structured
        ``last_fault_info`` so diagnostics can tie the quarantine
        decision back to the activation — and the blame assignment —
        that caused it.
        """
        key = (method_id, concern)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                policy, threshold = self._policies.get(
                    key, (None, self.default_threshold)
                )
                cell = AspectHealth(policy=policy, threshold=threshold)
                self._cells[key] = cell
            cell.faults += 1
            cell.phases[phase] = cell.phases.get(phase, 0) + 1
            cell.last_fault = f"{type(exc).__name__}: {exc}"
            cell.last_fault_info = {
                "exception": type(exc).__name__,
                "message": str(exc),
                "phase": phase,
                "activation_id": activation_id,
                "blame": blame,
            }
            if (cell.policy is not None and not cell.quarantined
                    and cell.faults >= cell.threshold):
                cell.quarantined = True
                self._refresh_degraded_locked()
                self._moved()
                return True
            return False

    def quarantine_policy(self, method_id: str,
                          concern: str) -> Optional[str]:
        """The policy of a *quarantined* cell, or None when healthy."""
        with self._lock:
            cell = self._cells.get((method_id, concern))
            if cell is not None and cell.quarantined:
                return cell.policy
            return None

    def reinstate(self, method_id: str, concern: str) -> bool:
        """Clear a cell's quarantine and fault count; True if it was set."""
        with self._lock:
            cell = self._cells.get((method_id, concern))
            if cell is None:
                return False
            was = cell.quarantined
            cell.quarantined = False
            cell.faults = 0
            cell.phases.clear()
            self._refresh_degraded_locked()
            if was:
                self._moved()
            return was

    def _moved(self) -> None:
        self.epoch += 1
        if self._on_change is not None:
            self._on_change()

    def _refresh_degraded_locked(self) -> None:
        degraded: Dict[str, Dict[str, str]] = {}
        for (method_id, concern), cell in self._cells.items():
            if cell.quarantined:
                degraded.setdefault(method_id, {})[concern] = cell.policy
        self.degraded = degraded

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any cell is quarantined."""
        return bool(self.degraded)

    def snapshot(self) -> Dict[Tuple[str, str], Dict[str, object]]:
        """Copy of every cell's health record (cells with faults only)."""
        with self._lock:
            return {
                key: cell.as_dict() for key, cell in self._cells.items()
            }

    def quarantined_cells(self) -> Dict[Tuple[str, str], str]:
        """Currently quarantined cells mapped to their policy."""
        with self._lock:
            return {
                key: cell.policy or ""
                for key, cell in self._cells.items() if cell.quarantined
            }

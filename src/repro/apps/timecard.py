"""Timecard reporting system: a paper-motivating workload (Section 2).

Functional component: per-employee punch records and a payroll report.
Composed concerns:

* **sync** — readers/writer: punches (``clock_in`` / ``clock_out``)
  write; ``report`` reads and may run concurrently with other reads;
* **validate** — an employee cannot clock in twice or out while out;
* **authenticate** — punches require a live session for the employee;
* **ratelimit** — report generation is expensive; a token bucket sheds
  excess report load.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.aspects.authentication import AuthenticationAspect, SessionManager
from repro.aspects.rate_limit import TokenBucketAspect
from repro.aspects.synchronization import ReadersWriterAspect
from repro.aspects.validation import ValidationAspect
from repro.core.factory import RegistryAspectFactory
from repro.core.ordering import guards_first
from repro.core.registry import Cluster


class TimecardError(RuntimeError):
    """Domain errors (unknown employee, inconsistent punches)."""


class TimecardLedger:
    """Sequential punch ledger."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._punches: Dict[str, List[Dict]] = {}
        self._on_clock: Dict[str, float] = {}

    def clock_in(self, employee: str) -> float:
        """Record the start of a shift; returns the punch timestamp."""
        if employee in self._on_clock:
            raise TimecardError(f"{employee!r} is already clocked in")
        timestamp = self._clock()
        self._on_clock[employee] = timestamp
        return timestamp

    def clock_out(self, employee: str) -> float:
        """Record the end of a shift; returns hours-equivalent duration."""
        started = self._on_clock.pop(employee, None)
        if started is None:
            raise TimecardError(f"{employee!r} is not clocked in")
        ended = self._clock()
        self._punches.setdefault(employee, []).append(
            {"in": started, "out": ended, "duration": ended - started}
        )
        return ended - started

    def is_on_clock(self, employee: str) -> bool:
        return employee in self._on_clock

    def report(self, employee: Optional[str] = None) -> Dict[str, float]:
        """Total recorded duration, per employee (or one employee)."""
        if employee is not None:
            punches = self._punches.get(employee, [])
            return {employee: sum(p["duration"] for p in punches)}
        return {
            name: sum(p["duration"] for p in punches)
            for name, punches in sorted(self._punches.items())
        }


def build_timecard_cluster(
    sessions: Optional[SessionManager] = None,
    report_rate: float = 50.0,
    clock=time.monotonic,
    default_timeout: Optional[float] = None,
) -> Cluster:
    """Wire the ledger with rw-sync, validation (+ auth, + rate limit)."""
    ledger = TimecardLedger(clock=clock)
    factory = RegistryAspectFactory()
    rw = ReadersWriterAspect(
        readers={"report"}, writers={"clock_in", "clock_out"}
    )
    for method in ("clock_in", "clock_out", "report"):
        factory.register(method, "sync", lambda _c, a=rw: a)

    def _employee(joinpoint) -> str:
        if joinpoint.args:
            return str(joinpoint.args[0])
        return str(joinpoint.kwargs.get("employee", ""))

    factory.register(
        "clock_in", "validate",
        lambda component: ValidationAspect(rules=[
            ("employee named", lambda jp: bool(_employee(jp))),
            (
                "not already on the clock",
                lambda jp: not component.is_on_clock(_employee(jp)),
            ),
        ]),
    )
    factory.register(
        "clock_out", "validate",
        lambda component: ValidationAspect(rules=[
            (
                "currently on the clock",
                lambda jp: component.is_on_clock(_employee(jp)),
            ),
        ]),
    )
    factory.register(
        "report", "ratelimit",
        lambda _c: TokenBucketAspect(
            rate=report_rate, burst=max(1.0, report_rate / 10), mode="abort",
        ),
    )
    bindings: Dict[str, List[str]] = {
        "clock_in": ["validate", "sync"],
        "clock_out": ["validate", "sync"],
        "report": ["ratelimit", "sync"],
    }
    cluster = Cluster(
        component=ledger,
        factory=factory,
        bindings=bindings,
        ordering=guards_first,
        default_timeout=default_timeout,
    )
    if sessions is not None:
        auth_factory = RegistryAspectFactory()
        shared = AuthenticationAspect(sessions)
        for method in ("clock_in", "clock_out"):
            auth_factory.register(method, "authenticate",
                                  lambda _c, a=shared: a)
        cluster.extend(
            auth_factory,
            bindings={
                "clock_in": ["authenticate"],
                "clock_out": ["authenticate"],
            },
        )
    return cluster

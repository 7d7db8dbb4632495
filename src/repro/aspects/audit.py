"""Audit aspect: tamper-evident call trail ("audits", paper Section 2).

Records one :class:`AuditRecord` per activation — attempt, outcome,
principal, latency — into an append-only, hash-chained log. Because the
aspect observes both phases, it can log aborted attempts too (a
precondition-only aspect would see them; a decorator around the raw
method would not), which is precisely what an audit concern needs.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.aspect import StatefulAspect
from repro.core.joinpoint import JoinPoint
from repro.core.results import AspectResult


def _payload(sequence: int, method_id: str, principal: Optional[str],
             outcome: str, started_at: float, duration: float,
             previous_hash: str) -> str:
    """The hashed form of one record: the only definition of its format."""
    return (
        f"{sequence}|{method_id}|{principal}|{outcome}|"
        f"{started_at:.9f}|{duration:.9f}|{previous_hash}"
    )


@dataclass(frozen=True)
class AuditRecord:
    """One audited activation."""

    sequence: int
    method_id: str
    principal: Optional[str]
    outcome: str  # "ok" | "error" | "aborted"
    started_at: float
    duration: float
    previous_hash: str
    record_hash: str = field(default="", compare=False)

    def payload(self) -> str:
        return _payload(
            self.sequence, self.method_id, self.principal, self.outcome,
            self.started_at, self.duration, self.previous_hash,
        )


class AuditLog:
    """Append-only hash chain of audit records."""

    GENESIS = "0" * 64

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[AuditRecord] = []

    def append(self, method_id: str, principal: Optional[str], outcome: str,
               started_at: float, duration: float) -> AuditRecord:
        with self._lock:
            previous = (
                self._records[-1].record_hash if self._records
                else self.GENESIS
            )
            sequence = len(self._records)
            digest = hashlib.sha256(_payload(
                sequence, method_id, principal, outcome, started_at,
                duration, previous,
            ).encode()).hexdigest()
            record = AuditRecord(
                sequence=sequence,
                method_id=method_id,
                principal=principal,
                outcome=outcome,
                started_at=started_at,
                duration=duration,
                previous_hash=previous,
                record_hash=digest,
            )
            self._records.append(record)
            return record

    def verify_chain(self) -> bool:
        """Recompute the hash chain; False means tampering."""
        with self._lock:
            records = list(self._records)
        previous = self.GENESIS
        for record in records:
            if record.previous_hash != previous:
                return False
            if hashlib.sha256(record.payload().encode()).hexdigest() \
                    != record.record_hash:
                return False
            previous = record.record_hash
        return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[AuditRecord]:
        with self._lock:
            return iter(list(self._records))

    def outcomes(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for record in self:
            histogram[record.outcome] = histogram.get(record.outcome, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # persistence (JSON Lines; the hash chain makes the file tamper-
    # evident, so a loaded log re-verifies end to end)
    # ------------------------------------------------------------------
    def export_jsonl(self, path) -> int:
        """Write every record as one JSON object per line.

        Returns the number of records written.
        """
        records = list(self)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(vars(record)) + "\n")
        return len(records)

    @classmethod
    def import_jsonl(cls, path) -> "AuditLog":
        """Load a log written by :meth:`export_jsonl`.

        Raises ``ValueError`` when the loaded chain fails verification —
        a truncated, reordered or edited file never loads silently.
        """
        log = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                payload = json.loads(line)
                log._records.append(AuditRecord(**payload))
        if not log.verify_chain():
            raise ValueError(f"audit chain in {path!r} fails verification")
        return log


class AuditAspect(StatefulAspect):
    """Record every activation (including aborted ones) to an audit log."""

    concern = "audit"
    is_observer = True
    never_blocks = True
    # a broken audit log should not take the service down: skip when degraded
    fault_policy = "fail_open"
    # declared pure observer: no vote but RESUME, no effect on any other
    # activation's outcome — a profiler's ``skip_analysis`` may elide
    # this cell entirely (the audit trail then deliberately goes dark;
    # keep skip_analysis off where the trail is load-bearing)
    pure_observer = True

    def __init__(self, log: Optional[AuditLog] = None) -> None:
        super().__init__()
        self.log = log if log is not None else AuditLog()

    def precondition(self, joinpoint: JoinPoint) -> AspectResult:
        joinpoint.context["audit_start"] = time.monotonic()
        return AspectResult.RESUME

    def _principal(self, joinpoint: JoinPoint) -> Optional[str]:
        principal = joinpoint.context.get("principal")
        if principal is None and joinpoint.caller is not None:
            principal = str(joinpoint.caller)
        return principal

    def postaction(self, joinpoint: JoinPoint) -> None:
        started = joinpoint.context.get("audit_start", time.monotonic())
        outcome = "error" if joinpoint.exception is not None else "ok"
        self.log.append(
            method_id=joinpoint.method_id,
            principal=self._principal(joinpoint),
            outcome=outcome,
            started_at=started,
            duration=time.monotonic() - started,
        )

    def on_abort(self, joinpoint: JoinPoint) -> None:
        if joinpoint.context.get("__compensation__") == "block":
            # Transient round: the activation is about to wait and
            # re-evaluate, not to fail — nothing to audit yet.
            joinpoint.context.pop("audit_start", None)
            return
        started = joinpoint.context.get("audit_start", time.monotonic())
        self.log.append(
            method_id=joinpoint.method_id,
            principal=self._principal(joinpoint),
            outcome="aborted",
            started_at=started,
            duration=time.monotonic() - started,
        )

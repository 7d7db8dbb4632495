"""Live service migration: move a servant between nodes.

Location transparency (paper Section 2) pays off when services *move*:
clients address a logical name, so migration is pack state → rebuild
on the target → rebind the name, arriving the way a failover does
(``docs/recovery.md``) with one wire-safe
:class:`~repro.dist.recovery.Handoff` bundle: in-process object
handoff is rejected, so what works here works in a real deployment.

Quiescing: the optional ``quiesce`` / ``resume`` callbacks bracket the
capture. The natural implementation is a
:class:`~repro.aspects.coordination.PhaseAspect` transition — the same
separated concern that closes bookings also drains a service for
migration, which is exactly the reuse story the paper tells.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.errors import NetworkError
from .naming import Binding, NameService
from .node import Node
from .recovery import Handoff, install, take_over

class MigrationError(NetworkError):
    """Raised when a migration cannot proceed (bad state, dead target)."""


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one migration."""

    name: str
    source: str
    target: str
    state_keys: int
    downtime: float  # seconds between withdraw and serving on target
    binding: Binding


class Migrator:
    """Moves named services between nodes with bounded downtime."""

    def __init__(self, names: NameService) -> None:
        self.names = names
        self.history: list = []

    def migrate(
        self,
        public_name: str,
        source: Node,
        target: Node,
        capture: Callable[[Any], Dict[str, Any]],
        rebuild: Callable[[Dict[str, Any]], Any],
        quiesce: Optional[Callable[[], None]] = None,
        resume: Optional[Callable[[], None]] = None,
        drain_timeout: float = 5.0,
    ) -> MigrationReport:
        """Move ``public_name`` from ``source`` to ``target``."""
        report, _ = self.move(public_name, source, target,
                              Handoff(capture, rebuild), quiesce=quiesce,
                              resume=resume, drain_timeout=drain_timeout)
        return report

    def move(
        self,
        public_name: str,
        source: Node,
        target: Node,
        handoff: Handoff,
        quiesce: Optional[Callable[[], None]] = None,
        resume: Optional[Callable[[], None]] = None,
        drain_timeout: float = 5.0,
    ) -> Tuple[MigrationReport, int]:
        """Move ``public_name`` carrying ``handoff``'s bundle.

        quiesce → withdraw (the retryable *moving window* opens) and
        detach the recovery plan → drain (``settle``) → pack → unpack →
        ``take_over`` → ``install`` → resume. A failure before the
        rebind puts servant and plan back on the source with the name
        untouched; ``resume`` runs on every exit. Returns the report
        and the number of dedup entries seeded on the target.
        """
        binding = self.names.resolve(public_name)
        service = binding.service
        if binding.node_id != source.node_id:
            raise MigrationError(
                f"{public_name!r} is bound to {binding.node_id!r}, "
                f"not to source {source.node_id!r}"
            )
        if not target.network.is_up(target.node_id):
            raise MigrationError(f"target {target.node_id!r} is down")
        if service in target.services():
            raise MigrationError(
                f"target {target.node_id!r} already serves {service!r}"
            )

        if quiesce is not None:
            quiesce()
        try:
            try:
                servant = source.withdraw(service, moving=True)
            except KeyError as exc:
                raise MigrationError(
                    f"service {service!r} not on {source.node_id!r}"
                ) from exc
            withdrawn_at = time.monotonic()
            plan = source.detach_recovery(service)
            try:
                # Withdraw stopped new arrivals; the drain barrier
                # proves the in-flight ones finished, so the packed
                # state can miss no applied effect.
                if not source.settle(service, drain_timeout):
                    raise MigrationError(
                        f"in-flight calls to {public_name!r} did not "
                        f"drain within {drain_timeout}s"
                    )
                packed = handoff.pack(servant, source.dedup)
                replacement, seed = handoff.unpack(packed)
            except Exception as exc:  # noqa: BLE001 - roll back, re-raise
                if plan is not None:
                    source.attach_recovery(service, plan)
                source.export(service, servant)
                if isinstance(exc, MigrationError):
                    raise
                raise MigrationError(
                    f"capture or rebuild failed for {public_name!r}: "
                    f"{exc}"
                ) from exc
            new_binding = take_over(self.names, public_name, service,
                                    target, plan)
            seeded = install(target, service, replacement, seed, plan,
                             new_binding.epoch)
            downtime = time.monotonic() - withdrawn_at
        finally:
            if resume is not None:
                resume()
        report = MigrationReport(
            name=public_name,
            source=source.node_id,
            target=target.node_id,
            # the handoff bundle is not the servant's own state
            state_keys=len(packed) - 1,
            downtime=downtime,
            binding=new_binding,
        )
        self.history.append(report)
        return report, seeded

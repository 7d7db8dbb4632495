"""The trouble-ticketing system: the paper's running example (Section 4).

"This is an application where clients open (place) tickets on a server,
and assign (retrieve) tickets from a server. This application is based
on the producer consumer protocol with the use of a bounded buffer."

Two parallel constructions are provided, and tests assert they behave
identically:

* **paper-style** — classes named as in the figures:
  :class:`OpenSynchronizationAspect` / :class:`AssignSynchronizationAspect`
  (Figure 7), :class:`TicketServerProxy` with guarded methods (Figures 5
  and 10), :class:`ExtendedTicketServerProxy` +
  :class:`OpenAuthenticationAspect` / :class:`AssignAuthenticationAspect`
  via an extended factory (Figures 13-16);
* **framework-style** — :func:`build_ticketing_cluster`, which wires the
  same semantics through :class:`~repro.core.registry.Cluster`,
  demonstrating that the hand-written proxy of the paper is exactly the
  generic machinery specialized.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.aspects.audit import AuditAspect, AuditLog
from repro.aspects.authentication import (
    AuthenticationAspect,
    CredentialStore,
    SessionManager,
)
from repro.aspects.timing import TimingAspect
from repro.core.aspect import Aspect
from repro.core.factory import AspectFactory, RegistryAspectFactory
from repro.core.joinpoint import JoinPoint
from repro.core.moderator import AspectModerator
from repro.core.ordering import guards_first
from repro.core.proxy import GuardedMethod
from repro.core.registry import Cluster
from repro.core.results import AspectResult
from repro.concurrency.buffer import Ticket, TicketStore

#: Concern labels as string constants, mirroring the paper's
#: ``SYNC`` / ``AUTHENTICATE`` constants.
SYNC = "sync"
AUTHENTICATE = "authenticate"
AUDIT = "audit"
TIMING = "timing"


class TicketSyncState:
    """Shared synchronization counters for one ticket server.

    The paper keeps ``noItems`` / ``assignPtr`` on the component and
    ``ActiveOpen`` / ``ActiveAssign`` on the aspects. Centralizing them
    in one shared object lets the two direction-aspects coordinate while
    keeping the functional component completely free of concurrency
    state.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.lock = threading.RLock()
        self.no_items = 0
        self.active_open = 0
        self.active_assign = 0


class OpenSynchronizationAspect(Aspect):
    """Figure 7: guard for the producing method ``open``.

    Precondition (paper): "if the shared object (TicketServer) is not
    full, then the method returns [RESUME]" — with the additional
    ``ActiveOpen == 0`` mutual-exclusion term from the listing.
    Postaction commits the item count (the paper's pointer/counter
    updates).
    """

    concern = SYNC

    def __init__(self, state: TicketSyncState) -> None:
        self.state = state

    def precondition(self, joinpoint: JoinPoint) -> AspectResult:
        state = self.state
        with state.lock:
            if (state.no_items + state.active_open < state.capacity
                    and state.active_open == 0):
                state.active_open += 1
                return AspectResult.RESUME
            return AspectResult.BLOCK

    def postaction(self, joinpoint: JoinPoint) -> None:
        state = self.state
        with state.lock:
            state.active_open -= 1
            if joinpoint.exception is None:
                state.no_items += 1

    def on_abort(self, joinpoint: JoinPoint) -> None:
        with self.state.lock:
            self.state.active_open -= 1


class AssignSynchronizationAspect(Aspect):
    """Figure 7's dual: guard for the consuming method ``assign``."""

    concern = SYNC

    def __init__(self, state: TicketSyncState) -> None:
        self.state = state

    def precondition(self, joinpoint: JoinPoint) -> AspectResult:
        state = self.state
        with state.lock:
            if (state.no_items - state.active_assign > 0
                    and state.active_assign == 0):
                state.active_assign += 1
                return AspectResult.RESUME
            return AspectResult.BLOCK

    def postaction(self, joinpoint: JoinPoint) -> None:
        state = self.state
        with state.lock:
            state.active_assign -= 1
            if joinpoint.exception is None:
                state.no_items -= 1

    def on_abort(self, joinpoint: JoinPoint) -> None:
        with self.state.lock:
            self.state.active_assign -= 1


class OpenAuthenticationAspect(AuthenticationAspect):
    """Figure 13-18's authentication aspect for ``open`` (extension)."""

    concern = AUTHENTICATE


class AssignAuthenticationAspect(AuthenticationAspect):
    """Figure 13-18's authentication aspect for ``assign`` (extension)."""

    concern = AUTHENTICATE


class AspectFactoryImpl(RegistryAspectFactory):
    """The paper's ``AspectFactory`` (Figure 6), data-driven.

    ``create("open", "sync", component)`` returns an
    :class:`OpenSynchronizationAspect` bound to the per-component shared
    sync state; likewise for assign.
    """

    def __init__(self) -> None:
        super().__init__()
        self._states: Dict[int, TicketSyncState] = {}
        self._state_lock = threading.Lock()

        def state_for(component: Any) -> TicketSyncState:
            with self._state_lock:
                key = id(component)
                state = self._states.get(key)
                if state is None:
                    state = TicketSyncState(capacity=component.capacity)
                    self._states[key] = state
                return state

        self.register(
            "open", SYNC,
            lambda component: OpenSynchronizationAspect(state_for(component)),
        )
        self.register(
            "assign", SYNC,
            lambda component: AssignSynchronizationAspect(state_for(component)),
        )


class ExtendedAspectFactory(RegistryAspectFactory):
    """Figure 15: factory for the authentication extension.

    Knows only the new concern; composes with the base factory through
    :class:`~repro.core.factory.CompositeFactory` — adaptability without
    editing existing code.
    """

    def __init__(self, sessions: SessionManager) -> None:
        super().__init__()
        self.register(
            "open", AUTHENTICATE,
            lambda component: OpenAuthenticationAspect(sessions),
        )
        self.register(
            "assign", AUTHENTICATE,
            lambda component: AssignAuthenticationAspect(sessions),
        )


class TicketServerProxy(TicketStore):
    """Figures 5 and 10: the hand-written proxy, guarded methods included.

    The constructor "contains the code to request 1) the creation of the
    two aspect objects, and 2) their registration with the aspect
    moderator object". The guarded methods bracket ``super().open`` /
    ``super().assign`` between pre- and post-activation via the
    :class:`~repro.core.proxy.GuardedMethod` descriptor.
    """

    open = GuardedMethod("open")
    assign = GuardedMethod("assign")

    def __init__(self, moderator: AspectModerator,
                 factory: AspectFactory, capacity: int = 16) -> None:
        super().__init__(capacity=capacity)
        self.moderator = moderator
        self.factory = factory
        moderator.register_aspect(
            "open", SYNC, factory.create("open", SYNC, self)
        )
        moderator.register_aspect(
            "assign", SYNC, factory.create("assign", SYNC, self)
        )


class ExtendedAspectModerator(AspectModerator):
    """Paper Figure 17/18's extended moderator, as a named class.

    The generic :class:`~repro.core.moderator.AspectModerator` already
    handles arbitrarily many concern dimensions, so the extension adds
    no mechanism — only the paper's name and the auth-wraps-sync
    ordering baked in. Provided so code written against the paper's
    class diagram ports verbatim.
    """

    def __init__(self, **kwargs: Any) -> None:
        kwargs.setdefault("ordering", guards_first)
        super().__init__(**kwargs)


class ExtendedTicketServerProxy(TicketServerProxy):
    """Figure 13: the extension adds authentication aspects on top.

    "A request to a participating method will now have to be guarded by
    preactivation of authentication followed by preactivation of
    synchronization. [...] The execution of the actual method is
    followed by the postactivation of synchronization followed by
    postactivation of authentication." The ``guards_first`` ordering
    policy on the moderator produces exactly that stack.
    """

    def __init__(self, moderator: AspectModerator,
                 factory: AspectFactory,
                 extended_factory: AspectFactory,
                 capacity: int = 16) -> None:
        super().__init__(moderator, factory, capacity=capacity)
        self.extended_factory = extended_factory
        moderator.register_aspect(
            "open", AUTHENTICATE,
            extended_factory.create("open", AUTHENTICATE, self),
        )
        moderator.register_aspect(
            "assign", AUTHENTICATE,
            extended_factory.create("assign", AUTHENTICATE, self),
        )


def make_session_manager(
    users: Optional[Dict[str, str]] = None, ttl: Optional[float] = None
) -> SessionManager:
    """Credential store + session manager preloaded with ``users``."""
    credentials = CredentialStore()
    for principal, secret in (users or {}).items():
        credentials.add_user(principal, secret)
    return SessionManager(credentials, ttl=ttl)


def build_ticketing_cluster(
    capacity: int = 16,
    sessions: Optional[SessionManager] = None,
    audit_log: Optional[AuditLog] = None,
    timing: bool = False,
    default_timeout: Optional[float] = None,
    lock_domain: Optional[str] = None,
) -> Cluster:
    """Framework-style construction of the same application.

    Returns a :class:`~repro.core.registry.Cluster` whose proxy guards
    ``open`` and ``assign`` with the synchronization aspects, plus —
    depending on the arguments — authentication (wrapping sync, as in
    the paper's extension), auditing, and timing.

    ``lock_domain`` places ``open`` and ``assign`` in one shared lock
    domain (the seed's single-moderator-lock behaviour); by default each
    method moderates on its own stripe — safe here because the sync
    aspects guard their shared :class:`TicketSyncState` with its lock.
    """
    store = TicketStore(capacity=capacity)
    cluster = Cluster(
        component=store,
        factory=AspectFactoryImpl(),
        bindings={"open": [SYNC], "assign": [SYNC]},
        ordering=guards_first,
        default_timeout=default_timeout,
    )
    if lock_domain is not None:
        cluster.moderator.assign_lock_domain(lock_domain, "open", "assign")
    if sessions is not None:
        cluster.extend(
            ExtendedAspectFactory(sessions),
            bindings={"open": [AUTHENTICATE], "assign": [AUTHENTICATE]},
        )
    if audit_log is not None:
        audit_factory = RegistryAspectFactory()
        shared_audit = AuditAspect(audit_log)
        for method in ("open", "assign"):
            audit_factory.register(
                method, AUDIT, lambda _component, a=shared_audit: a
            )
        cluster.extend(
            audit_factory,
            bindings={"open": [AUDIT], "assign": [AUDIT]},
        )
    if timing:
        timing_factory = RegistryAspectFactory()
        shared_timing = TimingAspect()
        for method in ("open", "assign"):
            timing_factory.register(
                method, TIMING, lambda _component, t=shared_timing: t
            )
        cluster.extend(
            timing_factory,
            bindings={"open": [TIMING], "assign": [TIMING]},
        )
    return cluster


class RemoteTicketFacade:
    """Wire-safe facade for exporting a ticketing proxy on a node.

    Remote callers pass plain data; the facade constructs/destructures
    :class:`Ticket` objects at the server boundary.
    """

    def __init__(self, proxy: Any) -> None:
        self._proxy = proxy

    def open(self, summary: str, reporter: str = "remote",
             severity: int = 3, caller: Optional[str] = None) -> int:
        ticket = Ticket(summary=summary, reporter=reporter,
                        severity=severity)
        if caller is not None and hasattr(self._proxy, "call"):
            return self._proxy.call("open", ticket, caller=caller)
        return self._proxy.open(ticket)

    def assign(self, agent: str = "agent",
               caller: Optional[str] = None) -> Dict[str, Any]:
        if caller is not None and hasattr(self._proxy, "call"):
            ticket = self._proxy.call("assign", agent, caller=caller)
        else:
            ticket = self._proxy.assign(agent)
        return {
            "ticket_id": ticket.ticket_id,
            "summary": ticket.summary,
            "assignee": ticket.assignee,
            "severity": ticket.severity,
        }

    @property
    def pending(self) -> int:
        component = getattr(self._proxy, "component", self._proxy)
        return component.pending

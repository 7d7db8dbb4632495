"""Component proxies: guarded access to functional components.

Paper, Sections 4.1-4.2: "the proxy to the functional component is
responsible to evaluate each of [the] aspects that are associated with
each one of the services defined on the functional component. [...]
Before executing each [method] on the functional component, the proxy
object calls the moderator object to evaluate the aspect code that is
associated with that method" (Figure 10's guarded methods).

The paper writes one proxy subclass per component. The framework instead
provides a generic :class:`ComponentProxy` that intercepts attribute
access: participating methods (those with registered aspects, or those
explicitly declared) are wrapped in the pre-/post-activation bracket;
everything else passes straight through to the component. A hand-written
proxy in the paper's style remains possible — see
``repro.apps.ticketing.TicketServerProxy`` — and behaves identically.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, Optional, Set

from .joinpoint import JoinPoint
from .moderator import AspectModerator


class ComponentProxy:
    """Generic dynamic proxy guarding a component's participating methods.

    Args:
        component: the functional component (the sequential object).
        moderator: the aspect moderator coordinating this cluster.
        participating: explicit method names to guard. When ``None``,
            a method participates iff the moderator has aspects
            registered for it at call time (dynamic participation — new
            aspects take effect immediately).
        caller: default principal attached to join points issued through
            this proxy (overridable per call via :meth:`call`).
        timeout: optional default bound for BLOCKed activations.

    Behaviour on ABORT: :class:`MethodAborted` is raised (the paper's
    listings print "ABORT" and fall through — an error path a library
    cannot leave silent).
    """

    # Instance attributes that live on the proxy, not the component.
    _OWN = frozenset({
        "_component", "_moderator", "_participating", "_caller", "_timeout",
        "_wrappers", "_wrapper_revision",
    })

    def __init__(
        self,
        component: Any,
        moderator: AspectModerator,
        participating: Optional[Iterable[str]] = None,
        caller: Any = None,
        timeout: Optional[float] = None,
    ) -> None:
        self._component = component
        self._moderator = moderator
        self._participating: Optional[Set[str]] = (
            set(participating) if participating is not None else None
        )
        self._caller = caller
        self._timeout = timeout
        # guarded-wrapper cache, invalidated when the moderator's aspect
        # composition changes (registration_version) or the underlying
        # attribute is rebound on the component
        self._wrappers: dict = {}
        self._wrapper_revision = moderator.registration_version

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def component(self) -> Any:
        """The wrapped functional component."""
        return self._component

    @property
    def moderator(self) -> AspectModerator:
        """The moderator coordinating this proxy's activations."""
        return self._moderator

    def is_participating(self, method_id: str) -> bool:
        """Whether calls to ``method_id`` go through moderation."""
        if self._participating is not None:
            return method_id in self._participating
        return self._moderator.participates(method_id)

    # ------------------------------------------------------------------
    # interception
    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        # Only called for attributes not found on the proxy itself.
        target = getattr(self._component, name)
        if not callable(target):
            return target
        revision = self._moderator.registration_version
        if revision != self._wrapper_revision:
            self._wrappers.clear()
            object.__setattr__(self, "_wrapper_revision", revision)
        cached = self._wrappers.get(name)
        # equality, not identity: getattr on the component yields a fresh
        # bound-method object per access, but equal ones are interchangeable.
        # A wrapper cached at this revision guards a participating method.
        if cached is not None and cached.__wrapped__ == target:
            return cached
        if not self.is_participating(name):
            return target
        wrapper = self._guard(name, target)
        self._wrappers[name] = wrapper
        return wrapper

    def __setattr__(self, name: str, value: Any) -> None:
        # The proxy owns only its _OWN slots; every other write belongs to
        # the component. Without this, ``proxy.attr = x`` would land on the
        # proxy and shadow the component's attribute on subsequent reads.
        if name in self._OWN:
            object.__setattr__(self, name, value)
        else:
            setattr(self._component, name, value)

    def __delattr__(self, name: str) -> None:
        if name in self._OWN:
            object.__delattr__(self, name)
        else:
            delattr(self._component, name)

    def _guard(self, method_id: str,
               target: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``target`` in the moderator's bracket (Figure 10).

        The moderator hands out a stable
        :class:`~repro.core.plan.PlanHandle` per method; the wrapper
        captures the handle (never a plan) and revalidates per call —
        one int compare — so a cached wrapper sees a swapped or
        quarantined aspect on its very next invocation.
        """
        moderator = self._moderator
        component = self._component
        caller = self._caller
        timeout = self._timeout
        handle = moderator.plan_handle(method_id)

        @functools.wraps(target)
        def guarded(*args: Any, **kwargs: Any) -> Any:
            return moderator._bracket(
                method_id,
                JoinPoint(method_id=method_id, component=component,
                          args=args, kwargs=kwargs, caller=caller),
                handle.current(), timeout, None, target, args, kwargs,
            )

        return guarded

    def call(self, method_id: str, *args: Any, caller: Any = None,
             timeout: Optional[float] = None, deadline: Any = None,
             **kwargs: Any) -> Any:
        """Invoke a participating method with per-call caller/timeout.

        Used by authentication-aware clients that must attach a principal
        to individual calls rather than to the proxy.

        ``deadline`` is an optional end-to-end budget — an absolute
        monotonic time, or any object with an ``expires_at`` attribute
        (e.g. :class:`repro.dist.resilience.Deadline`). It caps BLOCK
        parks at the remaining budget on top of (never instead of) the
        local ``timeout``, so a remote caller's budget bounds how long
        this activation may stay parked. Participation is read off the
        method's plan, revalidated with one int compare.
        """
        target = getattr(self._component, method_id)
        moderator = self._moderator
        handle = moderator._plan_handles.get(method_id) \
            or moderator.plan_handle(method_id)
        plan = handle.plan
        if plan is None or plan.key != moderator.registration_version:
            plan = handle.current()
        participating = self._participating
        if not (plan.participates if participating is None
                else method_id in participating):
            # pass-through: no join point (or activation id) is allocated
            return target(*args, **kwargs)
        joinpoint = JoinPoint(
            method_id, self._component, args, kwargs,
            caller=caller if caller is not None else self._caller,
        )
        return moderator._bracket(
            method_id, joinpoint, plan,
            timeout if timeout is not None else self._timeout, deadline,
            target, args, kwargs,
        )

    def __repr__(self) -> str:
        return (
            f"<ComponentProxy of {type(self._component).__name__} "
            f"participating={sorted(self._participating) if self._participating is not None else 'dynamic'}>"
        )


class GuardedMethod:
    """Descriptor form of the guarded-method pattern (paper Figure 10).

    For hand-written proxy classes in the paper's style::

        class TicketServerProxy(TicketServer):
            open = GuardedMethod("open")
            assign = GuardedMethod("assign")

            def __init__(self, moderator, ...):
                self.moderator = moderator

    The descriptor brackets ``super().method`` between pre- and
    post-activation using the instance's ``moderator`` attribute.
    """

    def __init__(self, method_id: str,
                 moderator_attr: str = "moderator") -> None:
        self.method_id = method_id
        self.moderator_attr = moderator_attr

    def __set_name__(self, owner: type, name: str) -> None:
        # Locate the undecorated implementation on the MRO above `owner`.
        self._owner = owner

    def __get__(self, instance: Any, owner: type) -> Callable[..., Any]:
        if instance is None:
            return self  # type: ignore[return-value]
        moderator: AspectModerator = getattr(instance, self.moderator_attr)
        method_id = self.method_id
        target = getattr(super(self._owner, instance), method_id)
        handle = moderator.plan_handle(method_id)

        def guarded(*args: Any, **kwargs: Any) -> Any:
            return moderator._bracket(
                method_id,
                JoinPoint(method_id=method_id, component=instance,
                          args=args, kwargs=kwargs,
                          caller=getattr(instance, "__caller__", None)),
                handle.current(), None, None, target, args, kwargs,
            )

        functools.update_wrapper(guarded, target)
        return guarded

"""Weaving: binding aspects to components without hand-written proxies.

The paper's integration point is source-level boilerplate: each component
gets a hand-written proxy whose guarded methods bracket ``super()`` calls
(Figure 10). Python lets the framework generate that bracket:

* :func:`participating` — method decorator marking a method as
  participating and optionally pre-declaring its concerns;
* :func:`moderated` — class decorator that rewrites the participating
  methods of a class in place so *instances are their own proxies*;
* :class:`ModeratedMeta` — metaclass variant of the same rewrite;
* :func:`weave` — instance-level weaving: given a component, a moderator,
  a factory and a pointcut, create and register aspects and return a
  :class:`~repro.core.proxy.ComponentProxy`.

All three integration styles funnel through the same moderator protocol,
so the choice is purely syntactic — one of the "open issues" the paper
poses ("Should we use an aspect language or a framework approach?") that
Python answers with: the framework approach *is* the language approach,
via decorators.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .errors import WeavingError
from .factory import AspectFactory
from .joinpoint import JoinPoint
from .moderator import AspectModerator
from .pointcut import Pointcut
from .proxy import ComponentProxy

#: Attribute set by @participating on the function object.
PARTICIPATING_ATTR = "__participating_concerns__"
#: Attribute naming the moderator attribute on woven classes.
MODERATOR_ATTR = "__aspect_moderator_attr__"


def participating(
    *concerns: str,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Mark a method as participating (usable with or without concerns).

    Usage::

        class TicketServer:
            @participating("sync")
            def open(self, ticket): ...

    The mark is inert until the class is woven with :func:`moderated` /
    :class:`ModeratedMeta` or the instance is wrapped by :func:`weave`;
    the concerns listed are the cells the factory will be asked to
    populate at initialization time (paper Figure 5).
    """

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        setattr(func, PARTICIPATING_ATTR, list(concerns))
        return func

    # Support bare usage: @participating without parentheses.
    if len(concerns) == 1 and callable(concerns[0]):
        func = concerns[0]
        concerns = ()
        return decorate(func)  # type: ignore[arg-type]
    return decorate


def participating_methods(cls: type) -> Dict[str, List[str]]:
    """Map of participating method name -> declared concerns for ``cls``."""
    found: Dict[str, List[str]] = {}
    for name in dir(cls):
        attr = getattr(cls, name, None)
        if callable(attr) and hasattr(attr, PARTICIPATING_ATTR):
            found[name] = list(getattr(attr, PARTICIPATING_ATTR))
    return found


def _guarded(method_id: str, func: Callable[..., Any],
             moderator_attr: str) -> Callable[..., Any]:
    """Build the pre/post-activation bracket around an unbound method."""

    @functools.wraps(func)
    def guarded(self: Any, *args: Any, **kwargs: Any) -> Any:
        moderator: Optional[AspectModerator] = getattr(
            self, moderator_attr, None
        )
        if moderator is None:
            # Not yet wired to a moderator: behave as a plain method.
            return func(self, *args, **kwargs)
        return moderator._bracket(
            method_id,
            JoinPoint(method_id=method_id, component=self, args=args,
                      kwargs=kwargs,
                      caller=getattr(self, "__caller__", None)),
            moderator.plan_handle(method_id).current(), None, None,
            func, (self, *args), kwargs,
        )

    setattr(guarded, "__woven__", True)
    setattr(guarded, PARTICIPATING_ATTR,
            list(getattr(func, PARTICIPATING_ATTR, [])))
    return guarded


def moderated(cls: Optional[type] = None, *,
              moderator_attr: str = "moderator") -> Any:
    """Class decorator weaving the pre/post-activation bracket in place.

    Every method marked :func:`participating` is replaced by a guarded
    wrapper that consults ``self.<moderator_attr>`` at call time.
    Instances without a moderator behave as plain objects, so woven
    classes remain usable (and testable) standalone.

    Usage::

        @moderated
        class TicketServer:
            @participating("sync")
            def open(self, ticket): ...
    """

    def apply(target: type) -> type:
        marked = participating_methods(target)
        if not marked:
            raise WeavingError(
                f"{target.__name__} has no @participating methods to weave"
            )
        for name in marked:
            func = target.__dict__.get(name)
            if func is None:
                # Inherited participating method: re-wrap the inherited one.
                func = getattr(target, name)
            if getattr(func, "__woven__", False):
                continue
            setattr(target, name, _guarded(name, func, moderator_attr))
        setattr(target, MODERATOR_ATTR, moderator_attr)
        return target

    if cls is not None:
        return apply(cls)
    return apply


class ModeratedMeta(type):
    """Metaclass variant of :func:`moderated`.

    Classes built with this metaclass weave their participating methods
    at class-creation time::

        class TicketServer(metaclass=ModeratedMeta):
            @participating("sync")
            def open(self, ticket): ...
    """

    def __new__(mcls, name: str, bases: Tuple[type, ...],
                namespace: Dict[str, Any], **kwargs: Any) -> type:
        moderator_attr = kwargs.pop("moderator_attr", "moderator")
        cls = super().__new__(mcls, name, bases, namespace, **kwargs)
        for attr_name, attr in list(namespace.items()):
            if callable(attr) and hasattr(attr, PARTICIPATING_ATTR) \
                    and not getattr(attr, "__woven__", False):
                setattr(cls, attr_name,
                        _guarded(attr_name, attr, moderator_attr))
        setattr(cls, MODERATOR_ATTR, moderator_attr)
        return cls


def weave(
    component: Any,
    moderator: AspectModerator,
    factory: Optional[AspectFactory] = None,
    pointcut: Optional[Pointcut] = None,
    concerns: Optional[Iterable[str]] = None,
    caller: Any = None,
) -> ComponentProxy:
    """Instance-level weaving: initialize a cluster and return its proxy.

    Reproduces the initialization phase (paper Figure 2) generically:

    1. determine the participating methods — those selected by
       ``pointcut``, or those marked with :func:`participating`;
    2. for each participating method and each concern, ask the factory to
       ``create`` the aspect and ``register`` it with the moderator;
    3. return a :class:`ComponentProxy` guarding exactly those methods.

    ``concerns`` overrides the per-method concern declarations (useful
    when weaving unannotated third-party classes with a pointcut).
    """
    if pointcut is not None:
        selected: Dict[str, List[str]] = {
            name: list(concerns or [])
            for name in pointcut.resolve(component)
        }
    else:
        selected = participating_methods(type(component))
        if concerns is not None:
            selected = {name: list(concerns) for name in selected}
    if not selected:
        raise WeavingError(
            f"nothing to weave on {type(component).__name__}: no pointcut "
            f"match and no @participating methods"
        )

    if factory is not None:
        for method_id, method_concerns in selected.items():
            for concern in method_concerns:
                aspect = factory.create(method_id, concern, component)
                moderator.events.emit(
                    "create_aspect", method_id, concern,
                    detail=aspect.describe(),
                )
                if not moderator.bank.contains(method_id, concern) or \
                        moderator.bank.lookup(method_id, concern) is not aspect:
                    moderator.register_aspect(
                        method_id, concern, aspect, replace=True
                    )

    return ComponentProxy(
        component, moderator, participating=selected, caller=caller
    )

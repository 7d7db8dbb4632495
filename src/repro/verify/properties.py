"""Reusable safety properties over the activation model.

Each factory returns a ``Property`` (state -> error-or-None) the
explorer evaluates in every reached state. The predicates read the
aspect objects' public attributes in ``state.chains`` (each method's
aspects in the moderator's plan order). Every state is reached by a
real :class:`~repro.core.moderator.AspectModerator` running the
composition — its compiled plans, ordering policy, compensation,
quarantine and contracts — so a property proven here is proven of what
production runs.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.aspect import Aspect
from .model import ModelState

Property = Callable[[ModelState], Optional[str]]


def _first_aspect(state: ModelState, method: str,
                  aspect_type: type) -> Optional[Aspect]:
    for aspect in state.chains.get(method, []):
        if isinstance(aspect, aspect_type):
            return aspect
    return None


def mutual_exclusion(*methods: str) -> Property:
    """At most one client may be running any of ``methods`` at a time."""
    method_set = set(methods)

    def check(state: ModelState) -> Optional[str]:
        running = [
            client.spec.client for client in state.clients
            if client.status == "running"
            and client.spec.method in method_set
        ]
        if len(running) > 1:
            return (
                f"mutual exclusion violated on {sorted(method_set)}: "
                f"{running} running concurrently"
            )
        return None

    return check


def concurrency_bound(limit: int, *methods: str) -> Property:
    """At most ``limit`` clients running the given methods concurrently."""
    method_set = set(methods)

    def check(state: ModelState) -> Optional[str]:
        running = sum(
            1 for client in state.clients
            if client.status == "running"
            and (not method_set or client.spec.method in method_set)
        )
        if running > limit:
            return f"concurrency bound {limit} exceeded: {running} running"
        return None

    return check


def aspect_invariant(method: str, aspect_type: type,
                     predicate: Callable[[Aspect], bool],
                     description: str) -> Property:
    """A predicate over one aspect's state must hold in every state."""

    def check(state: ModelState) -> Optional[str]:
        aspect = _first_aspect(state, method, aspect_type)
        if aspect is None:
            return f"no {aspect_type.__name__} registered on {method!r}"
        if not predicate(aspect):
            return (
                f"invariant {description!r} violated: "
                f"{aspect_type.__name__} state "
                f"{ {k: v for k, v in vars(aspect).items() if not k.startswith('_')} }"
            )
        return None

    return check


def occupancy_bound(method: str, capacity: int,
                    aspect_type: Optional[type] = None) -> Property:
    """Bounded-buffer safety: 0 <= committed + in-flight <= capacity.

    Reads the :class:`~repro.aspects.synchronization.BoundedBufferSync`
    counters (or any aspect exposing ``items`` / ``active_producers``).
    """
    if aspect_type is None:
        from repro.aspects.synchronization import BoundedBufferSync
        aspect_type = BoundedBufferSync

    def check(state: ModelState) -> Optional[str]:
        aspect = _first_aspect(state, method, aspect_type)
        if aspect is None:
            return f"no buffer-sync aspect on {method!r}"
        items = getattr(aspect, "items", 0)
        in_flight = getattr(aspect, "active_producers", 0)
        if items < 0:
            return f"negative occupancy {items}"
        if items + in_flight > capacity:
            return (
                f"occupancy {items}+{in_flight} exceeds capacity {capacity}"
            )
        return None

    return check

"""Concern composition ordering policies.

The paper fixes one ordering by construction (Section 5.3): the extended
proxy evaluates *authentication then synchronization* on the way into a
method, and unwinds *synchronization then authentication* on the way out.
That stack discipline — post-activation in exact reverse order of
pre-activation — is the framework invariant; *which* order the concerns
stack in is a policy.

Policies are callables mapping ``(method_id, pairs)`` to a reordered list
of ``(concern, aspect)`` pairs. Swapping the policy at runtime
re-composes the system without touching components or aspects.

Compile-time resolution
-----------------------

The moderator does *not* call the policy per activation: it resolves the
order once per plan compile, and the compiled plan replays it until the
moderator's plan version moves (assigning ``moderator.ordering`` is
itself such a move), so whatever a policy answers is what the plan
freezes, whether it is a pure function of ``(method_id, pairs)`` —
everything in this module — or depends on outside state (time of day,
a feature flag). A policy that must re-order when its outside state
changes gets re-applied by reassigning it —
``moderator.ordering = moderator.ordering`` — which recompiles every
plan against its new answer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from .aspect import Aspect
from .errors import RegistrationError

Pairs = List[Tuple[str, Aspect]]
OrderingPolicy = Callable[[str, Pairs], Pairs]


def registration_order(method_id: str, pairs: Pairs) -> Pairs:
    """Default policy: evaluate concerns in bank registration order."""
    return pairs


class PriorityOrder:
    """Order concerns by explicit numeric priority (lower runs first).

    Unlisted concerns keep registration order after all listed ones —
    extensions can therefore prepend themselves (the paper's
    authentication-before-synchronization) by claiming a lower priority
    than any existing concern.
    """

    def __init__(self, priorities: Dict[str, int],
                 default: int = 1_000_000) -> None:
        self._priorities = dict(priorities)
        self._default = default

    def __call__(self, method_id: str, pairs: Pairs) -> Pairs:
        indexed = list(enumerate(pairs))
        indexed.sort(
            key=lambda item: (
                self._priorities.get(item[1][0], self._default),
                item[0],
            )
        )
        return [pair for _index, pair in indexed]


class ExplicitOrder:
    """Order concerns by an explicit per-method (or global) list.

    Concerns absent from the list raise — an explicit order is a complete
    contract, and silently appending unknown concerns would defeat the
    purpose of declaring one.
    """

    def __init__(self, order: Sequence[str],
                 per_method: "Dict[str, Sequence[str]] | None" = None) -> None:
        self._order = list(order)
        self._per_method = {
            key: list(value) for key, value in (per_method or {}).items()
        }

    def __call__(self, method_id: str, pairs: Pairs) -> Pairs:
        order = self._per_method.get(method_id, self._order)
        position = {concern: index for index, concern in enumerate(order)}
        missing = [concern for concern, _ in pairs if concern not in position]
        if missing:
            raise RegistrationError(
                f"explicit order for {method_id!r} does not mention "
                f"concerns {missing!r}"
            )
        return sorted(pairs, key=lambda pair: position[pair[0]])


def guards_first(method_id: str, pairs: Pairs) -> Pairs:
    """Heuristic policy: observers, then access control, then the rest.

    Encodes the paper's Section 5.3 composition (authentication wraps
    synchronization) for any concern that self-identifies as a guard via
    an ``is_guard`` attribute or a conventional concern label. Pure
    *observer* concerns (audit, timing — ``is_observer`` or a
    conventional label) run before even the guards, so an activation a
    guard rejects is still observed (its ``on_abort`` compensation fires
    on the observers).
    """
    guard_labels = {"authenticate", "authorization", "authorize", "auth",
                    "security"}
    observer_labels = {"audit", "timing", "trace", "metrics"}

    def is_observer(pair: Tuple[str, Aspect]) -> bool:
        concern, aspect = pair
        return bool(getattr(aspect, "is_observer", False)) or (
            concern.lower() in observer_labels
        )

    def is_guard(pair: Tuple[str, Aspect]) -> bool:
        concern, aspect = pair
        return bool(getattr(aspect, "is_guard", False)) or (
            concern.lower() in guard_labels
        )

    observers = [pair for pair in pairs if is_observer(pair)]
    guards = [
        pair for pair in pairs
        if is_guard(pair) and pair not in observers
    ]
    others = [
        pair for pair in pairs
        if pair not in observers and pair not in guards
    ]
    return observers + guards + others

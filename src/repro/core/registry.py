"""Cluster wiring: the paper's Figure 1 architecture as one object.

"A concurrent object is represented as a cluster of co-operating classes
that handle the creation of aspects as well as the interaction between
components and aspects" (Section 3). A :class:`Cluster` assembles and
owns the four cooperating parts — functional component, aspect factory,
aspect moderator (with its aspect bank), and component proxy — and runs
the initialization protocol of Figure 2.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .bank import AspectBank
from .events import EventBus, Tracer
from .factory import AspectFactory, CompositeFactory
from .moderator import AspectModerator
from .ordering import OrderingPolicy, registration_order
from .proxy import ComponentProxy


class Cluster:
    """A concurrent object: component + factory + moderator + proxy.

    Args:
        component: the functional component.
        factory: aspect factory for this cluster; wrapped in a
            :class:`CompositeFactory` so later extensions can stack.
        bindings: mapping of participating method -> concern labels to
            instantiate at initialization (paper Figure 5's constructor).
        ordering: concern composition-order policy for the moderator.
        default_timeout: optional BLOCK wait bound for the moderator.
        notify_scope: wakeup policy forwarded to the moderator
            (``"all"`` or ``"linked"``).

    Example::

        cluster = Cluster(
            component=TicketStore(capacity=10),
            factory=ticketing_factory(),
            bindings={"open": ["sync"], "assign": ["sync"]},
        )
        cluster.proxy.open("ticket-1")
    """

    def __init__(
        self,
        component: Any,
        factory: Optional[AspectFactory] = None,
        bindings: Optional[Mapping[str, Iterable[str]]] = None,
        ordering: OrderingPolicy = registration_order,
        default_timeout: Optional[float] = None,
        notify_scope: str = "all",
    ) -> None:
        self.component = component
        self.events = EventBus()
        self.bank = AspectBank()
        self.moderator = AspectModerator(
            bank=self.bank,
            ordering=ordering,
            events=self.events,
            default_timeout=default_timeout,
            notify_scope=notify_scope,
        )
        self.factory = CompositeFactory()
        if factory is not None:
            self.factory.extend(factory)
        self._bindings: Dict[str, List[str]] = {}
        if bindings:
            self.bind_all(bindings)
        self.proxy = ComponentProxy(component, self.moderator)

    # ------------------------------------------------------------------
    # initialization protocol (paper Figure 2)
    # ------------------------------------------------------------------
    def bind(self, method_id: str, concern: str) -> None:
        """Create and register the aspect for one (method, concern) cell."""
        aspect = self.factory.create(method_id, concern, self.component)
        self.events.emit(
            "create_aspect", method_id, concern, detail=aspect.describe()
        )
        self.moderator.register_aspect(method_id, concern, aspect,
                                       replace=True)
        self._bindings.setdefault(method_id, [])
        if concern not in self._bindings[method_id]:
            self._bindings[method_id].append(concern)

    def bind_all(self, bindings: Mapping[str, Iterable[str]]) -> None:
        """Run the full initialization phase for a binding table."""
        for method_id, concerns in bindings.items():
            for concern in concerns:
                self.bind(method_id, concern)

    # ------------------------------------------------------------------
    # adaptability (paper Section 5.3)
    # ------------------------------------------------------------------
    def extend(self, factory: AspectFactory,
               bindings: Mapping[str, Iterable[str]]) -> "Cluster":
        """Add a concern dimension at runtime.

        The extension factory is stacked onto the composite (most-derived
        first, as ``ExtendedAspectFactory`` overrides its parent), then
        the new cells are created and registered. Existing aspects,
        existing registrations, and the functional component are
        untouched — the adaptability property of Section 5.3.
        """
        self.factory.extend(factory)
        self.bind_all(bindings)
        return self

    def unbind(self, method_id: str, concern: str) -> None:
        """Remove one concern from one method at runtime."""
        self.moderator.unregister_aspect(method_id, concern)
        if concern in self._bindings.get(method_id, []):
            self._bindings[method_id].remove(concern)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def bindings(self) -> Dict[str, List[str]]:
        """Copy of the current (method -> concerns) binding table."""
        return {k: list(v) for k, v in self._bindings.items()}

    def trace(self) -> Tuple[Tracer, Any]:
        """Attach a tracer to this cluster's event bus.

        Returns ``(tracer, unsubscribe)``.
        """
        tracer = Tracer()
        unsubscribe = self.events.subscribe(tracer)
        return tracer, unsubscribe

    def architecture(self) -> Dict[str, Any]:
        """Describe the cluster in the vocabulary of the paper's Figure 1."""
        return {
            "functional_component": type(self.component).__name__,
            "proxy": type(self.proxy).__name__,
            "aspect_moderator": type(self.moderator).__name__,
            "aspect_factory": [
                type(f).__name__ for f in self.factory._factories
            ],
            "aspect_bank": self.bank.grid(),
        }

    def __repr__(self) -> str:
        return (
            f"<Cluster component={type(self.component).__name__} "
            f"methods={sorted(self._bindings)}>"
        )

"""Model of moderated activations, executed by the production moderator.

The paper's open-questions list asks whether an aspect-oriented
architecture should "enable formal verification of system properties".
This subpackage answers constructively: because the Aspect Moderator
protocol confines all concurrency decisions to ``precondition`` /
``postaction`` pairs over aspect state, a *composition* of aspects is a
finite transition system that can be explored exhaustively.

The model: a set of :class:`ActivationSpec` (client, method, how many
repetitions), a composition from a builder — method -> [aspects]
chains, or a wired :class:`~repro.core.moderator.AspectModerator` —
and a real moderator driving it through a park seam of the explorer's
own (:class:`ExplorerSeam`), the way the continuation runtime does:

* ``start``: an idle client begins an activation — the moderator's
  entry step (:meth:`AspectModerator._enter`) with its compiled plan,
  ordering policy, compensation, quarantine and contracts;
* on RESUME the activation enters its *critical* region (body running);
  on ABORT it terminates without running; on BLOCK the seam suspends
  it (the client is *waiting*);
* ``retry``: a wake re-enters Figure 11's round loop
  (:meth:`AspectModerator._rounds`); it is enabled only when that round
  does not park again (no-progress wakeups revisit the same state);
* ``finish``: a running activation completes through
  :meth:`AspectModerator.postactivation`.

States are never copied. A state is the trace that reaches it: a fresh
composition from the builder with the trace's transitions replayed, so
the builder must build fresh state on every call. It is captured for the
visited set by digesting aspect attributes, each client's program
counter and its activation's join-point context.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.core.aspect import Aspect
from repro.core.joinpoint import JoinPoint
from repro.core.moderator import Activation, AspectModerator
from repro.core.results import AspectResult

#: builder returning a fresh composition for one replay: method ->
#: [aspects] chains (registered in list order into a default moderator),
#: or a wired moderator
ChainBuilder = Callable[
    [], Union[Dict[str, List[Aspect]], AspectModerator]
]

#: one transition: (kind, client index)
Transition = Tuple[str, int]


@dataclass(frozen=True)
class ActivationSpec:
    """One client's scripted behaviour: call ``method`` ``repeat`` times."""

    client: str
    method: str
    repeat: int = 1
    kwargs: Tuple[Tuple[str, Any], ...] = ()


class ExplorerSeam:
    """The explorer's park seam: a BLOCKed round suspends the activation.

    Time stands still, so runs replay identically; nothing is filed on a
    park, because the explorer itself decides when a waiting client is
    retried.
    """

    @staticmethod
    def now() -> float:
        return 0.0

    def register_park(self, activation: Activation) -> None:
        pass

    def park(self, activation: Activation, queue: Any) -> bool:
        return False


_SEAM = ExplorerSeam()


@dataclass
class ClientState:
    """Program counter of one scripted client.

    ``activation`` is the in-flight activation while the client is
    waiting or running: its join point carries the per-activation
    context aspects keep (barrier generation, scheduler registration)
    and the chain post-activation unwinds.
    """

    spec: ActivationSpec
    index: int = 0
    completed: int = 0
    #: "idle" | "waiting" | "running"
    status: str = "idle"
    activation: Optional[Activation] = None

    def fingerprint(self) -> Tuple:
        context = ()
        if self.activation is not None:
            # The moderator's own ``__...__`` keys (the RESUMEd chain, a
            # contract runner) are its bookkeeping, not client state.
            context = _freeze({
                key: value
                for key, value in self.activation.joinpoint.context.items()
                if not (key.startswith("__") and key.endswith("__"))
            })
        return (self.spec.client, self.completed, self.status, context)


class ModelState:
    """One concrete state: a moderator plus client program counters.

    ``chains`` maps each registered method to its aspects in the
    moderator's plan order; properties read them.
    """

    def __init__(self, moderator: AspectModerator,
                 clients: List[ClientState]) -> None:
        self.moderator = moderator
        self.clients = clients
        self.chains: Dict[str, List[Aspect]] = {
            method: [aspect for _concern, aspect
                     in moderator.plan_for(method).pairs]
            for method in moderator.bank.methods()
        }

    def fingerprint(self) -> Tuple:
        """Hashable digest of the state for the visited set."""
        aspect_part = tuple(
            (method, index, _aspect_fingerprint(aspect))
            for method, chain in sorted(self.chains.items())
            for index, aspect in enumerate(chain)
        )
        client_part = tuple(c.fingerprint() for c in self.clients)
        return (aspect_part, client_part)

    # ------------------------------------------------------------------
    def candidate_transitions(self) -> List[Transition]:
        """Every transition that may be enabled here, by client index.

        * ``("finish", i)`` for every running client;
        * ``("start", i)`` for every idle client with repetitions left —
          always enabled, because the *first* round runs even when it
          ends in BLOCK (and may register state: barrier arrivals,
          writer-waiting flags, scheduler queue entries);
        * ``("retry", i)`` for every waiting client — enabled only when
          :meth:`apply` finds that its round does not park again.

        Empty exactly when no work is pending.
        """
        transitions: List[Transition] = []
        for index, client in enumerate(self.clients):
            if client.status == "running":
                transitions.append(("finish", index))
            elif client.status == "idle" \
                    and client.completed < client.spec.repeat:
                transitions.append(("start", index))
            elif client.status == "waiting":
                transitions.append(("retry", index))
        return transitions

    def apply(self, transition: Transition) -> bool:
        """Take ``transition`` in place; ``False`` when a retry re-parked.

        A re-parked retry leaves the state mid-round: discard it.
        """
        kind, index = transition
        client = self.clients[index]
        method = client.spec.method
        if kind == "start":
            joinpoint = JoinPoint(
                method_id=method,
                caller=client.spec.client,
                kwargs=dict(client.spec.kwargs),
                # Deterministic identity per (client, attempt):
                # equivalent states must fingerprint identically even
                # when aspects record the activation id (e.g.
                # MutexAspect.holder).
                activation_id=(index + 1) * 1_000_000 + client.completed,
                created_at=0.0,
            )
            client.activation = Activation(method, joinpoint)
            outcome = self.moderator._enter(
                method, joinpoint, None, None, None, _SEAM,
                activation=client.activation,
            )
        elif kind == "retry":
            client.activation.woken = True
            outcome = self.moderator._rounds(client.activation, _SEAM)
            if outcome is None:
                return False
        elif kind == "finish":
            self.moderator.postactivation(method,
                                          client.activation.joinpoint)
            outcome = AspectResult.ABORT
        else:
            raise ValueError(f"unknown transition kind {kind!r}")
        if outcome is AspectResult.RESUME:
            client.status = "running"
        elif outcome is None:
            client.status = "waiting"
        else:  # finished, or aborted: an aborted attempt consumes a turn
            client.status = "idle"
            client.completed += 1
            client.activation = None
        return True


def initial_state(build_chains: ChainBuilder,
                  specs: Sequence[ActivationSpec]) -> ModelState:
    """The exploration root: a fresh composition, every client idle."""
    built = build_chains()
    if isinstance(built, AspectModerator):
        moderator = built
    else:
        moderator = AspectModerator()
        for method, chain in built.items():
            for position, aspect in enumerate(chain):
                moderator.register_aspect(
                    method, f"{position}:{aspect.concern}", aspect,
                )
    return ModelState(moderator, [
        ClientState(spec=spec, index=index)
        for index, spec in enumerate(specs)
    ])


def replay(build_chains: ChainBuilder, specs: Sequence[ActivationSpec],
           path: Sequence[Transition]) -> Optional[ModelState]:
    """The state ``path`` reaches from a fresh root.

    ``None`` when its last transition is a retry that parks again.
    """
    state = initial_state(build_chains, specs)
    for transition in path:
        if not state.apply(transition):
            return None
    return state


_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()),
               threading.Condition, threading.Event)


def _aspect_fingerprint(aspect: Aspect) -> Tuple:
    """Hashable digest of one aspect's public state."""
    items = []
    for key, value in sorted(vars(aspect).items()):
        if key.startswith("_"):
            continue
        items.append((key, _freeze(value)))
    return (type(aspect).__name__, tuple(items))


def _freeze(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(map(repr, value)))
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, _LOCK_TYPES):
        return "<lock>"
    if callable(value):
        # by name: every replay builds its own functions, and a repr
        # carries the address
        return getattr(value, "__qualname__", type(value).__qualname__)
    if hasattr(value, "__dict__"):
        # plain state holder (e.g. TicketSyncState): digest by content,
        # never by identity — reprs with addresses would defeat the
        # visited-set and blow up the exploration
        return tuple(sorted(
            (key, _freeze(attr))
            for key, attr in vars(value).items()
            if not key.startswith("_")
            and not isinstance(attr, _LOCK_TYPES)
        ))
    return repr(value)

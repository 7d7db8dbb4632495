"""Fault plans: named sites, deterministic schedules, plan-space helpers.

A *site* is where a fault can strike, identified by
``(phase, method_id, concern)``:

========================  =============================================
phase                      meaning
========================  =============================================
``"precondition"``         before concern's precondition on a method
``"postaction"``           before concern's postaction (reverse unwind)
``"on_abort"``             before concern's compensation
``"delivery"``             before a network delivery; ``method_id``
                           holds the destination endpoint, concern is
                           empty
``"crash"``                a fail-stop process crash at a serving
                           checkpoint; ``method_id`` holds the node id,
                           ``concern`` the crash point (one of
                           :data:`CRASH_POINTS`)
========================  =============================================

``occurrence`` selects the k-th visit (1-based) to that site across the
run, so "the second time the sync precondition of ``open`` runs" is a
stable, replayable coordinate even under thread nondeterminism of
everything else.

Actions: ``"raise"`` throws :class:`InjectedFault` out of the site,
``"delay"`` sleeps ``arg`` seconds inside it (widening race windows),
``"skip"`` silently suppresses the site — the aspect (or delivery)
simply never happens, a no-op crash.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

PHASES = ("precondition", "postaction", "on_abort", "delivery", "crash")
ACTIONS = ("raise", "delay", "skip")

#: where inside one request's serving sequence a node crash can strike
#: (``docs/recovery.md``): before the servant runs, after the effect is
#: applied but before it is journaled, after the journal append but
#: before the reply is sent, and after the reply went out.
CRASH_POINTS = ("serve", "applied", "journaled", "replied")

#: site coordinate: (phase, method_id, concern)
Site = Tuple[str, str, str]


class InjectedFault(RuntimeError):
    """The exception a ``"raise"`` fault throws out of its site.

    Deliberately *not* a FrameworkError: injected faults model arbitrary
    third-party aspect bugs, and the containment layer must not get to
    special-case them.
    """

    def __init__(self, spec: "FaultSpec") -> None:
        self.spec = spec
        super().__init__(
            f"injected fault at {spec.phase} of "
            f"({spec.method_id!r}, {spec.concern!r}) "
            f"occurrence {spec.occurrence}"
        )


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault at one named site."""

    phase: str
    method_id: str
    concern: str = ""
    occurrence: int = 1
    action: str = "raise"
    #: delay seconds for ``"delay"`` actions; ignored otherwise
    arg: float = 0.0

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}")
        if self.action not in ACTIONS:
            raise ValueError(f"action must be one of {ACTIONS}")
        if self.occurrence < 1:
            raise ValueError("occurrence is 1-based")
        if self.arg < 0:
            raise ValueError("arg must be non-negative")

    @property
    def site(self) -> Site:
        return (self.phase, self.method_id, self.concern)

    def describe(self) -> str:
        extra = f" +{self.arg:.3f}s" if self.action == "delay" else ""
        return (
            f"{self.action}{extra}@{self.phase}"
            f"({self.method_id},{self.concern})#{self.occurrence}"
        )


class FaultPlan:
    """An immutable, deterministic schedule of faults.

    Lookup is O(1) per site visit: specs are indexed by
    ``(site, occurrence)``. Two specs may not claim the same slot — a
    plan is a function from site visits to actions, not a lottery.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._slots: Dict[Tuple[Site, int], FaultSpec] = {}
        for spec in self.specs:
            slot = (spec.site, spec.occurrence)
            if slot in self._slots:
                raise ValueError(
                    f"duplicate fault slot {spec.describe()}"
                )
            self._slots[slot] = spec

    def match(self, phase: str, method_id: str, concern: str,
              occurrence: int) -> "FaultSpec | None":
        """The spec claiming this visit, or None."""
        return self._slots.get(((phase, method_id, concern), occurrence))

    def specs_at(self, site: Site) -> List[FaultSpec]:
        """Every spec targeting one site, across all occurrences.

        Plan compilers use this to report a site's armed faults in
        ``ActivationPlan.explain()`` without replaying visit counters.
        """
        return [spec for spec in self.specs if spec.site == site]

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __or__(self, other: "FaultPlan") -> "FaultPlan":
        """Union of two plans (disjoint slots required)."""
        return FaultPlan(self.specs + other.specs)

    def describe(self) -> str:
        if not self.specs:
            return "<empty plan>"
        return " + ".join(spec.describe() for spec in self.specs)

    def __repr__(self) -> str:
        return f"<FaultPlan {self.describe()}>"

    # ------------------------------------------------------------------
    # deterministic sampling
    # ------------------------------------------------------------------
    @classmethod
    def seeded(cls, seed: int, sites: Sequence[Site], faults: int = 1,
               occurrences: Sequence[int] = (1, 2, 3),
               actions: Sequence[str] = ("raise", "skip"),
               delay: float = 0.005) -> "FaultPlan":
        """Sample a plan of ``faults`` specs from the site space.

        Same seed, same sites — same plan, every run, every machine:
        the sampler is a pure function of its arguments.
        """
        rng = random.Random(seed)
        slots = [
            (site, occurrence)
            for site in sites for occurrence in occurrences
        ]
        if faults > len(slots):
            raise ValueError(
                f"cannot place {faults} faults in {len(slots)} slots"
            )
        chosen = rng.sample(slots, faults)
        specs = []
        for (phase, method_id, concern), occurrence in chosen:
            action = rng.choice(list(actions))
            specs.append(FaultSpec(
                phase=phase, method_id=method_id, concern=concern,
                occurrence=occurrence, action=action,
                arg=delay if action == "delay" else 0.0,
            ))
        return cls(specs)


def protocol_sites(method_id: str, concerns: Sequence[str],
                   phases: Sequence[str] = (
                       "precondition", "postaction", "on_abort",
                   )) -> List[Site]:
    """Enumerate the protocol fault sites of one method's chain."""
    return [
        (phase, method_id, concern)
        for concern in concerns for phase in phases
    ]


def delivery_sites(endpoints: Sequence[str]) -> List[Site]:
    """Enumerate the network delivery fault sites of some endpoints.

    A delivery site is keyed by destination endpoint only (the
    ``method_id`` coordinate carries the endpoint; ``concern`` is
    empty) — see :meth:`FaultInjector.deliver`.
    """
    return [("delivery", endpoint, "") for endpoint in endpoints]


def single_loss_plans(endpoints: Sequence[str],
                      occurrences: Sequence[int] = (1,),
                      ) -> List[FaultPlan]:
    """Every plan losing exactly one message to one endpoint.

    The chaos suite's message-loss space: for each endpoint and each
    k in ``occurrences``, one plan that silently drops (``"skip"``)
    the k-th delivery to that endpoint. Covers lost requests (node
    endpoints) and lost replies (client endpoints) alike.
    """
    return single_fault_plans(
        delivery_sites(endpoints), actions=("skip",),
        occurrences=occurrences,
    )


def single_fault_plans(sites: Sequence[Site],
                       actions: Sequence[str] = ("raise",),
                       occurrences: Sequence[int] = (1,),
                       delay: float = 0.005) -> List[FaultPlan]:
    """Every one-fault plan over the given sites — the full space."""
    plans = []
    for (phase, method_id, concern), occurrence, action in \
            itertools.product(sites, occurrences, actions):
        plans.append(FaultPlan([FaultSpec(
            phase=phase, method_id=method_id, concern=concern,
            occurrence=occurrence, action=action,
            arg=delay if action == "delay" else 0.0,
        )]))
    return plans


def double_fault_plans(sites: Sequence[Site],
                       actions: Sequence[str] = ("raise",),
                       occurrences: Sequence[int] = (1,),
                       delay: float = 0.005) -> List[FaultPlan]:
    """Every two-fault plan (unordered pairs of distinct *slots*).

    Pairs whose specs claim the same (site, occurrence) slot with
    different actions are not valid plans and are skipped.
    """
    singles = single_fault_plans(sites, actions, occurrences, delay)
    plans = []
    for first, second in itertools.combinations(singles, 2):
        try:
            plans.append(first | second)
        except ValueError:
            continue
    return plans

"""Compiled activation plans: the moderation chain as a first-class object.

The paper's moderator is an *interpreter*: every activation walks the
aspect bank, orders the chain, and dispatches each concern dynamically —
paying the lookup/sort/branch cost on every evaluation round. Composing
the concerns ahead of time into an executable artifact preserves the
modular model while removing the runtime composition tax (El-Hokayem et
al., *Modularizing Behavioral and Architectural Crosscutting Concerns*),
and makes the composed contract an inspectable value rather than an
emergent property of dispatch (Lorenz & Skotiniotis, *Extending Design
by Contract for AOP*; both in PAPERS.md).

An :class:`ActivationPlan` is compiled once per participating method and
cached under one version int, the moderator's stored
``registration_version``. Every runtime mutation that could change what
a round observes bumps the version (the bank and the health tracker
through callbacks), so any mutation invalidates every plan, and nothing
else does:

=============================  =======================================
mutation                        effect on the plan key
=============================  =======================================
``register/unregister/swap``    bumps the version
``set_order``                   bumps the version
``assign_lock_domain``          bumps the version
quarantine flip / reinstate     bumps the version
``set_policy`` / ``drop``       bumps the version
injector install / uninstall    bumps the version
ordering-policy swap            bumps the version
contract declare / install      bumps the version
profiler install / refresh      bumps the version
=============================  =======================================

A plan holds, per cell: the pre-bound precondition and postaction
callables (no wrapper and no attribute chase per round; see
:class:`PlanCell`), the quarantine-policy snapshot (``degraded``), and
the descriptions of the fault-injection specs planned at its sites.
Plan-level it resolves the ``participates`` and ``never_blocks`` flags,
the lock-domain handle and the method's wait queue. Quarantine,
injector sites and contract check points are *not* compiled into the
executor: every plan runs the one round and the one unwind, which read
them live and skip each with a single ``None``/``False`` test when
nothing is armed. The snapshots are
for :meth:`ActivationPlan.explain`, which renders the whole composed
contract for diagrams (:mod:`repro.analysis.diagram`) and the static
linter (:mod:`repro.verify.lint`).

Plans are *immutable*: executors never mutate one, so a stale plan is
simply abandoned at the next key check. A torn compile (constituents
mutated mid-build) self-invalidates, because the key is read *before*
the constituents — the stored plan then fails its next validation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .aspect import Aspect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .moderator import AspectModerator


class PlanCell:
    """One compiled cell of an activation plan.

    Carries its concern's bound protocol callables, resolved at compile
    time: ``evaluate`` is the aspect's bare ``precondition`` (the round
    coerces a vote that is not an ``AspectResult``) unless the aspect
    overrides ``evaluate_precondition``, which then stays bound;
    ``postaction`` is ``None`` for the base no-op, whose call the
    unwind skips while still visiting the cell's hooks. A clause
    profiler may replace both with instrumented shims. Plus report-only
    snapshots: the quarantine policy and the injector specs planned at
    its sites.
    """

    __slots__ = (
        "concern", "aspect", "pair", "evaluate", "postaction",
        "never_blocks", "degraded", "policy", "threshold",
        "injection_sites",
    )

    def __init__(self, concern: str, aspect: Aspect,
                 degraded: Optional[str],
                 policy: Optional[str], threshold: Optional[int],
                 injection_sites: Tuple[str, ...]) -> None:
        self.concern = concern
        self.aspect = aspect
        self.pair = (concern, aspect)
        evaluate = aspect.evaluate_precondition
        self.evaluate = aspect.precondition if getattr(
            evaluate, "__func__", None) is Aspect.evaluate_precondition \
            else evaluate
        postaction = aspect.postaction
        self.postaction = None if getattr(
            postaction, "__func__", None) is Aspect.postaction \
            else postaction
        self.never_blocks = aspect.never_blocks
        self.degraded = degraded
        self.policy = policy
        self.threshold = threshold
        self.injection_sites = injection_sites

    def describe(self) -> str:
        flags = []
        if self.never_blocks:
            flags.append("never_blocks")
        if self.degraded is not None:
            flags.append(f"degraded:{self.degraded}")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"{self.concern}: {self.aspect.describe()}{suffix}"


class PlanSegment:
    """A maximal run of plan cells between two potential-BLOCK seams.

    The plan is split *before* every cell whose aspect may BLOCK
    (``never_blocks`` is false): those are exactly the points where an
    evaluation round can suspend, so they are the only places the two
    moderator runtimes may diverge in mechanism — the threaded runtime
    parks the calling thread on the method's condition queue, the
    continuation runtime (:mod:`repro.core.continuation`) heap-allocates
    the activation and releases its worker. Both execute the identical
    segment sequence; a wake re-runs from the segment boundary (the
    RESUMEd prefix having been compensated, the next round replays the
    whole chain — re-evaluation *is* the suffix semantics of Figure 11).

    Segments are derived metadata: executors dispatch over ``cells``
    directly, so segmentation cannot drift from execution — it is the
    same tuple, partitioned.
    """

    __slots__ = ("index", "start", "cells", "can_block")

    def __init__(self, index: int, start: int,
                 cells: Tuple["PlanCell", ...]) -> None:
        self.index = index
        #: position of the first cell within the plan's cell tuple
        self.start = start
        self.cells = cells
        #: whether this segment opens at a potential-BLOCK seam (its
        #: first cell may vote BLOCK); the leading segment of a
        #: never_blocks plan is the only unconditionally false case
        self.can_block = bool(cells) and not cells[0].never_blocks

    def describe(self) -> str:
        concerns = " -> ".join(cell.concern for cell in self.cells)
        seam = "BLOCK-seam" if self.can_block else "straight-line"
        return f"segment {self.index} [{seam}]: {concerns}"

    def __repr__(self) -> str:
        return (
            f"<PlanSegment {self.index} start={self.start} "
            f"cells={len(self.cells)} can_block={self.can_block}>"
        )


class ActivationPlan:
    """Immutable compiled moderation pipeline for one method.

    Produced by :func:`compile_plan` (via
    :meth:`repro.core.moderator.AspectModerator.plan_for`), executed by
    the moderator's plan executor, inspected via :meth:`explain`.
    """

    __slots__ = (
        "method_id", "cells", "pairs", "participates", "never_blocks",
        "injector_armed", "key", "domain", "_queue",
        "domain_name", "ordering_name", "compile_seconds", "contract",
        "profile", "_segments",
    )

    def __init__(self, method_id: str, cells: Tuple[PlanCell, ...],
                 key: int, domain: Any,
                 ordering_name: str, contract: Optional[Any] = None,
                 profile: Optional[Dict[str, Any]] = None,
                 injector_armed: bool = False,
                 participates: bool = True) -> None:
        self.method_id = method_id
        self.cells = cells
        #: some aspect or a contract guards the method (not
        #: ``bool(cells)``: a profiler may elide every cell)
        self.participates = participates
        #: raw ordered (concern, aspect) pairs — the executor stashes
        #: this exact tuple on the join point between phases, so the
        #: post-activation side can recognize a full-plan chain by
        #: identity and unwind through these cells
        self.pairs: Tuple[Tuple[str, Aspect], ...] = tuple(
            cell.pair for cell in cells
        )
        self.never_blocks = all(cell.never_blocks for cell in cells)
        #: whether a fault injector was installed at compile time
        #: (report-only: the executor visits the live injector's sites)
        self.injector_armed = injector_armed
        #: the method's declared contract snapshot
        #: (:class:`repro.contracts.MethodContract`), or ``None``
        #: (report-only: the executor checkpoints the live runner)
        self.contract = contract
        #: the clause profiler's compile-time decision report
        #: (``elided`` / ``memoized`` / ``reordered`` / ``order``), or
        #: ``None`` when no profiler was installed at compile time
        self.profile = profile
        #: the moderator's ``registration_version`` at compile time
        self.key = key
        self.domain = domain
        #: resolved lazily — a never_blocks chain must not materialize a
        #: wait queue (the lock-free fast path's whole point), so the
        #: condition is only created when a locked path first needs it
        self._queue = None
        #: lazy :class:`PlanSegment` partition (see :attr:`segments`);
        #: never built on the hot path — executors walk ``cells``
        self._segments = None
        self.domain_name = domain.name
        self.ordering_name = ordering_name
        #: seconds the compile took; stamped by the moderator right
        #: after construction (0.0 for hand-built plans). Observability
        #: metadata only — never on the event bus, so event streams do
        #: not depend on when plans recompile.
        self.compile_seconds = 0.0

    @property
    def queue(self) -> Any:
        """The method's wait queue in its domain (created on first use).

        Racing initializers are benign: ``LockDomain.condition`` caches
        per key, so both resolve the identical Condition object.
        """
        queue = self._queue
        if queue is None:
            queue = self._queue = self.domain.condition(self.method_id)
        return queue

    @property
    def segments(self) -> Tuple[PlanSegment, ...]:
        """The plan partitioned at every potential-BLOCK seam (lazy).

        A new segment opens before each cell whose aspect may BLOCK;
        leading ``never_blocks`` cells form a straight-line segment 0.
        A ``never_blocks`` plan is therefore exactly one straight-line
        segment — the structural witness of the lock-free fast path.
        Racing initializers are benign (identical value, last wins).
        """
        segments = self._segments
        if segments is None:
            built: List[PlanSegment] = []
            run: List[PlanCell] = []
            start = 0
            for position, cell in enumerate(self.cells):
                if not cell.never_blocks and run:
                    built.append(
                        PlanSegment(len(built), start, tuple(run))
                    )
                    run = []
                    start = position
                run.append(cell)
            if run or not built:
                built.append(PlanSegment(len(built), start, tuple(run)))
            segments = self._segments = tuple(built)
        return segments

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def explain(self) -> Dict[str, Any]:
        """The composed contract as data: what this plan will do and why.

        Consumed by :func:`repro.analysis.diagram.plan_to_dot` (render)
        and :func:`repro.verify.lint.lint_plan` (static checks). The
        report is a plain dict so it can be serialized, diffed and
        asserted in tests without importing framework types.
        """
        return {
            "method_id": self.method_id,
            "never_blocks": self.never_blocks,
            "lock_domain": self.domain_name,
            "injector_armed": self.injector_armed,
            "compile_seconds": self.compile_seconds,
            "ordering": self.ordering_name,
            "contract": (
                self.contract.clause_labels()
                if self.contract is not None else None
            ),
            "revision": self.key,
            "profile": self.profile,
            "cells": [
                {
                    "position": index,
                    "concern": cell.concern,
                    "aspect": cell.aspect.describe(),
                    "aspect_class": type(cell.aspect).__name__,
                    "never_blocks": cell.never_blocks,
                    "degraded": cell.degraded,
                    "policy": cell.policy,
                    "threshold": cell.threshold,
                    "injection_sites": list(cell.injection_sites),
                }
                for index, cell in enumerate(self.cells)
            ],
            "segments": [
                {
                    "index": segment.index,
                    "start": segment.start,
                    "can_block": segment.can_block,
                    "concerns": [cell.concern for cell in segment.cells],
                }
                for segment in self.segments
            ],
            "preactivation_order": [cell.concern for cell in self.cells],
            "postactivation_order": [
                cell.concern for cell in reversed(self.cells)
            ],
        }

    def format(self) -> str:
        """Human-readable rendering of :meth:`explain` (one plan)."""
        report = self.explain()
        lines = [
            f"ActivationPlan({self.method_id}) "
            f"[{'fast-path' if self.never_blocks else 'locked'}; "
            f"domain {self.domain_name!r}; "
            f"revision={self.key}]",
        ]
        if self.profile is not None:
            profile = self.profile
            notes = []
            if profile.get("reordered"):
                notes.append("reordered by profile")
            if profile.get("memoized"):
                notes.append(
                    "memoized: " + ", ".join(profile["memoized"])
                )
            if profile.get("elided"):
                notes.append("elided: " + ", ".join(profile["elided"]))
            if notes:
                lines.append("  profile: " + "; ".join(notes))
        if report["contract"] is not None:
            clauses = report["contract"]
            lines.append(
                "  contract: "
                + " ".join(
                    f"{kind}={labels}"
                    for kind, labels in clauses.items() if labels
                )
            )
        for position, cell in enumerate(self.cells, 1):
            lines.append(f"  {position}. {cell.describe()}")
        if self.cells:
            lines.append(
                "  postactivation: "
                + " -> ".join(report["postactivation_order"])
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<ActivationPlan {self.method_id!r} cells={len(self.cells)} "
            f"never_blocks={self.never_blocks} key={self.key}>"
        )


class PlanHandle:
    """Stable per-method handle onto the moderator's plan cache.

    Proxies and woven wrappers hold a handle instead of a bare wrapper
    closure: :meth:`current` revalidates the cached plan against the
    moderator's ``registration_version`` (one int compare) and
    recompiles through the moderator only when the version moved.
    Handles are shared — one per (moderator, method) — so every
    wrapper of a method converges on the same compiled plan.
    """

    __slots__ = ("moderator", "method_id", "plan")

    def __init__(self, moderator: "AspectModerator", method_id: str) -> None:
        self.moderator = moderator
        self.method_id = method_id
        #: the last plan :meth:`current` returned (stale once its key moved)
        self.plan: Optional[ActivationPlan] = None

    def current(self) -> ActivationPlan:
        """The currently valid plan, recompiled on version change."""
        plan = self.plan
        if plan is not None and \
                plan.key == self.moderator.registration_version:
            return plan
        plan = self.plan = self.moderator.plan_for(self.method_id)
        return plan

    def __repr__(self) -> str:
        return f"<PlanHandle {self.method_id!r}>"


def compile_plan(
    method_id: str,
    pairs: List[Tuple[str, Aspect]],
    key: int,
    domain: Any,
    health: Any,
    injector: Optional[Any],
    ordering_name: str,
    contract: Optional[Any] = None,
    profile: Optional[Dict[str, Any]] = None,
    participates: bool = True,
) -> ActivationPlan:
    """Compile one method's ordered chain into an :class:`ActivationPlan`.

    ``pairs`` must already be in effective composition order (the
    moderator applies its ordering policy before calling here).
    ``health`` supplies the per-cell quarantine snapshot, ``injector``
    (when armed) the specs planned at each cell's sites, ``contract``
    the method's declared :class:`~repro.contracts.MethodContract`. All
    three are report data; the executor reads their live state every
    round.
    """
    cells = []
    quarantined = health.degraded.get(method_id, {})
    for concern, aspect in pairs:
        degraded = quarantined.get(concern)
        policy, threshold = health.declared_policy(method_id, concern)
        sites = () if injector is None else tuple(
            spec.describe()
            for phase in ("precondition", "postaction", "on_abort")
            for spec in injector.site_specs(phase, method_id, concern)
        )
        cells.append(PlanCell(
            concern, aspect, degraded, policy, threshold, sites,
        ))
    return ActivationPlan(
        method_id, tuple(cells), key, domain, ordering_name, contract,
        profile, injector_armed=injector is not None and bool(cells),
        participates=participates,
    )

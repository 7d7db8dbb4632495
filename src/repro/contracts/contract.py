"""Contract aspects: DbC clauses checked at the moderation seams.

The framework composes independently written concerns around one
activation, so the hardest failures are *interference* failures: an
aspect silently breaks an invariant the component relied on (or vice
versa) and the symptom surfaces far from the cause. Lorenz &
Skotiniotis (*Extending Design by Contract for AOP*, PAPERS.md) argue
that advice is contract-bearing code whose violations must be detected
and *blamed* — it is not enough to know a postcondition failed; the
diagnosis must say whether the component, the caller, or an advice
body broke it.

The plane mirrors the fault-injection plane's shape
(:mod:`repro.faults`): a :class:`ContractRegistry` holds the declared
:class:`MethodContract` per method and is *installed* on a moderator
(``registry.install(moderator)``), which bumps the moderator's contract
epoch so every compiled :class:`~repro.core.plan.ActivationPlan` is
invalidated and recompiled with the contract snapshot attached. The
moderator then drives one :class:`ContractRunner` per activation
through four seams:

========================  ==============================================
seam                      what the runner does
========================  ==============================================
``begin`` (pre)           check ``require`` + entry invariants (failure
                          blames the **caller**), capture checkpoint C0
``checkpoint`` (per        compare observables against the previous
RESUMEd precondition)     snapshot; a change is attributed to that
                          concern (interference evidence)
``post_body`` (post,      check ``ensure``/``invariant`` against C0's
before postactions)       ``old`` state; failure with a pre-phase
                          mutation blames the **interfering aspect**,
                          failure without one blames the **component**
``checkpoint`` (per       re-check clauses that held at post-body; a
postaction)               clause that breaks after concern *k*'s
                          postaction blames **aspect k**
``finish`` (after wake)   surface the verdict: aspect blame feeds the
                          health tracker's quarantine, then the
                          violation raises with evidence attached
========================  ==============================================

Observable state is whatever the contract declares: a tuple of
component attribute names, or a callable capturing an arbitrary
wire-safe dict from the join point. Snapshots are compared by equality;
the last writer of a contract's *scope* is remembered across
activations, so a violation's evidence names the activation that last
mutated the state it found broken — the causal seed the slicer
(:mod:`repro.contracts.slicing`) walks backward from.

Contracts-off is free by construction: a moderator with no registry
installed takes none of these seams (the differential suite proves the
legacy path byte-for-byte), and methods without a declared contract
never allocate a runner.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.errors import ContractViolation
from repro.core.joinpoint import JoinPoint

__all__ = [
    "CONTRACT_KEY",
    "Clause",
    "ContractRegistry",
    "ContractRunner",
    "MethodContract",
    "Old",
]

#: join-point context key under which the moderator stashes the
#: activation's contract runner between the pre- and post-phases
CONTRACT_KEY = "__contract_runner__"

#: blame verdicts
BLAME_CALLER = "caller"
BLAME_COMPONENT = "component"


def _blame_aspect(concern: str) -> str:
    return f"aspect:{concern}"


def _wire_value(value: Any) -> Any:
    """Coerce one observable value into a wire-safe primitive."""
    if isinstance(value, (bool, int, float, str, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return [_wire_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _wire_value(val) for key, val in value.items()}
    return repr(value)


def _wire_state(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    return {key: _wire_value(value) for key, value in snapshot.items()}


class Old:
    """Entry-time observables, for ``ensure`` clauses (``old.total``)."""

    __slots__ = ("_snapshot",)

    def __init__(self, snapshot: Dict[str, Any]) -> None:
        object.__setattr__(self, "_snapshot", dict(snapshot))

    def __getattr__(self, name: str) -> Any:
        try:
            return self._snapshot[name]
        except KeyError:
            raise AttributeError(
                f"no observable {name!r} was captured at entry "
                f"(have {sorted(self._snapshot)})"
            ) from None

    def __getitem__(self, name: str) -> Any:
        return self._snapshot[name]

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._snapshot)

    def __repr__(self) -> str:
        return f"Old({self._snapshot!r})"


class Clause:
    """One named contract clause.

    ``kind`` is ``"require"`` (predicate of the join point),
    ``"ensure"`` (predicate of the join point and the entry ``old``
    state) or ``"invariant"`` (predicate of the component). A predicate
    that *raises* counts as failed — a broken clause body must surface
    as a violation, never pass silently.
    """

    __slots__ = ("label", "kind", "predicate")

    def __init__(self, label: str, kind: str,
                 predicate: Callable[..., bool]) -> None:
        self.label = label
        self.kind = kind
        self.predicate = predicate

    def holds(self, joinpoint: JoinPoint, old: Optional[Old]) -> bool:
        try:
            if self.kind == "require":
                return bool(self.predicate(joinpoint))
            if self.kind == "ensure":
                return bool(self.predicate(joinpoint, old))
            return bool(self.predicate(joinpoint.component))
        except Exception:  # noqa: BLE001 - a raising clause is a failure
            return False

    def describe(self) -> str:
        return f"{self.kind}:{self.label}"

    def __repr__(self) -> str:
        return f"<Clause {self.describe()}>"


def _coerce_clauses(kind: str, entries: Iterable[Any]) -> Tuple[Clause, ...]:
    clauses: List[Clause] = []
    for index, entry in enumerate(entries):
        if isinstance(entry, Clause):
            clauses.append(entry)
            continue
        if isinstance(entry, tuple):
            label, predicate = entry
        else:
            predicate = entry
            label = getattr(predicate, "__name__", f"{kind}_{index}")
            if label == "<lambda>":
                label = f"{kind}_{index}"
        clauses.append(Clause(label, kind, predicate))
    return tuple(clauses)


class MethodContract:
    """The declared contract of one participating method."""

    __slots__ = ("method_id", "requires", "ensures", "invariants",
                 "scope", "_capture")

    def __init__(
        self,
        method_id: str,
        require: Iterable[Any] = (),
        ensure: Iterable[Any] = (),
        invariant: Iterable[Any] = (),
        observables: Any = (),
        scope: Optional[str] = None,
    ) -> None:
        self.method_id = method_id
        self.requires = _coerce_clauses("require", require)
        self.ensures = _coerce_clauses("ensure", ensure)
        self.invariants = _coerce_clauses("invariant", invariant)
        #: causal-memory scope: contracts sharing a scope share the
        #: "last writer" record (defaults to the method itself)
        self.scope = scope if scope is not None else method_id
        if callable(observables):
            self._capture = observables
        else:
            names = tuple(observables)

            def _capture(joinpoint: JoinPoint,
                         _names: Tuple[str, ...] = names) -> Dict[str, Any]:
                component = joinpoint.component
                return {
                    name: getattr(component, name, None) for name in _names
                }

            self._capture = _capture

    def capture(self, joinpoint: JoinPoint) -> Dict[str, Any]:
        """Snapshot the declared observables for one check point."""
        return dict(self._capture(joinpoint))

    def clause_labels(self) -> Dict[str, List[str]]:
        """Declared clauses by kind — plan ``explain()`` metadata."""
        return {
            "require": [clause.label for clause in self.requires],
            "ensure": [clause.label for clause in self.ensures],
            "invariant": [clause.label for clause in self.invariants],
        }

    def __repr__(self) -> str:
        return (
            f"<MethodContract {self.method_id!r} "
            f"require={len(self.requires)} ensure={len(self.ensures)} "
            f"invariant={len(self.invariants)} scope={self.scope!r}>"
        )


class ContractRegistry:
    """Declared contracts for one moderator, with causal memory.

    Mirrors :class:`repro.faults.FaultInjector`'s lifecycle: build,
    :meth:`declare` per method, :meth:`install` on a moderator.
    Installation assigns ``moderator.contracts``, whose property setter
    bumps the moderator's plan version — every compiled plan
    revalidates, so checks appear (or disappear) atomically with
    respect to plan recompilation. Later :meth:`declare` calls on an
    installed registry bump the version again through :meth:`_touch`.

    ``node`` labels the evidence records this registry produces, so a
    violation that crosses the wire still names which process observed
    each checkpoint.
    """

    def __init__(self, node: str = "local") -> None:
        self.node = node
        self._by_method: Dict[str, MethodContract] = {}
        #: monotonic declaration epoch, folded into the moderator's
        #: composition key while installed
        self.epoch = 0
        self._lock = threading.Lock()
        #: scope -> (node, activation_id, wire-safe snapshot) of the
        #: last activation that mutated the scope's observables —
        #: cross-activation causal memory for blame evidence
        self._last_writers: Dict[str, Tuple[str, int, Dict[str, Any]]] = {}
        self._moderators: List[Any] = []

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def declare(
        self,
        method_id: str,
        require: Iterable[Any] = (),
        ensure: Iterable[Any] = (),
        invariant: Iterable[Any] = (),
        observables: Any = (),
        scope: Optional[str] = None,
    ) -> MethodContract:
        """Declare (or replace) the contract of ``method_id``.

        ``require`` / ``ensure`` / ``invariant`` are iterables of
        predicates, ``(label, predicate)`` tuples or :class:`Clause`
        objects. ``observables`` is a tuple of component attribute
        names (captured by ``getattr``) or a callable
        ``joinpoint -> dict``. ``scope`` groups methods that share
        state, so the last-writer causal memory spans all of them.
        """
        contract = MethodContract(
            method_id, require=require, ensure=ensure,
            invariant=invariant, observables=observables, scope=scope,
        )
        with self._lock:
            self._by_method[method_id] = contract
        self._touch()
        return contract

    def drop(self, method_id: str) -> Optional[MethodContract]:
        """Forget a method's contract (checks stop on the next plan)."""
        with self._lock:
            contract = self._by_method.pop(method_id, None)
        if contract is not None:
            self._touch()
        return contract

    def contract_for(self, method_id: str) -> Optional[MethodContract]:
        """The declared contract of ``method_id``, or ``None``."""
        return self._by_method.get(method_id)

    def methods(self) -> List[str]:
        with self._lock:
            return sorted(self._by_method)

    def _touch(self) -> None:
        self.epoch += 1
        for moderator in self._moderators:
            # Re-assign through the property so the moderator's own
            # plan version moves and compiled plans revalidate.
            moderator.contracts = self

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, moderator: Any) -> "ContractRegistry":
        """Arm this registry on ``moderator`` (``moderator.contracts``)."""
        if moderator not in self._moderators:
            self._moderators.append(moderator)
        moderator.contracts = self
        return self

    def uninstall(self, moderator: Any) -> None:
        if moderator in self._moderators:
            self._moderators.remove(moderator)
        moderator.contracts = None

    # ------------------------------------------------------------------
    # activation lifecycle (driven by the moderator)
    # ------------------------------------------------------------------
    def begin(self, method_id: str,
              joinpoint: JoinPoint) -> Optional["ContractRunner"]:
        """Start contract checking for one activation.

        Returns ``None`` when the method has no declared contract.
        Checks ``require`` clauses and entry invariants — a failure
        raises :class:`ContractViolation` blaming the **caller**
        before any aspect has run (nothing to compensate). On success
        the runner is stashed in the join point's context under
        :data:`CONTRACT_KEY` for the post-phase seams.
        """
        contract = self._by_method.get(method_id)
        if contract is None:
            return None
        runner = ContractRunner(contract, self, joinpoint)
        joinpoint.context[CONTRACT_KEY] = runner
        runner.check_entry(joinpoint)
        return runner

    def note_write(self, scope: str, activation_id: int,
                   snapshot: Dict[str, Any]) -> None:
        """Record an activation as the scope's last observable writer."""
        with self._lock:
            self._last_writers[scope] = (
                self.node, activation_id, _wire_state(snapshot)
            )

    def last_writer(
        self, scope: str
    ) -> Optional[Tuple[str, int, Dict[str, Any]]]:
        with self._lock:
            return self._last_writers.get(scope)


class ContractRunner:
    """Per-activation contract state machine (see module docstring).

    Created by :meth:`ContractRegistry.begin`; the moderator drives
    :meth:`start_round` / :meth:`checkpoint` / :meth:`post_body` /
    :meth:`finish` from its seams. Only the *first* violation is kept —
    later checks are skipped once a verdict exists, so evidence always
    describes the earliest observable break.
    """

    __slots__ = ("contract", "registry", "joinpoint", "entry_state",
                 "round_state", "_last_state", "evidence", "violation",
                 "_held", "_wrote")

    def __init__(self, contract: MethodContract,
                 registry: ContractRegistry,
                 joinpoint: JoinPoint) -> None:
        self.contract = contract
        self.registry = registry
        self.joinpoint = joinpoint
        #: observables at activation entry (first capture)
        self.entry_state: Dict[str, Any] = {}
        #: observables at the start of the *latest* evaluation round —
        #: the ``old`` state ensure clauses compare against (state may
        #: legitimately change while the activation is parked: other
        #: activations complete and wake it, so each round re-anchors)
        self.round_state: Dict[str, Any] = {}
        self._last_state: Dict[str, Any] = {}
        #: wire-safe checkpoint records (the violation's evidence)
        self.evidence: List[Dict[str, Any]] = []
        self.violation: Optional[ContractViolation] = None
        #: ensure/invariant clauses that held at the post-body check —
        #: the set re-verified after each postaction
        self._held: Tuple[Clause, ...] = ()
        self._wrote = False

    # ------------------------------------------------------------------
    # pre-activation seams
    # ------------------------------------------------------------------
    def check_entry(self, joinpoint: JoinPoint) -> None:
        """Require clauses + entry invariants; blames the caller."""
        self.entry_state = self.contract.capture(joinpoint)
        self.round_state = dict(self.entry_state)
        self._last_state = dict(self.entry_state)
        self.evidence.append({
            "seam": "entry", "concern": "", "node": self.registry.node,
            "activation_id": joinpoint.activation_id,
            "state": _wire_state(self.entry_state),
        })
        prior = self.registry.last_writer(self.contract.scope)
        if prior is not None:
            node, activation_id, snapshot = prior
            self.evidence.append({
                "seam": "prior_write", "concern": "", "node": node,
                "activation_id": activation_id, "state": snapshot,
                "scope": self.contract.scope,
            })
        for clause in self.contract.requires:
            if not clause.holds(joinpoint, None):
                raise self._violated(clause, BLAME_CALLER)
        for clause in self.contract.invariants:
            if not clause.holds(joinpoint, None):
                raise self._violated(clause, BLAME_CALLER,
                                     detail="invariant broken at entry")

    def start_round(self, joinpoint: JoinPoint) -> None:
        """Re-anchor at the top of one precondition evaluation round.

        A BLOCKed round's RESUMEd prefix is compensated before the
        activation parks, and foreign activations may mutate shared
        state while it waits — so interference attribution (and the
        ``old`` state) is always relative to the round that finally
        RESUMEd, not to a snapshot from before the park.
        """
        self.round_state = self.contract.capture(joinpoint)
        self._last_state = dict(self.round_state)

    def checkpoint(self, seam: str, concern: str,
                   joinpoint: JoinPoint) -> None:
        """Record one per-concern check point (pre or post phase).

        In the pre-phase (after each RESUME vote) a snapshot that
        differs from the previous check point is interference evidence
        against ``concern``. In the post-phase it re-verifies the
        clauses that held at post-body; a fresh failure blames
        ``concern`` directly.
        """
        state = self.contract.capture(joinpoint)
        if state != self._last_state:
            changed = sorted(
                key for key in set(state) | set(self._last_state)
                if state.get(key) != self._last_state.get(key)
            )
            self.evidence.append({
                "seam": seam, "concern": concern,
                "node": self.registry.node,
                "activation_id": joinpoint.activation_id,
                "state": _wire_state(state), "changed": changed,
            })
            self._last_state = state
        if seam == "postaction" and self.violation is None:
            old = Old(self.round_state)
            for clause in self._held:
                if not clause.holds(joinpoint, old):
                    self.violation = self._violated(
                        clause, _blame_aspect(concern),
                        detail=f"held at post-body, broken after "
                               f"postaction[{concern}]",
                    )
                    break

    # ------------------------------------------------------------------
    # post-activation seams
    # ------------------------------------------------------------------
    def post_body(self, joinpoint: JoinPoint) -> None:
        """The post-body check point (before any postaction runs)."""
        state = self.contract.capture(joinpoint)
        self._wrote = state != self.round_state
        self.evidence.append({
            "seam": "post_body", "concern": "",
            "node": self.registry.node,
            "activation_id": joinpoint.activation_id,
            "state": _wire_state(state),
        })
        self._last_state = state
        if joinpoint.exception is not None:
            # The body raised: the exception is the diagnostic; ensure
            # clauses describe normal returns only. Postaction-phase
            # invariant checks still run below via ``_held``.
            self._held = self.contract.invariants
            return
        old = Old(self.round_state)
        held: List[Clause] = []
        for clause in (*self.contract.ensures, *self.contract.invariants):
            if clause.holds(joinpoint, old):
                held.append(clause)
                continue
            if self.violation is None:
                self.violation = self._violated(
                    clause, self._post_body_blame(),
                )
        self._held = tuple(held)

    def _post_body_blame(self) -> str:
        """Who broke a clause that failed at the post-body check point.

        A pre-phase check point that saw the observables move names an
        interfering aspect — advice mutated state the component's
        contract ranges over, so the advice is blamed. With no
        interference on record, the component itself (its body just
        ran) carries the blame.
        """
        for record in self.evidence:
            if record["seam"] == "precondition" and record.get("changed"):
                return _blame_aspect(record["concern"])
        return BLAME_COMPONENT

    def finish(self) -> Optional[ContractViolation]:
        """Close the activation; returns the verdict (if any).

        Also commits the causal memory: an activation whose body moved
        the observables is remembered as the scope's last writer, so
        the *next* violation's evidence (and the slicer) can point at
        it.
        """
        if self._wrote:
            self.registry.note_write(
                self.contract.scope, self.joinpoint.activation_id,
                self._last_state,
            )
        return self.violation

    # ------------------------------------------------------------------
    def _violated(self, clause: Clause, blame: str,
                  detail: str = "") -> ContractViolation:
        return ContractViolation(
            self.contract.method_id, clause.label, clause.kind, blame,
            detail=detail, evidence=list(self.evidence),
            activation_id=self.joinpoint.activation_id,
        )

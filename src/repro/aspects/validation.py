"""Validation aspects: argument and state contracts as a concern.

A contract violation is not a synchronization condition — waiting will
never fix a malformed argument — so validation failures ABORT. This is
the concern the paper's ``precondition()`` naming most directly evokes
(design-by-contract), separated from the component exactly like the
synchronization constraints are.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.aspect import StatefulAspect
from repro.core.joinpoint import JoinPoint
from repro.core.results import AspectResult

#: A named predicate over the join point.
Rule = Tuple[str, Callable[[JoinPoint], bool]]


class ValidationAspect(StatefulAspect):
    """ABORT activations whose arguments violate declared rules.

    Rules are ``(description, predicate)`` pairs evaluated in order; the
    first failing rule aborts the activation and is recorded on the join
    point (``context["violated_rule"]``) and in :attr:`violations`.

    Example::

        ValidationAspect(rules=[
            ("ticket id non-empty", lambda jp: bool(jp.args and jp.args[0])),
        ])
    """

    concern = "validate"
    never_blocks = True
    # Argument validation reads the join point only, so it commutes with
    # the type-contract check and the cache lookup (mutual — see
    # TypeContractAspect and CachingAspect).
    commutes_with = ("typecheck", "cache")

    def __init__(self, rules: Optional[List[Rule]] = None,
                 cache_key: Optional[Callable[[JoinPoint], Any]] = None
                 ) -> None:
        super().__init__()
        self.rules: List[Rule] = list(rules or [])
        self.checked = 0
        self.violations: Dict[str, int] = {}
        # Rule purity is a property of the *binding*, not the class:
        # pass a cache_key identifying a decision's inputs to declare
        # these rules memoizable (only passing checks are ever cached;
        # the ``checked`` counter then undercounts by the hits).
        if cache_key is not None:
            self.cache_key = cache_key
            self.idempotent_precondition = True

    def add_rule(self, description: str,
                 predicate: Callable[[JoinPoint], bool]) -> None:
        with self._lock:
            self.rules.append((description, predicate))

    def precondition(self, joinpoint: JoinPoint) -> AspectResult:
        with self._lock:
            rules = list(self.rules)
            self.checked += 1
        for description, rule_predicate in rules:
            try:
                ok = bool(rule_predicate(joinpoint))
            except Exception:  # noqa: BLE001 - a crashing rule is a violation
                ok = False
            if not ok:
                with self._lock:
                    self.violations[description] = (
                        self.violations.get(description, 0) + 1
                    )
                joinpoint.context["violated_rule"] = description
                return AspectResult.ABORT
        return AspectResult.RESUME


class TypeContractAspect(StatefulAspect):
    """Positional-argument type contracts per method.

    ``contracts`` maps method -> tuple of expected types (checked
    positionally; extra arguments are unchecked).
    """

    concern = "typecheck"
    never_blocks = True
    commutes_with = ("validate", "cache")
    # ``isinstance`` depends on the argument *types* alone, so keying a
    # memo on them is exact: a RESUME for this type vector is a RESUME
    # forever (contract tables are fixed at construction). Violations
    # are never cached — only passing checks are.
    idempotent_precondition = True

    @staticmethod
    def cache_key(joinpoint: JoinPoint) -> Tuple[Any, ...]:
        return (
            joinpoint.method_id,
            tuple(type(argument) for argument in joinpoint.args),
        )

    def __init__(self, contracts: Dict[str, Tuple[type, ...]]) -> None:
        super().__init__()
        self.contracts = dict(contracts)
        self.violations = 0

    def precondition(self, joinpoint: JoinPoint) -> AspectResult:
        expected = self.contracts.get(joinpoint.method_id)
        if expected is None:
            return AspectResult.RESUME
        for index, expected_type in enumerate(expected):
            if index >= len(joinpoint.args):
                break
            if not isinstance(joinpoint.args[index], expected_type):
                with self._lock:
                    self.violations += 1
                joinpoint.context["violated_rule"] = (
                    f"argument {index} of {joinpoint.method_id} must be "
                    f"{expected_type.__name__}"
                )
                return AspectResult.ABORT
        return AspectResult.RESUME


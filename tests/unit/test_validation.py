"""Unit tests for validation aspects."""

from repro.aspects.validation import TypeContractAspect, ValidationAspect
from repro.core import JoinPoint
from repro.core.results import ABORT, RESUME


def jp(method="m", args=(), component=None):
    return JoinPoint(method_id=method, args=args, component=component)


class TestValidationAspect:
    def test_passing_rules_resume(self):
        aspect = ValidationAspect(rules=[
            ("always true", lambda _jp: True),
        ])
        assert aspect.precondition(jp()) is RESUME
        assert aspect.checked == 1

    def test_first_failing_rule_aborts_and_records(self):
        aspect = ValidationAspect(rules=[
            ("rule A", lambda _jp: True),
            ("rule B", lambda _jp: False),
            ("rule C", lambda _jp: True),
        ])
        activation = jp()
        assert aspect.precondition(activation) is ABORT
        assert activation.context["violated_rule"] == "rule B"
        assert aspect.violations == {"rule B": 1}

    def test_crashing_rule_counts_as_violation(self):
        aspect = ValidationAspect(rules=[
            ("explodes", lambda _jp: 1 / 0),
        ])
        assert aspect.precondition(jp()) is ABORT

    def test_add_rule_after_construction(self):
        aspect = ValidationAspect()
        assert aspect.precondition(jp()) is RESUME
        aspect.add_rule("no empty args", lambda jp_: bool(jp_.args))
        assert aspect.precondition(jp()) is ABORT

    def test_rules_see_arguments(self):
        aspect = ValidationAspect(rules=[
            ("first arg positive", lambda jp_: jp_.args[0] > 0),
        ])
        assert aspect.precondition(jp(args=(5,))) is RESUME
        assert aspect.precondition(jp(args=(-1,))) is ABORT


class TestTypeContractAspect:
    def test_matching_types_resume(self):
        aspect = TypeContractAspect({"m": (int, str)})
        assert aspect.precondition(jp(args=(1, "x"))) is RESUME

    def test_mismatched_type_aborts(self):
        aspect = TypeContractAspect({"m": (int,)})
        activation = jp(args=("not-int",))
        assert aspect.precondition(activation) is ABORT
        assert "argument 0" in activation.context["violated_rule"]
        assert aspect.violations == 1

    def test_uncontracted_method_passes(self):
        aspect = TypeContractAspect({"other": (int,)})
        assert aspect.precondition(jp(args=("anything",))) is RESUME

    def test_fewer_args_than_contract_ok(self):
        aspect = TypeContractAspect({"m": (int, int, int)})
        assert aspect.precondition(jp(args=(1,))) is RESUME


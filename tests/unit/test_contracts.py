"""Unit tests for the contract plane: clauses, blame, seams, epochs."""

import threading
import time

import pytest

from repro.contracts import (
    CONTRACT_KEY,
    Clause,
    ContractRegistry,
    ContractViolation,
    MethodContract,
    Old,
)
from repro.core import AspectModerator, ComponentProxy, JoinPoint, NullAspect
from repro.core import moderator as moderator_module
from repro.core.results import BLOCK, RESUME


class Account:
    def __init__(self, balance=0):
        self.balance = balance

    def deposit(self, amount):
        self.balance += amount
        return self.balance

    def corrupt(self, amount):
        # Deliberately breaks its own postcondition.
        self.balance += amount - 1
        return self.balance

    def explode(self, amount):
        raise ValueError("boom")


def build(component=None, registry=None, **contract_kwargs):
    """Moderator + proxy with a contract declared on ``deposit``."""
    moderator = AspectModerator()
    component = component if component is not None else Account()
    proxy = ComponentProxy(component, moderator)
    if registry is None:
        registry = ContractRegistry()
    if contract_kwargs:
        registry.declare("deposit", **contract_kwargs)
    registry.install(moderator)
    return moderator, proxy, component, registry


GROWS = ("grows", lambda jp, old: jp.component.balance
         == old.balance + jp.args[0])
POSITIVE = ("positive", lambda jp: jp.args[0] > 0)
SOLVENT = ("solvent", lambda component: component.balance >= 0)


class TestClauseAndOld:
    def test_old_attribute_and_item_access(self):
        old = Old({"balance": 7})
        assert old.balance == 7
        assert old["balance"] == 7
        assert old.as_dict() == {"balance": 7}

    def test_old_missing_observable_names_the_captured_set(self):
        with pytest.raises(AttributeError, match="balance"):
            Old({"balance": 7}).total

    def test_raising_predicate_counts_as_failed(self):
        clause = Clause("broken", "require",
                        lambda jp: 1 / 0)  # pragma: no branch
        assert clause.holds(None, None) is False

    def test_labels_from_function_names_and_lambdas(self):
        def balance_grows(jp, old):
            return True

        contract = MethodContract(
            "m", ensure=[balance_grows, lambda jp, old: True],
        )
        assert [c.label for c in contract.ensures] == [
            "balance_grows", "ensure_1",
        ]

    def test_clause_objects_pass_through(self):
        clause = Clause("mine", "require", lambda jp: True)
        contract = MethodContract("m", require=[clause])
        assert contract.requires == (clause,)

    def test_scope_defaults_to_method(self):
        assert MethodContract("m").scope == "m"
        assert MethodContract("m", scope="shared").scope == "shared"


class TestBlameCaller:
    def test_failed_require_blames_caller_before_the_body(self):
        moderator, proxy, account, _ = build(
            require=[POSITIVE], observables=("balance",),
        )
        with pytest.raises(ContractViolation) as excinfo:
            proxy.deposit(-5)
        violation = excinfo.value
        assert violation.blame == "caller"
        assert violation.kind == "require"
        assert violation.clause == "positive"
        assert account.balance == 0  # body never ran
        assert moderator.stats.as_dict()["contract_violations"] == 1

    def test_entry_invariant_failure_blames_caller(self):
        moderator, proxy, account, _ = build(
            component=Account(balance=-1),
            invariant=[SOLVENT], observables=("balance",),
        )
        with pytest.raises(ContractViolation) as excinfo:
            proxy.deposit(1)
        assert excinfo.value.blame == "caller"
        assert "entry" in excinfo.value.detail


class TestBlameComponent:
    def test_failed_ensure_without_interference_blames_component(self):
        moderator = AspectModerator()
        account = Account()
        proxy = ComponentProxy(account, moderator)
        registry = ContractRegistry()
        registry.declare("corrupt", ensure=[GROWS],
                         observables=("balance",))
        registry.install(moderator)
        with pytest.raises(ContractViolation) as excinfo:
            proxy.corrupt(5)
        violation = excinfo.value
        assert violation.blame == "component"
        assert violation.kind == "ensure"
        assert violation.blamed_concern is None
        seams = [record["seam"] for record in violation.evidence]
        assert seams == ["entry", "post_body"]

    def test_body_exception_propagates_without_ensure_noise(self):
        _, proxy, _, _ = build()
        registry = ContractRegistry()
        moderator = AspectModerator()
        account = Account()
        proxy = ComponentProxy(account, moderator)
        registry.declare("explode", ensure=[GROWS],
                         observables=("balance",))
        registry.install(moderator)
        with pytest.raises(ValueError, match="boom"):
            proxy.explode(5)


class TestBlameAspect:
    def _interferer(self, delta=-1):
        class Interferer(NullAspect):
            never_blocks = True

            def evaluate_precondition(self, joinpoint):
                joinpoint.component.balance += delta
                return super().evaluate_precondition(joinpoint)

        return Interferer()

    def test_pre_phase_interference_blames_the_aspect(self):
        moderator, proxy, account, _ = build(
            ensure=[GROWS], observables=("balance",),
        )
        moderator.register_aspect("deposit", "skim", self._interferer())
        with pytest.raises(ContractViolation) as excinfo:
            proxy.deposit(5)
        violation = excinfo.value
        assert violation.blame == "aspect:skim"
        assert violation.blamed_concern == "skim"
        convicting = [r for r in violation.evidence
                      if r["seam"] == "precondition" and r.get("changed")]
        assert convicting and convicting[0]["concern"] == "skim"
        assert convicting[0]["changed"] == ["balance"]

    def test_aspect_blame_feeds_quarantine(self):
        moderator, proxy, account, _ = build(
            ensure=[GROWS], observables=("balance",),
        )
        moderator.register_aspect(
            "deposit", "skim", self._interferer(),
            fault_policy="fail_open", fault_threshold=1,
        )
        with pytest.raises(ContractViolation):
            proxy.deposit(5)
        record = moderator.aspect_health()[("deposit", "skim")]
        assert record["quarantined"] is True
        info = record["last_fault_info"]
        assert info["blame"] == "aspect:skim"
        assert info["exception"] == "ContractViolation"
        assert info["phase"] == "contract"
        assert info["activation_id"] > 0
        # Quarantined fail_open: the next deposit passes its contract.
        assert proxy.deposit(3) == account.balance

    def test_component_blame_does_not_feed_quarantine(self):
        moderator = AspectModerator()
        account = Account()
        proxy = ComponentProxy(account, moderator)
        moderator.register_aspect("corrupt", "audit", NullAspect(),
                                  fault_policy="fail_open",
                                  fault_threshold=1)
        registry = ContractRegistry()
        registry.declare("corrupt", ensure=[GROWS],
                         observables=("balance",))
        registry.install(moderator)
        with pytest.raises(ContractViolation):
            proxy.corrupt(5)
        record = moderator.aspect_health().get(("corrupt", "audit"))
        assert record is None or not record["quarantined"]

    def test_postaction_break_blames_that_aspect(self):
        class LateSkim(NullAspect):
            never_blocks = True

            def postaction(self, joinpoint):
                joinpoint.component.balance = -100

        moderator, proxy, account, _ = build(
            invariant=[SOLVENT], observables=("balance",),
        )
        moderator.register_aspect("deposit", "late", LateSkim())
        with pytest.raises(ContractViolation) as excinfo:
            proxy.deposit(5)
        violation = excinfo.value
        assert violation.blame == "aspect:late"
        assert violation.kind == "invariant"
        assert "postaction[late]" in violation.detail


class TestCausalMemory:
    def test_last_writer_recorded_and_surfaced_as_evidence(self):
        moderator, proxy, account, registry = build(
            ensure=[GROWS], observables=("balance",), scope="account",
        )
        proxy.deposit(5)
        writer = registry.last_writer("account")
        assert writer is not None
        node, activation_id, state = writer
        assert node == "local"
        assert state == {"balance": 5}
        # Next activation's evidence names the prior writer.
        registry.declare("corrupt", ensure=[GROWS],
                         observables=("balance",), scope="account")
        with pytest.raises(ContractViolation) as excinfo:
            proxy.corrupt(5)
        prior = [r for r in excinfo.value.evidence
                 if r["seam"] == "prior_write"]
        assert prior and prior[0]["activation_id"] == activation_id
        assert prior[0]["scope"] == "account"

    def test_clean_reads_do_not_claim_writership(self):
        moderator = AspectModerator()
        account = Account(balance=3)

        class Reader:
            def __init__(self, account):
                self._account = account

            def peek(self):
                return self._account.balance

        proxy = ComponentProxy(Reader(account), moderator)
        registry = ContractRegistry()
        registry.declare(
            "peek", observables=lambda jp: {"balance": account.balance},
            scope="account",
        )
        registry.install(moderator)
        assert proxy.peek() == 3
        assert registry.last_writer("account") is None


class TestEpochsAndPlans:
    def test_install_bumps_contract_epoch(self):
        moderator = AspectModerator()
        before = moderator.registration_version
        ContractRegistry().install(moderator)
        assert moderator.registration_version == before + 1

    def test_declare_on_installed_registry_invalidates_plans(self):
        moderator, proxy, account, registry = build()
        moderator.register_aspect("deposit", "audit", NullAspect())
        proxy.deposit(1)
        plan_before = moderator.plan_for("deposit")
        assert plan_before.contract is None
        registry.declare("deposit", ensure=[GROWS],
                         observables=("balance",))
        proxy.deposit(1)
        plan_after = moderator.plan_for("deposit")
        assert plan_after is not plan_before
        assert plan_after.contract is not None

    def test_drop_disarms_the_contract(self):
        moderator, proxy, account, registry = build(
            ensure=[GROWS], observables=("balance",),
        )
        moderator.register_aspect("deposit", "audit", NullAspect())
        proxy.deposit(1)
        assert moderator.plan_for("deposit").contract is not None
        registry.drop("deposit")
        proxy.deposit(1)
        assert moderator.plan_for("deposit").contract is None

    def test_uninstall_disarms_all_checks(self):
        moderator, proxy, account, registry = build(
            require=[POSITIVE], observables=("balance",),
        )
        registry.uninstall(moderator)
        assert proxy.deposit(-5) == -5  # no contract: legacy behaviour

    def test_explain_reports_clauses_and_epoch(self):
        moderator, proxy, account, _ = build(
            require=[POSITIVE], ensure=[GROWS], observables=("balance",),
        )
        moderator.register_aspect("deposit", "audit", NullAspect())
        proxy.deposit(1)
        report = moderator.plan_for("deposit").explain()
        assert report["contract"] == {
            "require": ["positive"], "ensure": ["grows"], "invariant": [],
        }
        assert report["revision"] == moderator.registration_version
        formatted = moderator.plan_for("deposit").format()
        assert "contract:" in formatted

    def test_methods_without_contract_never_allocate_a_runner(self):
        moderator, proxy, account, registry = build(
            ensure=[GROWS], observables=("balance",),
        )

        seen = {}

        class Probe(NullAspect):
            never_blocks = True

            def evaluate_precondition(self, joinpoint):
                seen["runner"] = joinpoint.context.get(CONTRACT_KEY)
                return super().evaluate_precondition(joinpoint)

        moderator.register_aspect("corrupt", "probe", Probe())
        proxy.corrupt(5)  # no contract declared on corrupt
        assert seen["runner"] is None

    def test_contract_key_literal_matches_the_moderator_copy(self):
        # core duplicates the literal so it never imports this package;
        # the two constants must stay identical.
        assert moderator_module.CONTRACT_KEY == CONTRACT_KEY


class TestBlockingRounds:
    def test_parked_rounds_do_not_misblame_foreign_writers(self):
        """State moved while parked; the final round re-anchors old."""
        account = Account()
        moderator = AspectModerator()
        proxy = ComponentProxy(account, moderator)
        registry = ContractRegistry()
        registry.declare("deposit", ensure=[GROWS],
                         observables=("balance",))
        registry.install(moderator)

        class Gate(NullAspect):
            never_blocks = False

            def evaluate_precondition(self, joinpoint):
                # Guarded suspension: park until a foreign writer has
                # funded the account.
                return RESUME if joinpoint.component.balance >= 100 \
                    else BLOCK

        moderator.register_aspect("deposit", "gate", Gate())

        done = threading.Event()
        result = {}

        def run():
            result["balance"] = proxy.deposit(5)
            done.set()

        worker = threading.Thread(target=run)
        worker.start()
        # While parked, a foreign writer moves the observable, then a
        # notification re-evaluates the chain (gate now RESUMEs).
        time.sleep(0.05)
        account.balance = 100
        moderator.postactivation("deposit",
                                 JoinPoint(method_id="deposit"))
        assert done.wait(2.0)
        worker.join()
        assert result["balance"] == 105  # grows held against round old

    def test_registry_node_labels_evidence(self):
        moderator, proxy, account, _ = build(
            registry=ContractRegistry(node="node-x"),
            require=[POSITIVE], observables=("balance",),
        )
        with pytest.raises(ContractViolation) as excinfo:
            proxy.deposit(-1)
        assert all(r["node"] == "node-x" for r in excinfo.value.evidence
                   if r["seam"] != "prior_write")


class TestWirePayload:
    def test_wire_payload_round_trips_the_verdict(self):
        moderator, proxy, account, _ = build(
            require=[POSITIVE], observables=("balance",),
        )
        with pytest.raises(ContractViolation) as excinfo:
            proxy.deposit(-1)
        payload = excinfo.value.wire_payload()
        assert payload["contract_blame"] == "caller"
        assert payload["contract_clause"] == "positive"
        assert payload["contract_kind"] == "require"
        assert isinstance(payload["contract_evidence"], list)

    def test_registry_introspection(self):
        registry = ContractRegistry()
        registry.declare("a")
        registry.declare("b")
        assert registry.methods() == ["a", "b"]
        assert registry.contract_for("a") is not None
        assert registry.contract_for("zzz") is None

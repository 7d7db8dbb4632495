"""Unit tests for compiled activation plans.

Covers the compiled-pipeline contract in isolation (the differential
suite in ``tests/properties/test_plan_differential.py`` proves runtime
equivalence; this file proves the *compile-time* promises):

* compilation correctness — cell order, pre-bound callables, the
  ``never_blocks`` routing flag, and the one executor every plan runs
  (a full RESUME stashes ``plan.pairs`` itself; injector and quarantine
  are read live);
* the invalidation matrix — every composition mutator, across all nine
  mutation families, moves ``registration_version`` (the plan key) and
  forces exactly one recompile, and nothing else does;
* ``explain()`` — the composed contract as data;
* :class:`PlanHandle` stability across recompiles;
* the ``plan_compiles`` counter and its ``as_dict`` snapshot;
* :class:`Tracer` ring-buffer mode (``maxlen`` / ``dropped``);
* ``lint_plan`` plan-level rules and ``plan_to_dot`` / ``plan_table``
  figure equivalence (live plan and serialized report render the same).
"""

import pytest

from repro.analysis import plan_to_dot, plan_table
from repro.contracts import ContractRegistry
from repro.core import (
    Aspect,
    AspectModerator,
    AspectResult,
    FunctionAspect,
    JoinPoint,
    PlanHandle,
    TraceEvent,
    Tracer,
)
from repro.core.moderator import CHAIN_KEY
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs import ClauseProfiler
from repro.verify import lint_chain, lint_plan


def _moderator(aspects=2, never_blocks=True, **kwargs):
    moderator = AspectModerator(**kwargs)
    for index in range(aspects):
        moderator.register_aspect(
            "m", f"c{index}",
            FunctionAspect(concern=f"c{index}", never_blocks=never_blocks),
        )
    return moderator


# ----------------------------------------------------------------------
# compilation correctness
# ----------------------------------------------------------------------
class TestCompile:
    def test_cells_mirror_the_effective_chain(self):
        moderator = _moderator(aspects=3)
        plan = moderator.plan_for("m")
        assert plan.method_id == "m"
        assert [cell.concern for cell in plan.cells] == ["c0", "c1", "c2"]
        assert plan.pairs == tuple(
            (cell.concern, cell.aspect) for cell in plan.cells
        )
        for cell in plan.cells:
            # pre-bound protocol callables — no per-round attribute
            # chase, and no ``evaluate_precondition`` wrapper around the
            # aspect's own precondition
            assert cell.evaluate == cell.aspect.precondition
            assert cell.postaction == cell.aspect.postaction

    def test_binding_keeps_overrides_and_drops_the_base_no_op(self):
        class Skim(Aspect):
            def evaluate_precondition(self, joinpoint):
                return super().evaluate_precondition(joinpoint)

        class Guard(Aspect):
            def precondition(self, joinpoint):
                return True

        moderator = AspectModerator()
        moderator.register_aspect("m", "skim", Skim())
        moderator.register_aspect("m", "guard", Guard())
        skim, guard = moderator.plan_for("m").cells
        # an overriding evaluate_precondition stays the bound callable
        assert skim.evaluate == skim.aspect.evaluate_precondition
        assert guard.evaluate == guard.aspect.precondition
        # the base no-op postaction binds nothing: the unwind calls none
        assert skim.postaction is None and guard.postaction is None
        # the round still coerces the bool vote
        assert moderator.preactivation("m") is AspectResult.RESUME

    def test_routing_flags_never_blocks_chain(self):
        plan = _moderator(never_blocks=True).plan_for("m")
        assert plan.never_blocks
        assert all(cell.degraded is None for cell in plan.cells)
        assert not plan.injector_armed
        assert plan.contract is None

    def test_routing_flags_blocking_chain(self):
        moderator = _moderator(never_blocks=False)
        plan = moderator.plan_for("m")
        assert not plan.never_blocks
        # fast path != executor: a healthy locked chain's full RESUME
        # still stashes the plan's own pairs for the cell-wise unwind
        joinpoint = JoinPoint(method_id="m")
        moderator.preactivation("m", joinpoint, plan=plan)
        assert joinpoint.context[CHAIN_KEY] is plan.pairs
        moderator.postactivation("m", joinpoint, plan=plan)

    def test_one_blocking_cell_poisons_never_blocks(self):
        moderator = _moderator(aspects=1, never_blocks=True)
        moderator.register_aspect(
            "m", "blocking", FunctionAspect(concern="blocking"))
        assert not moderator.plan_for("m").never_blocks

    def test_injector_sites_are_visited_live(self):
        moderator = _moderator()
        injector = FaultInjector(FaultPlan())
        injector.install(moderator)
        plan = moderator.plan_for("m")
        assert plan.injector_armed
        joinpoint = JoinPoint(method_id="m")
        moderator.preactivation("m", joinpoint, plan=plan)
        assert joinpoint.context[CHAIN_KEY] is plan.pairs
        moderator.postactivation("m", joinpoint, plan=plan)
        for concern in ("c0", "c1"):
            assert injector.visits("precondition", "m", concern) == 1
            assert injector.visits("postaction", "m", concern) == 1

    def test_injected_skip_leaves_the_aspect_out_of_the_chain(self):
        moderator = _moderator()
        FaultInjector(FaultPlan([FaultSpec(
            "precondition", "m", "c0", 1, "skip",
        )])).install(moderator)
        joinpoint = JoinPoint(method_id="m")
        moderator.preactivation("m", joinpoint)
        plan = moderator.plan_for("m")
        assert list(joinpoint.context[CHAIN_KEY]) == [plan.pairs[1]]

    def test_quarantine_is_snapshotted_and_skipped_live(self):
        moderator = _moderator(fault_threshold=1)
        moderator.bank.swap(
            "m", "c0", FunctionAspect(concern="c0", never_blocks=True))
        moderator.health.set_policy("m", "c0", "fail_open", threshold=1)
        moderator.health.record_fault("m", "c0", "precondition",
                                      RuntimeError("boom"))
        plan = moderator.plan_for("m")
        assert plan.cells[0].degraded == "fail_open"
        assert any(cell["degraded"] for cell in plan.explain()["cells"])
        joinpoint = JoinPoint(method_id="m")
        moderator.preactivation("m", joinpoint, plan=plan)
        assert list(joinpoint.context[CHAIN_KEY]) == [plan.pairs[1]]
        assert moderator.stats.degraded_skips == 1

    def test_fast_path_plan_does_not_materialize_queue(self):
        plan = _moderator(never_blocks=True).plan_for("m")
        assert plan._queue is None
        queue = plan.queue  # first access creates it...
        assert plan.queue is queue  # ...and caches the same object


# ----------------------------------------------------------------------
# explain(): the composed contract as data
# ----------------------------------------------------------------------
class TestExplain:
    def test_report_shape(self):
        moderator = _moderator(aspects=2)
        report = moderator.plan_for("m").explain()
        assert report["method_id"] == "m"
        assert report["never_blocks"] is True
        assert report["injector_armed"] is False
        assert report["revision"] == moderator.registration_version
        assert report["preactivation_order"] == ["c0", "c1"]
        assert report["postactivation_order"] == ["c1", "c0"]
        for position, cell in enumerate(report["cells"]):
            assert cell["position"] == position
            assert cell["aspect_class"] == "FunctionAspect"
            assert cell["degraded"] is None

    def test_moderator_explain_covers_all_methods(self):
        moderator = _moderator()
        moderator.register_aspect(
            "other", "c0", FunctionAspect(concern="c0"))
        reports = moderator.explain()
        assert set(reports) == {"m", "other"}
        single = moderator.explain("m")
        assert single["method_id"] == "m"

    def test_format_mentions_mode_and_chain(self):
        moderator = _moderator()
        text = moderator.plan_for("m").format()
        assert "ActivationPlan(m)" in text
        assert "fast-path" in text
        assert f"revision={moderator.registration_version}" in text
        assert "postactivation: c1 -> c0" in text


# ----------------------------------------------------------------------
# the invalidation matrix
# ----------------------------------------------------------------------
def _quarantine_c0(moderator):
    moderator.health.set_policy("m", "c0", "fail_open", threshold=1)
    moderator.health.record_fault("m", "c0", "precondition",
                                  RuntimeError("boom"))


def _install_profiler(moderator):
    ClauseProfiler().install(moderator)


def _install_contracts(moderator):
    ContractRegistry().install(moderator)


#: (family, setup, mutation, check on the recompiled plan) — every row
#: of the mutation table in ``repro.core.plan``, each mutator at least
#: once
MUTATIONS = [
    ("register/unregister/swap", None,
     lambda m: m.register_aspect(
         "m", "extra", FunctionAspect(concern="extra", never_blocks=True)),
     lambda plan: [c.concern for c in plan.cells] == ["c0", "c1", "extra"]),
    ("register/unregister/swap", None,
     lambda m: m.unregister_aspect("m", "c1"),
     lambda plan: [c.concern for c in plan.cells] == ["c0"]),
    ("register/unregister/swap", None,
     lambda m: m.bank.swap(
         "m", "c0", FunctionAspect(concern="c0", never_blocks=True)),
     None),
    ("set_order", None,
     lambda m: m.bank.set_order("m", ["c1", "c0"]),
     lambda plan: [c.concern for c in plan.cells] == ["c1", "c0"]),
    ("assign_lock_domain", None,
     lambda m: m.assign_lock_domain("shared", "m"),
     lambda plan: plan.domain_name == "shared"),
    ("quarantine flip / reinstate",
     lambda m: m.health.set_policy("m", "c0", "fail_open", threshold=1),
     lambda m: m.health.record_fault(
         "m", "c0", "precondition", RuntimeError("boom")),
     lambda plan: plan.cells[0].degraded == "fail_open"),
    ("quarantine flip / reinstate", _quarantine_c0,
     lambda m: m.reinstate_aspect("m", "c0"),
     lambda plan: plan.cells[0].degraded is None),
    ("set_policy / drop", None,
     lambda m: m.health.set_policy("m", "c0", "fail_closed", threshold=4),
     lambda plan: plan.cells[0].policy == "fail_closed"),
    ("set_policy / drop",
     lambda m: m.health.set_policy("m", "c0", "fail_closed", threshold=4),
     lambda m: m.health.drop("m", "c0"),
     lambda plan: plan.cells[0].policy is None),
    ("injector install / uninstall", None,
     lambda m: FaultInjector(FaultPlan()).install(m),
     lambda plan: plan.injector_armed),
    ("injector install / uninstall",
     lambda m: FaultInjector(FaultPlan()).install(m),
     lambda m: FaultInjector.uninstall(m),
     lambda plan: not plan.injector_armed),
    ("ordering-policy swap", None,
     lambda m: setattr(m, "ordering", m.ordering),
     None),
    ("contract declare / install", None,
     _install_contracts,
     lambda plan: plan.contract is None),
    ("contract declare / install", _install_contracts,
     lambda m: m.contracts.declare("m", observables=("value",)),
     lambda plan: plan.contract is not None),
    ("profiler install / refresh", None,
     _install_profiler,
     lambda plan: plan.profile is not None),
    ("profiler install / refresh", _install_profiler,
     lambda m: m.profiler.refresh(),
     lambda plan: plan.profile is not None),
]


class TestInvalidation:
    @pytest.mark.parametrize(
        "family, setup, mutate, check", MUTATIONS,
        ids=[f"{row[0]}-{index}" for index, row in enumerate(MUTATIONS)],
    )
    def test_mutation_recompiles_once_under_a_larger_version(
            self, family, setup, mutate, check):
        moderator = _moderator()
        if setup is not None:
            setup(moderator)
        handle = moderator.plan_handle("m")
        before_plan = handle.current()
        before_version = moderator.registration_version
        before_compiles = moderator.stats.plan_compiles
        assert before_plan.key == before_version
        assert moderator.plan_for("m") is before_plan  # cache is stable

        mutate(moderator)

        assert moderator.registration_version > before_version
        after_plan = moderator.plan_for("m")
        assert after_plan is not before_plan, "mutation did not invalidate"
        assert after_plan.key == moderator.registration_version
        # the cached handle picks the new plan up, without compiling again
        assert handle.current() is after_plan
        assert moderator.plan_for("m") is after_plan
        assert moderator.stats.plan_compiles == before_compiles + 1
        if check is not None:
            assert check(after_plan)

    def test_matrix_covers_every_family_in_the_plan_table(self):
        import repro.core.plan as plan_module

        table = [
            line.rsplit("bumps the version", 1)[0].strip()
            for line in plan_module.__doc__.splitlines()
            if line.rstrip().endswith("bumps the version")
        ]
        assert len(table) == 9
        assert {row[0] for row in MUTATIONS} == {
            row.replace("``", "") for row in table
        }

    def test_no_mutation_no_recompile(self):
        moderator = _moderator()
        plan = moderator.plan_for("m")
        for _ in range(50):
            assert moderator.plan_for("m") is plan
        assert moderator.stats.plan_compiles == 1

    def test_stats_snapshot_includes_plan_compiles(self):
        moderator = _moderator()
        moderator.plan_for("m")
        snapshot = moderator.stats.as_dict()
        assert snapshot["plan_compiles"] == 1
        assert snapshot["plan_compiles"] == moderator.stats.plan_compiles


# ----------------------------------------------------------------------
# handles
# ----------------------------------------------------------------------
class TestPlanHandle:
    def test_handle_is_shared_and_stable(self):
        moderator = _moderator()
        handle = moderator.plan_handle("m")
        assert isinstance(handle, PlanHandle)
        assert moderator.plan_handle("m") is handle

    def test_current_revalidates_across_recompiles(self):
        moderator = _moderator()
        handle = moderator.plan_handle("m")
        first = handle.current()
        assert handle.current() is first
        moderator.bank.swap(
            "m", "c0", FunctionAspect(concern="c0", never_blocks=True))
        second = handle.current()
        assert second is not first
        assert second is moderator.plan_for("m")
        assert moderator.plan_handle("m") is handle  # identity survives


# ----------------------------------------------------------------------
# Tracer ring-buffer mode
# ----------------------------------------------------------------------
class TestTracerRing:
    def test_unbounded_by_default(self):
        tracer = Tracer()
        for index in range(100):
            tracer(TraceEvent(kind="k", method_id=str(index)))
        assert len(tracer.events) == 100
        assert tracer.dropped == 0

    def test_maxlen_keeps_newest_and_counts_dropped(self):
        tracer = Tracer(maxlen=3)
        for index in range(5):
            tracer(TraceEvent(kind="k", method_id=str(index)))
        assert [event.method_id for event in tracer.events] == \
            ["2", "3", "4"]
        assert tracer.dropped == 2

    def test_clear_resets_events_and_dropped(self):
        tracer = Tracer(maxlen=1)
        tracer(TraceEvent(kind="a"))
        tracer(TraceEvent(kind="b"))
        assert tracer.dropped == 1
        tracer.clear()
        assert tracer.events == []
        assert tracer.dropped == 0
        tracer(TraceEvent(kind="c"))
        assert tracer.dropped == 0

    def test_maxlen_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(maxlen=0)


# ----------------------------------------------------------------------
# lint_plan
# ----------------------------------------------------------------------
class TestLintPlan:
    def test_healthy_plan_matches_chain_lint(self):
        moderator = _moderator()
        plan = moderator.plan_for("m")
        assert lint_plan(plan) == lint_chain("m", plan.pairs)

    def _quarantined(self, policy):
        moderator = _moderator()
        moderator.health.set_policy("m", "c0", policy, threshold=1)
        moderator.health.record_fault("m", "c0", "precondition",
                                      RuntimeError("boom"))
        return moderator.plan_for("m")

    def test_quar_open_is_info(self):
        findings = lint_plan(self._quarantined("fail_open"))
        rules = {finding.rule: finding for finding in findings}
        assert rules["QUAR-OPEN"].severity == "info"
        assert "c0" in rules["QUAR-OPEN"].detail

    def test_quar_closed_is_warning(self):
        findings = lint_plan(self._quarantined("fail_closed"))
        rules = {finding.rule: finding for finding in findings}
        assert rules["QUAR-CLOSED"].severity == "warning"

    def test_inj_armed_is_info(self):
        moderator = _moderator()
        FaultInjector(FaultPlan()).install(moderator)
        rules = {f.rule for f in lint_plan(moderator.plan_for("m"))}
        assert "INJ-ARMED" in rules


# ----------------------------------------------------------------------
# diagram figure equivalence
# ----------------------------------------------------------------------
class TestPlanDiagrams:
    def test_dot_from_plan_and_from_report_are_identical(self):
        """The acceptance figure: a live plan and its serialized
        ``explain()`` report render the exact same DOT text."""
        plan = _moderator(aspects=3).plan_for("m")
        assert plan_to_dot(plan) == plan_to_dot(plan.explain())

    def test_dot_structure(self):
        dot = plan_to_dot(_moderator(aspects=2).plan_for("m"))
        assert dot.startswith("digraph plan {")
        assert 'method [label="m (fast-path)"' in dot
        assert 'cell0 [label="c0\\nFunctionAspect", ' \
            'style=filled, fillcolor=lightblue];' in dot
        assert '  method -> cell0 [label="precondition"];' in dot
        assert '  cell0 -> cell1 [label="precondition"];' in dot
        assert "ordering" in dot  # the revision-key note

    def test_dot_marks_quarantined_cells(self):
        moderator = _moderator()
        moderator.health.set_policy("m", "c0", "fail_open", threshold=1)
        moderator.health.record_fault("m", "c0", "precondition",
                                      RuntimeError("boom"))
        dot = plan_to_dot(moderator.plan_for("m"))
        assert "QUARANTINED (fail_open)" in dot
        assert "lightcoral" in dot

    def test_plan_table_rows(self):
        moderator = _moderator(aspects=2)
        moderator.register_aspect(
            "other", "c9", FunctionAspect(concern="c9"))
        table = plan_table(moderator)
        lines = table.splitlines()
        assert lines[0].startswith("method")
        body = "\n".join(lines[1:])
        assert "c0 -> c1" in body
        assert "fast" in body
        assert "locked" in body  # "other" has a blocking-capable chain

    def test_plan_table_empty_moderator(self):
        assert plan_table(AspectModerator()) == "(no participating methods)"

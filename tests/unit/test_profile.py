"""Unit tests for the clause profiler (``repro.obs.profile``).

The differential suite (``tests/properties/test_profile_differential``)
proves runtime equivalence of profile-optimized plans; this file proves
the profiler's own contracts in isolation:

* recording — exact eval/veto counters, sampled cost histograms, the
  four ``repro_clause_*`` metric families on the shared registry;
* memoization — RESUME-only caching, aspect-supplied keys, LRU+TTL
  geometry, fail-open/fail-closed key failures matching quarantine
  policies;
* feedback — reordering only over *mutually* declared commutative runs
  with enough samples, elision only of declared pure observers, all
  recompiled through a bump of the moderator's plan version;
* stale-profile hygiene — baselines reset on aspect swap and on
  ``reinstate_aspect``;
* surfacing — ``explain()`` / ``format()`` / ``plan_table`` report
  every decision.
"""

import pytest

from repro.analysis import plan_table
from repro.contracts import ContractRegistry
from repro.core import (
    Aspect, AspectModerator, ComponentProxy, FunctionAspect,
)
from repro.core.errors import ActivationTimeout, AspectFault, MethodAborted
from repro.core.results import AspectResult
from repro.faults import FaultInjector, FaultPlan
from repro.obs import ClauseProfiler, MemoCache
from repro.obs.export import to_prometheus


class Counter:
    def __init__(self):
        self.total = 0

    def tick(self):
        self.total += 1
        return self.total


def _rig(*aspects, profiler=None, method="tick", **profiler_kwargs):
    """Moderator + proxy with ``aspects`` on ``tick`` and a profiler."""
    moderator = AspectModerator()
    for aspect in aspects:
        moderator.register_aspect(method, aspect.concern, aspect)
    if profiler is None:
        profiler = ClauseProfiler(sample_rate=1, min_samples=5,
                                  **profiler_kwargs)
    profiler.install(moderator)
    return moderator, ComponentProxy(Counter(), moderator=moderator), \
        profiler


def _aspect(concern, precondition=None, **kwargs):
    kwargs.setdefault("never_blocks", True)
    return FunctionAspect(concern=concern, precondition=precondition,
                          **kwargs)


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class TestRecording:
    def test_eval_and_veto_counters_are_exact(self):
        calls = {"n": 0}

        def gate(joinpoint):
            calls["n"] += 1
            return (AspectResult.ABORT if calls["n"] % 4 == 0
                    else AspectResult.RESUME)

        moderator, proxy, profiler = _rig(_aspect("gate", gate))
        outcomes = {"ok": 0, "aborted": 0}
        for _ in range(20):
            try:
                proxy.tick()
                outcomes["ok"] += 1
            except MethodAborted:
                outcomes["aborted"] += 1
        assert outcomes == {"ok": 15, "aborted": 5}
        stats = profiler.profile_of("tick", "gate")
        assert stats["evals"] == 20
        assert stats["vetoes"] == 5
        assert stats["veto_rate"] == pytest.approx(0.25)

    def test_cost_histogram_sampled_one_in_n(self):
        moderator, proxy, profiler = _rig(
            _aspect("a"), profiler=ClauseProfiler(sample_rate=4))
        for _ in range(20):
            proxy.tick()
        stats = profiler.profile_of("tick", "a")
        assert stats["evals"] == 20
        assert stats["cost_samples"] == 5  # every 4th call is timed
        assert stats["mean_cost_ns"] > 0

    def test_metric_families_export_over_prometheus(self):
        moderator, proxy, profiler = _rig(_aspect("a"))
        for _ in range(3):
            proxy.tick()
        text = to_prometheus(moderator.stats.registry)
        assert 'repro_clause_eval_total{method="tick",concern="a"' in text
        assert "repro_clause_cost_ns_bucket" in text

    def test_postactions_are_profiled_too(self):
        fired = []
        moderator, proxy, profiler = _rig(
            _aspect("a", postaction=lambda jp: fired.append(jp)))
        for _ in range(4):
            proxy.tick()
        assert len(fired) == 4
        state = profiler._cells[("tick", "a")]
        assert state.evals_post.value == 4
        assert state.cost_post.value.count == 4

    def test_bare_votes_and_the_base_postaction_count_as_ever(self):
        # Plan cells bind a bare ``precondition`` and no postaction for
        # the base no-op; the shims must still see AspectResult votes
        # and count the no-op unwind.
        class Loose(Aspect):
            concern = "loose"
            idempotent_precondition = True
            cache_key = staticmethod(lambda jp: jp.args)

            def precondition(self, joinpoint):
                return {"a": True, "b": None, "c": False}[joinpoint.args[0]]

        class Echo:
            def tick(self, value):
                return value

        moderator = AspectModerator()
        moderator.register_aspect("tick", "loose", Loose())
        profiler = ClauseProfiler(sample_rate=1).install(moderator)
        proxy = ComponentProxy(Echo(), moderator)
        assert [proxy.call("tick", v) for v in "aab"] == ["a", "a", "b"]
        with pytest.raises(ActivationTimeout):
            proxy.call("tick", "c", timeout=0.0)  # BLOCK, final round
        [row] = profiler.report()
        assert {key: row[key] for key in
                ("evals", "vetoes", "memo_hits", "memo_size")} == \
            {"evals": 5, "vetoes": 2, "memo_hits": 1, "memo_size": 2}
        state = profiler._cells[("tick", "loose")]
        assert state.veto_block.value == 2 and state.veto_abort.value == 0
        assert state.evals_post.value == 3
        assert state.cost_post.value.count == 3
        assert moderator.stats.faults == 0

    @pytest.mark.parametrize("armed", ["nothing", "injector", "contract"])
    def test_postactions_profiled_whatever_is_armed(self, armed):
        # One executor for every plan: arming an injector (even with an
        # empty plan) or declaring a contract must not route the unwind
        # around the plan cells' profiled postactions.
        moderator, proxy, profiler = _rig(_aspect("a"))
        if armed == "injector":
            FaultInjector(FaultPlan()).install(moderator)
        elif armed == "contract":
            registry = ContractRegistry()
            registry.declare("tick", observables=("total",))
            registry.install(moderator)
        for _ in range(5):
            proxy.tick()
        state = profiler._cells[("tick", "a")]
        assert state.evals_pre.value == 5
        assert state.evals_post.value == state.evals_pre.value


# ----------------------------------------------------------------------
# memoization
# ----------------------------------------------------------------------
class TestMemoization:
    def test_resume_votes_are_cached(self):
        calls = {"n": 0}

        def pre(joinpoint):
            calls["n"] += 1
            return AspectResult.RESUME

        moderator, proxy, profiler = _rig(_aspect(
            "memo", pre, idempotent_precondition=True,
            cache_key=lambda jp: jp.method_id,
        ))
        for _ in range(10):
            proxy.tick()
        assert calls["n"] == 1  # one miss, nine hits
        stats = profiler.profile_of("tick", "memo")
        assert stats["evals"] == 10  # hits still count as evaluations
        state = profiler._cells[("tick", "memo")]
        assert state.memo.hits == 9

    def test_abort_votes_are_never_cached(self):
        calls = {"n": 0}

        def veto(joinpoint):
            calls["n"] += 1
            return AspectResult.ABORT

        moderator, proxy, profiler = _rig(_aspect(
            "memo", veto, idempotent_precondition=True,
            cache_key=lambda jp: jp.method_id,
        ))
        for _ in range(5):
            with pytest.raises(MethodAborted):
                proxy.tick()
        assert calls["n"] == 5  # every veto re-polled the clause

    def test_raising_key_bypasses_on_fail_open(self):
        calls = {"n": 0}

        def pre(joinpoint):
            calls["n"] += 1
            return AspectResult.RESUME

        def bad_key(joinpoint):
            raise ValueError("unhashable decision inputs")

        moderator, proxy, profiler = _rig(_aspect(
            "memo", pre, idempotent_precondition=True, cache_key=bad_key,
            fault_policy="fail_open",
        ))
        for _ in range(4):
            proxy.tick()
        assert calls["n"] == 4  # cache bypassed, clause evaluated
        state = profiler._cells[("tick", "memo")]
        assert state.memo_bypass.value == 4

    def test_raising_key_propagates_on_fail_closed(self):
        def bad_key(joinpoint):
            raise ValueError("broken key")

        moderator, proxy, profiler = _rig(_aspect(
            "memo", lambda jp: AspectResult.RESUME,
            idempotent_precondition=True, cache_key=bad_key,
            fault_policy="fail_closed",
        ))
        with pytest.raises(AspectFault):
            proxy.tick()

    def test_no_cache_key_means_no_memo(self):
        calls = {"n": 0}

        def pre(joinpoint):
            calls["n"] += 1
            return AspectResult.RESUME

        moderator, proxy, profiler = _rig(_aspect(
            "memo", pre, idempotent_precondition=True))
        for _ in range(4):
            proxy.tick()
        assert calls["n"] == 4
        assert moderator.plan_for("tick").profile["memoized"] == []

    def test_memoize_toggle_off(self):
        calls = {"n": 0}

        def pre(joinpoint):
            calls["n"] += 1
            return AspectResult.RESUME

        moderator, proxy, profiler = _rig(
            _aspect("memo", pre, idempotent_precondition=True,
                    cache_key=lambda jp: 1),
            profiler=ClauseProfiler(sample_rate=1, memoize=False),
        )
        for _ in range(4):
            proxy.tick()
        assert calls["n"] == 4


class TestMemoCache:
    def test_lru_eviction(self):
        cache = MemoCache(capacity=2, ttl=60.0)
        cache.put("a")
        cache.put("b")
        assert cache.get("a")  # refreshes recency: b is now LRU
        cache.put("c")
        assert not cache.get("b")
        assert cache.get("a") and cache.get("c")

    def test_ttl_expiry(self):
        clock = {"now": 0.0}
        cache = MemoCache(capacity=8, ttl=10.0,
                          clock=lambda: clock["now"])
        cache.put("key")
        clock["now"] = 9.9
        assert cache.get("key")
        clock["now"] = 10.1
        assert not cache.get("key")
        assert cache.expirations == 1

    def test_clear(self):
        cache = MemoCache()
        cache.put("key")
        cache.clear()
        assert not cache.get("key")
        assert len(cache) == 0


# ----------------------------------------------------------------------
# feedback: reordering
# ----------------------------------------------------------------------
def _commuting_pair(calls):
    """(expensive never-veto, cheap always-veto) mutually commuting."""

    def expensive(joinpoint):
        calls["expensive"] += 1
        total = 0
        for index in range(200):
            total += index
        return AspectResult.RESUME

    def cheap(joinpoint):
        calls["cheap"] += 1
        return AspectResult.ABORT

    return (
        _aspect("expensive", expensive, commutes_with=("cheap",)),
        _aspect("cheap", cheap, commutes_with=("expensive",)),
    )


class TestReordering:
    def test_cheap_vetoer_moves_first_after_refresh(self):
        calls = {"expensive": 0, "cheap": 0}
        moderator, proxy, profiler = _rig(*_commuting_pair(calls))
        for _ in range(20):
            with pytest.raises(MethodAborted):
                proxy.tick()
        assert calls["expensive"] == 20  # seed order pays the full cost
        profiler.refresh()
        plan = moderator.plan_for("tick")
        assert [cell.concern for cell in plan.cells] == \
            ["cheap", "expensive"]
        assert plan.profile["reordered"] is True
        for _ in range(10):
            with pytest.raises(MethodAborted):
                proxy.tick()
        assert calls["expensive"] == 20  # short-circuited from now on

    def test_one_sided_declaration_never_reorders(self):
        calls = {"expensive": 0, "cheap": 0}
        expensive, cheap = _commuting_pair(calls)
        expensive.commutes_with = ()  # cheap still names expensive
        moderator, proxy, profiler = _rig(expensive, cheap)
        for _ in range(20):
            with pytest.raises(MethodAborted):
                proxy.tick()
        profiler.refresh()
        plan = moderator.plan_for("tick")
        assert [cell.concern for cell in plan.cells] == \
            ["expensive", "cheap"]
        assert plan.profile["reordered"] is False

    def test_wildcard_counts_as_declaring_back(self):
        calls = {"expensive": 0, "cheap": 0}
        expensive, cheap = _commuting_pair(calls)
        expensive.commutes_with = ("*",)
        moderator, proxy, profiler = _rig(expensive, cheap)
        for _ in range(20):
            with pytest.raises(MethodAborted):
                proxy.tick()
        profiler.refresh()
        assert [cell.concern
                for cell in moderator.plan_for("tick").cells] == \
            ["cheap", "expensive"]

    def test_cold_cells_keep_seed_order(self):
        calls = {"expensive": 0, "cheap": 0}
        moderator, proxy, profiler = _rig(
            *_commuting_pair(calls),
            profiler=ClauseProfiler(sample_rate=1, min_samples=50),
        )
        for _ in range(20):  # below min_samples
            with pytest.raises(MethodAborted):
                proxy.tick()
        profiler.refresh()
        assert [cell.concern
                for cell in moderator.plan_for("tick").cells] == \
            ["expensive", "cheap"]

    def test_non_commuting_cell_bounds_the_run(self):
        calls = {"expensive": 0, "cheap": 0}
        expensive, cheap = _commuting_pair(calls)
        wall = _aspect("wall", lambda jp: AspectResult.RESUME)
        moderator = AspectModerator()
        for aspect in (expensive, wall, cheap):
            moderator.register_aspect("tick", aspect.concern, aspect)
        profiler = ClauseProfiler(sample_rate=1, min_samples=5)
        profiler.install(moderator)
        proxy = ComponentProxy(Counter(), moderator=moderator)
        for _ in range(20):
            with pytest.raises(MethodAborted):
                proxy.tick()
        profiler.refresh()
        # expensive|wall and wall|cheap don't commute: nothing may cross
        # the wall, and single-cell runs have nothing to sort.
        assert [cell.concern
                for cell in moderator.plan_for("tick").cells] == \
            ["expensive", "wall", "cheap"]

    def test_reorder_toggle_off(self):
        calls = {"expensive": 0, "cheap": 0}
        moderator, proxy, profiler = _rig(
            *_commuting_pair(calls),
            profiler=ClauseProfiler(sample_rate=1, min_samples=5,
                                    reorder=False),
        )
        for _ in range(20):
            with pytest.raises(MethodAborted):
                proxy.tick()
        profiler.refresh()
        assert [cell.concern
                for cell in moderator.plan_for("tick").cells] == \
            ["expensive", "cheap"]


# ----------------------------------------------------------------------
# feedback: elision
# ----------------------------------------------------------------------
class TestElision:
    def test_pure_observer_is_elided(self):
        seen = []
        moderator, proxy, profiler = _rig(
            _aspect("work"),
            _aspect("obs", lambda jp: seen.append(jp),
                    pure_observer=True),
        )
        for _ in range(5):
            proxy.tick()
        assert seen == []
        plan = moderator.plan_for("tick")
        assert plan.profile["elided"] == ["obs"]
        assert [cell.concern for cell in plan.cells] == ["work"]

    def test_elision_requires_never_blocks(self):
        seen = []
        moderator, proxy, profiler = _rig(
            _aspect("obs", lambda jp: seen.append(jp) or True,
                    pure_observer=True, never_blocks=False),
        )
        proxy.tick()
        assert len(seen) == 1  # declared pure but may block: kept
        assert moderator.plan_for("tick").profile["elided"] == []

    def test_skip_analysis_toggle_off(self):
        seen = []
        moderator, proxy, profiler = _rig(
            _aspect("obs", lambda jp: seen.append(jp),
                    pure_observer=True),
            profiler=ClauseProfiler(sample_rate=1, skip_analysis=False),
        )
        proxy.tick()
        assert len(seen) == 1


# ----------------------------------------------------------------------
# revision plumbing
# ----------------------------------------------------------------------
class TestRevision:
    def test_install_refresh_uninstall_each_invalidate(self):
        moderator = AspectModerator()
        moderator.register_aspect("tick", "a", _aspect("a"))
        plain = moderator.plan_for("tick")
        profiler = ClauseProfiler()
        profiler.install(moderator)
        instrumented = moderator.plan_for("tick")
        assert instrumented is not plain
        assert instrumented.profile is not None
        profiler.refresh()
        refreshed = moderator.plan_for("tick")
        assert refreshed is not instrumented
        profiler.uninstall()
        stripped = moderator.plan_for("tick")
        assert stripped is not refreshed
        assert stripped.profile is None
        # wrappers are gone: back to the pre-bound aspect callables
        cell = stripped.cells[0]
        assert cell.evaluate == cell.aspect.precondition
        assert cell.postaction == cell.aspect.postaction

    def test_profile_epoch_in_explain_and_registration_version(self):
        moderator = AspectModerator()
        moderator.register_aspect("tick", "a", _aspect("a"))
        before = moderator.registration_version
        report = moderator.explain("tick")
        assert report["revision"] == before
        ClauseProfiler().install(moderator)
        assert moderator.registration_version == before + 1


# ----------------------------------------------------------------------
# stale-profile hygiene
# ----------------------------------------------------------------------
class TestHygiene:
    def test_swap_resets_the_cells_baseline(self):
        calls = {"n": 0}

        def veto_often(joinpoint):
            calls["n"] += 1
            return (AspectResult.ABORT if calls["n"] % 2
                    else AspectResult.RESUME)

        moderator, proxy, profiler = _rig(_aspect("gate", veto_often))
        for _ in range(10):
            try:
                proxy.tick()
            except MethodAborted:
                pass
        assert profiler.profile_of("tick", "gate")["evals"] == 10
        moderator.register_aspect(
            "tick", "gate",
            _aspect("gate", lambda jp: AspectResult.RESUME),
            replace=True,
        )
        moderator.plan_for("tick")  # compile hook detects the swap
        stats = profiler.profile_of("tick", "gate")
        assert stats["evals"] == 0
        assert stats["vetoes"] == 0

    def test_reinstate_resets_the_cells_baseline(self):
        def crash(joinpoint):
            raise RuntimeError("sick era")

        moderator = AspectModerator(fault_threshold=2)
        moderator.register_aspect(
            "tick", "gate", _aspect("gate", crash),
            fault_policy="fail_open", fault_threshold=2,
        )
        profiler = ClauseProfiler(sample_rate=1)
        profiler.install(moderator)
        proxy = ComponentProxy(Counter(), moderator=moderator)
        for _ in range(4):
            try:
                proxy.tick()
            except AspectFault:
                pass
        # quarantined now (fail_open): calls skip the cell
        assert moderator.health.quarantine_policy("tick", "gate") \
            == "fail_open"
        profiler._cells[("tick", "gate")].memo = MemoCache()
        profiler._cells[("tick", "gate")].memo.put("sick-era-key")
        assert moderator.reinstate_aspect("tick", "gate")
        stats = profiler.profile_of("tick", "gate")
        assert stats["evals"] == 0
        assert len(profiler._cells[("tick", "gate")].memo) == 0

    def test_swap_also_drops_the_memo(self):
        moderator, proxy, profiler = _rig(_aspect(
            "memo", lambda jp: AspectResult.RESUME,
            idempotent_precondition=True, cache_key=lambda jp: 1,
        ))
        for _ in range(3):
            proxy.tick()
        assert profiler._cells[("tick", "memo")].memo.hits == 2
        moderator.register_aspect(
            "tick", "memo",
            _aspect("memo", lambda jp: AspectResult.RESUME,
                    idempotent_precondition=True,
                    cache_key=lambda jp: 1),
            replace=True,
        )
        moderator.plan_for("tick")
        assert len(profiler._cells[("tick", "memo")].memo) == 0


# ----------------------------------------------------------------------
# surfacing
# ----------------------------------------------------------------------
class TestSurfacing:
    def _optimized(self):
        calls = {"expensive": 0, "cheap": 0}
        moderator, proxy, profiler = _rig(
            *_commuting_pair(calls),
            _aspect("memo", lambda jp: AspectResult.RESUME,
                    idempotent_precondition=True,
                    cache_key=lambda jp: 1),
            _aspect("obs", pure_observer=True),
        )
        for _ in range(20):
            with pytest.raises(MethodAborted):
                proxy.tick()
        profiler.refresh()
        return moderator, profiler

    def test_explain_carries_the_decisions(self):
        moderator, _profiler = self._optimized()
        profile = moderator.explain("tick")["profile"]
        assert profile["elided"] == ["obs"]
        assert profile["reordered"] is True
        assert profile["order"][0] == "cheap"

    def test_format_mentions_each_decision(self):
        moderator, _profiler = self._optimized()
        text = moderator.plan_for("tick").format()
        assert "reordered by profile" in text
        assert "elided: obs" in text
        assert f"revision={moderator.registration_version}" in text

    def test_plan_table_flags(self):
        moderator, _profiler = self._optimized()
        table = plan_table(moderator)
        assert "reordered by profile" in table
        assert "elided:obs" in table

    def test_report_rows_and_rendering(self):
        moderator, profiler = self._optimized()
        rows = profiler.report()
        concerns = {row["concern"] for row in rows}
        assert {"expensive", "cheap"} <= concerns
        assert "obs" not in concerns  # elided cells never evaluate
        text = profiler.render_report()
        assert "veto%" in text and "cheap" in text

"""Clause profiler: per-clause cost/veto telemetry that tunes the plan.

Until now the obs plane only *watched* the moderation seams. This module
closes the loop: a :class:`ClauseProfiler` installed on a moderator

1. **records** — every compiled plan's ``evaluate``/``postaction``
   callables are wrapped at *compile time* with thin instrumented
   shims writing into the striped :class:`~repro.obs.metrics
   .MetricsRegistry`: exact per-(method, concern) evaluation and
   veto counters (``repro_clause_eval_total`` /
   ``repro_clause_veto_total``) plus a *sampled* cost histogram
   (``repro_clause_cost_ns``, 1-in-``sample_rate`` clause calls pay the
   two clock reads), so an always-on profiler does not re-introduce the
   full-recording tax of an enabled span recorder;

2. **feeds back** — :meth:`refresh` folds those counters into a
   per-cell profile and bumps the moderator's plan version
   (``registration_version``), so every plan recompiles through the
   standard revision mechanism and the compile hook applies three
   optimizations:

   * **reordering** — maximal runs of adjacent cells that *mutually*
     declare commutativity (``Aspect.commutes_with``) are sorted
     cheapest-most-vetoing-first: ascending ``cost / veto_rate``, the
     classical optimal order for independent short-circuiting filters
     (swapping adjacent cells i, j helps exactly when
     ``c_i/v_i < c_j/v_j``);
   * **memoization** — cells declaring ``idempotent_precondition``
     with an aspect-supplied ``cache_key`` get an LRU+TTL memo of
     RESUME votes (the ouroboros pattern: strategy-owned cache keys,
     fail-open/fail-closed on key errors matching the cell's
     quarantine policy). Only RESUME is ever cached — BLOCK must
     re-poll the condition it waits on, ABORT may depend on per-call
     state;
   * **elision** — with ``skip_analysis``, cells whose aspect declares
     ``pure_observer`` (and ``never_blocks``) are dropped from the
     compiled plan entirely: the hot-path escape.

Every decision is surfaced: plans carry a ``profile`` report rendered
by ``explain()`` / ``plan_table`` ("reordered by profile", "memoized",
"elided"), the metric families export over Prometheus/JSON like any
other, and ``python -m repro profile`` prints the live table.

Stale-profile hygiene: a cell's statistics are *baselined* (the
registry's counters are monotonic, as Prometheus counters must be), and
the baseline is re-snapped whenever the cell's aspect instance changes
(``bank.swap``, ``register_aspect(replace=True)`` — detected at compile
time via a weak reference) or the cell is reinstated from quarantine —
so a quarantined-then-healed aspect is never permanently ordered by its
sick-era profile.
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.aspect import _coerce_result
from repro.core.results import AspectResult

from .metrics import MetricsRegistry

__all__ = ["CLAUSE_COST_BUCKETS", "ClauseProfiler", "MemoCache"]

#: Cost buckets in *nanoseconds*: 250 ns (an attribute probe) up to
#: 10 ms (a clause that should never be on a hot path). +Inf implicit.
CLAUSE_COST_BUCKETS: Tuple[float, ...] = (
    250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
    100_000, 250_000, 500_000, 1e6, 1e7,
)

#: sentinel for "no usable cache key this call" (bypass the memo)
_BYPASS = object()


class MemoCache:
    """Bounded LRU + TTL set of cache keys whose clause voted RESUME.

    Presence of a live key *is* the cached vote; there is no payload.
    ``get`` refreshes recency, expired entries drop lazily, inserts
    evict the least-recently-used key past ``capacity``.
    """

    __slots__ = ("capacity", "ttl", "_clock", "_lock", "_data",
                 "hits", "misses", "expirations")

    def __init__(self, capacity: int = 1024, ttl: float = 60.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.capacity = max(1, int(capacity))
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._data: "OrderedDict[Any, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.expirations = 0

    def get(self, key: Any) -> bool:
        with self._lock:
            expires = self._data.get(key)
            if expires is None:
                self.misses += 1
                return False
            if expires < self._clock():
                del self._data[key]
                self.expirations += 1
                self.misses += 1
                return False
            self._data.move_to_end(key)
            self.hits += 1
            return True

    def put(self, key: Any) -> None:
        with self._lock:
            self._data[key] = self._clock() + self.ttl
            self._data.move_to_end(key)
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class _CellState:
    """Per-(method, concern) profiler bookkeeping.

    Holds the cached metric handles (striped-registry writes through
    them are the wrappers' whole hot path), the memo cache, the weak
    reference identifying the profiled aspect instance (a different
    instance means the statistics describe someone else — re-baseline),
    and the monotonic-counter baselines that effective statistics are
    measured from.
    """

    __slots__ = (
        "method_id", "concern", "evals_pre", "evals_post", "veto_block",
        "veto_abort", "cost_pre", "cost_post", "memo_hit", "memo_miss",
        "memo_bypass", "memo", "aspect_ref", "baseline",
    )

    def __init__(self, profiler: "ClauseProfiler", method_id: str,
                 concern: str) -> None:
        self.method_id = method_id
        self.concern = concern
        self.evals_pre = profiler._evals.labels(
            method_id, concern, "precondition")
        self.evals_post = profiler._evals.labels(
            method_id, concern, "postaction")
        self.veto_block = profiler._vetoes.labels(method_id, concern,
                                                  "block")
        self.veto_abort = profiler._vetoes.labels(method_id, concern,
                                                  "abort")
        self.cost_pre = profiler._cost.labels(method_id, concern,
                                              "precondition")
        self.cost_post = profiler._cost.labels(method_id, concern,
                                               "postaction")
        self.memo_hit = profiler._memo.labels(method_id, concern, "hit")
        self.memo_miss = profiler._memo.labels(method_id, concern, "miss")
        self.memo_bypass = profiler._memo.labels(method_id, concern,
                                                 "bypass")
        self.memo: Optional[MemoCache] = None
        self.aspect_ref: Optional[Any] = None
        #: counter values at the last reset; effective = current - base
        self.baseline: Dict[str, float] = {}

    # -- effective (since-baseline) readings ---------------------------
    def effective(self) -> Dict[str, float]:
        base = self.baseline
        evals = self.evals_pre.value - base.get("evals", 0.0)
        vetoes = (
            self.veto_block.value + self.veto_abort.value
            - base.get("vetoes", 0.0)
        )
        cost = self.cost_pre.value
        cost_sum = cost.sum - base.get("cost_sum", 0.0)
        cost_count = cost.count - base.get("cost_count", 0.0)
        return {
            "evals": evals,
            "vetoes": vetoes,
            "veto_rate": (vetoes / evals) if evals else 0.0,
            "mean_cost_ns": (cost_sum / cost_count) if cost_count else 0.0,
            "cost_samples": cost_count,
        }

    def reset(self) -> None:
        """Re-baseline: effective statistics restart from zero."""
        cost = self.cost_pre.value
        self.baseline = {
            "evals": self.evals_pre.value,
            "vetoes": self.veto_block.value + self.veto_abort.value,
            "cost_sum": cost.sum,
            "cost_count": cost.count,
        }
        if self.memo is not None:
            self.memo.clear()


class _ProfiledPre:
    """Instrumented (and optionally memoized) precondition callable.

    Replaces ``PlanCell.evaluate`` at compile time, so the moderator's
    executors need no profiler branch at all: an uninstalled profiler
    costs the hot path nothing. The shim counts every evaluation and
    veto exactly, times 1-in-``rate`` calls into the cost histogram
    (the tick is racy under threads — a stride, not a guarantee; the
    histogram is a sample either way), and consults/feeds the memo
    cache when one is attached. The inner callable may be the aspect's
    bare ``precondition``, so its vote is coerced here first: counts,
    vetoes and memo entries see an :class:`AspectResult`.
    """

    __slots__ = ("inner", "state", "rate", "_tick", "memo", "key_fn",
                 "fail_closed")

    def __init__(self, inner: Callable[[Any], AspectResult],
                 state: _CellState, rate: int,
                 memo: Optional[MemoCache],
                 key_fn: Optional[Callable[[Any], Any]],
                 fail_closed: bool) -> None:
        self.inner = inner
        self.state = state
        self.rate = max(1, int(rate))
        self._tick = 0
        self.memo = memo
        self.key_fn = key_fn
        self.fail_closed = fail_closed

    def __call__(self, joinpoint: Any) -> AspectResult:
        state = self.state
        memo = self.memo
        key: Any = _BYPASS
        if memo is not None:
            try:
                key = self.key_fn(joinpoint)
            except Exception:
                if self.fail_closed:
                    # Matches the cell's quarantine policy: a guard that
                    # cannot compute its key must not be silently
                    # re-evaluated as if nothing happened — the error
                    # propagates as this cell's AspectFault.
                    raise
                key = _BYPASS
            if key is _BYPASS:
                state.memo_bypass.inc()
            elif memo.get(key):
                state.memo_hit.inc()
                state.evals_pre.inc()
                return AspectResult.RESUME
            else:
                state.memo_miss.inc()
        self._tick += 1
        if self._tick >= self.rate:
            self._tick = 0
            began = time.perf_counter_ns()
            result = self.inner(joinpoint)
            state.cost_pre.observe(time.perf_counter_ns() - began)
        else:
            result = self.inner(joinpoint)
        if result.__class__ is not AspectResult:
            result = _coerce_result(result)
        state.evals_pre.inc()
        if result is AspectResult.RESUME:
            if key is not _BYPASS:
                memo.put(key)
        elif result is AspectResult.BLOCK:
            state.veto_block.inc()
        else:
            state.veto_abort.inc()
        return result


class _ProfiledPost:
    """Instrumented postaction callable (count always, time sampled)."""

    __slots__ = ("inner", "state", "rate", "_tick")

    def __init__(self, inner: Callable[[Any], None], state: _CellState,
                 rate: int) -> None:
        self.inner = inner
        self.state = state
        self.rate = max(1, int(rate))
        self._tick = 0

    def __call__(self, joinpoint: Any) -> None:
        state = self.state
        self._tick += 1
        if self._tick >= self.rate:
            self._tick = 0
            began = time.perf_counter_ns()
            self.inner(joinpoint)
            state.cost_post.observe(time.perf_counter_ns() - began)
        else:
            self.inner(joinpoint)
        state.evals_post.inc()


class ClauseProfiler:
    """Always-on sampling clause profiler + feedback plan optimizer.

    Usage::

        profiler = ClauseProfiler(sample_rate=64).install(moderator)
        run_workload()
        profiler.refresh()      # fold counters -> profile, recompile
        print(profiler.render_report())

    Args:
        sample_rate: 1-in-N clause calls pay the cost-histogram clock
            reads (counters are always exact). 1 times everything.
        reorder: sort mutually-commuting runs cheapest-most-vetoing
            first at compile time (needs ``refresh()``ed profile data).
        memoize: attach LRU+TTL memo caches (1024 keys, 60 s, one per
            cell) to cells declaring ``idempotent_precondition`` +
            ``cache_key``.
        skip_analysis: elide ``pure_observer`` cells from compiled
            plans entirely (the ouroboros hot-path escape).
        min_samples: evaluations a cell needs (since its baseline)
            before reordering trusts its statistics; colder cells keep
            their seed position.
    """

    def __init__(self, moderator: Optional[Any] = None,
                 registry: Optional[MetricsRegistry] = None,
                 sample_rate: int = 64,
                 reorder: bool = True,
                 memoize: bool = True,
                 skip_analysis: bool = True,
                 min_samples: int = 20) -> None:
        self.moderator = None
        self.sample_rate = max(1, int(sample_rate))
        self.reorder = reorder
        self.memoize = memoize
        self.skip_analysis = skip_analysis
        self.min_samples = max(1, int(min_samples))
        self._registry = registry
        self._lock = threading.Lock()
        self._cells: Dict[Tuple[str, str], _CellState] = {}
        #: profile snapshot consulted by the compile hook; refreshed
        #: explicitly (refresh()) so plan decisions are reproducible
        #: between refreshes rather than drifting with live counters
        self._snapshot: Dict[Tuple[str, str], Dict[str, float]] = {}
        self.refreshes = 0
        if registry is not None:
            self._bind_families(registry)
        if moderator is not None:
            self.install(moderator)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _bind_families(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._evals = registry.counter(
            "repro_clause_eval_total",
            help="Clause evaluations by (method, concern, clause)",
            labelnames=("method", "concern", "clause"),
        )
        self._vetoes = registry.counter(
            "repro_clause_veto_total",
            help="Precondition vetoes by (method, concern, outcome)",
            labelnames=("method", "concern", "outcome"),
        )
        self._cost = registry.histogram(
            "repro_clause_cost_ns",
            help="Sampled clause cost in nanoseconds "
                 "by (method, concern, clause)",
            labelnames=("method", "concern", "clause"),
            buckets=CLAUSE_COST_BUCKETS,
        )
        self._memo = registry.counter(
            "repro_clause_memo_total",
            help="Memoized-precondition lookups "
                 "by (method, concern, result)",
            labelnames=("method", "concern", "result"),
        )

    def install(self, moderator: Any) -> "ClauseProfiler":
        """Attach to ``moderator``; all its future plans are profiled.

        Uses the moderator's own stats registry unless one was passed
        explicitly, so the clause families export alongside the
        protocol counters. Assigning ``moderator.profiler`` bumps the
        plan version — every cached plan recompiles instrumented.
        """
        if self._registry is None:
            self._bind_families(moderator.stats.registry)
        self.moderator = moderator
        moderator.profiler = self
        return self

    def uninstall(self) -> None:
        """Detach; the next recompile strips every wrapper and memo."""
        moderator, self.moderator = self.moderator, None
        if moderator is not None and moderator.profiler is self:
            moderator.profiler = None

    # ------------------------------------------------------------------
    # per-cell state
    # ------------------------------------------------------------------
    def _state_for(self, method_id: str, concern: str) -> _CellState:
        key = (method_id, concern)
        state = self._cells.get(key)
        if state is None:
            with self._lock:
                state = self._cells.setdefault(
                    key, _CellState(self, method_id, concern)
                )
        return state

    def reset_cell(self, method_id: str, concern: str) -> None:
        """Forget a cell's profile (baseline reset + memo drop).

        Called by the moderator on ``reinstate_aspect`` and by the
        compile hook when it detects the cell's aspect instance changed
        (``bank.swap`` / ``replace=True``): statistics gathered against
        the old instance — or the quarantined era — must not order the
        healed composition.
        """
        state = self._cells.get((method_id, concern))
        if state is not None:
            state.reset()
            self._snapshot.pop((method_id, concern), None)

    def profile_of(self, method_id: str,
                   concern: str) -> Optional[Dict[str, float]]:
        """Effective (since-baseline) statistics for one cell, live."""
        state = self._cells.get((method_id, concern))
        return state.effective() if state is not None else None

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def refresh(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Fold live counters into the decision snapshot and recompile.

        The snapshot — not the live registry — is what the compile hook
        orders by, so every plan compiled between two refreshes sees
        one consistent profile. Bumps the moderator's plan version, so
        cached plans recompile on their next activation.
        """
        with self._lock:
            self._snapshot = {
                key: state.effective()
                for key, state in self._cells.items()
            }
            self.refreshes += 1
        if self.moderator is not None:
            self.moderator.bump_profile_epoch()
        return dict(self._snapshot)

    # ------------------------------------------------------------------
    # compile hook (called by AspectModerator._compile_plan)
    # ------------------------------------------------------------------
    def plan_pairs(
        self, method_id: str, pairs: List[Tuple[str, Any]],
    ) -> Tuple[List[Tuple[str, Any]], Dict[str, Any]]:
        """Apply elision and reordering; report every decision.

        Runs *after* the moderator's ordering policy — the policy states
        intent ("guards first"), the profiler optimizes within what the
        declarations say is semantically free. Also the seam where
        swapped aspect instances are detected and their cells
        re-baselined (stale-profile hygiene).
        """
        decisions: Dict[str, Any] = {
            "elided": [], "memoized": [], "reordered": False,
            "order": None, "epoch": self.refreshes,
        }
        for concern, aspect in pairs:
            state = self._state_for(method_id, concern)
            previous = state.aspect_ref
            if previous is not None and previous() is not aspect:
                state.reset()
                self._snapshot.pop((method_id, concern), None)
            if previous is None or previous() is not aspect:
                try:
                    state.aspect_ref = weakref.ref(aspect)
                except TypeError:  # un-weakref-able aspect: best effort
                    state.aspect_ref = lambda bound=aspect: bound
        if self.skip_analysis:
            kept = []
            for concern, aspect in pairs:
                if getattr(aspect, "pure_observer", False) and \
                        aspect.never_blocks:
                    decisions["elided"].append(concern)
                else:
                    kept.append((concern, aspect))
            pairs = kept
        if self.reorder and len(pairs) > 1:
            reordered = self._reorder(method_id, pairs)
            if [c for c, _ in reordered] != [c for c, _ in pairs]:
                decisions["reordered"] = True
            pairs = reordered
        decisions["order"] = [concern for concern, _ in pairs]
        return pairs, decisions

    @staticmethod
    def _mutual(first: Tuple[str, Any], second: Tuple[str, Any]) -> bool:
        """Do these two cells *mutually* declare commutativity?"""

        def declares(aspect: Any, other: str) -> bool:
            commutes = getattr(aspect, "commutes_with", ())
            if commutes == "*":
                return True
            return "*" in commutes or other in commutes

        return declares(first[1], second[0]) and \
            declares(second[1], first[0])

    def _score(self, method_id: str, concern: str) -> float:
        """Expected-cost score: ascending = cheapest-most-vetoing first.

        ``cost / veto_rate`` per the adjacent-exchange argument; a tiny
        epsilon keeps never-vetoing cells comparable among themselves
        (cheapest first — harmless, since all of them run anyway).
        Cells without enough samples score +inf and keep seed order.
        """
        stats = self._snapshot.get((method_id, concern))
        if stats is None or stats["evals"] < self.min_samples or \
                not stats["cost_samples"]:
            return math.inf
        return stats["mean_cost_ns"] / (stats["veto_rate"] + 1e-3)

    def _reorder(self, method_id: str,
                 pairs: List[Tuple[str, Any]]) -> List[Tuple[str, Any]]:
        """Sort each maximal mutually-commuting run by score (stable)."""
        result: List[Tuple[str, Any]] = []
        run: List[Tuple[str, Any]] = []

        def flush() -> None:
            if len(run) > 1:
                run.sort(
                    key=lambda pair: self._score(method_id, pair[0])
                )
            result.extend(run)
            run.clear()

        for pair in pairs:
            if run and not all(self._mutual(pair, member)
                               for member in run):
                flush()
            run.append(pair)
        flush()
        return result

    def instrument(self, plan: Any) -> None:
        """Wrap a freshly compiled plan's cells with profiled shims.

        Called by the moderator before the plan is published; cells
        eligible for memoization (declared idempotent, key supplied,
        ``memoize`` on) get their memo cache attached here and are
        recorded in the plan's profile report.
        """
        from repro.core.health import FAIL_CLOSED

        profile = plan.profile
        for cell in plan.cells:
            state = self._state_for(plan.method_id, cell.concern)
            memo = None
            key_fn = None
            fail_closed = False
            aspect = cell.aspect
            if self.memoize and \
                    getattr(aspect, "idempotent_precondition", False):
                key_fn = getattr(aspect, "cache_key", None)
                if key_fn is not None:
                    if state.memo is None:
                        state.memo = MemoCache()
                    memo = state.memo
                    fail_closed = cell.policy == FAIL_CLOSED
                    if profile is not None and \
                            cell.concern not in profile["memoized"]:
                        profile["memoized"].append(cell.concern)
            cell.evaluate = _ProfiledPre(
                cell.evaluate, state, self.sample_rate, memo, key_fn,
                fail_closed,
            )
            # A cell bound to no postaction (the base no-op) is profiled
            # around the aspect's own no-op, so it still counts.
            cell.postaction = _ProfiledPost(
                cell.postaction or aspect.postaction, state,
                self.sample_rate,
            )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> List[Dict[str, Any]]:
        """Per-cell effective statistics, most expensive first."""
        rows = []
        for (method_id, concern), state in sorted(self._cells.items()):
            stats = state.effective()
            if not stats["evals"] and not stats["cost_samples"]:
                continue
            cost = state.cost_pre.value
            memo = state.memo
            rows.append({
                "method": method_id,
                "concern": concern,
                "evals": int(stats["evals"]),
                "vetoes": int(stats["vetoes"]),
                "veto_rate": stats["veto_rate"],
                "mean_cost_ns": stats["mean_cost_ns"],
                "p95_cost_ns": cost.quantile(0.95) if cost.count else 0.0,
                "memo_hits": memo.hits if memo is not None else 0,
                "memo_size": len(memo) if memo is not None else 0,
            })
        rows.sort(key=lambda row: row["mean_cost_ns"] * row["evals"],
                  reverse=True)
        return rows

    def render_report(self) -> str:
        """The profile table, fixed-width (the CLI's ``profile`` view)."""
        rows = self.report()
        if not rows:
            return "(no profiled clause evaluations yet)"
        header = (
            f"{'method':<14}{'concern':<16}{'evals':>8}{'veto%':>8}"
            f"{'mean':>10}{'p95':>10}{'memo hits':>11}"
        )
        lines = [header]
        for row in rows:
            lines.append(
                f"{row['method']:<14}{row['concern']:<16}"
                f"{row['evals']:>8}{row['veto_rate'] * 100:>7.1f}%"
                f"{row['mean_cost_ns']:>8.0f}ns"
                f"{row['p95_cost_ns']:>8.0f}ns"
                f"{row['memo_hits']:>11}"
            )
        return "\n".join(lines)

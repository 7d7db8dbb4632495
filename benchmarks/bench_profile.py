"""B-PROFILE bench: what profile feedback buys — and what it costs off.

The clause profiler's contract (ISSUE 9):

* **speedup** — on a veto-heavy commutative stack seeded in the worst
  order (expensive always-RESUME clause first, cheap frequent vetoer
  last), one ``refresh()`` must make the composition at least **1.3x**
  faster: the reordered plan evaluates the cheap vetoer first and
  short-circuits the expensive clause on every veto.
* **disabled overhead** — a :class:`ClauseProfiler` that is merely
  constructed (never installed) must cost **<= 2%** on the Figure-3
  fast path: all instrumentation happens at plan-compile time, so an
  uninstalled profiler leaves the hot path untouched.

The *installed* cost (eval counters always, 1-in-64 sampled timing) is
reported for EXPERIMENTS.md B-PROFILE but not bounded.

``python benchmarks/bench_profile.py [--smoke]`` writes
``.bench/BENCH_PROFILE.json`` (see ``harness.run``); pytest asserts the
bounds.
"""

from __future__ import annotations

import contextlib
import itertools

from repro.core import (
    AspectModerator,
    ComponentProxy,
    FunctionAspect,
    MethodAborted,
    NullAspect,
)
from repro.core.results import AspectResult
from repro.obs import ClauseProfiler

import harness

SPEEDUP_BOUND = 1.3   # reordered stack must beat the seed by this much
OVERHEAD_BOUND = 0.02  # uninstalled-profiler fast-path bound (2%)


class Ledger:
    def __init__(self):
        self.accepted = 0

    def post(self, value=0):
        self.accepted += 1
        return self.accepted

    def service(self, value=1):
        return value + 1


def _expensive_pass(joinpoint):
    total = 0
    for index in range(2_000):  # a deliberately costly pure check
        total += index
    return AspectResult.RESUME


def _cheap_veto(joinpoint):
    # vetoes two calls in three: the clause a profiled plan should
    # learn to evaluate first
    if joinpoint.args[0] % 3:
        return AspectResult.ABORT
    return AspectResult.RESUME


def build_veto_stack():
    """Worst-case seed order: expensive RESUME first, cheap veto last.

    The pair is mutually commutative, so the profiler is licensed to
    swap it once the cost/veto asymmetry shows up in the samples.
    """
    moderator = AspectModerator()
    moderator.register_aspect("post", "deep", FunctionAspect(
        concern="deep", precondition=_expensive_pass,
        never_blocks=True, commutes_with=("gate",),
    ))
    moderator.register_aspect("post", "gate", FunctionAspect(
        concern="gate", precondition=_cheap_veto,
        never_blocks=True, commutes_with=("deep",),
    ))
    profiler = ClauseProfiler(sample_rate=1, min_samples=20)
    profiler.install(moderator)
    proxy = ComponentProxy(Ledger(), moderator=moderator)
    return moderator, profiler, proxy


def veto_workload(proxy):
    """One call of the modular veto workload per invocation: values
    count up, so two calls in three are vetoed."""
    values = itertools.count()

    def post():
        try:
            proxy.post(next(values))
        except MethodAborted:
            pass

    return post


def measure_speedup(calls=300, rounds=40):
    """Seed-order vs refreshed-order plan, paired rounds.

    Two identical compositions warm up on the same workload; only one
    refreshes its profile. The within-round ratio seed/optimized is the
    speedup the feedback bought, so the optimized plan is the control.
    ``calls`` is a multiple of three, so every chunk sees the same veto
    mix.
    """
    _seed_mod, _seed_prof, seed_proxy = build_veto_stack()
    tuned_mod, tuned_prof, tuned_proxy = build_veto_stack()
    seed = veto_workload(seed_proxy)
    tuned = veto_workload(tuned_proxy)

    # identical warm-up feeds both profiles; only one acts on it
    harness.mean_call_ns(seed, calls)
    harness.mean_call_ns(tuned, calls)
    tuned_prof.refresh()
    order = [cell.concern for cell in tuned_mod.plan_for("post").cells]
    assert order == ["gate", "deep"], order

    workloads = {"optimized": tuned, "seed": seed}
    results = harness.paired_rounds(
        lambda facts: contextlib.nullcontext(workloads), "optimized",
        "seed", rounds=rounds, iterations=calls,
    )
    return {**results, "order_after_refresh": order}


def build_fast_path(profiler=None):
    moderator = AspectModerator()
    moderator.register_aspect("service", "null", NullAspect())
    if profiler is not None:
        profiler.install(moderator)
    proxy = ComponentProxy(Ledger(), moderator=moderator)
    return moderator, proxy


def measure_overhead(iterations=5_000, rounds=60):
    """Uninstalled profiler (bounded) and installed profiler
    (informational) against the bare Figure-3 fast path."""
    _base_mod, base_proxy = build_fast_path()
    # constructed but never installed: the feature at rest
    _idle_profiler = ClauseProfiler()
    _idle_mod, idle_proxy = build_fast_path()
    installed_mod, installed_proxy = build_fast_path(
        profiler=ClauseProfiler()  # default 1-in-64 sampled timing
    )
    calls = {
        "baseline": lambda: base_proxy.service(),
        "uninstalled": lambda: idle_proxy.service(),
        "installed": lambda: installed_proxy.service(),
    }
    return harness.paired_rounds(
        lambda facts: contextlib.nullcontext(calls), "baseline",
        "uninstalled", extras=("installed",), rounds=rounds,
        iterations=iterations,
        extra_iterations=max(iterations // 5, 200),
        warm_iterations=max(iterations // 10, 100),
    )


def check_speedup(speedup):
    ratio = speedup["ratio"]["seed"]
    return ([f"speedup {ratio:.2f}x below {SPEEDUP_BOUND}x bound"]
            if ratio < SPEEDUP_BOUND else [])


def check_overhead(overhead):
    return harness.overhead_failures(overhead,
                                     {"uninstalled": OVERHEAD_BOUND})


def measure_all(smoke):
    if smoke:
        return {"speedup": measure_speedup(calls=150, rounds=20),
                "overhead": measure_overhead(iterations=2_000, rounds=40)}
    return {"speedup": measure_speedup(), "overhead": measure_overhead()}


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_reordered_stack_meets_speedup_bound():
    assert not check_speedup(measure_speedup(calls=150, rounds=20))


def test_uninstalled_profiler_within_bound():
    assert not check_overhead(measure_overhead(iterations=2_000, rounds=40))


def main(argv=None):
    return harness.run(argv, __doc__, "BENCH_PROFILE.json", measure_all,
                       {"speedup": check_speedup, "overhead": check_overhead},
                       {"speedup": SPEEDUP_BOUND,
                        "disabled_overhead": OVERHEAD_BOUND})


if __name__ == "__main__":
    import sys

    sys.exit(main())

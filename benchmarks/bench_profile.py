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

Both comparisons run as paired rounds, alternating which side goes
first, with the median of within-round ratios — the same drift-immune
protocol as ``bench_obs_overhead.py``.

Run styles::

    pytest benchmarks/bench_profile.py                  # asserts bounds
    python benchmarks/bench_profile.py                  # full table
    python benchmarks/bench_profile.py --smoke          # CI: quick
                                                        # + BENCH_PROFILE.json
"""

from __future__ import annotations

import json
import statistics
import time

from repro.core import (
    AspectModerator,
    ComponentProxy,
    FunctionAspect,
    MethodAborted,
    NullAspect,
)
from repro.core.results import AspectResult
from repro.obs import ClauseProfiler

from harness import mean_call_ns

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


def _round_ns(proxy, calls):
    """ns/call over one chunk of the modular veto workload."""
    started = time.perf_counter_ns()
    for value in range(calls):
        try:
            proxy.post(value)
        except MethodAborted:
            pass
    return (time.perf_counter_ns() - started) / calls


def measure_speedup(calls=300, rounds=40):
    """Seed-order vs refreshed-order plan, paired rounds.

    Two identical compositions warm up on the same workload; only one
    refreshes its profile. The within-round ratio seed/optimized is the
    speedup the feedback bought.
    """
    _seed_mod, _seed_prof, seed_proxy = build_veto_stack()
    tuned_mod, tuned_prof, tuned_proxy = build_veto_stack()

    # identical warm-up feeds both profiles; only one acts on it
    _round_ns(seed_proxy, calls)
    _round_ns(tuned_proxy, calls)
    tuned_prof.refresh()
    order = [cell.concern for cell in tuned_mod.plan_for("post").cells]
    assert order == ["gate", "deep"], order

    ratios = []
    samples = {"seed": [], "optimized": []}
    for round_index in range(rounds):
        if round_index % 2 == 0:
            seed_ns = _round_ns(seed_proxy, calls)
            tuned_ns = _round_ns(tuned_proxy, calls)
        else:
            tuned_ns = _round_ns(tuned_proxy, calls)
            seed_ns = _round_ns(seed_proxy, calls)
        samples["seed"].append(seed_ns)
        samples["optimized"].append(tuned_ns)
        ratios.append(seed_ns / tuned_ns)

    return {
        "calls": calls,
        "rounds": rounds,
        "ns_per_call": {
            name: min(values) for name, values in samples.items()
        },
        "speedup": statistics.median(ratios),
        "order_after_refresh": order,
    }


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

    base_call = lambda: base_proxy.service()          # noqa: E731
    idle_call = lambda: idle_proxy.service()          # noqa: E731
    installed_call = lambda: installed_proxy.service()  # noqa: E731

    for call in (base_call, idle_call, installed_call):
        mean_call_ns(call, max(iterations // 10, 100))

    idle_ratios = []
    installed_ratios = []
    for round_index in range(rounds):
        if round_index % 2 == 0:
            base_ns = mean_call_ns(base_call, iterations)
            idle_ns = mean_call_ns(idle_call, iterations)
        else:
            idle_ns = mean_call_ns(idle_call, iterations)
            base_ns = mean_call_ns(base_call, iterations)
        installed_ns = mean_call_ns(installed_call,
                                max(iterations // 5, 200))
        idle_ratios.append(idle_ns / base_ns)
        installed_ratios.append(installed_ns / base_ns)

    return {
        "iterations": iterations,
        "rounds": rounds,
        "disabled_overhead": statistics.median(idle_ratios) - 1.0,
        "installed_overhead":
            statistics.median(installed_ratios) - 1.0,
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_reordered_stack_meets_speedup_bound():
    results = measure_speedup(calls=150, rounds=20)
    assert results["speedup"] >= SPEEDUP_BOUND, (
        f"profile feedback bought only {results['speedup']:.2f}x "
        f"(bound {SPEEDUP_BOUND}x): {results['ns_per_call']}"
    )


def test_uninstalled_profiler_within_bound():
    results = measure_overhead(iterations=2_000, rounds=40)
    assert results["disabled_overhead"] <= OVERHEAD_BOUND, (
        f"uninstalled profiler costs "
        f"{results['disabled_overhead'] * 100:.2f}% "
        f"(bound {OVERHEAD_BOUND * 100:.0f}%)"
    )


# ----------------------------------------------------------------------
# script mode
# ----------------------------------------------------------------------
def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (fewer rounds), still asserts both bounds",
    )
    parser.add_argument(
        "--json", default="BENCH_PROFILE.json",
        help="output path for the measured table "
             "(default BENCH_PROFILE.json)",
    )
    arguments = parser.parse_args(argv)

    if arguments.smoke:
        speedup = measure_speedup(calls=150, rounds=20)
        overhead = measure_overhead(iterations=2_000, rounds=40)
    else:
        speedup = measure_speedup()
        overhead = measure_overhead()

    print("B-PROFILE: clause-profiler feedback "
          "(veto-heavy commutative stack, worst-order seed)")
    print(f"{'plan':<12}{'ns/call':>12}")
    for name in ("seed", "optimized"):
        print(f"{name:<12}{speedup['ns_per_call'][name]:>12.0f}")
    print(f"speedup: {speedup['speedup']:.2f}x "
          f"(bound >= {SPEEDUP_BOUND}x), order after refresh: "
          f"{' -> '.join(speedup['order_after_refresh'])}")
    print(f"fast-path overhead: uninstalled "
          f"{overhead['disabled_overhead'] * 100:+.2f}% "
          f"(bound <= {OVERHEAD_BOUND * 100:.0f}%), installed "
          f"{overhead['installed_overhead'] * 100:+.2f}% "
          f"(informational)")

    document = {
        "speedup": speedup,
        "overhead": overhead,
        "bounds": {"speedup": SPEEDUP_BOUND,
                   "disabled_overhead": OVERHEAD_BOUND},
    }
    with open(arguments.json, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    print(f"wrote {arguments.json}")

    failed = []
    if speedup["speedup"] < SPEEDUP_BOUND:
        failed.append(
            f"speedup {speedup['speedup']:.2f}x below "
            f"{SPEEDUP_BOUND}x bound"
        )
    if overhead["disabled_overhead"] > OVERHEAD_BOUND:
        failed.append(
            f"uninstalled profiler overhead "
            f"{overhead['disabled_overhead'] * 100:.2f}% exceeds "
            f"{OVERHEAD_BOUND * 100:.0f}% bound"
        )
    for message in failed:
        print(f"FAIL: {message}")
    return 1 if failed else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())

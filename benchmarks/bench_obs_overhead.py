"""B-OBS bench: what the observability plane costs when off — and on.

The plane's contract: with no listeners subscribed, the Figure-3
full-RESUME fast path must stay allocation-free — the timing hooks gate
every clock read on ``events.has_listeners``, so a disabled plane may
add at most noise (bound: <= 2% mean latency). This bench measures four
configurations over the same moderated call:

* **baseline** — no plane object at all;
* **disabled** — an ``ObservabilityPlane`` constructed but not enabled
  (the acceptance bound applies here);
* **enabled**  — metrics fold + span recorder subscribed (the price of
  full recording, reported for EXPERIMENTS.md B-OBS, not bounded);
* **enabled_sampled** — the same plane at ``sample_rate=16``: the bus
  samples one activation in sixteen at preactivation, and only those
  build events and span trees; exact counters and metrics are folded
  for every activation. Bounded relative to **enabled**: its overhead
  must stay at most half of full recording's.

Baseline and disabled rounds are interleaved so clock drift and thermal
effects cancel instead of biasing one side.

It also proves the stats are lock-free across threads:
``ModerationStats.bump`` used to serialize every fast-path call on one
global lock; on the striped registry each writer thread gets a private
stripe, asserted here by driving N threads and counting stripes.

Run styles::

    pytest benchmarks/bench_obs_overhead.py --benchmark-only   # archival
    python benchmarks/bench_obs_overhead.py                    # full table
    python benchmarks/bench_obs_overhead.py --smoke            # CI: quick
                                                               # + BENCH_OBS.json
"""

from __future__ import annotations

import json
import statistics
import threading

from repro.core import AspectModerator, ComponentProxy, NullAspect
from repro.obs import ObservabilityPlane

from harness import mean_call_ns

OVERHEAD_BOUND = 0.02  # disabled-plane mean-latency bound (2%)
#: sampled-plane bound: its overhead at most this share of full recording's
SAMPLED_SHARE_BOUND = 0.5


class Component:
    def service(self, value=1):
        return value + 1


def build_fast_path():
    """A never-blocking single-aspect composition: the Figure-3
    full-RESUME fast path (no lock domain waits)."""
    moderator = AspectModerator()
    moderator.register_aspect("service", "null", NullAspect())
    proxy = ComponentProxy(moderator=moderator, component=Component())
    return moderator, proxy


def measure(iterations=5_000, rounds=80):
    """Interleaved measurement of baseline/disabled/enabled.

    Returns per-configuration median-of-rounds ns/call plus the
    disabled-vs-baseline overhead ratio.
    """
    base_moderator, base_proxy = build_fast_path()
    disabled_moderator, disabled_proxy = build_fast_path()
    disabled_plane = ObservabilityPlane(disabled_moderator)
    assert not disabled_plane.enabled
    enabled_moderator, enabled_proxy = build_fast_path()
    enabled_plane = ObservabilityPlane(enabled_moderator)
    enabled_plane.enable()
    sampled_moderator, sampled_proxy = build_fast_path()
    sampled_plane = ObservabilityPlane(sampled_moderator, sample_rate=16)
    sampled_plane.enable()

    base_call = lambda: base_proxy.service()        # noqa: E731
    disabled_call = lambda: disabled_proxy.service()  # noqa: E731
    enabled_call = lambda: enabled_proxy.service()  # noqa: E731
    sampled_call = lambda: sampled_proxy.service()  # noqa: E731

    # warm-up compiles the plans and primes caches in every mode
    for call in (base_call, disabled_call, enabled_call, sampled_call):
        mean_call_ns(call, max(iterations // 10, 100))

    # Paired rounds: each round times baseline and disabled (and
    # enabled) back to back, alternating which goes first, and records
    # the within-round ratio. Drift, frequency scaling and scheduler
    # noise hit both members of a pair almost equally, so the median of
    # ratios isolates the code-path difference far better than any
    # statistic over unpaired absolute timings.
    samples = {"baseline": [], "disabled": [], "enabled": [],
               "enabled_sampled": []}
    disabled_ratios = []
    enabled_ratios = []
    sampled_ratios = []
    # span recording costs several times the bare call: a shorter
    # enabled chunk keeps total wall time spent on the unbounded
    # configuration from starving the paired comparison of rounds
    enabled_iterations = max(iterations // 5, 200)
    for round_index in range(rounds):
        if round_index % 2 == 0:
            base_ns = mean_call_ns(base_call, iterations)
            disabled_ns = mean_call_ns(disabled_call, iterations)
        else:
            disabled_ns = mean_call_ns(disabled_call, iterations)
            base_ns = mean_call_ns(base_call, iterations)
        enabled_ns = mean_call_ns(enabled_call, enabled_iterations)
        sampled_ns = mean_call_ns(sampled_call, enabled_iterations)
        samples["baseline"].append(base_ns)
        samples["disabled"].append(disabled_ns)
        samples["enabled"].append(enabled_ns)
        samples["enabled_sampled"].append(sampled_ns)
        disabled_ratios.append(disabled_ns / base_ns)
        enabled_ratios.append(enabled_ns / base_ns)
        sampled_ratios.append(sampled_ns / base_ns)

    best = {name: min(values) for name, values in samples.items()}
    overhead = statistics.median(disabled_ratios) - 1.0
    enabled_plane.disable()
    sampled_plane.disable()
    recorder = sampled_plane.recorder
    sampled_counts = sum(
        entry["activations"] for entry in recorder.counts.values()
    )
    return {
        "iterations": iterations,
        "rounds": rounds,
        "ns_per_call": best,
        "disabled_overhead": overhead,
        "enabled_overhead": statistics.median(enabled_ratios) - 1.0,
        "enabled_sampled_overhead":
            statistics.median(sampled_ratios) - 1.0,
        "spans_recorded": len(enabled_plane.recorder.finished)
        + enabled_plane.recorder.dropped,
        "sampled": {
            "sample_rate": recorder.sample_rate,
            "exact_activations": sampled_counts,
            "span_trees": len(recorder.finished) + recorder.dropped,
        },
    }


def measure_striping(threads=4, calls_per_thread=2_000):
    """Fast-path stat bumps from N threads must land on N stripes."""
    moderator, proxy = build_fast_path()
    registry = moderator.stats.registry
    stripes_before = registry.stripe_count
    barrier = threading.Barrier(threads)

    def worker():
        barrier.wait()
        for _ in range(calls_per_thread):
            proxy.service()

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    return {
        "threads": threads,
        "new_stripes": registry.stripe_count - stripes_before,
        "fastpaths": moderator.stats.fastpaths,
        "expected_fastpaths": threads * calls_per_thread,
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_disabled_plane_within_bound():
    results = measure(iterations=2_000, rounds=60)
    assert results["disabled_overhead"] <= OVERHEAD_BOUND, (
        f"disabled plane costs "
        f"{results['disabled_overhead'] * 100:.2f}% "
        f"(bound {OVERHEAD_BOUND * 100:.0f}%): {results['ns_per_call']}"
    )


def test_fast_path_takes_no_shared_lock():
    results = measure_striping(threads=4, calls_per_thread=500)
    assert results["new_stripes"] >= results["threads"]
    assert results["fastpaths"] == results["expected_fastpaths"]


def test_bench_plane_disabled(benchmark):
    moderator, proxy = build_fast_path()
    plane = ObservabilityPlane(moderator)
    assert not plane.enabled
    result = benchmark(lambda: proxy.service())
    assert result == 2
    assert moderator.stats.fastpaths > 0


def test_bench_plane_enabled(benchmark):
    moderator, proxy = build_fast_path()
    plane = ObservabilityPlane(moderator)
    with plane:
        result = benchmark(lambda: proxy.service())
    assert result == 2
    assert plane.recorder.finished or plane.recorder.dropped


# ----------------------------------------------------------------------
# script mode
# ----------------------------------------------------------------------
def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (fewer iterations), still asserts the bound",
    )
    parser.add_argument(
        "--json", default="BENCH_OBS.json",
        help="output path for the measured table (default BENCH_OBS.json)",
    )
    arguments = parser.parse_args(argv)

    if arguments.smoke:
        results = measure(iterations=2_000, rounds=60)
        striping = measure_striping(threads=4, calls_per_thread=500)
    else:
        results = measure()
        striping = measure_striping()

    print("B-OBS: observability-plane overhead "
          "(Figure-3 full-RESUME fast path)")
    print(f"{'configuration':<16}{'ns/call':>12}{'overhead':>12}")
    overhead_pct = {
        "baseline": 0.0,
        "disabled": results["disabled_overhead"] * 100.0,
        "enabled": results["enabled_overhead"] * 100.0,
        "enabled_sampled":
            results["enabled_sampled_overhead"] * 100.0,
    }
    for name in ("baseline", "disabled", "enabled", "enabled_sampled"):
        ns = results["ns_per_call"][name]
        print(f"{name:<16}{ns:>12.0f}{overhead_pct[name]:>11.1f}%")
    sampled = results["sampled"]
    print(f"sampled recorder (1-in-{sampled['sample_rate']}): "
          f"{sampled['exact_activations']} activations counted "
          f"exactly, {sampled['span_trees']} span trees built")
    print(f"striping: {striping['new_stripes']} new stripes for "
          f"{striping['threads']} writer threads "
          f"({striping['fastpaths']} fast-path calls, all counted)")

    document = {"overhead": results, "striping": striping,
                "bound": OVERHEAD_BOUND,
                "sampled_share_bound": SAMPLED_SHARE_BOUND}
    with open(arguments.json, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    print(f"wrote {arguments.json}")

    failed = []
    if results["disabled_overhead"] > OVERHEAD_BOUND:
        failed.append(
            f"disabled overhead {results['disabled_overhead'] * 100:.2f}%"
            f" exceeds {OVERHEAD_BOUND * 100:.0f}% bound"
        )
    sampled_bound = SAMPLED_SHARE_BOUND * results["enabled_overhead"]
    if results["enabled_sampled_overhead"] > sampled_bound:
        failed.append(
            f"sampled overhead "
            f"{results['enabled_sampled_overhead'] * 100:.0f}% exceeds "
            f"{SAMPLED_SHARE_BOUND:.0%} of full recording's "
            f"{results['enabled_overhead'] * 100:.0f}%"
        )
    if striping["new_stripes"] < striping["threads"]:
        failed.append("fast path still shares a stat lock across threads")
    if striping["fastpaths"] != striping["expected_fastpaths"]:
        failed.append("striped counters lost increments")
    for message in failed:
        print(f"FAIL: {message}")
    return 1 if failed else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())

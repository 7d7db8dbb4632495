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

It also proves the stats are lock-free across threads:
``ModerationStats.bump`` used to serialize every fast-path call on one
global lock; on the striped registry each writer thread gets a private
stripe, asserted here by driving N threads and counting stripes.

``python benchmarks/bench_obs_overhead.py [--smoke]`` writes
``.bench/BENCH_OBS.json`` (see ``harness.run``); ``pytest
--benchmark-only`` archives the two single-configuration timings.
"""

from __future__ import annotations

import contextlib
import threading

from repro.core import AspectModerator, ComponentProxy, NullAspect
from repro.obs import ObservabilityPlane

import harness

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


@contextlib.contextmanager
def planes(facts):
    """The four configurations; on exit, the sampled plane's counts."""
    _base_moderator, base_proxy = build_fast_path()
    disabled_moderator, disabled_proxy = build_fast_path()
    disabled_plane = ObservabilityPlane(disabled_moderator)
    assert not disabled_plane.enabled
    enabled_moderator, enabled_proxy = build_fast_path()
    enabled_plane = ObservabilityPlane(enabled_moderator)
    enabled_plane.enable()
    sampled_moderator, sampled_proxy = build_fast_path()
    sampled_plane = ObservabilityPlane(sampled_moderator, sample_rate=16)
    sampled_plane.enable()
    yield {
        "baseline": lambda: base_proxy.service(),
        "disabled": lambda: disabled_proxy.service(),
        "enabled": lambda: enabled_proxy.service(),
        "enabled_sampled": lambda: sampled_proxy.service(),
    }
    enabled_plane.disable()
    sampled_plane.disable()
    recorder = sampled_plane.recorder
    facts["spans_recorded"] = (len(enabled_plane.recorder.finished)
                               + enabled_plane.recorder.dropped)
    facts["sampled"] = {
        "sample_rate": recorder.sample_rate,
        "exact_activations": sum(
            entry["activations"] for entry in recorder.counts.values()),
        "span_trees": len(recorder.finished) + recorder.dropped,
    }


def measure(iterations=5_000, rounds=80):
    """Paired rounds of baseline/disabled, plus the two enabled planes.

    Span recording costs several times the bare call: a shorter enabled
    chunk keeps total wall time spent on the unbounded configurations
    from starving the paired comparison of rounds.
    """
    return harness.paired_rounds(
        planes, "baseline", "disabled",
        extras=("enabled", "enabled_sampled"),
        rounds=rounds, iterations=iterations,
        extra_iterations=max(iterations // 5, 200),
        warm_iterations=max(iterations // 10, 100),
    )


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


def check_overhead(results):
    failed = harness.overhead_failures(results, {"disabled": OVERHEAD_BOUND})
    enabled = results["ratio"]["enabled"] - 1.0
    sampled = results["ratio"]["enabled_sampled"] - 1.0
    if sampled > SAMPLED_SHARE_BOUND * enabled:
        failed.append(f"sampled overhead {sampled * 100:.0f}% exceeds "
                      f"{SAMPLED_SHARE_BOUND:.0%} of full recording's "
                      f"{enabled * 100:.0f}%")
    return failed


def check_striping(striping):
    failed = []
    if striping["new_stripes"] < striping["threads"]:
        failed.append("fast path still shares a stat lock across threads")
    if striping["fastpaths"] != striping["expected_fastpaths"]:
        failed.append("striped counters lost increments")
    return failed


def measure_all(smoke):
    if smoke:
        return {"overhead": measure(iterations=2_000, rounds=60),
                "striping": measure_striping(threads=4,
                                             calls_per_thread=500)}
    return {"overhead": measure(), "striping": measure_striping()}


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_disabled_plane_within_bound():
    assert not check_overhead(measure(iterations=2_000, rounds=60))


def test_fast_path_takes_no_shared_lock():
    assert not check_striping(measure_striping(threads=4,
                                               calls_per_thread=500))


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


def main(argv=None):
    return harness.run(argv, __doc__, "BENCH_OBS.json", measure_all,
                       {"overhead": check_overhead,
                        "striping": check_striping},
                       {"disabled_overhead": OVERHEAD_BOUND,
                        "sampled_share": SAMPLED_SHARE_BOUND})


if __name__ == "__main__":
    import sys

    sys.exit(main())

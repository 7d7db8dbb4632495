"""B-CONTRACT bench: what the contract plane costs when off — and on.

The contract plane's acceptance bound: a moderator with **no registry
installed** must stay on the pre-contract fast path — the only additions
are ``self._contracts is not None`` checks at the seams — so the
Figure-3 full-RESUME fast path may slow by at most 2% mean latency.
Three configurations over the same moderated call:

* **baseline** — a moderator that never saw a contract registry;
* **disabled** — a registry was installed and then uninstalled (the
  acceptance bound applies here: the plane must leave no residue);
* **checked**  — a require+ensure+invariant contract declared on the
  method (the price of full checking, reported for EXPERIMENTS.md
  B-CONTRACT, not bounded — a contract method runs the same executor
  with the runner's entry, per-RESUME and post-body check points armed).

Baseline and disabled rounds are interleaved and compared within each
round (median of paired ratios), so clock drift and thermal effects
cancel instead of biasing one side.

Run styles::

    pytest benchmarks/bench_contracts.py --benchmark-only   # archival
    python benchmarks/bench_contracts.py                    # full table
    python benchmarks/bench_contracts.py --smoke            # CI: quick
                                                            # + BENCH_CONTRACTS.json
"""

from __future__ import annotations

import json
import statistics

from repro.contracts import ContractRegistry
from repro.core import AspectModerator, ComponentProxy, NullAspect

from harness import mean_call_ns

OVERHEAD_BOUND = 0.02  # contracts-off mean-latency bound (2%)


class Component:
    def __init__(self):
        self.total = 0

    def service(self, value=1):
        self.total += value
        return self.total


def build_fast_path():
    """The Figure-3 full-RESUME fast path: one never-blocking aspect."""
    moderator = AspectModerator()
    moderator.register_aspect("service", "null", NullAspect())
    proxy = ComponentProxy(moderator=moderator, component=Component())
    return moderator, proxy


def _declare(registry):
    registry.declare(
        "service",
        require=[("positive", lambda jp: jp.args[0] > 0
                  if jp.args else True)],
        ensure=[("total_grew",
                 lambda jp, old: jp.component.total
                 == old.total + (jp.args[0] if jp.args else 1))],
        invariant=[("solvent", lambda component: component.total >= 0)],
        observables=("total",),
    )


def measure(iterations=5_000, rounds=80):
    """Interleaved measurement of baseline/disabled/checked."""
    base_moderator, base_proxy = build_fast_path()

    disabled_moderator, disabled_proxy = build_fast_path()
    residue = ContractRegistry()
    _declare(residue)
    residue.install(disabled_moderator)
    residue.uninstall(disabled_moderator)

    checked_moderator, checked_proxy = build_fast_path()
    registry = ContractRegistry()
    _declare(registry)
    registry.install(checked_moderator)

    base_call = lambda: base_proxy.service(1)          # noqa: E731
    disabled_call = lambda: disabled_proxy.service(1)  # noqa: E731
    checked_call = lambda: checked_proxy.service(1)    # noqa: E731

    # warm-up compiles the plans and primes caches in every mode
    for call in (base_call, disabled_call, checked_call):
        mean_call_ns(call, max(iterations // 10, 100))
    assert base_moderator.plan_for("service").contract is None
    assert disabled_moderator.plan_for("service").contract is None
    assert checked_moderator.plan_for("service").contract is not None

    samples = {"baseline": [], "disabled": [], "checked": []}
    disabled_ratios = []
    checked_ratios = []
    # full checking costs a multiple of the bare call: a shorter chunk
    # keeps the unbounded configuration from starving the paired rounds
    checked_iterations = max(iterations // 5, 200)
    for round_index in range(rounds):
        if round_index % 2 == 0:
            base_ns = mean_call_ns(base_call, iterations)
            disabled_ns = mean_call_ns(disabled_call, iterations)
        else:
            disabled_ns = mean_call_ns(disabled_call, iterations)
            base_ns = mean_call_ns(base_call, iterations)
        checked_ns = mean_call_ns(checked_call, checked_iterations)
        samples["baseline"].append(base_ns)
        samples["disabled"].append(disabled_ns)
        samples["checked"].append(checked_ns)
        disabled_ratios.append(disabled_ns / base_ns)
        checked_ratios.append(checked_ns / base_ns)

    best = {name: min(values) for name, values in samples.items()}
    return {
        "iterations": iterations,
        "rounds": rounds,
        "ns_per_call": best,
        "disabled_overhead": statistics.median(disabled_ratios) - 1.0,
        "checked_overhead": statistics.median(checked_ratios) - 1.0,
        "fastpaths": base_moderator.stats.fastpaths,
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_contracts_off_within_bound():
    results = measure(iterations=2_000, rounds=60)
    assert results["disabled_overhead"] <= OVERHEAD_BOUND, (
        f"contracts-off costs {results['disabled_overhead'] * 100:.2f}% "
        f"(bound {OVERHEAD_BOUND * 100:.0f}%): {results['ns_per_call']}"
    )


def test_uninstall_disarms_the_contract():
    moderator, proxy = build_fast_path()
    registry = ContractRegistry()
    _declare(registry)
    registry.install(moderator)
    proxy.service(1)
    assert moderator.plan_for("service").contract is not None
    registry.uninstall(moderator)
    proxy.service(1)
    assert moderator.plan_for("service").contract is None


def test_bench_contracts_disabled(benchmark):
    moderator, proxy = build_fast_path()
    registry = ContractRegistry()
    _declare(registry)
    registry.install(moderator)
    registry.uninstall(moderator)
    result = benchmark(lambda: proxy.service(1))
    assert result > 0
    assert moderator.stats.fastpaths > 0


def test_bench_contracts_checked(benchmark):
    moderator, proxy = build_fast_path()
    registry = ContractRegistry()
    _declare(registry)
    registry.install(moderator)
    result = benchmark(lambda: proxy.service(1))
    assert result > 0
    assert moderator.stats.contract_violations == 0


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
        "--json", default="BENCH_CONTRACTS.json",
        help="output path for the measured table "
             "(default BENCH_CONTRACTS.json)",
    )
    arguments = parser.parse_args(argv)

    if arguments.smoke:
        results = measure(iterations=2_000, rounds=60)
    else:
        results = measure()

    print("B-CONTRACT: contract-plane overhead "
          "(Figure-3 full-RESUME fast path)")
    print(f"{'configuration':<16}{'ns/call':>12}{'overhead':>12}")
    overhead_pct = {
        "baseline": 0.0,
        "disabled": results["disabled_overhead"] * 100.0,
        "checked": results["checked_overhead"] * 100.0,
    }
    for name in ("baseline", "disabled", "checked"):
        ns = results["ns_per_call"][name]
        print(f"{name:<16}{ns:>12.0f}{overhead_pct[name]:>11.1f}%")

    document = {"overhead": results, "bound": OVERHEAD_BOUND}
    with open(arguments.json, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    print(f"wrote {arguments.json}")

    if results["disabled_overhead"] > OVERHEAD_BOUND:
        print(
            f"FAIL: contracts-off overhead "
            f"{results['disabled_overhead'] * 100:.2f}% exceeds "
            f"{OVERHEAD_BOUND * 100:.0f}% bound"
        )
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())

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

``python benchmarks/bench_contracts.py [--smoke]`` writes
``.bench/BENCH_CONTRACTS.json`` (see ``harness.run``); ``pytest
--benchmark-only`` archives the two single-configuration timings.
"""

from __future__ import annotations

import contextlib

from repro.contracts import ContractRegistry
from repro.core import AspectModerator, ComponentProxy, NullAspect

import harness

OVERHEAD_BOUND = 0.02  # contracts-off mean-latency bound (2%)
SMOKE = dict(iterations=2_000, rounds=60)  # --smoke and the pytest gate


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


@contextlib.contextmanager
def compositions(facts):
    """The three configurations; on exit, the baseline's fast paths."""
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

    calls = {
        "baseline": lambda: base_proxy.service(1),
        "disabled": lambda: disabled_proxy.service(1),
        "checked": lambda: checked_proxy.service(1),
    }
    # the first call compiles each plan
    for call in calls.values():
        call()
    assert base_moderator.plan_for("service").contract is None
    assert disabled_moderator.plan_for("service").contract is None
    assert checked_moderator.plan_for("service").contract is not None
    yield calls
    facts["fastpaths"] = base_moderator.stats.fastpaths


def measure(iterations=5_000, rounds=80):
    """Paired rounds of baseline/disabled, plus the checked contract.

    Full checking costs a multiple of the bare call: a shorter chunk
    keeps the unbounded configuration from starving the paired rounds.
    """
    return harness.paired_rounds(
        compositions, "baseline", "disabled", extras=("checked",),
        rounds=rounds, iterations=iterations,
        extra_iterations=max(iterations // 5, 200),
        warm_iterations=max(iterations // 10, 100),
    )


def check_overhead(overhead):
    return harness.overhead_failures(overhead, {"disabled": OVERHEAD_BOUND})


def measure_all(smoke):
    return {"overhead": measure(**SMOKE) if smoke else measure()}


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_contracts_off_within_bound():
    assert not check_overhead(measure(**SMOKE))


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


def main(argv=None):
    return harness.run(argv, __doc__, "BENCH_CONTRACTS.json", measure_all,
                       {"overhead": check_overhead},
                       {"disabled_overhead": OVERHEAD_BOUND})


if __name__ == "__main__":
    import sys

    sys.exit(main())

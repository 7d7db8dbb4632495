"""B-PLAN bench: compiled activation plans vs the per-call interpreter.

The claim of plan compilation is that moderation pays its composition
tax (bank walk, ordering policy, health/injector probes, attribute
chases) *once per revision* instead of once per call. The interpreted
side is the differential suites' oracle,
:class:`tests.oracle.InterpretingModerator` — the paper's per-call
interpreter, kept in one place. This bench measures exactly that:

* ``interpreted_call`` / ``compiled_call`` — the same moderated call
  (one never_blocks aspect, proxy fast path) on the oracle and on the
  production moderator; the headline pair;
* ``interpreted_chain3`` / ``compiled_chain3`` — a three-aspect chain,
  where the interpreter's per-call ordering+lookup cost grows with
  chain length and the compiled executor's does not;
* ``locked_interpreted`` / ``locked_compiled`` — a blocking-capable
  chain through the domain-locked slow path, isolating the plan's gain
  when the condition machinery dominates;
* ``plan_compile_cost`` — a forced recompile per call (ordering-policy
  reassignment bumps the plan version), bounding the price of
  invalidation;
* ``test_recompiles_only_on_revision_bumps`` — not a timing: a counter
  proof that N calls compile once, and exactly one more after a swap.

Expected shape: compiled ≤ interpreted on every pair, the gap widening
with chain length; a compile costs a few calls' worth and is amortized
across every call until the next mutation.
"""

import tracemalloc

import pytest

from repro.core import (
    AspectModerator,
    ComponentProxy,
    FunctionAspect,
    RESUME,
)
from tests.oracle import InterpretingModerator

def fmt_row(*columns, widths=(34, 14, 14, 14)):
    cells = []
    for index, column in enumerate(columns):
        width = widths[index] if index < len(widths) else 14
        cells.append(f"{column!s:<{width}}")
    return "  ".join(cells).rstrip()


class Component:
    def service(self, value=1):
        return value + 1


def _proxy(interpreted, aspects=1, never_blocks=True):
    moderator = (InterpretingModerator if interpreted
                 else AspectModerator)()
    for index in range(aspects):
        moderator.register_aspect(
            "service", f"concern{index}",
            FunctionAspect(concern=f"concern{index}",
                           never_blocks=never_blocks),
        )
    return moderator, ComponentProxy(Component(), moderator)


# ----------------------------------------------------------------------
# headline pair: one-aspect fast-path call
# ----------------------------------------------------------------------
def test_interpreted_call(benchmark):
    """Reference: per-call interpretation (the test oracle)."""
    _moderator, proxy = _proxy(interpreted=True)
    result = benchmark(lambda: proxy.service())
    assert result == 2


def test_compiled_call(benchmark):
    """Same call through the compiled plan executor."""
    moderator, proxy = _proxy(interpreted=False)
    result = benchmark(lambda: proxy.service())
    assert result == 2
    # the whole run compiled exactly once
    assert moderator.stats.plan_compiles == 1


# ----------------------------------------------------------------------
# chain length: the interpreter's tax grows, the plan's does not
# ----------------------------------------------------------------------
def test_interpreted_chain3(benchmark):
    _moderator, proxy = _proxy(interpreted=True, aspects=3)
    assert benchmark(lambda: proxy.service()) == 2


def test_compiled_chain3(benchmark):
    moderator, proxy = _proxy(interpreted=False, aspects=3)
    assert benchmark(lambda: proxy.service()) == 2
    assert moderator.stats.plan_compiles == 1


# ----------------------------------------------------------------------
# locked slow path (blocking-capable chain)
# ----------------------------------------------------------------------
def test_locked_interpreted(benchmark):
    _moderator, proxy = _proxy(
        interpreted=True, aspects=2, never_blocks=False
    )
    assert benchmark(lambda: proxy.service()) == 2


def test_locked_compiled(benchmark):
    moderator, proxy = _proxy(
        interpreted=False, aspects=2, never_blocks=False
    )
    assert benchmark(lambda: proxy.service()) == 2
    assert moderator.stats.plan_compiles == 1


# ----------------------------------------------------------------------
# compilation itself
# ----------------------------------------------------------------------
def test_plan_compile_cost(benchmark):
    """Upper bound: force a full recompile on every fetch."""
    moderator, _proxy_unused = _proxy(interpreted=False, aspects=3)
    policy = moderator.ordering

    def recompile():
        moderator.ordering = policy  # bumps the plan version
        return moderator.plan_for("service")

    plan = benchmark(recompile)
    assert plan.method_id == "service"
    # one compile per invocation (smoke mode runs the body exactly once)
    assert moderator.stats.plan_compiles >= 1


# ----------------------------------------------------------------------
# counter proofs (no timing): invalidation is exact
# ----------------------------------------------------------------------
@pytest.mark.benchmark(disable_gc=False)
def test_recompiles_only_on_revision_bumps(benchmark):
    """N calls -> one compile; one swap -> exactly one more."""

    def scenario():
        moderator, proxy = _proxy(interpreted=False)
        for _ in range(100):
            proxy.service()
        first = moderator.stats.plan_compiles
        moderator.bank.swap(
            "service", "concern0",
            FunctionAspect(concern="concern0", never_blocks=True),
        )
        for _ in range(100):
            proxy.service()
        return first, moderator.stats.plan_compiles

    first, second = benchmark.pedantic(scenario, rounds=1, iterations=1)
    assert first == 1
    assert second == 2


def test_compiled_call_allocates_less(benchmark):
    """tracemalloc proof: the plan executor allocates less per call."""

    def allocations(proxy):
        proxy.service()  # warm caches/compile outside the window
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(50):
            proxy.service()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        return sum(
            stat.size_diff
            for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
        )

    _m1, interpreted = _proxy(interpreted=True, aspects=3)
    _m2, compiled = _proxy(interpreted=False, aspects=3)
    interpreted_bytes = allocations(interpreted)
    compiled_bytes = allocations(compiled)

    def measured():
        return compiled.service()

    assert benchmark(measured) == 2
    benchmark.extra_info["interpreted_bytes_50_calls"] = interpreted_bytes
    benchmark.extra_info["compiled_bytes_50_calls"] = compiled_bytes
    print()
    print(fmt_row("allocations over 50 calls", "interpreted",
                  "compiled"))
    print(fmt_row("bytes (positive diffs)", interpreted_bytes,
                  compiled_bytes))
    # Identical moderation, strictly fewer allocations compiled; keep a
    # generous margin so the assertion stays robust across interpreters.
    assert compiled_bytes <= interpreted_bytes


def test_summary_table(benchmark):
    """Prints the EXPERIMENTS-style comparison table (single rounds)."""
    import timeit

    rows = []
    for label, kwargs in (
        ("fastpath x1 aspect", dict(aspects=1, never_blocks=True)),
        ("fastpath x3 aspects", dict(aspects=3, never_blocks=True)),
        ("locked x2 aspects", dict(aspects=2, never_blocks=False)),
    ):
        _mi, interp = _proxy(interpreted=True, **kwargs)
        _mc, comp = _proxy(interpreted=False, **kwargs)
        loops = 2000
        t_interp = timeit.timeit(interp.service, number=loops) / loops
        t_comp = timeit.timeit(comp.service, number=loops) / loops
        speedup = t_interp / t_comp if t_comp else float("inf")
        rows.append((label, f"{t_interp * 1e6:.2f}us",
                     f"{t_comp * 1e6:.2f}us", f"{speedup:.2f}x"))
        benchmark.extra_info[label] = {
            "interpreted_us": t_interp * 1e6,
            "compiled_us": t_comp * 1e6,
        }
    result = benchmark(lambda: RESUME)
    assert result is RESUME
    print()
    print(fmt_row("B-PLAN workload", "interpreted", "compiled", "speedup"))
    for row in rows:
        print(fmt_row(*row))

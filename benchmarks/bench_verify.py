"""V-MC bench: model-checking cost vs. composition size.

The paper asks whether the architecture "should further enable formal
verification of system properties". This bench measures what answering
"yes" costs: explored-state counts and wall time as clients and
repetitions grow — the classic state-explosion curve, quantified for
the aspect-composition model.

Expected shape: states grow combinatorially in clients; dedup by
fingerprint keeps symmetric compositions (identical client scripts)
far below the naive interleaving count.
"""

import pytest

from repro.aspects.synchronization import (
    BoundedBufferSync,
    MutexAspect,
    SemaphoreAspect,
)
from repro.verify import (
    ActivationSpec,
    concurrency_bound,
    mutual_exclusion,
    occupancy_bound,
    verify,
)


#: exact (states, transitions) per case; a change to how the explorer
#: executes a composition must not move them
BUFFER_COUNTS = {1: (21, 30), 2: (801, 2146), 3: (25_882, 98_274)}
MUTEX_COUNTS = {2: (37, 52), 3: (249, 492), 4: (1545, 3880)}


def counts(report):
    return report.states_explored, report.transitions_taken


class _Sized:
    def __init__(self, capacity):
        self.capacity = capacity


def buffer_chains(capacity):
    sync = BoundedBufferSync(_Sized(capacity), producer="put",
                             consumer="take")
    return {"put": [sync], "take": [sync]}


@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_verify_buffer_scaling(benchmark, pairs):
    """Producer/consumer pairs vs. states explored."""
    specs = []
    for index in range(pairs):
        specs.append(ActivationSpec(f"p{index}", "put", 2))
        specs.append(ActivationSpec(f"c{index}", "take", 2))

    def check():
        return verify(
            lambda: buffer_chains(capacity=2),
            specs=specs,
            properties=[occupancy_bound("put", capacity=2)],
        )

    report = benchmark.pedantic(check, rounds=3, iterations=1)
    assert report.ok, report.summary()
    assert counts(report) == BUFFER_COUNTS[pairs]
    benchmark.extra_info["pairs"] = pairs
    benchmark.extra_info["states"] = report.states_explored
    benchmark.extra_info["transitions"] = report.transitions_taken


@pytest.mark.parametrize("clients", [2, 3, 4])
def test_verify_mutex_scaling(benchmark, clients):
    specs = [ActivationSpec(f"t{i}", "work", 2) for i in range(clients)]

    def check():
        return verify(
            lambda: {"work": [MutexAspect()]},
            specs=specs,
            properties=[mutual_exclusion("work")],
        )

    report = benchmark.pedantic(check, rounds=3, iterations=1)
    assert report.ok, report.summary()
    assert counts(report) == MUTEX_COUNTS[clients]
    benchmark.extra_info["clients"] = clients
    benchmark.extra_info["states"] = report.states_explored


def test_verify_finds_deadlock_fast(benchmark):
    """Counterexample search stops at the first violation."""

    def check():
        return verify(
            lambda: buffer_chains(capacity=1),
            specs=[ActivationSpec("p", "put", 3)],
        )

    report = benchmark(check)
    assert not report.ok
    assert report.violations[0].kind == "deadlock"
    assert counts(report) == (4, 3)


def test_verify_semaphore_stack(benchmark):
    """Stacked sem+mutex composition: the checker handles chains."""

    def chains():
        return {"work": [SemaphoreAspect(2), MutexAspect()]}

    def check():
        return verify(
            chains,
            specs=[ActivationSpec(f"t{i}", "work", 1) for i in range(3)],
            properties=[concurrency_bound(1, "work")],
        )

    report = benchmark.pedantic(check, rounds=3, iterations=1)
    assert report.ok, report.summary()
    assert counts(report) == (47, 78)

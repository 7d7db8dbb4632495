"""Timing helpers shared by the paired-control overhead benches.

``bench_resilience``, ``bench_recovery`` and ``bench_sharding`` compare
the current fast path against an embedded ``Legacy*`` control with
:func:`floor_pair_ns`; ``bench_contracts`` and ``bench_obs_overhead``
time interleaved single chunks with :func:`mean_call_ns`, as does
``bench_profile``. The benches import this module by bare name: both
``python benchmarks/bench_<name>.py`` and a pytest run over
``benchmarks/`` put this directory on ``sys.path``.
"""

from __future__ import annotations

import time


def mean_call_ns(bound_call, iterations):
    """Mean per-call nanoseconds over one timed chunk."""
    started = time.perf_counter_ns()
    for _ in range(iterations):
        bound_call()
    return (time.perf_counter_ns() - started) / iterations


#: sub-chunks each side's per-round budget is split into; the per-round
#: figure is the *minimum* sub-chunk mean, so a steal burst or GC pause
#: landing inside one sub-chunk is excluded instead of averaged in
CHUNKS = 10


def floor_pair_ns(first_call, second_call, iterations):
    """Floor (min-of-chunks) ns/call for two interleaved callables.

    Splits each side's budget into :data:`CHUNKS` timed sub-chunks and
    interleaves them first/second/first/second, so contamination from a
    shared-host steal window or a GC pause hits isolated sub-chunks of
    *both* sides; the per-side minimum keeps only clean sub-chunks.
    """
    per_chunk = max(iterations // CHUNKS, 10)
    first_samples = []
    second_samples = []
    for _ in range(CHUNKS):
        first_samples.append(mean_call_ns(first_call, per_chunk))
        second_samples.append(mean_call_ns(second_call, per_chunk))
    return min(first_samples), min(second_samples)

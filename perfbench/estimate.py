"""Windowed, host-normalized estimators.

The small VMs this benchmark runs on change speed continuously: from one
100 ms stretch to the next the same loop runs up to 1.9x faster or
slower, and the mix drifts by 30-40% over minutes, as other tenants load
the physical cores. A percentile pooled over a whole run lands wherever
that run's mix of phases puts it, so it moves from run to run.

The benchmark therefore

* times a fixed thread hand-off after every window (``HostClock``:
  16 round trips between the benchmark's thread and a helper thread of
  its own) and scales each window by the host speed it saw: the median
  reference of the window and its two neighbours on each side, over
  ``REF_NOMINAL_US``. Timings are reported in microseconds at that
  nominal host speed; throughput in operations per second at it. A
  hand-off exercises what every workload here pays for besides
  bytecode: the interpreter lock changing hands and a futex wake-up.
  It tracked the host better than a pure arithmetic loop timed in CPU
  time on every workload, even the single-threaded ones (spreads
  compared in ``README.md``);
* reads throughput per 100 ms window, the median latency per chunk of
  ``CHUNK`` consecutive samples and the 90th percentile of reads per
  chunk of ``TAIL_CHUNK`` reads (20 samples beyond it), and aggregates
  them with a quantile on the fast side: the 75th percentile of
  throughput, the 25th of the chunk percentiles.

A faster program moves every window, so it moves the quantile.

The p99s and the write percentiles are computed too (``diagnostics``),
but only printed: on a shared 2-vCPU VM they follow the host more than
the program. A p99 of a 30 µs call sits at the
rate of timer ticks and hypervisor exits, and ``kv_rpc`` writes slow
down by up to half again, relative to reads, in some host phases (their
write/read latency ratio drifts from 1.45 to 2.2 within one run).
"""

from __future__ import annotations

import gc
import math
import statistics
import threading
import time
from array import array
from typing import Dict, List, Optional, Sequence

#: reference time (16 hand-offs), in µs, that timings are scaled to
REF_NOMINAL_US = 400.0
#: round trips per reference measurement
HANDOFFS = 16
#: idle time before each reference measurement
SETTLE_S = 0.001
#: neighbouring windows (each side) whose references are pooled
SMOOTH = 2
#: samples per median chunk
CHUNK = 1000
#: reads per tail chunk, and the tail percentile read from each
TAIL_CHUNK = 200
TAIL_Q = 0.9
#: the fast-side quantile of per-window medians (and its mirror,
#: 1 - FAST_Q, for per-window throughput)
FAST_Q = 0.25


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted sequence."""
    if not sorted_values:
        raise ValueError("quantile of no values")
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


class HostClock:
    """The host reference: ``HANDOFFS`` round trips between the caller
    and a helper thread, in wall-clock µs.

    The program's own threads are idle between windows (every workload
    is a closed loop whose last call has returned; a short sleep lets
    them finish their bookkeeping first), so they do not compete for
    the hand-off. The collector is paused while timing so a
    collection does not land in the reference."""

    def __init__(self) -> None:
        self._ping = threading.Event()
        self._pong = threading.Event()
        self._stopping = False
        self._thread = threading.Thread(target=self._serve,
                                        name="perfbench-host-clock",
                                        daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            self._ping.wait()
            self._ping.clear()
            if self._stopping:
                return
            self._pong.set()

    def measure(self) -> float:
        ping, pong = self._ping, self._pong
        # let the program's threads finish what the last call left them
        time.sleep(SETTLE_S)
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter_ns()
            for _ in range(HANDOFFS):
                ping.set()
                pong.wait()
                pong.clear()
            return (time.perf_counter_ns() - started) / 1e3
        finally:
            if collecting:
                gc.enable()

    def close(self) -> None:
        self._stopping = True
        self._ping.set()
        self._thread.join()


class Window:
    """One 100 ms stretch of a closed loop: latency samples (ns) in
    completion order, split by kind, and the operations that failed."""

    __slots__ = ("seconds", "reads", "writes", "failed", "ref_us", "scale")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.reads = array("q")
        self.writes = array("q")
        self.failed = 0
        #: reference time measured right after the window
        self.ref_us = REF_NOMINAL_US
        #: host slowness the window saw, relative to the nominal speed
        self.scale = 1.0

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes) + self.failed


def set_scales(timeline: List[Window]) -> None:
    """Scale every window (in run order) by its neighbourhood's median
    reference time."""
    refs = [window.ref_us for window in timeline]
    for index, window in enumerate(timeline):
        near = refs[max(0, index - SMOOTH):index + SMOOTH + 1]
        window.scale = statistics.median(near) / REF_NOMINAL_US


def _chunked(samples: array, size: int, q: float
             ) -> Dict[str, Optional[float]]:
    """The fast-side quantile of the per-chunk ``q``-quantiles (µs)."""
    values = [quantile(sorted(samples[start:start + size]), q)
              for start in range(0, len(samples) - size + 1, size)]
    if not values:
        # too short a run for one full chunk: use what there is
        values = [quantile(sorted(samples), q)] if samples else []
    if not values:
        return {"value": None, "n": 0}
    return {"value": quantile(sorted(values), FAST_Q) / 1e3,
            "n": len(samples)}


def _pooled(samples: array, q: float) -> Dict[str, Optional[float]]:
    """The ``q``-quantile of all samples at once (µs)."""
    if not samples:
        return {"value": None, "n": 0}
    return {"value": quantile(sorted(samples), q) / 1e3, "n": len(samples)}


def _scaled(windows: List[Window], normalize: bool
            ) -> "tuple[array, array, array]":
    """All, read and write samples, each divided by its window's scale;
    ``both`` interleaves by window so a chunk covers one stretch of
    time."""
    reads, writes, both = array("d"), array("d"), array("d")
    for window in windows:
        scale = window.scale if normalize else 1.0
        window_reads = [sample / scale for sample in window.reads]
        window_writes = [sample / scale for sample in window.writes]
        reads.extend(window_reads)
        writes.extend(window_writes)
        both.extend(window_reads)
        both.extend(window_writes)
    return both, reads, writes


def windowed(windows: List[Window], normalize: bool = True
             ) -> Dict[str, Dict[str, float]]:
    """The end-to-end timing metrics of a run, each ``{"value": v, "n":
    samples}``; ``normalize=False`` gives the wall-clock figures."""
    both, reads, _writes = _scaled(windows, normalize)
    rates = sorted(window.ops / window.seconds
                   * (window.scale if normalize else 1.0)
                   for window in windows)
    return {
        "throughput_ops": {"value": quantile(rates, 1.0 - FAST_Q),
                           "n": len(rates)},
        "latency_p50_us": _chunked(both, CHUNK, 0.5),
        "read_p90_us": _chunked(reads, TAIL_CHUNK, TAIL_Q),
    }


def diagnostics(windows: List[Window]) -> Dict[str, Optional[float]]:
    """Host-scaled percentiles that are printed but not bounded: they
    follow the host more than the program (see the module docstring)."""
    both, reads, writes = _scaled(windows, True)
    return {
        "latency_p99_us": _pooled(both, 0.99)["value"],
        "read_p99_us": _pooled(reads, 0.99)["value"],
        "write_p50_us": _chunked(writes, CHUNK, 0.5)["value"],
        "write_p90_us": _chunked(writes, TAIL_CHUNK, TAIL_Q)["value"],
        "write_p99_us": _pooled(writes, 0.99)["value"],
    }


def pooled(windows: List[Window]) -> Dict[str, Optional[float]]:
    """The end-to-end timing metrics over the whole run at once, in wall
    time, for comparison."""
    reads, writes = array("q"), array("q")
    ops = 0
    seconds = 0.0
    for window in windows:
        reads.extend(window.reads)
        writes.extend(window.writes)
        ops += window.ops
        seconds += window.seconds
    return {
        "throughput_ops": ops / seconds if seconds else None,
        "latency_p50_us": _pooled(reads + writes, 0.5)["value"],
        "read_p90_us": _pooled(reads, TAIL_Q)["value"],
    }

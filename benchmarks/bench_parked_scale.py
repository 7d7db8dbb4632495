"""B-ASYNC bench: park a million activations without holding a thread.

The continuation runtime's reason to exist (ISSUE 8): a BLOCKed
activation costs a heap object instead of an OS thread, so one process
can hold ~10^6 parked activations. This bench measures both sides:

* **continuation ramp** — submit ``target`` activations against a
  gate aspect that BLOCKs them all, wait until every one is parked on
  the reactor's heap table, and read the RSS delta: bytes per parked
  activation (bound: ``BYTES_PER_PARKED_BOUND``). Then open the gate,
  ``notify`` once, and time the drain — every future must complete.
* **threaded collapse** — ramp OS threads into the same park on the
  reference runtime's ``Condition.wait`` until thread creation fails
  or a ceiling is hit, read RSS per thread, and extrapolate what the
  target would cost: the number that motivates the reactor.

``python benchmarks/bench_parked_scale.py [--smoke]`` (1M parked, or
2*10^4 with ``--smoke``) writes
``.bench/BENCH_ASYNC.json`` (see ``harness.run``).
"""

from __future__ import annotations

import gc
import threading
import time

from repro.core import AspectModerator, ComponentProxy, ContinuationRuntime
from repro.core.aspect import NullAspect
from repro.core.results import BLOCK, RESUME

import harness

#: a parked continuation must stay far below any thread's footprint
BYTES_PER_PARKED_BOUND = 16 * 1024


class Gate(NullAspect):
    concern = "gate"
    never_blocks = False

    def __init__(self):
        self.open = False

    def evaluate_precondition(self, joinpoint):
        return RESUME if self.open else BLOCK


class Sink:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def push(self):
        self.count += 1
        return self.count


def _rss_bytes():
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


def _build():
    moderator = AspectModerator()  # no default timeout: park forever
    gate = Gate()
    moderator.register_aspect("push", "gate", gate)
    return moderator, gate, Sink()


def measure_continuation_scale(target, workers=2):
    """Ramp ``target`` parked continuations, then drain them all."""
    moderator, gate, sink = _build()
    gc.collect()
    rss_before = _rss_bytes()
    with ContinuationRuntime(moderator, workers=workers) as runtime:
        ramp_started = time.perf_counter()
        futures = [
            runtime.submit("push", sink.push, component=sink)
            for _ in range(target)
        ]
        while runtime.parked_count < target:
            time.sleep(0.01)
        ramp_seconds = time.perf_counter() - ramp_started
        gc.collect()
        rss_parked = _rss_bytes()

        gate.open = True
        drain_started = time.perf_counter()
        moderator.notify("push")
        for future in futures:
            future.result(timeout=600.0)
        drain_seconds = time.perf_counter() - drain_started
        parked_after = runtime.parked_count
    stats = moderator.stats.as_dict()
    bytes_per_parked = max(0, rss_parked - rss_before) / target
    return {
        "target": target,
        "workers": workers,
        "parked_peak": target,
        "parked_after_drain": parked_after,
        "completed": sink.count,
        "rss_before_bytes": rss_before,
        "rss_parked_bytes": rss_parked,
        "bytes_per_parked": round(bytes_per_parked, 1),
        "park_rate_per_s": round(target / ramp_seconds, 1),
        "drain_rate_per_s": round(target / drain_seconds, 1),
        "waits": stats["waits"],
        "wakeups": stats["wakeups"],
    }


def measure_threaded_collapse(ceiling, batch=64):
    """Ramp parked OS threads on the reference runtime until creation
    fails or ``ceiling``; report RSS/thread and the 1M extrapolation."""
    moderator, gate, sink = _build()
    proxy = ComponentProxy(sink, moderator)
    gc.collect()
    rss_before = _rss_bytes()
    threads = []
    reason = "ceiling_reached"
    started = time.perf_counter()
    try:
        while len(threads) < ceiling:
            for _ in range(min(batch, ceiling - len(threads))):
                thread = threading.Thread(target=proxy.push, daemon=True)
                thread.start()
                threads.append(thread)
    except (RuntimeError, MemoryError) as exc:
        reason = f"thread_creation_failed: {exc}"
    ramp_seconds = time.perf_counter() - started
    # let the stragglers reach Condition.wait before sampling RSS
    deadline = time.monotonic() + 60.0
    while len(moderator.parked_snapshot()) < len(threads):
        if time.monotonic() > deadline:
            break
        time.sleep(0.01)
    gc.collect()
    rss_parked = _rss_bytes()
    parked = len(moderator.parked_snapshot())

    gate.open = True
    moderator.notify("push")
    for thread in threads:
        thread.join(60.0)
    stragglers = sum(1 for thread in threads if thread.is_alive())

    per_thread = max(0, rss_parked - rss_before) / max(1, len(threads))
    return {
        "threads": len(threads),
        "parked_at_sample": parked,
        "collapse": reason,
        "ramp_seconds": round(ramp_seconds, 3),
        "rss_per_thread_bytes": round(per_thread, 1),
        "extrapolated_gb_for_1m": round(per_thread * 1_000_000 / 2**30, 2),
        "stragglers_after_release": stragglers,
    }


def check_continuation(continuation):
    gates = [
        (continuation["completed"] != continuation["target"],
         f"drain incomplete: {continuation['completed']:,} of "
         f"{continuation['target']:,} activations completed"),
        (continuation["parked_after_drain"] != 0,
         f"{continuation['parked_after_drain']} continuations still "
         "parked after drain"),
        (continuation["waits"] < continuation["target"],
         "some activations never actually parked"),
        (continuation["bytes_per_parked"] > BYTES_PER_PARKED_BOUND,
         f"parked continuation costs {continuation['bytes_per_parked']:,}"
         f" bytes, over the {BYTES_PER_PARKED_BOUND:,} bound"),
    ]
    return [message for failed, message in gates if failed]


def check_threaded(threaded):
    stragglers = threaded["stragglers_after_release"]
    return ([f"{stragglers} reference threads never released"]
            if stragglers else [])


def measure_all(smoke):
    target, ceiling = (20_000, 256) if smoke else (1_000_000, 4_096)
    return {"continuation": measure_continuation_scale(target),
            "threaded": measure_threaded_collapse(ceiling)}


def main(argv=None):
    return harness.run(argv, __doc__, "BENCH_ASYNC.json", measure_all,
                       {"continuation": check_continuation,
                        "threaded": check_threaded},
                       {"bytes_per_parked": BYTES_PER_PARKED_BOUND})


if __name__ == "__main__":
    import sys

    sys.exit(main())

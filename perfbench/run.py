#!/usr/bin/env python3
"""Run one benchmark workload against the program in ``src/``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3_local --seed 1 --seconds 25 --trace 0

Prints one line per metric (name, value, unit, sample count), a
``diag`` line with the whole-run (pooled) figures the windowed ones are
compared against, and as its last line a JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (which also writes sampled spans to
``.perfbench/``). Exits 1 when a correctness gate fails and 2 when the
program cannot be imported. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: window length: short enough to sit inside one host phase
WINDOW_S = 0.1
#: windows per segment; a set-up probe runs between segments, and a
#: traced run alternates untraced and traced segments
SEGMENT_WINDOWS = 10
#: the traced request time and the sum of per-layer self times must
#: agree within this share
LEDGER_TOLERANCE = 0.05

#: end-to-end metrics: name -> unit
END_TO_END: Dict[str, str] = {
    "throughput_ops": "ops/s",
    "latency_p50_us": "us",
    "read_p90_us": "us",
    "setup_s": "s",
    "rss_mb": "MB",
}

#: per-layer metrics of the traced run: name -> unit
PER_LAYER: Dict[str, str] = {
    "core.proxy.calls": "count",
    "core.proxy.self_ns": "ns",
    "core.moderator.preactivation_ns": "ns",
    "core.moderator.postactivation_ns": "ns",
    "core.moderator.rounds_per_call": "ratio",
    "core.moderator.resumes": "count",
    "core.moderator.blocks": "count",
    "core.moderator.aborts": "count",
    "core.plan.lookups": "count",
    "core.plan.compiles": "count",
    "core.plan.hit_ratio": "ratio",
    **{f"aspects.{concern}.{name}": unit
       for concern in ("sync", "authenticate", "audit", "rw")
       for name, unit in (("precondition_ns", "ns"),
                          ("postaction_ns", "ns"),
                          ("veto_ratio", "ratio"))},
    "apps.body_ns": "ns",
    "core.continuation.submits": "count",
    "core.continuation.parks": "count",
    "core.continuation.park_ratio": "ratio",
    "core.continuation.wake_to_resume_us": "us",
    "core.continuation.parked_peak": "count",
    "obs.recorder.events": "count",
    "obs.recorder.ns_per_event": "ns",
    "obs.metrics_listener.ns_per_event": "ns",
    "obs.sampled_ratio": "ratio",
    "dist.rpc.calls": "count",
    "dist.rpc.retries": "count",
    "dist.rpc.timeouts": "count",
    "dist.rpc.client_self_us": "us",
    "dist.rpc.reply_wait_us": "us",
    "dist.sharding.route_ns": "ns",
    "dist.sharding.shard_skew": "ratio",
    "dist.naming.resolves": "count",
    "dist.naming.resolve_ns": "ns",
    "dist.network.sends": "count",
    "dist.network.send_ns": "ns",
    "dist.network.delivery_wait_us": "us",
    "dist.network.dropped": "count",
    "dist.node.inbox_wait_us": "us",
    "dist.node.serve_us": "us",
    "dist.node.served": "count",
    "dist.node.failed": "count",
    "dist.node.shed": "count",
    "dist.resilience.dedup_begins": "count",
    "dist.resilience.dedup_hits": "count",
    "dist.resilience.dedup_ns": "ns",
    "dist.recovery.appends": "count",
    "dist.recovery.append_us": "us",
    "dist.recovery.checkpoints": "count",
    "dist.recovery.checkpoint_us": "us",
    "dist.recovery.record_bytes": "bytes",
    "py.gc.collections": "count",
    "py.gc.pause_us": "us",
    "host.ref_us": "us",
    "trace.overhead_ratio": "ratio",
    "trace.ledger_residual_ratio": "ratio",
    "fail_ratio": "ratio",
    "exact.parks_per_assign": "ratio",
    "exact.journal_appends": "count",
    "exact.journal_checkpoints": "count",
    "exact.network_sends_per_call": "ratio",
    "exact.sampled_roots_per_activation": "ratio",
}


def pin_to_one_cpu() -> None:
    """Run every thread of the process on one CPU.

    The interpreter lock lets one thread run Python at a time, so a
    second CPU adds no parallelism here; it adds cross-CPU wake-ups at
    every thread hand-off, which on small VMs cost tens of microseconds
    each with a spread that dominated run-to-run variation.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class GcClock:
    """``gc.callbacks`` hook: collections and their pause time."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_ns = 0
        self._started = 0

    def __call__(self, phase: str, _info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
        else:
            self.collections += 1
            self.pause_ns += time.perf_counter_ns() - self._started


class Runner:
    """One run: set-up probes, census, windows, gates, metrics."""

    def __init__(self, workload: Any, seconds: float, traced: bool) -> None:
        from ledger import Ledger

        self.workload = workload
        self.seconds = seconds
        self.traced = traced
        self.ledger = Ledger() if traced else None
        self.patches: Optional[Any] = None
        self.windows: Dict[str, List[Any]] = {"plain": [], "traced": []}
        #: every window in run order
        self.timeline: List[Any] = []
        #: (set-up seconds, windows measured before it)
        self.setups: List[Tuple[float, int]] = []
        self.counts: Dict[str, float] = {}
        self.last_counts: Dict[str, float] = {}
        self._before: Dict[str, float] = {}
        self.rig: Any = None
        self.rss_mb = 0.0
        self.clock: Any = None

    # -- rigs ----------------------------------------------------------
    def probe(self) -> Any:
        """Build a rig and make its first calls; time both."""
        started = time.perf_counter()
        rig = self.workload.build()
        self.workload.first_calls(rig)
        self.setups.append((time.perf_counter() - started,
                            len(self.timeline)))
        return rig

    def retire(self, rig: Any) -> None:
        """Gate and close a rig, then collect its garbage here, between
        windows: its reference cycles would otherwise pile up until a
        full collection, making the peak RSS depend on when one ran."""
        self.workload.check(rig)
        self.workload.close(rig)
        gc.collect()

    def trace_on(self) -> None:
        from ledger import Patches

        self.patches = Patches()
        self.workload.instrument(self.rig, self.ledger, self.patches)
        self._before = self.workload.counters(self.rig)

    def trace_off(self) -> None:
        time.sleep(0.005)  # let server-side spans of the last call close
        self.ledger.fold()
        after = self.workload.counters(self.rig)
        for name, value in after.items():
            self.counts[name] = self.counts.get(name, 0) + value \
                - self._before.get(name, 0)
        self.last_counts = after
        self.patches.undo()
        self.patches = None

    def rotate(self) -> None:
        """Replace a rig whose memory grows with its call count."""
        tracing = self.patches is not None
        if tracing:
            self.trace_off()
        old, self.rig = self.rig, self.workload.build()
        self.retire(old)
        self.workload.first_calls(self.rig)
        self.workload.warm(self.rig, 64)
        if tracing:
            self.trace_on()

    # -- the run -------------------------------------------------------
    def run(self) -> Dict[str, float]:
        from estimate import HostClock, set_scales

        self.clock = HostClock()
        try:
            return self._run()
        finally:
            self.clock.close()
            set_scales(self.timeline)

    def _run(self) -> Dict[str, float]:
        from estimate import Window

        workload = self.workload
        self.rig = self.probe()
        exact = workload.census(self.rig)
        # peak RSS over the fixed, seeded work only: later growth would
        # follow throughput (rig replacements, sample storage)
        self.rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured = 0.0
        segment = 0
        # short runs still alternate: at least two segments of each kind
        windows = max(1, min(SEGMENT_WINDOWS,
                             int(self.seconds / WINDOW_S / 4)))
        while measured < self.seconds and not workload.errors:
            traced = self.traced and segment % 2 == 1
            if traced:
                self.trace_on()
            for _ in range(windows):
                window = Window()
                mark = 0
                started = time.perf_counter()
                deadline = started + WINDOW_S
                while True:
                    if traced:
                        mark = self.ledger.next_rid
                    workload.step(self.rig, window)
                    now = time.perf_counter()
                    if now >= deadline:
                        break
                window.seconds = now - started
                measured += window.seconds
                window.ref_us = self.clock.measure()
                self.windows["traced" if traced else "plain"].append(window)
                self.timeline.append(window)
                if traced:
                    self.ledger.fold(mark)
                if workload.rotate_steps and \
                        self.rig.steps >= workload.rotate_steps:
                    self.rotate()
                if measured >= self.seconds or workload.errors:
                    break
            if traced:
                self.trace_off()
            self.retire(self.probe())
            segment += 1
        self.retire(self.rig)
        return exact

    @property
    def refs(self) -> List[float]:
        return [window.ref_us for window in self.timeline]

    def setup_seconds(self) -> List[float]:
        """Set-up times, each scaled like the window measured before it
        (the first build like the first window)."""
        last = len(self.timeline) - 1
        return [seconds / self.timeline[min(max(0, before - 1), last)].scale
                for seconds, before in self.setups]


def end_to_end(runner: Runner) -> Dict[str, Tuple[float, str, int]]:
    from estimate import windowed

    metrics = {name: (entry["value"], END_TO_END[name], entry["n"])
               for name, entry in windowed(runner.windows["plain"]).items()}
    metrics["setup_s"] = (statistics.median(runner.setup_seconds()),
                          "s", len(runner.setups))
    metrics["rss_mb"] = (runner.rss_mb, "MB", 1)
    return metrics


def per_layer(runner: Runner, exact: Dict[str, float],
              gc_clock: GcClock, fail_ratio: float
              ) -> Dict[str, Tuple[float, str, int]]:
    from estimate import windowed
    from workloads import record_bytes

    ledger = runner.ledger
    c = runner.counts
    spans = ledger.spans

    def mean(layer: str, per: Optional[float] = None,
             scale: float = 1.0) -> float:
        count = spans(layer) if per is None else per
        return ledger.self_ns(layer) / count / scale if count else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    activations = c.get("moderator.preactivations", 0)
    rounds = sum(c.get(f"moderator.{name}", 0)
                 for name in ("resumes", "blocks", "aborts"))
    lookups = spans("core.plan.lookup")
    compiles = c.get("moderator.plan_compiles", 0)
    values: Dict[str, float] = {
        "core.proxy.calls": spans("core.proxy"),
        "core.proxy.self_ns": mean("core.proxy"),
        # on the reactor the pre-activation has no public entry: it is
        # the remainder of each continuation segment
        "core.moderator.preactivation_ns": ratio(
            ledger.self_ns("core.moderator.preactivation")
            + ledger.self_ns("core.continuation.segment"), activations),
        "core.moderator.postactivation_ns":
            mean("core.moderator.postactivation", activations),
        "core.moderator.rounds_per_call": ratio(rounds, activations),
        "core.moderator.resumes": c.get("moderator.resumes", 0),
        "core.moderator.blocks": c.get("moderator.blocks", 0),
        "core.moderator.aborts": c.get("moderator.aborts", 0),
        "core.plan.lookups": lookups,
        "core.plan.compiles": compiles,
        "core.plan.hit_ratio": ratio(lookups - compiles, lookups),
        "apps.body_ns": mean("apps.body"),
    }
    for concern in ("sync", "authenticate", "audit", "rw"):
        layer = f"aspects.{concern}"
        values[f"{layer}.precondition_ns"] = mean(f"{layer}.precondition")
        values[f"{layer}.postaction_ns"] = mean(f"{layer}.postaction")
        values[f"{layer}.veto_ratio"] = ratio(
            ledger.counts.get(f"{layer}.vetoes", 0),
            spans(f"{layer}.precondition"))
    submits = c.get("continuation.submitted", 0)
    parks = c.get("moderator.waits", 0)
    routes = [count for name, count in ledger.counts.items()
              if name.startswith("dist.sharding.routes.")]
    begins = spans("dist.resilience.dedup_begin")
    plain = windowed(runner.windows["plain"])["throughput_ops"]["value"]
    traced = windowed(runner.windows["traced"])["throughput_ops"]["value"]
    values.update({
        "core.continuation.submits": submits,
        "core.continuation.parks": parks if submits else 0,
        "core.continuation.park_ratio": ratio(parks, submits),
        "core.continuation.wake_to_resume_us":
            mean("core.continuation.wake_to_resume", scale=1e3),
        "core.continuation.parked_peak":
            runner.last_counts.get("continuation.parked_peak", 0),
        "obs.recorder.events": spans("obs.recorder"),
        "obs.recorder.ns_per_event": mean("obs.recorder"),
        "obs.metrics_listener.ns_per_event": mean("obs.metrics_listener"),
        "obs.sampled_ratio": ratio(c.get("obs.sampled", 0),
                                   c.get("obs.activations", 0)),
        "dist.rpc.calls": c.get("rpc.calls", 0),
        "dist.rpc.retries": c.get("rpc.retries", 0),
        "dist.rpc.timeouts": c.get("rpc.timeouts", 0),
        "dist.rpc.client_self_us": mean("dist.rpc", scale=1e3),
        "dist.rpc.reply_wait_us": mean("dist.rpc.reply_wait", scale=1e3),
        "dist.sharding.route_ns": mean("dist.sharding"),
        "dist.sharding.shard_skew":
            ratio(max(routes), sum(routes) / len(routes)) if routes else 0.0,
        "dist.naming.resolves": spans("dist.naming"),
        "dist.naming.resolve_ns": mean("dist.naming"),
        "dist.network.sends": c.get("network.sent", 0),
        "dist.network.send_ns": mean("dist.network.send"),
        "dist.network.delivery_wait_us":
            mean("dist.network.delivery", scale=1e3),
        "dist.network.dropped": c.get("network.dropped", 0),
        "dist.node.inbox_wait_us": mean("dist.node.inbox_wait", scale=1e3),
        "dist.node.serve_us": mean("dist.node.serve", scale=1e3),
        "dist.node.served": c.get("node.requests_served", 0),
        "dist.node.failed": c.get("node.requests_failed", 0),
        "dist.node.shed": c.get("node.shed", 0),
        "dist.resilience.dedup_begins": begins,
        "dist.resilience.dedup_hits": c.get("dedup.hits", 0),
        "dist.resilience.dedup_ns": ratio(
            ledger.self_ns("dist.resilience.dedup_begin")
            + ledger.self_ns("dist.resilience.dedup_finish"), begins),
        "dist.recovery.appends": c.get("recovery.appends", 0),
        "dist.recovery.append_us": mean("dist.recovery.append", scale=1e3),
        "dist.recovery.checkpoints": c.get("recovery.checkpoints", 0),
        "dist.recovery.checkpoint_us":
            mean("dist.recovery.checkpoint", scale=1e3),
        "dist.recovery.record_bytes":
            record_bytes(ledger.records),
        "py.gc.collections": gc_clock.collections,
        "py.gc.pause_us": ratio(gc_clock.pause_ns / 1e3,
                                gc_clock.collections),
        "host.ref_us": statistics.median(runner.refs),
        "trace.overhead_ratio": ratio(plain, traced),
        "trace.ledger_residual_ratio": ledger.check()["residual_ratio"],
        "fail_ratio": fail_ratio,
    })
    for name in PER_LAYER:
        if name.startswith("exact."):
            values[name] = exact.get(name, 0)
    samples = max(1, ledger.requests)
    return {name: (values[name], unit, samples)
            for name, unit in PER_LAYER.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", default=None,
                        help="plant a defect the gate must catch "
                             "(wrong_read, double_assign)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        from workloads import PLANTS, WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.plant is not None and args.plant not in PLANTS:
        parser.error(f"--plant must be one of {PLANTS}")

    pin_to_one_cpu()
    gc_clock = GcClock()
    gc.callbacks.append(gc_clock)
    workload = WORKLOADS[args.workload](args.seed, args.plant)
    runner = Runner(workload, args.seconds, bool(args.trace))
    try:
        exact = runner.run()
    finally:
        gc.callbacks.remove(gc_clock)

    windows = runner.windows["plain"] + runner.windows["traced"]
    attempted = sum(window.ops for window in windows)
    failed = sum(window.failed for window in windows)
    fail_ratio = failed / attempted if attempted else 0.0
    correct = not workload.errors and failed == 0 and attempted > 0
    for error in workload.errors:
        print(f"GATE FAILED: {error}")

    metrics: Dict[str, Tuple[float, str, int]] = {}
    if runner.windows["plain"]:
        if args.trace:
            metrics = per_layer(runner, exact, gc_clock, fail_ratio)
        else:
            metrics = end_to_end(runner)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<40} {value:>16.4f} {unit:<6} n={samples}")
    if "fail_ratio" not in metrics:
        print(f"{'fail_ratio':<40} {fail_ratio:>16.6f} {'ratio':<6} "
              f"n={attempted}")
    for name, value in sorted(exact.items()):
        if name not in metrics:
            print(f"{name:<40} {value:>16.6f}")

    from estimate import diagnostics, pooled, windowed

    unbounded = diagnostics(runner.windows["plain"]) \
        if runner.windows["plain"] and not args.trace else {}
    for name, value in unbounded.items():
        if value is not None:
            print(f"{name:<40} {value:>16.4f} {'us':<6} diagnostic")

    diag: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "windows": len(runner.windows["plain"]),
        "host_ref_us": statistics.median(runner.refs) if runner.refs else None,
        "pooled": pooled(runner.windows["plain"]),
        "unbounded": unbounded,
        "wall": {name: entry["value"] for name, entry in
                 windowed(runner.windows["plain"], normalize=False).items()}
        if runner.windows["plain"] else {},
        "exact": exact,
    }
    if args.trace and runner.ledger is not None:
        out = os.path.join(ROOT, ".perfbench")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.jsonl")
        diag["spans_written"] = runner.ledger.write(path)
        diag["ledger"] = runner.ledger.check()
        diag["layers_us_per_request"] = {
            layer: ns / max(1, runner.ledger.requests) / 1e3
            for layer, (_count, ns) in sorted(runner.ledger.layers.items())}
        if abs(diag["ledger"]["residual_ratio"]) > LEDGER_TOLERANCE:
            print(f"LEDGER CHECK FAILED: {diag['ledger']}")
            correct = False
    print("diag " + json.dumps(diag))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Stuck-activation watchdog: turn silent hangs into diagnostics.

A wedged moderation protocol — an activation parked forever because a
wakeup was lost or a guard aspect leaked its reservation — is the worst
failure mode the framework can have: nothing raises, nothing logs, a
thread just never returns. :class:`ActivationWatchdog` is the optional
monitor that bounds the silence: a daemon thread periodically snapshots
the moderator's parked waiters and, for any activation parked longer
than ``deadline`` seconds, emits a ``watchdog_stall`` protocol event and
invokes ``on_stall`` with a :class:`StallReport` carrying everything a
human (or a supervisor process) needs: method, lock domain, parked
activation ids and ages, queue lengths, and the moderator's counter
snapshot.

The watchdog only *observes* — it never wakes, aborts or otherwise
perturbs the protocol, so arming it cannot change program behaviour.
Each stalled activation is reported once per park episode (and again
every ``deadline`` seconds while it stays parked, so long-lived stalls
keep surfacing in logs).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .moderator import AspectModerator


@dataclass(frozen=True)
class StallReport:
    """Diagnostic snapshot of one method's stalled activations."""

    method_id: str
    domain: str
    #: (activation_id, seconds parked) for every stalled waiter, oldest
    #: first
    activations: Tuple[Tuple[int, float], ...]
    #: parked-thread counts per method queue at snapshot time
    queue_lengths: Dict[str, int] = field(default_factory=dict)
    #: moderator counter snapshot (``ModerationStats.as_dict``)
    stats: Dict[str, int] = field(default_factory=dict)
    #: activation_id -> (trace_id, span_id) for stalled activations a
    #: span recorder knows about — the cross-reference from a watchdog
    #: stall into the obs plane (and the causal slicer's target key)
    traces: Dict[int, Tuple[str, str]] = field(default_factory=dict)

    def format(self) -> str:
        """Render the dump as one human-readable block."""
        lines = [
            f"STALL method={self.method_id!r} domain={self.domain!r} "
            f"parked={len(self.activations)}",
        ]
        for activation_id, age in self.activations:
            line = f"  activation {activation_id} parked {age:.3f}s"
            trace = self.traces.get(activation_id)
            if trace is not None:
                line += f" trace={trace[0]} span={trace[1]}"
            lines.append(line)
        lines.append(f"  queues: {self.queue_lengths}")
        lines.append(
            "  chain state: "
            f"resumes={self.stats.get('resumes', 0)} "
            f"blocks={self.stats.get('blocks', 0)} "
            f"wakeups={self.stats.get('wakeups', 0)} "
            f"notifications={self.stats.get('notifications', 0)} "
            f"faults={self.stats.get('faults', 0)}"
        )
        return "\n".join(lines)


class ActivationWatchdog:
    """Monitor thread that reports activations parked past a deadline.

    Args:
        moderator: the moderator to observe.
        deadline: seconds an activation may stay parked before it is
            considered stalled.
        interval: polling period; defaults to ``deadline / 4`` (bounded
            below at 10 ms).
        on_stall: callback receiving each :class:`StallReport`; errors
            raised by the callback are swallowed (a diagnostic hook must
            never take the watchdog down). An activation that stays
            parked is reported again every ``deadline`` seconds.
        recorder: optional span recorder (anything with a
            ``trace_of(activation_id)`` method, duck-typed so the core
            never imports the obs package); when given, each report's
            ``traces`` maps stalled activations to their
            ``(trace_id, span_id)`` for cross-referencing.

    Usable as a context manager::

        with ActivationWatchdog(moderator, deadline=2.0,
                                on_stall=print_report):
            run_workload()
    """

    def __init__(self, moderator: AspectModerator, deadline: float = 5.0,
                 interval: Optional[float] = None,
                 on_stall: Optional[Callable[[StallReport], None]] = None,
                 recorder: Optional[Any] = None) -> None:
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.moderator = moderator
        self.deadline = deadline
        self.interval = (
            interval if interval is not None else max(deadline / 4, 0.01)
        )
        self.on_stall = on_stall
        self.recorder = recorder
        self.reports: List[StallReport] = []
        self._reported: Dict[int, float] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "ActivationWatchdog":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="activation-watchdog", daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(1.0, self.interval * 4))
            self._thread = None

    def __enter__(self) -> "ActivationWatchdog":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.scan()
            except Exception:  # noqa: BLE001 - observer must survive
                continue

    def scan(self, now: Optional[float] = None) -> List[StallReport]:
        """One sampling pass; returns the reports emitted this pass."""
        now = time.monotonic() if now is None else now
        parked = self.moderator.parked_snapshot()
        with self._lock:
            # Forget activations that unparked since the last pass.
            for activation_id in list(self._reported):
                if activation_id not in parked:
                    del self._reported[activation_id]
            stalled: Dict[str, List[Tuple[int, float]]] = {}
            for activation_id, (method_id, since) in parked.items():
                age = now - since
                if age < self.deadline:
                    continue
                last = self._reported.get(activation_id)
                if last is not None and now - last < self.deadline:
                    continue
                self._reported[activation_id] = now
                stalled.setdefault(method_id, []).append(
                    (activation_id, age)
                )
        if not stalled:
            return []
        queue_lengths = self.moderator.queue_lengths()
        stats = self.moderator.stats.as_dict()
        emitted: List[StallReport] = []
        for method_id, activations in stalled.items():
            activations.sort(key=lambda pair: -pair[1])
            traces: Dict[int, Tuple[str, str]] = {}
            if self.recorder is not None:
                for activation_id, _age in activations:
                    try:
                        trace = self.recorder.trace_of(activation_id)
                    except Exception:  # noqa: BLE001 - observer only
                        trace = None
                    if trace is not None:
                        traces[activation_id] = trace
            report = StallReport(
                method_id=method_id,
                domain=self.moderator.lock_domain_of(method_id),
                activations=tuple(activations),
                queue_lengths=queue_lengths,
                stats=stats,
                traces=traces,
            )
            emitted.append(report)
            with self._lock:
                self.reports.append(report)
            # One event per stalled activation (not per method), so a
            # span recorder can annotate each stalled span and the
            # metrics plane counts stalls, not stall batches.
            for activation_id, age in activations:
                self.moderator.events.emit(
                    "watchdog_stall", method_id,
                    detail=f"parked {age:.3f}s > "
                           f"{self.deadline:.3f}s deadline "
                           f"({len(activations)} stalled on method)",
                    activation_id=activation_id,
                    duration=age,
                )
            if self.on_stall is not None:
                try:
                    self.on_stall(report)
                except Exception:  # noqa: BLE001 - hook must not kill us
                    pass
        return emitted

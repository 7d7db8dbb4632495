"""Heartbeat failure detection over the simulated network.

``Network.is_up`` answers whether a node is up — fine in simulation,
impossible in deployment. A real system infers liveness from messages,
and the :class:`~repro.dist.recovery.Supervisor` acts only on what this
module infers. It provides:

* :class:`HeartbeatEmitter` — a node-side daemon sending periodic
  heartbeat events to a monitor endpoint;
* :class:`HeartbeatDetector` — tracks last-seen times per node and
  classifies nodes as alive/suspect/dead by missed-heartbeat count
  (a timeout-based detector; the classic trade-off between detection
  latency and false suspicion is the ``suspect_after`` /
  ``dead_after`` knobs).

A lost heartbeat is indistinguishable from a dead node — exactly the
ambiguity real failure detectors live with, reproduced here because the
network drops messages for both reasons.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from .message import Message
from .network import Network, Sink


class HeartbeatEmitter:
    """Sends ``heartbeat`` events from a node to a monitor endpoint.

    The emitter loop is fault-contained: *any* exception in one beat —
    not just a dead link — is counted, reported through ``on_error``,
    and the daemon keeps beating. A silently dead emitter would be
    indistinguishable from a dead node, which is exactly the false
    positive a failure detector must not manufacture itself.
    """

    def __init__(self, network: Network, node_id: str,
                 monitor_endpoint: str, interval: float = 0.05,
                 on_error: Optional[
                     Callable[[BaseException], None]] = None) -> None:
        self.network = network
        self.node_id = node_id
        self.monitor_endpoint = monitor_endpoint
        self.interval = interval
        self.on_error = on_error
        self.sent = 0
        self.errors = 0
        self._running = False
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "HeartbeatEmitter":
        if self._running:
            return self
        self._running = True
        self._thread = threading.Thread(
            target=self._loop, name=f"heartbeat-{self.node_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while self._running:
            try:
                self.network.send(Message(
                    source=self.node_id, dest=self.monitor_endpoint,
                    kind="event",
                    payload={"heartbeat": self.node_id,
                             "seq": self.sent},
                ))
                self.sent += 1
            except Exception as exc:  # noqa: BLE001 - loop must survive
                self._report(exc)
            time.sleep(self.interval)

    def _report(self, exc: BaseException) -> None:
        self.errors += 1
        if self.on_error is not None:
            try:
                self.on_error(exc)
            except Exception:  # noqa: BLE001 - hook must not kill the loop
                pass

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=1.0)


class HeartbeatDetector:
    """Classifies nodes by heartbeat recency.

    States per node: ``alive`` (heartbeat within ``suspect_after``),
    ``suspect`` (silent longer than ``suspect_after``), ``dead``
    (silent longer than ``dead_after``). A heartbeat from a suspect or
    dead node restores it to alive (nodes can recover).

    ``confirm_dead`` arms suspicion hysteresis: a raw dead verdict is
    reported as ``suspect`` until it has been observed that many times
    with no heartbeat in between. A single delayed heartbeat therefore
    cannot trigger a spurious failover — the supervisor keeps seeing
    ``suspect`` while the verdict is unconfirmed, and any heartbeat
    arriving meanwhile resets the count. The default (1) is the
    legacy no-hysteresis behaviour.

    The detector starts no thread: its inbox is a
    :class:`~repro.dist.network.Sink`, so heartbeats are stamped, and
    ``on_error`` is called, on the sender's thread when the heartbeat
    is due now, else on the network's dispatcher thread.
    """

    def __init__(self, network: Network, endpoint: str,
                 suspect_after: float = 0.15,
                 dead_after: float = 0.4,
                 confirm_dead: int = 1,
                 clock: Callable[[], float] = time.monotonic,
                 on_error: Optional[
                     Callable[[BaseException], None]] = None,
                 events: Optional[object] = None) -> None:
        if dead_after <= suspect_after:
            raise ValueError("dead_after must exceed suspect_after")
        if confirm_dead < 1:
            raise ValueError("confirm_dead is a count, at least 1")
        self.network = network
        self.endpoint = endpoint
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.confirm_dead = confirm_dead
        self.on_error = on_error
        #: optional protocol event bus (``repro.core.events.EventBus``):
        #: state transitions surface as ``node_state`` events on the
        #: same observability plane the moderation protocol reports to
        self.events = events
        self._state_cache: Dict[str, str] = {}
        #: node -> (last_seen the votes were cast against, vote count);
        #: a newer heartbeat invalidates the votes wholesale
        self._dead_votes: Dict[str, tuple] = {}
        #: serializes cache transition + event emission, so
        #: ``node_state`` events fire in transition order even when
        #: many threads poll ``state_of`` concurrently
        self._emit_lock = threading.Lock()
        self._clock = clock
        self._lock = threading.Lock()
        self._last_seen: Dict[str, float] = {}
        self.heartbeats_received = 0
        self.errors = 0
        self.inbox = network.register(endpoint, Sink(self._on_heartbeat))

    def _on_heartbeat(self, message: Message) -> None:
        """Stamp the sender's last-seen time.

        Runs on the sender's thread when the heartbeat is due now, else
        on the network dispatcher. Contained like the emitter loop: a
        malformed heartbeat (or any other surprise) is reported and
        skipped, never raised into the delivering thread, so one bad
        message cannot stop later heartbeats.
        """
        try:
            node_id = message.payload.get("heartbeat")
            if node_id:
                with self._lock:
                    self._last_seen[node_id] = self._clock()
                    self.heartbeats_received += 1
        except Exception as exc:  # noqa: BLE001 - delivery must survive
            self._report(exc)

    def _report(self, exc: BaseException) -> None:
        with self._lock:
            self.errors += 1
        if self.on_error is not None:
            try:
                self.on_error(exc)
            except Exception:  # noqa: BLE001 - hook must not reach delivery
                pass

    # ------------------------------------------------------------------
    def watch(self, node_id: str) -> None:
        """Track ``node_id`` before its first heartbeat arrives."""
        with self._lock:
            self._last_seen.setdefault(node_id, self._clock())

    def state_of(self, node_id: str) -> str:
        with self._lock:
            last = self._last_seen.get(node_id)
        if last is None:
            return "unknown"
        silence = self._clock() - last
        if silence >= self.dead_after:
            state = "dead"
        elif silence >= self.suspect_after:
            state = "suspect"
        else:
            state = "alive"
        if state == "dead" and self.confirm_dead > 1:
            with self._lock:
                voted_at, votes = self._dead_votes.get(node_id, (None, 0))
                if voted_at != last:
                    votes = 0  # a heartbeat arrived: verdict invalidated
                votes += 1
                self._dead_votes[node_id] = (last, votes)
            if votes < self.confirm_dead:
                state = "suspect"  # dead verdict pending confirmation
        events = self.events
        if events is not None:
            with self._emit_lock:
                with self._lock:
                    previous = self._state_cache.get(node_id)
                    changed = previous != state
                    if changed:
                        self._state_cache[node_id] = state
                if changed:
                    events.emit(
                        "node_state", method_id=node_id,
                        detail=f"{previous or 'unknown'} -> {state}",
                        duration=silence,
                    )
        return state

    def alive(self, node_id: str) -> bool:
        return self.state_of(node_id) == "alive"

    def snapshot(self) -> Dict[str, str]:
        with self._lock:
            nodes = list(self._last_seen)
        return {node_id: self.state_of(node_id) for node_id in nodes}

    def wait_for_state(self, node_id: str, state: str,
                       timeout: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.state_of(node_id) == state:
                return True
            time.sleep(0.02)
        return False

    def close(self) -> None:
        self.network.unregister(self.endpoint)


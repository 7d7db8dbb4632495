"""Crash-restart recovery: durable effects, fencing, supervised failover.

The paper composes cross-cutting concerns as moderated aspects;
persistence/recovery is the canonical concern this module makes
composable rather than hand-woven (Munoz et al. classify state
capture/restore as an *invasive* pattern — exactly what must run at the
moderation seams, not inside components). Four pieces
(``docs/recovery.md``):

* **A real crash model** — ``Node.crash(lose_memory=True)`` discards
  every piece of volatile state (servants, runtimes, idempotency cache,
  epochs, journal attachments), and the faults plane gains ``"crash"``
  sites (node id × :data:`repro.faults.CRASH_POINTS`) so chaos
  schedules can kill a node at a named point *inside* one request's
  serving sequence.
* **Durability** — a write-ahead effect journal plus periodic
  checkpoints behind a pluggable :class:`RecoveryStore`
  (:class:`MemoryStore` for tests/simulation, :class:`FileStore` for
  real runs). A checkpoint is a :meth:`Handoff.pack` bundle — the
  same one a live migration or shard rebalance carries
  (:data:`HANDOFF_KEY` with ``IdempotencyCache.export_completed``
  inside the captured state dict) — so :func:`recover_service` unpacks
  the last checkpoint, replays the journal suffix, and returns the
  dedup seed that makes re-application exactly-once: a client retry of
  an effect the dead node already acknowledged replays the journaled
  reply instead of re-executing.
* **Fencing** — the naming service's binding version doubles as a
  monotonic fencing epoch (:attr:`~repro.dist.naming.Binding.epoch`).
  It rides armed requests on the wire and gates every journal append
  and checkpoint save, so a zombie node returning after it was declared
  dead gets its late writes and replies rejected
  (:class:`~repro.core.errors.FencedOut` — retryable, because
  re-resolving lands the caller on the current epoch holder).
* **Supervision** — :class:`Supervisor` turns
  :class:`~repro.dist.failure_detector.HeartbeatDetector` dead verdicts
  into automatic failover with per-service backoff and a failover cap:
  :func:`take_over` (expect, rebind minting the epoch, fence the
  store), recover from checkpoint + journal, :func:`install` (seed the
  dedup cache, attach, export); live moves arrive the same way. The
  fence is the linearization point — zombie appends that raced in
  before it are part of the replayed view, appends after it are
  rejected, so the handover is exactly-once by construction.

The journal itself is a moderated concern: the node registers a
:class:`~repro.dist.node.JournalAspect` last on a journaled service's
mutating methods. It takes the plan lock without waiting (BLOCK while
held) and its postaction appends the applied effect and releases the
lock, so journaled mutators are mutually exclusive, journal order is
apply order, and a checkpoint (which takes the same lock) never
captures an effect whose record lands after the recorded sequence. A
mutator parked by any aspect holds nothing, so blocking coordination
between mutators journals like any other call, on either runtime.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple
from urllib.parse import quote

from repro.core.errors import FencedOut, NameNotFound, NetworkError
from repro.obs.metrics import MetricsRegistry
from .message import WireFormatError, check_wire_safe, decode, encode
from .naming import Binding, NameService
from .node import Node

#: counters the supervisor keeps (prefix ``repro_recovery_``); nodes
#: keep their own block (journal appends / checkpoints / fenced
#: rejections) — see ``repro.dist.node``
_SUPERVISOR_COUNTERS = (
    "failovers", "failed_failovers", "effects_replayed", "dedup_seeded",
)


class RecoveryError(NetworkError):
    """Recovery could not produce a consistent servant (fail loud)."""


# ----------------------------------------------------------------------
# stores
# ----------------------------------------------------------------------
class RecoveryStore:
    """The durable plane behind journals and checkpoints.

    Per service it holds an append-only *effect journal* (monotonic
    sequence numbers that survive pruning), at most one *checkpoint*
    (``{"state": ..., "seq": ..., "epoch": ...}``), and a *fence*
    high-water epoch. ``append`` and ``save_checkpoint`` reject epochs
    below the fence with :class:`~repro.core.errors.FencedOut` — the
    durable backstop that stops a zombie from corrupting the journal
    even when its local epoch check cannot know it was superseded.

    Records and checkpoint state must be wire-safe
    (:func:`~repro.dist.message.check_wire_safe`): durability through a
    store is a serialization boundary, same as the wire.
    """

    def append(self, service: str, record: Dict[str, Any],
               epoch: int = 0) -> int:
        """Durably append one effect record; returns its sequence."""
        raise NotImplementedError

    def entries(self, service: str, after: int = 0) -> List[Dict[str, Any]]:
        """Journal entries with ``seq > after``, oldest first."""
        raise NotImplementedError

    def last_seq(self, service: str) -> int:
        """Highest sequence ever appended (survives pruning)."""
        raise NotImplementedError

    def save_checkpoint(self, service: str, checkpoint: Dict[str, Any],
                        epoch: int = 0) -> None:
        """Replace the service's checkpoint (atomic)."""
        raise NotImplementedError

    def load_checkpoint(self, service: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def fence(self, service: str, epoch: int) -> int:
        """Raise the fence high-water to ``epoch``; returns the fence."""
        raise NotImplementedError

    def fenced_epoch(self, service: str) -> int:
        raise NotImplementedError

    def prune(self, service: str, upto: int) -> int:
        """Drop journal entries with ``seq <= upto``; returns how many."""
        raise NotImplementedError

    # shared guards -----------------------------------------------------
    @staticmethod
    def _check(what: str, service: str, value: Dict[str, Any]) -> None:
        if not check_wire_safe(value):
            raise WireFormatError(f"{what} for {service!r} is not wire-safe")

    @staticmethod
    def _check_fence(service: str, epoch: int, fence: int) -> None:
        if epoch < fence:
            raise FencedOut(
                f"durable write for {service!r} at epoch {epoch} "
                f"rejected: store fenced at {fence}",
                stale_epoch=epoch, current_epoch=fence,
            )


class MemoryStore(RecoveryStore):
    """In-memory durable store for tests and simulation.

    "Durable" here means: survives :meth:`Node.crash` with
    ``lose_memory=True`` — the store object lives outside any node, the
    way a disk outlives a process. Records and checkpoints are kept
    encoded (:func:`~repro.dist.message.encode`) and decoded on the way
    out, so nothing is shared with the writer or the reader.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: per service: ``(seq, epoch, encoded record)``, oldest first
        self._journals: Dict[str, List[Tuple[int, int, bytes]]] = {}
        self._checkpoints: Dict[str, bytes] = {}
        self._fences: Dict[str, int] = {}
        self._seqs: Dict[str, int] = {}

    def append(self, service: str, record: Dict[str, Any],
               epoch: int = 0) -> int:
        data = encode(record)
        with self._lock:
            self._check_fence(service, epoch,
                              self._fences.get(service, 0))
            seq = self._seqs.get(service, 0) + 1
            self._seqs[service] = seq
            self._journals.setdefault(service, []).append(
                (seq, int(epoch), data))
            return seq

    def entries(self, service: str, after: int = 0) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {"seq": seq, "epoch": epoch, "record": decode(data)}
                for seq, epoch, data in self._journals.get(service, ())
                if seq > after
            ]

    def last_seq(self, service: str) -> int:
        with self._lock:
            return self._seqs.get(service, 0)

    def save_checkpoint(self, service: str, checkpoint: Dict[str, Any],
                        epoch: int = 0) -> None:
        data = encode(checkpoint)
        with self._lock:
            self._check_fence(service, epoch,
                              self._fences.get(service, 0))
            self._checkpoints[service] = data

    def load_checkpoint(self, service: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            data = self._checkpoints.get(service)
        return decode(data) if data is not None else None

    def fence(self, service: str, epoch: int) -> int:
        with self._lock:
            fence = max(self._fences.get(service, 0), int(epoch))
            self._fences[service] = fence
            return fence

    def fenced_epoch(self, service: str) -> int:
        with self._lock:
            return self._fences.get(service, 0)

    def prune(self, service: str, upto: int) -> int:
        with self._lock:
            journal = self._journals.get(service, [])
            kept = [entry for entry in journal if entry[0] > upto]
            dropped = len(journal) - len(kept)
            self._journals[service] = kept
            return dropped


class FileStore(RecoveryStore):
    """File-backed store: one journal/checkpoint/fence file per service.

    The journal is JSONL (one ``{"seq", "epoch", "record"}`` object per
    line), fsynced per append — an acknowledged effect is on disk
    before the reply leaves the node. Checkpoints and fences are whole
    JSON files replaced atomically (write-temp-then-rename). Service
    names are percent-encoded into file names, so sharded services
    (``"kv#s0"``) store cleanly.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        self._seqs: Dict[str, int] = {}
        self._fences: Dict[str, int] = {}

    def _path(self, service: str, kind: str) -> str:
        return os.path.join(self.root, f"{quote(service, safe='')}.{kind}")

    def _write_atomic(self, path: str, data: Dict[str, Any]) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _read_json(self, path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def _journal_lines(self, service: str) -> List[Dict[str, Any]]:
        # under self._lock
        path = self._path(service, "journal")
        entries: List[Dict[str, Any]] = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        entries.append(json.loads(line))
        except OSError:
            pass
        return entries

    def _ensure_seq(self, service: str) -> int:
        # under self._lock
        if service not in self._seqs:
            seq = 0
            checkpoint = self._read_json(self._path(service, "checkpoint"))
            if checkpoint:
                seq = int(checkpoint.get("seq", 0))
            for entry in self._journal_lines(service):
                seq = max(seq, int(entry.get("seq", 0)))
            self._seqs[service] = seq
        return self._seqs[service]

    def _ensure_fence(self, service: str) -> int:
        # under self._lock
        if service not in self._fences:
            data = self._read_json(self._path(service, "fence"))
            self._fences[service] = int((data or {}).get("epoch", 0))
        return self._fences[service]

    def append(self, service: str, record: Dict[str, Any],
               epoch: int = 0) -> int:
        self._check("journal record", service, record)
        with self._lock:
            self._check_fence(service, epoch, self._ensure_fence(service))
            seq = self._ensure_seq(service) + 1
            self._seqs[service] = seq
            entry = {"seq": seq, "epoch": int(epoch), "record": record}
            with open(self._path(service, "journal"), "a",
                      encoding="utf-8") as handle:
                handle.write(json.dumps(entry) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            return seq

    def entries(self, service: str, after: int = 0) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                entry for entry in self._journal_lines(service)
                if int(entry.get("seq", 0)) > after
            ]

    def last_seq(self, service: str) -> int:
        with self._lock:
            return self._ensure_seq(service)

    def save_checkpoint(self, service: str, checkpoint: Dict[str, Any],
                        epoch: int = 0) -> None:
        self._check("checkpoint", service, checkpoint)
        with self._lock:
            self._check_fence(service, epoch, self._ensure_fence(service))
            self._write_atomic(self._path(service, "checkpoint"),
                               checkpoint)

    def load_checkpoint(self, service: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._read_json(self._path(service, "checkpoint"))

    def fence(self, service: str, epoch: int) -> int:
        with self._lock:
            fence = max(self._ensure_fence(service), int(epoch))
            self._fences[service] = fence
            self._write_atomic(self._path(service, "fence"),
                               {"epoch": fence})
            return fence

    def fenced_epoch(self, service: str) -> int:
        with self._lock:
            return self._ensure_fence(service)

    def prune(self, service: str, upto: int) -> int:
        with self._lock:
            self._ensure_seq(service)
            entries = self._journal_lines(service)
            kept = [e for e in entries if int(e.get("seq", 0)) > upto]
            dropped = len(entries) - len(kept)
            path = self._path(service, "journal")
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                for entry in kept:
                    handle.write(json.dumps(entry) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            return dropped


# ----------------------------------------------------------------------
# plans and recovery
# ----------------------------------------------------------------------
#: key the handoff bundle (completed dedup entries + aspect state) rides
#: under inside a packed state dict; stripped before ``rebuild`` sees it
HANDOFF_KEY = "__handoff__"


@dataclass(eq=False)
class Handoff:
    """What travels with a service: a checkpoint, a move, a rebalance.

    ``capture`` / ``rebuild`` see only the servant's own wire-safe
    state dict; :meth:`pack` adds the bundle (the node's completed
    idempotency entries, ``aspect_capture`` output) and :meth:`unpack`
    strips it, so a retry of a call the old home applied replays.
    """

    capture: Callable[[Any], Dict[str, Any]]
    rebuild: Callable[[Dict[str, Any]], Any]
    aspect_capture: Optional[Callable[[Any], Dict[str, Any]]] = None
    aspect_restore: Optional[Callable[[Any, Dict[str, Any]], None]] = None

    def pack(self, servant: Any, dedup: Any) -> Dict[str, Any]:
        """Capture ``servant`` plus the bundle from ``dedup``'s cache."""
        packed = dict(self.capture(servant))
        bundle: Dict[str, Any] = {"dedup": dedup.export_completed()}
        if self.aspect_capture is not None:
            bundle["aspects"] = self.aspect_capture(servant)
        packed[HANDOFF_KEY] = bundle
        return packed

    def unpack(self, packed: Dict[str, Any],
               ) -> Tuple[Any, Dict[str, Dict[str, Any]]]:
        """Copy through the wire codec, rebuild; returns servant and
        dedup seed."""
        state = decode(encode(packed))
        bundle = state.pop(HANDOFF_KEY, None) or {}
        servant = self.rebuild(state)
        if self.aspect_restore is not None:
            self.aspect_restore(servant, bundle.get("aspects", {}))
        return servant, dict(bundle.get("dedup", {}))


#: guards :attr:`RecoveryPlan.parked`: its lazy creation, and each
#: add and copy
_PARKED_LOCK = threading.Lock()


class RecoveryPlan(Handoff):
    """How one service journals, checkpoints, and rebuilds.

    ``capture`` / ``rebuild`` / ``aspect_capture`` / ``aspect_restore``
    are the service's :class:`Handoff`: a checkpoint is one packed
    bundle. ``mutating`` names the methods whose effects must
    be journaled (``None`` journals every method — safe but noisy for
    read-heavy services; the mutating set **must** cover every
    state-changing method or recovery silently loses the uncovered
    effects). ``checkpoint_every`` takes an automatic checkpoint after
    that many journal appends (0 = manual checkpoints only).

    The plan ``lock`` is held by one journaled mutation from its
    journal precondition to its append, or by one checkpoint; it is
    shared by every node the plan is attached to across the service's
    lifetime, so a failover target keeps the same atomicity the source
    had. A plain lock: the reactor may release it on another thread.
    """

    def __init__(self, store: RecoveryStore,
                 capture: Callable[[Any], Dict[str, Any]],
                 rebuild: Callable[[Dict[str, Any]], Any], *,
                 mutating: Optional[Iterable[str]] = None,
                 aspect_capture: Optional[
                     Callable[[Any], Dict[str, Any]]] = None,
                 aspect_restore: Optional[
                     Callable[[Any, Dict[str, Any]], None]] = None,
                 checkpoint_every: int = 0) -> None:
        super().__init__(capture, rebuild, aspect_capture, aspect_restore)
        self.store = store
        self.mutating = frozenset(mutating) if mutating is not None \
            else None
        self.checkpoint_every = int(checkpoint_every)
        self.lock = threading.Lock()
        self.appended = 0
        #: the moderators a journaled mutator has parked in, BLOCKed on
        #: :attr:`lock`, on any node the plan is attached to, since the
        #: last wake; made at such a park, so a plan nobody waits on
        #: holds none
        self.parked: "Optional[weakref.WeakSet[Any]]" = None

    def journals(self, method: str) -> bool:
        """Whether calls of ``method`` must hit the journal."""
        return self.mutating is None or method in self.mutating

    def park(self, moderator: Any) -> None:
        """Remember that a mutator is about to park in ``moderator``
        waiting for :attr:`lock`; a checkpoint on any node wakes it."""
        with _PARKED_LOCK:
            if self.parked is None:
                self.parked = weakref.WeakSet()
            self.parked.add(moderator)

    def wake_parked(self) -> None:
        """Wake the mutators parked on :attr:`lock`, wherever they
        parked (call after releasing it), and forget them: one that
        finds the lock taken again parks, and registers, again."""
        with _PARKED_LOCK:  # a concurrent park must not change the set
            parked, self.parked = self.parked, None
            parked = list(parked or ())  # while this copies it
        for moderator in parked:
            moderator.notify()


@dataclass
class RecoveredService:
    """What :func:`recover_service` hands the supervisor."""

    servant: Any
    #: idempotency entries to seed into the new home's dedup cache:
    #: the checkpoint's handoff export plus one entry per replayed
    #: journal record that carried a key — a client retry of an effect
    #: the dead node acknowledged replays instead of re-executing
    dedup_seed: Dict[str, Dict[str, Any]]
    replayed: int
    checkpoint_seq: int


def recover_service(plan: RecoveryPlan, service: str,
                    bootstrap: Optional[Callable[[], Any]] = None,
                    ) -> RecoveredService:
    """Rebuild a servant from its checkpoint + journal suffix.

    Loads the last checkpoint (or calls ``bootstrap`` for a service
    that never checkpointed), strips and applies the handoff bundle,
    then replays every journal entry past the checkpoint sequence in
    order. Records carrying an idempotency key contribute their
    journaled reply to the dedup seed — re-application stays
    exactly-once even for effects whose acknowledgement the client
    never saw. A replay failure is a :class:`RecoveryError`: a
    partially recovered servant is corruption, not degraded service.
    """
    checkpoint = plan.store.load_checkpoint(service)
    if checkpoint is not None:
        servant, dedup_seed = plan.unpack(checkpoint.get("state", {}))
        after = int(checkpoint.get("seq", 0))
    else:
        if bootstrap is None:
            raise RecoveryError(
                f"service {service!r} has no checkpoint and no bootstrap"
            )
        servant, dedup_seed = bootstrap(), {}
        after = 0
    replayed = 0
    for entry in plan.store.entries(service, after=after):
        record = entry.get("record", {})
        try:
            Node._dispatch(servant, record.get("method", ""),
                           record.get("args", ()), record.get("kwargs", {}),
                           record.get("caller"), None)
        except BaseException as exc:  # noqa: BLE001 - fail loud
            raise RecoveryError(
                f"replay of journal entry {entry.get('seq')} "
                f"({record.get('method')!r}) for {service!r} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        key = record.get("key")
        if key:
            journaled_reply = record.get("reply") or {}
            dedup_seed.setdefault(key, {
                "kind": journaled_reply.get("kind") or "reply",
                "payload": dict(journaled_reply.get("payload") or {}),
            })
        replayed += 1
    return RecoveredService(servant=servant, dedup_seed=dedup_seed,
                            replayed=replayed, checkpoint_seq=after)


# ----------------------------------------------------------------------
# placement: the one way a service arrives at a node
# ----------------------------------------------------------------------
def take_over(names: NameService, name: str, service: str, target: Node,
              plan: Optional[RecoveryPlan]) -> Binding:
    """expect → rebind (mints the epoch) → fence the plan's store."""
    target.expect(service)
    binding = names.rebind(name, target.node_id, service)
    if plan is not None:
        plan.store.fence(service, binding.epoch)
    return binding


def install(target: Node, service: str, servant: Any,
            dedup_seed: Dict[str, Dict[str, Any]],
            plan: Optional[RecoveryPlan], epoch: int) -> int:
    """seed dedup → attach the plan → export; returns entries seeded.

    Seeding precedes the export: the first request served may be a
    retry of a call the old home applied.
    """
    seeded = target.dedup.seed(dedup_seed)
    if plan is not None:
        target.attach_recovery(service, plan)
    target.export(service, servant, epoch=epoch)
    return seeded


# ----------------------------------------------------------------------
# supervision
# ----------------------------------------------------------------------
@dataclass
class FailoverReport:
    """Outcome of one automatic (or manual) failover."""

    name: str
    service: str
    from_node: str
    to_node: str
    epoch: int
    replayed: int
    seeded: int
    duration: float


class SupervisedService:
    """One name under supervision: plan, replicas, restart policy."""

    def __init__(self, name: str, service: str, plan: RecoveryPlan,
                 candidates: List[Node],
                 bootstrap: Optional[Callable[[], Any]] = None,
                 backoff: float = 0.5, max_failovers: int = 8) -> None:
        self.name = name
        self.service = service
        self.plan = plan
        self.candidates = list(candidates)
        self.bootstrap = bootstrap
        #: minimum seconds between failover attempts of this service —
        #: the restart policy's damper, so a flapping detector cannot
        #: bounce the service across the cluster
        self.backoff = backoff
        #: give-up threshold: after this many failovers the supervisor
        #: stops moving the service and reports failed_failovers
        self.max_failovers = max_failovers
        self.failovers = 0
        self.gave_up = False
        self.last_attempt = float("-inf")


class Supervisor:
    """Turns detector dead verdicts into checkpoint-seeded failovers.

    The failover sequence (``docs/recovery.md``) is ordered so the
    fence is the linearization point::

        take_over(...)          # expect → rebind (epoch) → fence
        recover_service(plan)   # checkpoint + journal replay
        install(...)            # seed dedup → attach plan → export

    Zombie appends that land *before* the fence are included in the
    journal read during recovery — still exactly-once; appends after it
    raise :class:`~repro.core.errors.FencedOut` at the store. Dead
    verdicts come from the heartbeat detector (arm its ``confirm_dead``
    hysteresis to keep one delayed heartbeat from triggering a spurious
    move); candidates must be emitting heartbeats, because only an
    *alive* candidate is ever chosen as the new home.
    """

    def __init__(self, names: NameService, detector: Any,
                 registry: Optional[MetricsRegistry] = None,
                 events: Optional[Any] = None,
                 clock: Callable[[], float] = time.monotonic,
                 on_error: Optional[
                     Callable[[BaseException], None]] = None) -> None:
        self.names = names
        self.detector = detector
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._counters = self.registry.counter_block(
            _SUPERVISOR_COUNTERS, prefix="repro_recovery_"
        )
        #: optional protocol event bus: failovers surface as
        #: ``recovery`` events next to the detector's ``node_state``
        self.events = events
        self.on_error = on_error
        self._clock = clock
        self._services: List[SupervisedService] = []
        self._lock = threading.Lock()
        self.history: List[FailoverReport] = []
        self._running = False
        self._thread: Optional[threading.Thread] = None

    def supervise(self, name: str, service: str, plan: RecoveryPlan,
                  candidates: List[Node],
                  bootstrap: Optional[Callable[[], Any]] = None,
                  backoff: float = 0.5,
                  max_failovers: int = 8) -> SupervisedService:
        """Register a name for automatic failover."""
        spec = SupervisedService(
            name, service, plan, candidates, bootstrap=bootstrap,
            backoff=backoff, max_failovers=max_failovers,
        )
        with self._lock:
            self._services.append(spec)
        return spec

    # ------------------------------------------------------------------
    def place(self, spec: SupervisedService,
              target: Node) -> Tuple[Binding, RecoveredService]:
        """Run the full placement sequence onto ``target``.

        Used both for initial placement (no checkpoint yet — the
        bootstrap builds the servant, and a baseline checkpoint is
        taken immediately) and for failover. Returns the new binding —
        its version is the fencing epoch the service now holds — and
        the recovered service it was built from.
        """
        binding = take_over(self.names, spec.name, spec.service, target,
                            spec.plan)
        recovered = recover_service(spec.plan, spec.service,
                                    bootstrap=spec.bootstrap)
        seeded = install(target, spec.service, recovered.servant,
                         recovered.dedup_seed, spec.plan, binding.epoch)
        # Baseline checkpoint at the new home: the replayed journal
        # suffix is folded into durable state and pruned, so the *next*
        # recovery starts from here instead of replaying history.
        target.checkpoint(spec.service)
        if recovered.replayed:
            self._counters.bump("effects_replayed",
                                amount=recovered.replayed)
        if seeded:
            self._counters.bump("dedup_seeded", amount=seeded)
        return binding, recovered

    def failover(self, spec: SupervisedService, target: Node,
                 from_node: str = "") -> FailoverReport:
        """Fail ``spec`` over to ``target`` now (also usable manually)."""
        started = self._clock()
        binding, recovered = self.place(spec, target)
        spec.failovers += 1
        spec.last_attempt = self._clock()
        report = FailoverReport(
            name=spec.name, service=spec.service, from_node=from_node,
            to_node=target.node_id, epoch=binding.epoch,
            replayed=recovered.replayed,
            seeded=len(recovered.dedup_seed),
            duration=self._clock() - started,
        )
        self._counters.bump("failovers")
        self.history.append(report)
        if self.events is not None:
            try:
                self.events.emit(
                    "recovery", method_id=spec.name,
                    detail=(f"failover {from_node or '?'} -> "
                            f"{target.node_id} epoch {binding.epoch} "
                            f"replayed {report.replayed}"),
                    duration=report.duration,
                )
            except Exception as exc:  # noqa: BLE001 - bus must not kill us
                self._report(exc)
        return report

    def _pick(self, spec: SupervisedService,
              exclude: str) -> Optional[Node]:
        for node in spec.candidates:
            if node.node_id == exclude:
                continue
            if self.detector.state_of(node.node_id) == "alive":
                return node
        return None

    def check_once(self) -> List[FailoverReport]:
        """One supervision round: fail over every dead-bound service."""
        with self._lock:
            specs = list(self._services)
        reports: List[FailoverReport] = []
        for spec in specs:
            if spec.gave_up:
                continue
            try:
                binding = self.names.resolve(spec.name)
            except NameNotFound:
                continue
            if binding.unbound:
                continue
            if self.detector.state_of(binding.node_id) != "dead":
                continue
            now = self._clock()
            if now - spec.last_attempt < spec.backoff:
                continue
            spec.last_attempt = now
            if spec.failovers >= spec.max_failovers:
                spec.gave_up = True
                self._counters.bump("failed_failovers")
                continue
            target = self._pick(spec, exclude=binding.node_id)
            if target is None:
                self._counters.bump("failed_failovers")
                continue
            try:
                reports.append(self.failover(
                    spec, target, from_node=binding.node_id))
            except Exception as exc:  # noqa: BLE001 - keep supervising
                self._counters.bump("failed_failovers")
                self._report(exc)
        return reports

    def _report(self, exc: BaseException) -> None:
        if self.on_error is not None:
            try:
                self.on_error(exc)
            except Exception:  # noqa: BLE001 - hook must not kill the loop
                pass

    # ------------------------------------------------------------------
    def start(self, interval: float = 0.05) -> "Supervisor":
        """Run :meth:`check_once` on a daemon loop every ``interval``."""
        if self._running:
            return self
        self._running = True
        self._thread = threading.Thread(
            target=self._loop, args=(interval,), name="supervisor",
            daemon=True,
        )
        self._thread.start()
        return self

    def _loop(self, interval: float) -> None:
        while self._running:
            try:
                self.check_once()
            except Exception as exc:  # noqa: BLE001 - loop must survive
                self._report(exc)
            time.sleep(interval)

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None

    def metrics(self) -> Dict[str, int]:
        """Consistent snapshot of the supervisor's recovery counters."""
        return self._counters.as_dict()

    def __repr__(self) -> str:
        return (
            f"<Supervisor services={len(self._services)} "
            f"failovers={len(self.history)}>"
        )

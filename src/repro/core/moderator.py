"""The aspect moderator: coordinator of functional and aspectual behaviour.

Paper, Section 4.2 / 5.2: upon a message reception that involves a
participating method, the proxy delegates to the moderator, which

1. evaluates the *pre-activation* phase — calling ``precondition()`` of
   every required aspect in composition order; BLOCK parks the caller on
   the method's wait queue inside a re-evaluation loop (Figure 11's
   ``while (result == BLOCKED) wait()``), ABORT rejects the activation;
2. after the method executes, evaluates the *post-activation* phase —
   calling ``postaction()`` of the aspects in reverse order and notifying
   wait queues so blocked activations re-evaluate (Figure 11's
   ``notify()``).

Concurrency design
------------------

The paper synchronizes each phase on a *per-method* Java monitor. The
framework reproduces exactly that via **lock domains**
(:class:`~repro.concurrency.primitives.LockDomain`): every participating
method is assigned to a domain holding one lock and one condition queue
per method. Three regimes coexist:

* **striped (default)** — each method gets a private domain, so the
  precondition chains of unrelated methods (say ``open`` and ``assign``)
  evaluate concurrently. Within one method, rounds stay atomic: an
  activation observes and mutates aspect state atomically with respect
  to every other activation *of the same method*. Aspects whose state
  spans several methods must either carry their own lock
  (:class:`~repro.core.aspect.StatefulAspect` does) or opt into…
* **shared domains (opt-in)** — registering an aspect with a
  ``lock_domain`` (parameter or aspect attribute) places its method in
  that named domain. All methods of one domain moderate under a single
  lock, restoring the seed's moderator-wide monitor for exactly the
  group that needs it — e.g. paper-style sync aspects that mutate a
  shared counter in ``precondition()`` without any lock of their own.
* **lock-free fast path** — when every aspect in a method's chain
  declares ``never_blocks = True`` (timing, audit, caching, validation:
  aspects that may RESUME or ABORT but never BLOCK, and whose
  postactions never enable another method's blocked precondition), the
  moderator skips the condition machinery entirely: no domain lock is
  taken for either phase. Completions on the fast path still perform a
  wake when (and only when) some activation is parked anywhere on the
  moderator, so a mixed deployment cannot lose wakeups.

Post-activation uses a **two-phase wake**: postactions run under the
method's own domain lock, which is then *released* before any queue is
notified. Each target queue is notified under its own lock, so a
completion of ``open`` can wake waiters of ``assign`` across domains
without ever holding two domain locks at once — no lock-order cycles by
construction. A waiter cannot miss such a wake: it evaluates and parks
while continuously holding its own domain lock, which the notifier must
acquire, so the notification is always ordered after the park.

The functional method itself always runs *outside* every moderator lock
— only moderation is serialized, and only per domain.

Fix over the paper: the published listings mutate synchronization
counters inside ``precondition()`` but never undo them when a *later*
aspect in the chain blocks or aborts. The moderator closes that hole by
invoking ``on_abort()`` on already-RESUMEd aspects, in reverse order,
before waiting or aborting. A second repair: when a timeout expires
while an activation is parked, the chain is re-evaluated one final time
before :class:`ActivationTimeout` is raised, so a notification that
races the deadline is honoured rather than dropped.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.concurrency.primitives import LockDomain
from repro.obs.metrics import MetricsRegistry

from .aspect import Aspect, _coerce_result
from .bank import AspectBank
from .errors import (
    ActivationTimeout,
    AspectFault,
    CompositionErrors,
    ContractViolation,
    MethodAborted,
    RegistrationError,
)
from .events import DeliveringTally, EventBus
from .health import FAIL_CLOSED, FAIL_OPEN, HealthTracker
from .joinpoint import JoinPoint
from .ordering import OrderingPolicy, registration_order
from .plan import ActivationPlan, PlanHandle, compile_plan
from .results import AspectResult, Phase

#: context key under which the RESUMEd chain is stashed between phases
CHAIN_KEY = "__moderation_chain__"

#: context key under which an activation's contract runner is stashed
#: between phases; must match ``repro.contracts.CONTRACT_KEY`` (the
#: literal is duplicated so the core never imports the contracts
#: package — contracts-off deployments pay no import, and no cycle)
CONTRACT_KEY = "__contract_runner__"

#: prefix of the private (per-method) lock-domain namespace; user-chosen
#: shared domain names never collide with it
_PRIVATE_DOMAIN_PREFIX = "~method:"


#: the moderation counters, in their historical declaration order
STAT_NAMES: Tuple[str, ...] = (
    "preactivations", "resumes", "blocks", "aborts", "waits", "wakeups",
    "postactivations", "notifications", "compensations", "fastpaths",
    "faults", "quarantines", "reinstatements", "degraded_skips",
    "plan_compiles", "contract_violations",
)

#: the counters a round's outcome flushes, indexed by the join point's
#: ``uncounted_entry``: 0 a later round, 1 the first locked round, 2 the
#: fast-path round (which counts ``fastpaths`` when it RESUMEs)
_RESUME_FLUSH = (("resumes",), ("preactivations", "resumes"),
                 ("preactivations", "resumes", "fastpaths"))
_ABORT_FLUSH = (("aborts",),) + (("preactivations", "aborts"),) * 2
_BLOCK_FLUSH = (("blocks",),) + (("preactivations", "blocks"),) * 2
#: post-activation's flush, with its wake or with the wake elided
_WAKE_FLUSH = ("postactivations", "notifications")
_ELIDED_FLUSH = ("postactivations",)


class ModerationStats:
    """Aggregate counters maintained by a moderator.

    Backed by a thread-striped :class:`~repro.obs.metrics.MetricsRegistry`
    rather than one global lock: a write touches only the calling
    thread's stripe, whose lock no other writer ever contends — so the
    lock-free ``never_blocks`` fast path does not serialize every
    method's activations on a single cross-method lock.

    The moderator writes each activation phase's counters in one
    :meth:`flush`: pre-activation with its first round's outcome
    (``preactivations`` + ``resumes`` (+ ``fastpaths``), or + ``aborts``
    / + ``blocks``), post-activation at its wake (``postactivations`` +
    ``notifications``). Rarer counters (faults, compensations, waits,
    wakeups, ...) are separate :meth:`bump` calls where they happen.

    Counters remain readable as plain attributes (``stats.resumes``) and
    :meth:`as_dict` remains a *consistent* snapshot: the merge holds all
    stripe locks at once, so a flush is never observed torn — no
    snapshot shows a resume without its preactivation, or a
    postactivation without its resume.
    """

    __slots__ = ("registry", "_block", "compile_seconds")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._block = self.registry.counter_block(
            STAT_NAMES, prefix="repro_moderation_"
        )
        #: plan-compilation latency histogram (seconds). Recorded on the
        #: registry, *not* the event bus: a compile is cache bookkeeping,
        #: and the event stream must not depend on when plans recompile
        #: (the differential suites hold streams byte-identical).
        self.compile_seconds = self.registry.histogram(
            "repro_plan_compile_seconds",
            help="Activation-plan compilation latency in seconds",
        ).labels()

    def bump(self, *names: str, amount: int = 1) -> None:
        """Increment each named counter by ``amount``, as one atomic cut."""
        self._block.bump(*names, amount=amount)

    def flush(self, names: Tuple[str, ...]) -> None:
        """Count one of each of ``names`` in one locked stripe write."""
        self._block.add(names)

    def __getattr__(self, name: str) -> int:
        if name in STAT_NAMES:
            return int(self._block.value(name))
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def as_dict(self) -> Dict[str, int]:
        """Consistent snapshot of every counter (all stripes, one cut)."""
        return self._block.as_dict()


class Activation:
    """One activation's state across Figure 11's rounds (slow path only).

    The continuation runtime's ``ActivationContinuation`` is one, so the
    state outlives the worker's stack while parked.
    """

    __slots__ = ("method_id", "joinpoint", "plan", "effective_timeout",
                 "expires_at", "timed_out", "woken", "parked_since")

    def __init__(self, method_id: str, joinpoint: JoinPoint) -> None:
        self.method_id = method_id
        self.joinpoint = joinpoint
        #: the entry step's validated plan, then the last round's
        self.plan: Optional[ActivationPlan] = None
        self.effective_timeout: Optional[float] = None
        #: absolute end of every park, on the seam's clock
        self.expires_at: Optional[float] = None
        #: the deadline passed while parked: one final round, then
        #: :class:`ActivationTimeout`
        self.timed_out = False
        #: a wake (not the deadline) ended the last park
        self.woken = False
        self.parked_since = 0.0


class ConditionSeam:
    """The threaded park seam: the thread waits on the domain Condition."""

    __slots__ = ("_moderator",)
    now = staticmethod(time.monotonic)

    def __init__(self, moderator: "AspectModerator") -> None:
        self._moderator = moderator

    def register_park(self, activation: Activation) -> None:
        moderator = self._moderator
        moderator._parked += 1
        moderator._parked_info[activation.joinpoint.activation_id] = (
            activation.method_id, activation.parked_since,
        )

    def park(self, activation: Activation,
             queue: threading.Condition) -> bool:
        moderator = self._moderator
        try:
            if activation.expires_at is None:
                queue.wait()
                activation.woken = True
            else:
                remaining = activation.expires_at - time.monotonic()
                # A timed-out park still runs one final round: a notify
                # may have raced the deadline.
                if remaining > 0 and queue.wait(remaining):
                    activation.woken = True
                else:
                    activation.timed_out = True
        finally:
            with moderator._waiter_guard:
                moderator._parked -= 1
                moderator._parked_info.pop(
                    activation.joinpoint.activation_id, None
                )
        return True


class AspectModerator:
    """Evaluates and coordinates the aspects of participating methods.

    Mirrors the paper's ``AspectModerator`` class (Figure 12):
    ``registeraspect`` / ``preactivation`` / ``postactivation``, backed by
    the two-dimensional aspect bank.

    Args:
        bank: aspect registry; a fresh :class:`AspectBank` by default.
        ordering: composition-order policy, resolved into every plan.
        events: protocol event bus; a fresh :class:`EventBus` by default.
        default_timeout: optional bound, in seconds, on how long a
            BLOCKed activation may wait before :class:`ActivationTimeout`
            (``None`` reproduces the paper's unbounded wait).
        notify_scope: wakeup policy after post-activation — see below.
        fault_threshold: default number of aspect faults tolerated per
            (method, concern) cell before its quarantine policy (if any)
            kicks in; overridable per registration or per aspect.

    Activations execute compiled :class:`~repro.core.plan.ActivationPlan`
    pipelines, cached under one version int (:attr:`registration_version`)
    and recompiled only when a registration, ordering, lock-domain,
    quarantine, injector, contract or profile change moves it.
    """

    def __init__(
        self,
        bank: Optional[AspectBank] = None,
        ordering: OrderingPolicy = registration_order,
        events: Optional[EventBus] = None,
        default_timeout: Optional[float] = None,
        notify_scope: str = "all",
        fault_threshold: int = 3,
    ) -> None:
        if notify_scope not in ("all", "linked"):
            raise ValueError("notify_scope must be 'all' or 'linked'")
        #: Version of the aspect composition, stored. Every compiled
        #: plan is keyed on it, and proxies key their guarded-wrapper
        #: caches on it. :meth:`_bump_version` moves it by one for every
        #: (un)registration or reorder (through :meth:`AspectBank.watch`,
        #: so direct mutation of a shared bank moves every moderator on
        #: it), quarantine transition (through the health tracker),
        #: lock-domain move, and ordering, injector, contract or
        #: profiler change: a plan or cached wrapper never outlives the
        #: composition it was built against. Read bare (an atomic int);
        #: a stale read only delays revalidation by one call.
        self.registration_version = 0
        self._version_lock = threading.Lock()
        self.bank = bank if bank is not None else AspectBank()
        self.bank.watch(self._bump_version)
        self.events = events if events is not None else EventBus()
        #: installed clause profiler (``repro.obs.profile``), or ``None``
        #: — plans compile uninstrumented and the hot path pays nothing
        self._profiler = None
        #: compiled-plan cache: method_id -> ActivationPlan, plus the
        #: stable handles wrappers hold. Plain-dict reads are GIL-atomic;
        #: writes race benignly (equivalent plans, last one wins).
        self._plans: Dict[str, ActivationPlan] = {}
        self._plan_handles: Dict[str, PlanHandle] = {}
        self.ordering = ordering
        self.default_timeout = default_timeout
        #: wakeup policy after post-activation: ``"all"`` notifies every
        #: method queue (the paper's conservative behaviour, absorbed by
        #: re-evaluation); ``"linked"`` notifies only methods sharing at
        #: least one aspect instance (or state holder, or lock domain)
        #: with the completed method — fewer spurious wakeups, same
        #: safety, measured in bench A-ABL.
        self.notify_scope = notify_scope
        self.stats = ModerationStats()
        #: per-(method, concern) fault accounting and quarantine state
        self.health = HealthTracker(default_threshold=fault_threshold,
                                    on_change=self._bump_version)
        #: deterministic fault-injection hook (``repro.faults``); ``None``
        #: in production — the hot path pays one attribute read for it
        self.fault_injector = None
        #: contract registry (``repro.contracts``); ``None`` keeps every
        #: moderation path byte-for-byte the legacy one — each seam is
        #: a single ``is not None`` check
        self.contracts = None
        #: registry lock: guards the domain maps and the linkage cache,
        #: never held while moderating or notifying a foreign domain.
        self._lock = threading.RLock()
        self._domains: Dict[str, LockDomain] = {}
        #: explicit shared-domain assignments (method_id -> domain name);
        #: methods absent here use their private per-method domain
        self._method_domains: Dict[str, str] = {}
        self._links: Optional[Dict[str, set]] = None
        self._links_revision = -1
        #: number of activations currently inside the blocking slow path;
        #: fast-path completions consult it to decide whether a wake is
        #: needed at all (see :meth:`postactivation`)
        self._waiters = 0
        #: number of activations actually parked in ``Condition.wait``,
        #: and the wake epoch pairing with it: a completion bumps the
        #: epoch and reads the count atomically, a blocker re-checks the
        #: epoch atomically before parking — together they let
        #: :meth:`_wake` skip touching any domain lock when nothing is
        #: parked, without losing a wakeup
        self._parked = 0
        self._wake_epoch = 0
        self._waiter_guard = threading.Lock()
        #: activation_id -> (method_id, parked_since) for every waiter
        #: currently inside ``Condition.wait`` — the stall watchdog's
        #: window into the moderator (guarded by ``_waiter_guard``)
        self._parked_info: Dict[int, Tuple[str, float]] = {}
        #: attached continuation runtime
        #: (:class:`repro.core.continuation.ContinuationRuntime`), or
        #: ``None``. When attached, every site that notifies domain
        #: queues also routes the wake into the reactor's ready queue,
        #: so continuation-parked activations re-evaluate exactly when
        #: thread-parked ones would. One attribute read on wake paths;
        #: the moderation hot path itself never consults it.
        self._runtime = None
        #: where threaded activations park (see :meth:`_rounds`)
        self._condition_seam = ConditionSeam(self)

    # ------------------------------------------------------------------
    # versioned collaborators (assigning one invalidates every plan)
    # ------------------------------------------------------------------
    @property
    def ordering(self) -> OrderingPolicy:
        """Composition-order policy; swapping it invalidates every plan."""
        return self._ordering

    @ordering.setter
    def ordering(self, policy: OrderingPolicy) -> None:
        self._ordering = policy
        # Reassigning the same policy is how a policy that must
        # re-decide its order gets re-applied.
        self._bump_version()

    @property
    def fault_injector(self) -> Optional[Any]:
        """Installed fault injector (``repro.faults``), or ``None``.

        Assigning (what :meth:`FaultInjector.install` does) bumps the
        plan version: plans compiled without site hooks must not
        survive an injector arming, and vice versa.
        """
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector: Optional[Any]) -> None:
        self._fault_injector = injector
        self._bump_version()

    @property
    def contracts(self) -> Optional[Any]:
        """Installed contract registry (``repro.contracts``), or ``None``.

        Assigning (what :meth:`ContractRegistry.install` does, and what
        the registry re-does on every :meth:`~ContractRegistry.declare`)
        bumps the plan version: plans compiled without check-point
        seams must not survive a contract arming, and vice versa.
        """
        return self._contracts

    @contracts.setter
    def contracts(self, registry: Optional[Any]) -> None:
        self._contracts = registry
        self._bump_version()

    @property
    def profiler(self) -> Optional[Any]:
        """Installed clause profiler (``repro.obs.profile``), or ``None``.

        Assigning (what :meth:`ClauseProfiler.install` does) bumps the
        plan version: plans compiled uninstrumented must not survive a
        profiler arming, and instrumented/optimized plans must not
        survive its removal.
        """
        return self._profiler

    @profiler.setter
    def profiler(self, profiler: Optional[Any]) -> None:
        self._profiler = profiler
        self._bump_version()

    def bump_profile_epoch(self) -> None:
        """Invalidate every plan against a refreshed clause profile.

        Called by :meth:`ClauseProfiler.refresh` after it folds live
        counters into a new decision snapshot — cached plans recompile
        (and re-optimize) on their next activation, through the same
        version bump every other mutation family uses.
        """
        self._bump_version()

    def _bump_version(self) -> None:
        """Move :attr:`registration_version` past every compiled key."""
        with self._version_lock:
            self.registration_version += 1

    # ------------------------------------------------------------------
    # plan compilation
    # ------------------------------------------------------------------
    def plan_for(self, method_id: str) -> ActivationPlan:
        """The current compiled plan for ``method_id`` (cached).

        Revalidation is a dict probe plus one int compare against
        :attr:`registration_version`; a plan is recompiled only when
        the version moved.
        """
        key = self.registration_version
        plan = self._plans.get(method_id)
        if plan is not None and plan.key == key:
            return plan
        return self._compile_plan(method_id, key)

    def _compile_plan(self, method_id: str, key: int) -> ActivationPlan:
        """Compile and cache one method's plan under ``key``.

        The key is captured *before* the constituents are read: if a
        registration lands mid-compile, the stored plan's key no longer
        matches and the very next :meth:`plan_for` recompiles — a torn
        build can be executed for at most one round, the same staleness
        window unlocked bank/health reads always have.
        """
        started = time.monotonic()
        _revision, raw_pairs = self.bank.snapshot_for(method_id)
        policy = self._ordering
        pairs = policy(method_id, raw_pairs)
        profiler = self._profiler
        profile_info = None
        if profiler is not None:
            # Profile feedback composes *after* the ordering policy: the
            # policy states intent, the profiler only permutes within
            # runs the aspects themselves declared commutative (and
            # elides declared-pure observers).
            pairs, profile_info = profiler.plan_pairs(method_id, pairs)
        registry = self._contracts
        contract = (registry.contract_for(method_id)
                    if registry is not None else None)
        plan = compile_plan(
            method_id, pairs, key, self._domain_for(method_id),
            self.health, self._fault_injector,
            getattr(policy, "__name__", type(policy).__name__),
            contract, profile=profile_info,
            participates=bool(raw_pairs) or contract is not None,
        )
        if profiler is not None:
            profiler.instrument(plan)
        plan.compile_seconds = time.monotonic() - started
        self._plans[method_id] = plan
        self.stats.bump("plan_compiles")
        self.stats.compile_seconds.observe(plan.compile_seconds)
        return plan

    def plan_handle(self, method_id: str) -> PlanHandle:
        """The stable :class:`PlanHandle` for ``method_id``.

        Proxies and woven wrappers cache this handle instead of a bare
        wrapper: the handle survives every recompile, so a cached
        wrapper picks up a swapped aspect on its very next call.
        """
        handle = self._plan_handles.get(method_id)
        if handle is None:
            with self._lock:
                handle = self._plan_handles.setdefault(
                    method_id, PlanHandle(self, method_id)
                )
        return handle

    def explain(self, method_id: Optional[str] = None) -> Any:
        """Compiled-contract report(s): one method's, or all methods'."""
        if method_id is not None:
            return self.plan_for(method_id).explain()
        return {
            method: self.plan_for(method).explain()
            for method in self.bank.methods()
        }

    # ------------------------------------------------------------------
    # runtime selection (threaded vs. continuation park seam)
    # ------------------------------------------------------------------
    def attach_runtime(self, runtime: Any) -> None:
        """Attach a continuation runtime; its parks join this moderator's.

        Called by :class:`repro.core.continuation.ContinuationRuntime`
        on construction. At most one runtime may be attached; threaded
        activations keep working unchanged alongside it (both park
        populations re-evaluate on every wake, and both appear in
        :meth:`parked_snapshot` / :meth:`queue_lengths`).
        """
        if self._runtime is not None and self._runtime is not runtime:
            raise RegistrationError(
                "a continuation runtime is already attached"
            )
        self._runtime = runtime

    def detach_runtime(self, runtime: Any) -> None:
        """Detach ``runtime`` (no-op when it is not the attached one)."""
        if self._runtime is runtime:
            self._runtime = None

    # ------------------------------------------------------------------
    # registration (paper Figure 9)
    # ------------------------------------------------------------------
    def register_aspect(self, method_id: str, concern: str, aspect: Aspect,
                        replace: bool = False,
                        lock_domain: Optional[str] = None,
                        fault_policy: Optional[str] = None,
                        fault_threshold: Optional[int] = None) -> None:
        """Store a first-class aspect object for future reference.

        ``lock_domain`` (or, when omitted, the aspect's own
        ``lock_domain`` attribute) places ``method_id`` into a named
        shared lock domain; methods of one domain moderate under a
        single lock, which is what paper-style aspects that mutate
        shared counters without their own lock require. Conflicting
        explicit domains for one method raise
        :class:`RegistrationError`.

        ``fault_policy`` / ``fault_threshold`` (falling back to the
        aspect's own attributes) declare how the cell degrades when the
        aspect keeps raising out of protocol phases: ``"fail_open"``
        skips it, ``"fail_closed"`` ABORTs activations, ``None`` (the
        default) propagates every fault without ever quarantining.
        Registration — including a ``replace=True`` swap — resets the
        cell's fault history.
        """
        domain_name = (
            lock_domain if lock_domain is not None
            else getattr(aspect, "lock_domain", None)
        )
        policy = (
            fault_policy if fault_policy is not None
            else getattr(aspect, "fault_policy", None)
        )
        threshold = (
            fault_threshold if fault_threshold is not None
            else getattr(aspect, "fault_threshold", None)
        )
        moved_from: Optional[LockDomain] = None
        with self._lock:
            if domain_name is not None:
                current = self._method_domains.get(method_id)
                if current is not None and current != domain_name:
                    raise RegistrationError(
                        f"{method_id!r} is already in lock domain "
                        f"{current!r}; cannot also join {domain_name!r}"
                    )
            self.bank.register(method_id, concern, aspect, replace=replace)
            self.health.set_policy(method_id, concern, policy, threshold)
            self._links = None
            if domain_name is not None and \
                    method_id not in self._method_domains:
                self._method_domains[method_id] = domain_name
                self._bump_version()
                moved_from = self._domains.get(
                    _PRIVATE_DOMAIN_PREFIX + method_id
                )
        if moved_from is not None:
            # Waiters parked in the old private domain re-evaluate and
            # re-park under the shared one.
            moved_from.notify_all(method_id)
            if self._runtime is not None:
                self._runtime.wake({method_id})
        self.events.emit("register_aspect", method_id, concern,
                         detail=aspect.describe())
        if domain_name is not None:
            self.events.emit("lock_domain", method_id, detail=domain_name)

    def unregister_aspect(self, method_id: str, concern: str) -> Aspect:
        """Remove an aspect; wakes blocked activations to re-evaluate."""
        aspect = self.bank.unregister(method_id, concern)
        self.health.drop(method_id, concern)
        with self._lock:
            self._links = None
        self.notify()
        return aspect

    def reinstate_aspect(self, method_id: str, concern: str) -> bool:
        """Manually lift a cell's quarantine (operator intervention).

        Clears the fault count so the aspect gets a fresh allowance of
        ``fault_threshold`` faults, emits a ``reinstate`` event, and
        wakes parked activations — a formerly fail-closed guard may now
        admit them. Returns whether the cell was actually quarantined.
        Swapping a repaired aspect in via ``register_aspect(...,
        replace=True)`` resets health implicitly and is the other
        recovery path.
        """
        was_quarantined = self.health.reinstate(method_id, concern)
        if was_quarantined:
            if self._profiler is not None:
                # Stale-profile hygiene: statistics gathered while the
                # cell was sick must not order the healed composition.
                self._profiler.reset_cell(method_id, concern)
            self.stats.bump("reinstatements")
            self.events.emit("reinstate", method_id, concern)
            self.notify()
        return was_quarantined

    def aspect_health(self) -> Dict[Tuple[str, str], Dict[str, Any]]:
        """Fault/quarantine records per (method, concern) with any faults."""
        return self.health.snapshot()

    def assign_lock_domain(self, lock_domain: Optional[str],
                           *method_ids: str) -> None:
        """Place ``method_ids`` into one shared lock domain.

        The explicit form of the ``lock_domain`` registration parameter:
        existing assignments are overwritten, and ``lock_domain=None``
        returns the methods to their private per-method domains (the
        striped default). Waiters parked under a previous domain are
        woken so they re-evaluate and re-park under the new one.
        """
        moved: List[Tuple[LockDomain, str]] = []
        with self._lock:
            for method_id in method_ids:
                old_name = self._method_domains.get(
                    method_id, _PRIVATE_DOMAIN_PREFIX + method_id
                )
                if lock_domain is None:
                    self._method_domains.pop(method_id, None)
                else:
                    self._method_domains[method_id] = lock_domain
                old = self._domains.get(old_name)
                if old is not None:
                    moved.append((old, method_id))
            self._bump_version()
            self._links = None
        for domain, method_id in moved:
            domain.notify_all(method_id)
        if moved and self._runtime is not None:
            self._runtime.wake({method_id for _, method_id in moved})
        for method_id in method_ids:
            self.events.emit("lock_domain", method_id,
                             detail=lock_domain or "")

    def lock_domain_of(self, method_id: str) -> str:
        """Name of the lock domain currently assigned to ``method_id``."""
        with self._lock:
            return self._method_domains.get(
                method_id, _PRIVATE_DOMAIN_PREFIX + method_id
            )

    def participates(self, method_id: str) -> bool:
        """Whether calls to ``method_id`` must go through moderation.

        True when any aspect is registered for the method, or when an
        installed contract registry declares a contract on it — a
        contracted method with an empty aspect chain still needs the
        pre-/post-activation bracket for its entry and post-body check
        points. A compiled plan carries the same answer
        (``ActivationPlan.participates``). O(1) and lock-free.
        """
        if self.bank.has_method(method_id):
            return True
        contracts = self._contracts
        return (contracts is not None
                and contracts.contract_for(method_id) is not None)

    # ------------------------------------------------------------------
    # pre-activation (paper Figure 11 / 17)
    # ------------------------------------------------------------------
    def preactivation(
        self,
        method_id: str,
        joinpoint: Optional[JoinPoint] = None,
        timeout: Optional[float] = None,
        plan: Optional[ActivationPlan] = None,
        deadline: Any = None,
    ) -> AspectResult:
        """Evaluate the pre-activation phase for one activation.

        Returns ``RESUME`` when every aspect's precondition holds (the
        proxy must then invoke the method and later call
        :meth:`postactivation` exactly once with the same join point),
        or ``ABORT`` when some aspect rejected the activation. ``BLOCK``
        is never returned: blocking is handled internally by waiting on
        the method's queue and re-evaluating, as in the paper.

        Raises :class:`ActivationTimeout` when a timeout (argument or
        moderator default) elapses while blocked — but only after one
        final re-evaluation of the chain, so a notification racing the
        deadline admits the activation instead of being dropped.

        ``plan`` lets callers that already hold a validated
        :class:`~repro.core.plan.ActivationPlan` (proxies and woven
        wrappers, via their :class:`~repro.core.plan.PlanHandle`) skip
        the cache probe; without it the current plan is fetched here.

        ``deadline`` is an optional end-to-end budget: an absolute
        monotonic time, or any object exposing ``expires_at`` (e.g.
        :class:`repro.dist.resilience.Deadline`). When it is nearer
        than the timeout-derived bound, BLOCK parks stop at the budget
        instead — a remote caller that has already given up never keeps
        an activation parked here.
        """
        return self._enter(
            method_id, joinpoint or JoinPoint(method_id=method_id), plan,
            timeout, deadline, self._condition_seam,
        )

    def _enter(self, method_id: str, joinpoint: JoinPoint,
               plan: Optional[ActivationPlan], timeout: Optional[float],
               deadline: Any, seam: Any, now: Optional[float] = None,
               activation: Optional[Activation] = None,
               ) -> Optional[AspectResult]:
        """Figure 11's entry step, shared by both runtimes.

        The observability head decision, contract entry check and the
        ``never_blocks`` fast path; only an activation leaving the fast
        path resolves its bounds against ``now`` (default:
        ``seam.now()``), takes a waiter slot and enters :meth:`_rounds`
        with the validated plan on ``activation.plan`` — the fast path
        allocates nothing. ``activation`` is the continuation runtime's
        state object. The preactivation is counted with the first
        round's outcome (``uncounted_entry``).
        """
        joinpoint.phase = Phase.PRE_ACTIVATION
        events = self.events
        if events.has_listeners:
            # Decided once, here: the activation tallies its arrows for
            # the folds, and only a sampled one's tally delivers events.
            sampled = joinpoint.sampled = events.sample()
            if sampled:
                joinpoint.tally = DeliveringTally(
                    events, method_id, joinpoint.activation_id)
                joinpoint.tally.append(("preactivation", "", "", 0.0))
            else:
                joinpoint.tally = [("preactivation", "", "", 0.0)]

        if self._contracts is not None:
            # Entry check point: require clauses + entry invariants run
            # before any aspect — a failure blames the *caller* (the
            # activation was invalid on arrival; nothing to compensate).
            # Methods without a declared contract stash no runner and
            # pay nothing further.
            try:
                self._contracts.begin(method_id, joinpoint)
            except ContractViolation as violation:
                self.stats.bump("preactivations")
                self._note_violation(violation, joinpoint)
                if joinpoint.tally:
                    self._fold_tally(method_id, joinpoint)
                raise

        if plan is None:
            plan = self.plan_for(method_id)
        if plan.never_blocks:
            # Lock-free fast path: the whole chain promised never to
            # BLOCK at compile time, and the plan is only valid while
            # that composition stands — no wait queue, hence no lock.
            joinpoint.uncounted_entry = 2
            outcome = self._run_round(method_id, joinpoint, plan)
            if outcome is not AspectResult.BLOCK:
                return outcome
            # An aspect broke its never_blocks promise; fall through to
            # the locked path and moderate properly.
        else:
            joinpoint.uncounted_entry = 1

        if activation is None:
            activation = Activation(method_id, joinpoint)
        activation.plan = plan
        effective_timeout = (
            timeout if timeout is not None else self.default_timeout
        )
        budget = getattr(deadline, "expires_at", deadline)
        if effective_timeout is not None or budget is not None:
            if now is None:
                now = seam.now()
            expires_at = (
                now + effective_timeout
                if effective_timeout is not None else None
            )
            if budget is not None and (
                    expires_at is None or budget < expires_at):
                expires_at = budget
                effective_timeout = max(0.0, budget - now)
            activation.expires_at = expires_at
        activation.effective_timeout = effective_timeout
        # Hold a waiter slot for the whole blocking attempt (released by
        # :meth:`_rounds`): a fast-path completion either precedes the
        # first round (and is seen) or sees the slot (and wakes).
        with self._waiter_guard:
            self._waiters += 1
        return self._rounds(activation, seam)

    def _rounds(self, activation: Activation,
                seam: Any) -> Optional[AspectResult]:
        """Figure 11's ``while (result == BLOCKED) wait()``, written once.

        Both runtimes differ only at ``seam``. Under the domain lock and
        the waiter guard, after the wake-epoch re-check, the loop calls
        ``seam.register_park(activation)``; then ``seam.park(activation,
        queue)`` sets ``woken`` or ``timed_out`` and returns ``True`` to
        run the next round, or ``False`` once it suspended the
        activation. :class:`ConditionSeam` waits on the ``Condition``;
        the continuation runtime parks the continuation, releases the
        worker, and re-enters here on a wake or the expiry. Returns the
        outcome, or ``None`` when suspended (the waiter slot is kept).
        Rounds hold the domain's ``RLock``, which the queue wraps.
        """
        method_id = activation.method_id
        joinpoint = activation.joinpoint
        events = self.events
        plan = activation.plan
        suspended = False
        try:
            while True:
                if plan is None or plan.key != self.registration_version:
                    plan = activation.plan = self.plan_for(method_id)
                with plan.domain.lock:
                    # A plan still keyed on the current version is of
                    # the current lock domain: a domain move bumps the
                    # version, and a compile reads its key before its
                    # domain. Otherwise (a move, or any other change
                    # since the plan was fetched or the last park)
                    # re-fetch the plan and re-acquire.
                    while plan.key == self.registration_version:
                        if activation.woken:
                            activation.woken = False
                            self.stats.bump("wakeups")
                            if events.has_listeners:
                                events.emit(
                                    "unblocked", method_id,
                                    activation_id=joinpoint.activation_id,
                                    # park duration, for blocked-span
                                    # accounting
                                    duration=(
                                        seam.now() - activation.parked_since
                                    ),
                                    sampled=joinpoint.sampled,
                                )
                            continue  # re-check the key after the park
                        # Bare read is safe: a stale value only makes the
                        # pre-park re-check conservatively re-evaluate.
                        epoch = self._wake_epoch
                        outcome = self._run_round(method_id, joinpoint,
                                                  plan)
                        if outcome is not AspectResult.BLOCK:
                            return outcome
                        if activation.timed_out:
                            self.events.emit(
                                "timeout", method_id,
                                detail=f"{activation.effective_timeout}s",
                                activation_id=joinpoint.activation_id,
                                sampled=joinpoint.sampled,
                            )
                            raise ActivationTimeout(
                                method_id, activation.effective_timeout
                            )
                        with self._waiter_guard:
                            if self._wake_epoch != epoch:
                                # A completion landed while this round
                                # was evaluating (its wake may have
                                # skipped the not-yet-parked activation):
                                # re-evaluate against the post-postaction
                                # state instead of parking on a
                                # notification already sent.
                                continue
                            activation.parked_since = seam.now()
                            seam.register_park(activation)
                        self.stats.bump("waits")
                        if not seam.park(activation, plan.queue):
                            suspended = True
                            return None
        finally:
            if not suspended:
                with self._waiter_guard:
                    self._waiters -= 1

    def _run_round(self, method_id: str, joinpoint: JoinPoint,
                   plan: ActivationPlan) -> AspectResult:
        """One evaluation round, including compensation and bookkeeping.

        RESUME records the chain on the join point; ABORT and BLOCK
        compensate the RESUMEd prefix in reverse order first (aspects
        distinguish the transient ``block`` round from a final ``abort``
        via the compensation-reason context key). Compensation faults do
        not stop the unwind: every remaining aspect still compensates,
        and the collected faults raise afterwards (aggregated as
        :class:`CompositionErrors` when there are several).

        The round itself is :meth:`_evaluate_plan`; everything
        downstream — stash, stats, events, compensation — is shared with
        any executor that overrides it. The outcome's counters land in
        one flush, with the preactivation when the join point's
        ``uncounted_entry`` says it is still owed. A round that ends or
        parks the activation (ABORT, BLOCK, a raise) folds its tally.
        """
        uncounted = joinpoint.uncounted_entry
        try:
            outcome, resumed, failed_concern = self._evaluate_plan(
                plan, joinpoint
            )
        except BaseException:
            if uncounted:
                joinpoint.uncounted_entry = 0
                self.stats.bump("preactivations")
            if joinpoint.tally:
                self._fold_tally(method_id, joinpoint)
            raise
        if uncounted:
            joinpoint.uncounted_entry = 0
        if outcome is AspectResult.RESUME:
            joinpoint.context[CHAIN_KEY] = resumed
            self.stats.flush(_RESUME_FLUSH[uncounted])
            return outcome

        joinpoint.context["__compensation__"] = outcome.value
        faults = self._compensate(resumed, joinpoint)
        joinpoint.context.pop("__compensation__", None)

        if outcome is AspectResult.ABORT:
            self.stats.flush(_ABORT_FLUSH[uncounted])
            joinpoint.phase = Phase.ABORTED
            joinpoint.context["abort_concern"] = failed_concern
            kind = "abort"
        else:
            self.stats.flush(_BLOCK_FLUSH[uncounted])
            kind = "blocked"
        tally = joinpoint.tally
        if tally is not None:
            tally.append((kind, failed_concern or "", "", 0.0))
            if outcome is AspectResult.ABORT:
                self._fold_tally(method_id, joinpoint)
            else:
                # Folded before the park, so a parked activation's
                # outcome is visible; its next round tallies on.
                self.events.flush(method_id, tally[:])
                tally.clear()
        if faults:
            self._raise_faults(faults)
        return outcome

    def _fold_tally(self, method_id: str, joinpoint: JoinPoint) -> None:
        """Hand an activation's tally to the bus's folds, once: it is
        observed no further."""
        tally, joinpoint.tally = joinpoint.tally, None
        self.events.flush(method_id, tally)

    def _evaluate_plan(
        self, plan: ActivationPlan, joinpoint: JoinPoint
    ) -> Tuple[AspectResult, Sequence[Tuple[str, Aspect]], Optional[str]]:
        """Run one round of precondition evaluation over ``plan``.

        Returns ``(outcome, resumed_pairs, failed_concern)`` where
        ``resumed_pairs`` are the aspects that voted RESUME before the
        chain stopped (all of them when outcome is RESUME).

        A *raising* precondition is a contract violation, not a vote:
        the RESUMEd prefix is compensated (so no reservation leaks) and
        the error propagates wrapped in :class:`AspectFault`. Quarantined
        cells are handled before their aspect runs — ``fail_open`` skips
        the aspect, ``fail_closed`` turns the round into an ABORT
        attributed to the degraded concern.

        One executor for every plan, deciding as the paper's per-call
        interpreter does: quarantine is read once per round (the
        method's entry in ``health.degraded``, absent while all of its
        cells are healthy), each injector site is visited live through
        ``injector.fire`` (so chaos-test occurrence coordinates match
        the interpreter's), and a declared contract's runner checkpoints
        each RESUME. With nothing armed each of those hooks is one
        ``None``/``False`` test, and the round is a bare walk over
        pre-bound callables, coercing only a vote that is not an
        :class:`AspectResult`. While no cell was skipped the RESUMEd
        prefix is a slice of ``plan.pairs``, and a full RESUME returns
        ``plan.pairs`` itself — zero allocations, and the identity token
        post-activation recognizes to unwind through the plan's cells.
        The differential suites drive this executor against that
        interpreter, kept as a test oracle, across the whole fault space.
        """
        method_id = plan.method_id
        # Timing and events gate on the tally: an activation nobody
        # observes reads no clock and builds no event argument.
        tally = joinpoint.tally
        degraded = self.health.degraded.get(method_id)
        injector = self._fault_injector
        runner = (
            joinpoint.context.get(CONTRACT_KEY)
            if self._contracts is not None else None
        )
        if runner is not None:
            # Contract check points anchor to the round that finally
            # RESUMEs: parked rounds legitimately observe other
            # activations mutate shared state, so ``old`` re-captures
            # here, and per-concern interference is judged within-round.
            runner.start_round(joinpoint)
        # The RESUMEd prefix is ``plan.pairs[:index]`` until a cell is
        # skipped; from then on it is the explicit ``resumed`` list.
        index = 0
        resumed: Optional[List[Tuple[str, Aspect]]] = None
        for cell in plan.cells:
            concern = cell.concern
            if degraded is not None:
                # This round's map, not the compiled ``cell.degraded``
                # snapshot: a flip acts from the next round on, whether
                # or not the plan has recompiled yet.
                policy = degraded.get(concern)
                if policy == FAIL_OPEN:
                    self.stats.bump("degraded_skips")
                    self.events.emit(
                        "degraded_skip", method_id, concern,
                        activation_id=joinpoint.activation_id,
                        sampled=joinpoint.sampled,
                    )
                    if resumed is None:
                        resumed = list(plan.pairs[:index])
                    continue
                if policy == FAIL_CLOSED:
                    return (
                        AspectResult.ABORT,
                        plan.pairs[:index] if resumed is None else resumed,
                        concern,
                    )
            began = time.monotonic() if tally is not None else 0.0
            try:
                if injector is not None and injector.fire(
                        "precondition", method_id, concern):
                    # injected no-op crash: the aspect never ran
                    if resumed is None:
                        resumed = list(plan.pairs[:index])
                    continue
                result = cell.evaluate(joinpoint)
                if result.__class__ is not AspectResult:
                    result = _coerce_result(result)
            except Exception as exc:  # noqa: BLE001 - contract violation
                fault = AspectFault(method_id, concern, "precondition", exc)
                self._note_fault(method_id, concern, "precondition", exc,
                                 joinpoint)
                joinpoint.context["__compensation__"] = "fault"
                comp_faults = self._compensate(
                    plan.pairs[:index] if resumed is None else resumed,
                    joinpoint,
                )
                joinpoint.context.pop("__compensation__", None)
                self._raise_faults([fault, *comp_faults])
            if tally is not None:
                # ``_value_``: the ``Enum.value`` property costs frames
                tally.append(("precondition", concern, result._value_,
                              time.monotonic() - began))
            if result is not AspectResult.RESUME:
                return (
                    result,
                    plan.pairs[:index] if resumed is None else resumed,
                    concern,
                )
            if resumed is None:
                index += 1
            else:
                resumed.append(cell.pair)
            if runner is not None:
                runner.checkpoint("precondition", concern, joinpoint)
        return (
            AspectResult.RESUME,
            plan.pairs if resumed is None else resumed,
            None,
        )

    def _compensate(self, resumed: Sequence[Tuple[str, Aspect]],
                    joinpoint: JoinPoint) -> List[AspectFault]:
        """Unwind a RESUMEd prefix; never stops at a raising aspect.

        Returns the faults encountered so callers can surface them once
        the whole prefix has been compensated — a raising ``on_abort``
        must not abandon the compensations still owed to earlier aspects.
        """
        faults: List[AspectFault] = []
        injector = self.fault_injector
        for concern, aspect in reversed(resumed):
            try:
                if injector is not None and injector.fire(
                        "on_abort", joinpoint.method_id, concern):
                    continue
                aspect.on_abort(joinpoint)
            except Exception as exc:  # noqa: BLE001 - keep unwinding
                self._note_fault(joinpoint.method_id, concern, "on_abort",
                                 exc, joinpoint)
                faults.append(AspectFault(
                    joinpoint.method_id, concern, "on_abort", exc,
                ))
                continue
            self.stats.bump("compensations")
            self.events.emit(
                "compensate", joinpoint.method_id, concern,
                activation_id=joinpoint.activation_id,
                sampled=joinpoint.sampled,
            )
        return faults

    def _note_fault(self, method_id: str, concern: str, phase: str,
                    exc: BaseException, joinpoint: JoinPoint,
                    blame: Optional[str] = None) -> None:
        """Account one aspect fault; flip the cell to quarantined at N."""
        self.stats.bump("faults")
        self.events.emit(
            "aspect_fault", method_id, concern,
            detail=f"{phase}: {type(exc).__name__}",
            activation_id=joinpoint.activation_id,
            sampled=joinpoint.sampled,
        )
        if self.health.record_fault(method_id, concern, phase, exc,
                                    activation_id=joinpoint.activation_id,
                                    blame=blame):
            self.stats.bump("quarantines")
            self.events.emit(
                "quarantine", method_id, concern,
                detail=self.health.quarantine_policy(method_id, concern)
                or "",
            )

    def _note_violation(self, violation: ContractViolation,
                        joinpoint: JoinPoint) -> None:
        """Account one contract verdict; feed aspect blame to quarantine.

        Caller and component blame only count and surface (the violation
        itself propagates to the caller); ``aspect:<concern>`` blame is
        additionally an aspect *fault* of the blamed cell, so a
        repeatedly interfering aspect degrades under its registered
        policy exactly like a raising one — observers ``fail_open``,
        guards ``fail_closed``.
        """
        self.stats.bump("contract_violations")
        concern = violation.blamed_concern
        # Delivered whatever the head decision: a verdict is rare, and
        # one of an unsampled activation still reaches the recorder (as
        # an orphan) for the slicer.
        self.events.emit(
            "contract_violation", violation.method_id, concern or "",
            detail=f"{violation.kind}:{violation.clause}:{violation.blame}",
            activation_id=joinpoint.activation_id,
        )
        if concern is not None:
            self._note_fault(violation.method_id, concern, "contract",
                             violation, joinpoint, blame=violation.blame)

    def _finish_contract(self, runner: Any,
                         joinpoint: JoinPoint) -> None:
        """Close an activation's contract; raise its verdict (if any)."""
        joinpoint.context.pop(CONTRACT_KEY, None)
        violation = runner.finish()
        if violation is not None:
            self._note_violation(violation, joinpoint)
            raise violation

    @staticmethod
    def _raise_faults(faults: List[AspectFault]) -> None:
        """Raise collected faults: one directly, several as a group."""
        if len(faults) == 1:
            raise faults[0]
        raise CompositionErrors(faults)

    # ------------------------------------------------------------------
    # post-activation (paper Figure 11 / 18)
    # ------------------------------------------------------------------
    def postactivation(self, method_id: str,
                       joinpoint: Optional[JoinPoint] = None,
                       plan: Optional[ActivationPlan] = None) -> None:
        """Evaluate the post-activation phase for a RESUMEd activation.

        Runs ``postaction()`` of the activation's aspects in *reverse*
        composition order (Section 5.3: synchronization unwinds before
        authentication) under the method's domain lock, then — in a
        second phase, with no domain lock held — notifies wait queues so
        blocked activations re-evaluate their preconditions.

        Chains consisting solely of ``never_blocks`` aspects skip the
        lock, and skip the wake entirely unless some activation is
        parked on the moderator.

        Fault containment: a raising postaction does not stop the
        reverse unwind — the remaining postactions still run, the wake
        phase *always* happens (parked waiters must re-evaluate, never
        wedge behind a faulty aspect), and only then do the collected
        faults propagate (:class:`AspectFault`, aggregated as
        :class:`CompositionErrors` when several raised).
        """
        joinpoint = joinpoint or JoinPoint(method_id=method_id)
        joinpoint.phase = Phase.POST_ACTIVATION
        tally = joinpoint.tally
        if tally is not None:
            tally.append(("postactivation", "", "", 0.0))

        runner = (
            joinpoint.context.get(CONTRACT_KEY)
            if self._contracts is not None else None
        )
        if runner is not None:
            # Post-body check point, before any postaction runs: ensure
            # and invariant clauses are judged against the body's own
            # effect; a clause a *postaction* later breaks is blamed on
            # that postaction's concern (per-postaction check points in
            # :meth:`_run_postactions`).
            runner.post_body(joinpoint)

        chain = joinpoint.context.pop(CHAIN_KEY, None)
        if plan is None or plan.key != self.registration_version:
            # No plan handed in, or the composition changed while the
            # method body ran: fetch the current plan. A recorded chain
            # from the superseded plan then fails the identity check in
            # :meth:`_run_postactions` and unwinds aspect by aspect.
            plan = self.plan_for(method_id)
        if chain is None:
            # No recorded chain: unwind what the current composition
            # says (the plan was just validated against it).
            chain = plan.pairs
        never_blocks = plan.never_blocks if chain is plan.pairs else all(
            aspect.never_blocks for _, aspect in chain
        )
        try:
            if never_blocks:
                faults = self._run_postactions(plan, chain, joinpoint)
            else:
                with plan.domain.lock:
                    faults = self._run_postactions(plan, chain, joinpoint)
        finally:
            if never_blocks and not self._waiters:
                # Wake elided (nothing parked): the phase counts no
                # notification — counters must not depend on who is
                # subscribed — but the protocol's notify arrow still
                # concluded this activation, so surface it to observers
                # (span recorders close the activation on it).
                self.stats.flush(_ELIDED_FLUSH)
                if tally is not None:
                    tally.append(("notify", "", "elided", 0.0))
            else:
                # Phase two: wake target queues without holding the
                # method's domain lock, so cross-domain notification
                # cannot deadlock. A locked chain always wakes, a
                # never_blocks one only when someone is parked (a
                # spurious wakeup only costs a re-evaluation). Runs even
                # if containment itself failed, so a faulty aspect can
                # never strand a parked waiter. Counts the phase.
                self._wake(method_id, joinpoint)
            if tally:
                # The activation's one fold, after its wake.
                joinpoint.tally = None
                self.events.flush(method_id, tally)
        if faults:
            self._raise_faults(faults)
        if runner is not None:
            self._finish_contract(runner, joinpoint)

    def _run_postactions(self, plan: ActivationPlan,
                         chain: Sequence[Tuple[str, Aspect]],
                         joinpoint: JoinPoint) -> List[AspectFault]:
        """Reverse unwind; continues past raising aspects (faults returned).

        A full-chain RESUME stashed ``plan.pairs`` itself; identity
        implies the current plan, so the unwind dispatches through its
        cells' bound ``postaction`` (profiler shims included; nothing
        for a cell bound to ``None``, the base no-op). Any other
        chain — partial, stale, or an overriding executor's — runs each
        aspect's own ``postaction``. Injector sites and contract check
        points are the same live hooks either way.
        """
        faults: List[AspectFault] = []
        method_id = plan.method_id
        injector = self._fault_injector
        runner = (
            joinpoint.context.get(CONTRACT_KEY)
            if self._contracts is not None else None
        )
        tally = joinpoint.tally
        compiled = chain is plan.pairs
        for step in reversed(plan.cells if compiled else chain):
            if compiled:
                concern, postaction = step.concern, step.postaction
            else:
                concern, aspect = step
                postaction = aspect.postaction
            began = time.monotonic() if tally is not None else 0.0
            try:
                if injector is not None and injector.fire(
                        "postaction", method_id, concern):
                    continue
                if postaction is not None:
                    postaction(joinpoint)
            except Exception as exc:  # noqa: BLE001 - keep unwinding
                self._note_fault(method_id, concern, "postaction", exc,
                                 joinpoint)
                faults.append(AspectFault(
                    method_id, concern, "postaction", exc,
                ))
                continue
            if tally is not None:
                tally.append(("postaction", concern, "",
                              time.monotonic() - began))
            if runner is not None:
                # Re-verify the clauses that held at post-body: one that
                # just broke is blamed on this concern's postaction.
                runner.checkpoint("postaction", concern, joinpoint)
        return faults

    # ------------------------------------------------------------------
    # whole-activation convenience
    # ------------------------------------------------------------------
    @contextmanager
    def activation(
        self,
        method_id: str,
        joinpoint: Optional[JoinPoint] = None,
        timeout: Optional[float] = None,
    ) -> Iterator[JoinPoint]:
        """Context manager bracketing a participating-method body.

        Raises :class:`MethodAborted` when pre-activation aborts. When the
        body raises, the exception is recorded on the join point and
        post-activation still runs, so aspects can compensate (a sync
        aspect rolls its counters back instead of committing them).

        Example::

            with moderator.activation("open", jp):
                server.open(ticket)
        """
        joinpoint = joinpoint or JoinPoint(method_id=method_id)
        result = self.preactivation(method_id, joinpoint, timeout=timeout)
        if result is AspectResult.ABORT:
            raise MethodAborted(
                method_id, concern=joinpoint.context.get("abort_concern")
            )
        joinpoint.phase = Phase.INVOCATION
        try:
            yield joinpoint
        except BaseException as exc:
            joinpoint.exception = exc
            raise
        finally:
            self.postactivation(method_id, joinpoint)

    def moderate_call(self, method_id: str, func: Any, *args: Any,
                      component: Any = None, caller: Any = None,
                      timeout: Optional[float] = None, **kwargs: Any) -> Any:
        """Run ``func(*args, **kwargs)`` as a fully moderated activation."""
        joinpoint = JoinPoint(
            method_id=method_id, component=component,
            args=args, kwargs=kwargs, caller=caller,
        )
        return self._bracket(method_id, joinpoint, None, timeout, None,
                             func, args, kwargs)

    def _bracket(self, method_id: str, joinpoint: JoinPoint,
                 plan: Optional[ActivationPlan], timeout: Optional[float],
                 deadline: Any, func: Callable[..., Any],
                 args: Tuple[Any, ...], kwargs: Dict[str, Any],
                 outcome: Optional[AspectResult] = None) -> Any:
        """Figure 10's guarded method, behind every func-taking entry point.

        Pre-activation runs through the ``preactivation`` attribute (so
        a wrapper installed on it sees every call) unless ``outcome``
        is given — the continuation runtime's invoke segment reuses the
        tail. ABORT raises :class:`MethodAborted`; otherwise the body
        runs in the INVOCATION phase unless an aspect skipped it, a
        raising body is recorded, and post-activation always runs.
        """
        if outcome is None:
            outcome = self.preactivation(method_id, joinpoint, timeout,
                                         plan, deadline)
        if outcome is not AspectResult.RESUME:
            raise MethodAborted(
                method_id, concern=joinpoint.context.get("abort_concern")
            )
        joinpoint.phase = Phase.INVOCATION
        try:
            if not joinpoint._skip:
                if joinpoint.tally is not None:
                    joinpoint.tally.append(("invoke", "", "", 0.0))
                joinpoint._result = func(*args, **kwargs)
        except BaseException as exc:
            joinpoint.exception = exc
            raise
        finally:
            self.postactivation(method_id, joinpoint, plan=plan)
        return joinpoint._result

    # ------------------------------------------------------------------
    # lock-domain / wait-queue plumbing
    # ------------------------------------------------------------------
    def _domain_for(self, method_id: str) -> LockDomain:
        """The lock domain currently owning ``method_id``."""
        with self._lock:
            name = self._method_domains.get(
                method_id, _PRIVATE_DOMAIN_PREFIX + method_id
            )
            domain = self._domains.get(name)
            if domain is None:
                domain = LockDomain(name)
                self._domains[name] = domain
            return domain

    def _queue_for(self, method_id: str) -> threading.Condition:
        """The method's wait queue inside its current lock domain."""
        return self._domain_for(method_id).condition(method_id)

    def _all_domains(self) -> List[LockDomain]:
        with self._lock:
            return list(self._domains.values())

    def _wake(self, method_id: str, joinpoint: JoinPoint) -> None:
        """Second phase of post-activation: notify target queues.

        Flushes the phase's counters (``postactivations`` and
        ``notifications``) in one write.

        Must be called while holding **no** domain lock; each target
        condition is notified under its own domain's lock, which orders
        the notification after any in-flight park on that queue.

        When nothing is parked anywhere the lock acquisitions are
        skipped entirely — otherwise every completion on one stripe
        would contend every *other* stripe's lock (held for the full
        length of a precondition round) just to notify an empty queue,
        re-coupling the domains the striping exists to separate. The
        elision is race-free via the wake epoch: the epoch bump and the
        parked-count read happen atomically here, and a blocker
        re-checks the epoch atomically before parking — so a completion
        either sees the waiter parked (and notifies, ordered by the
        waiter's domain lock) or forces it to re-evaluate against the
        post-postaction state.
        """
        with self._waiter_guard:
            self._wake_epoch += 1
            parked = self._parked
        runtime = self._runtime
        targets: Optional[set] = None
        if self.notify_scope == "linked" and (parked or runtime is not None):
            targets = self._linked_methods(method_id)
        woke = False
        if runtime is not None:
            # Continuation-parked activations take the same wake, under
            # the same scope policy. Ordered against continuation parks
            # by the epoch bump above (both park seams sit behind the
            # same pre-park epoch re-check in :meth:`_rounds`).
            woke = runtime.wake(targets)
        if parked and self.notify_scope == "linked":
            own_domain = self._domain_for(method_id)
            for domain in self._all_domains():
                if domain is own_domain:
                    # Domain mates share the method's lock (and usually
                    # its state): always eligible.
                    domain.notify_all()
                    continue
                for key, _condition in domain.conditions():
                    if key in targets:
                        domain.notify_all(key)
        elif parked:
            for domain in self._all_domains():
                domain.notify_all()
        self.stats.flush(_WAKE_FLUSH)
        tally = joinpoint.tally
        if tally is not None:
            tally.append(("notify", "", "", 0.0))
        if (woke or parked) and self.events.has_listeners and \
                not isinstance(tally, DeliveringTally):
            # A notify that may have woken a parked activation is
            # delivered whatever its own head decision: wake edges keep
            # their notifier.
            self.events.deliver("notify", method_id,
                                activation_id=joinpoint.activation_id)

    def _linked_methods(self, method_id: str) -> set:
        """Methods sharing at least one aspect instance with ``method_id``.

        The completing method itself is always included (its own waiters
        may now be eligible). The map is rebuilt lazily after any
        (un)registration — tracked via the bank revision, so direct bank
        mutations are caught too.
        """
        with self._lock:
            revision = self.bank.revision
            if self._links is None or self._links_revision != revision:
                links: Dict[str, set] = {}
                owners: Dict[int, set] = {}
                for owner_method, _concern, aspect in self.bank:
                    # linkage keys: the aspect itself plus any shared state
                    # holders it references (paper-style sibling aspects
                    # share a state object rather than being one instance)
                    keys = [id(aspect)]
                    for value in vars(aspect).values():
                        if hasattr(value, "__dict__") and not callable(value):
                            keys.append(id(value))
                    for key in keys:
                        owners.setdefault(key, set()).add(owner_method)
                for methods in owners.values():
                    for method in methods:
                        links.setdefault(method, set()).update(methods)
                self._links = links
                self._links_revision = revision
            linked = set(self._links.get(method_id, ()))
        linked.add(method_id)
        return linked

    def notify(self, method_id: Optional[str] = None) -> None:
        """Explicitly wake waiters (all methods, or one method's queue).

        External state changes that affect preconditions — e.g. an
        authentication session being granted by an out-of-band login —
        must call this so parked activations re-evaluate. Safe to call
        from any thread; no moderator lock may be held by the caller.
        """
        if method_id is None:
            for domain in self._all_domains():
                domain.notify_all()
        else:
            self._domain_for(method_id).notify_all(method_id)
        runtime = self._runtime
        if runtime is not None:
            # After the domain queues: a continuation parks while
            # holding its domain lock, so the notify above serializes
            # against any in-flight park and this scan cannot miss it.
            runtime.wake(None if method_id is None else {method_id})

    def parked_snapshot(self) -> Dict[int, Tuple[str, float]]:
        """Activations currently parked: id -> (method, parked_since).

        ``parked_since`` is a ``time.monotonic`` stamp. Consumed by the
        stall watchdog (:class:`repro.core.watchdog.ActivationWatchdog`)
        to turn silent hangs into diagnostics. With a continuation
        runtime attached, its parked continuations are merged in — a
        stalled activation surfaces identically whichever runtime parks
        it (activation ids are globally unique, so the union is
        collision-free).
        """
        with self._waiter_guard:
            snapshot = dict(self._parked_info)
        runtime = self._runtime
        if runtime is not None:
            snapshot.update(runtime.parked_snapshot())
        return snapshot

    def queue_lengths(self) -> Dict[str, int]:
        """Approximate number of activations parked per method queue.

        Counts threads inside ``Condition.wait`` plus, when a
        continuation runtime is attached, its parked continuations.
        """
        lengths: Dict[str, int] = {}
        for domain in self._all_domains():
            for method_id, count in domain.waiter_counts().items():
                lengths[method_id] = lengths.get(method_id, 0) + count
        runtime = self._runtime
        if runtime is not None:
            for method_id, _since in runtime.parked_snapshot().values():
                lengths[method_id] = lengths.get(method_id, 0) + 1
        return lengths

    def lock_domains(self) -> Dict[str, List[str]]:
        """Current domain layout: domain name -> method queues in it."""
        layout: Dict[str, List[str]] = {}
        for domain in self._all_domains():
            layout[domain.name] = [key for key, _ in domain.conditions()]
        return layout

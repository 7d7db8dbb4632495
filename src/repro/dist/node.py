"""Nodes: hosts for component clusters on the simulated network.

A node owns an inbox on the network, a set of exported servants
(typically :class:`~repro.core.proxy.ComponentProxy` objects, so every
remote invocation flows through the full moderation stack), and
``workers`` serve slots. Its server threads drain the inbox; a client
caller's request that is due now, while a slot is idle and nothing is
queued, is served on the caller's own thread instead when its method
has been serving quickly (see :class:`_ServeSlots`). Requests carry a
``caller`` principal which the node attaches to the servant call —
this is how the authentication aspect sees remote identities.

Resilience (``docs/resilience.md``): a node rejects already-expired
requests with :class:`~repro.core.errors.DeadlineExceeded` before doing
any work, dedups retried logical calls through a bounded
:class:`~repro.dist.resilience.IdempotencyCache` (replays return the
original reply instead of re-executing — at-most-once *effects*), caps
moderator BLOCK parks at the request's remaining budget, and may bound
its inbox with a load-shedding :class:`~repro.dist.resilience.ShedInbox`
so overload degrades into typed ``Overloaded`` rejections instead of
unbounded queues.

Durability (``docs/recovery.md``): a journaled service's mutating
methods carry a :class:`JournalAspect`, so the effect journal is one
more concern in the servant's moderator rather than a branch of the
serving path.
"""

from __future__ import annotations

import inspect
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.concurrency.primitives import WaitQueue
from repro.core.aspect import Aspect
from repro.core.errors import (
    ActivationTimeout,
    AspectFault,
    DeadlineExceeded,
    FencedOut,
    MethodAborted,
    Overloaded,
)
from repro.core.joinpoint import JoinPoint
from repro.core.moderator import AspectModerator
from repro.core.proxy import ComponentProxy
from repro.core.results import AspectResult
from repro.obs import propagation
from repro.obs.metrics import MetricsRegistry
from .message import (
    Message, WireFormatError, check_wire_safe, decode, error_reply, reply,
)
from .network import Network, role
from .resilience import DedupEntry, IdempotencyCache, ShedInbox

#: counters every node keeps (prefix ``repro_node_``)
_NODE_COUNTERS = (
    "requests_served", "requests_failed", "shed", "dedup_hits",
    "deadline_expired",
)

#: counters a node keeps once recovery is armed (prefix
#: ``repro_recovery_``); registered lazily on the first
#: :meth:`Node.attach_recovery` / epoch-carrying export, so an
#: unarmed node's registry is byte-for-byte the legacy one
_RECOVERY_COUNTERS = ("journal_appends", "checkpoints",
                      "fenced_rejections")

#: how long a duplicate of a still-executing call waits for the original
#: to finish when the request carries no deadline of its own
_DEFAULT_DUP_WAIT = 5.0

#: a method is served on its caller's thread only while its serve-time
#: mark (:class:`_ServeSlots`) is at most this, seconds ...
_INLINE_MAX_S = 0.01
#: ... and at most this fraction of the caller's remaining wait
_INLINE_HEADROOM = 8
#: each serve shrinks a method's mark by this factor, or raises it to
#: that serve's time if longer: a slow serve sends the method's next
#: calls to the workers until quick serves have brought it back down
_MARK_DECAY = 0.5
#: (service, method) pairs whose marks a node keeps; requests naming
#: further pairs are served by workers
_MAX_MARKS = 1024


class _NodeCrashed(BaseException):
    """Control-flow signal: this serving thread's node just fail-stopped.

    Deliberately a ``BaseException``: the serving paths convert every
    ``Exception`` into an error reply, and a crashed node must not
    reply — the silence *is* the failure mode the recovery plane
    exists for. Raised by :meth:`Node._crash_point`, re-raised past
    the reply machinery, and caught only where a request is taken: in
    :meth:`Node._serve_loop` and :meth:`_ServeSlots.offer`.
    """

    def __init__(self, spec: Any) -> None:
        self.spec = spec
        super().__init__(f"node crashed by fault plan: {spec}")


class _Request:
    """One request as its node serves it: the payload parsed once by
    the serving thread and read by every later step instead (a request
    an inline offer declines is parsed again by its worker).

    ``expires`` is the wire deadline in monotonic seconds (``None``
    unarmed); ``wait``, the nearer of it and an inline caller's reply
    wait, bounds the duplicate wait and a threaded call's BLOCK parks.
    ``entry`` is the dedup slot the request owns; ``journal`` the
    :class:`JournalAspect` of a journaled method, whose crash points
    consult ``injector`` (``None`` on the reactor).
    """

    __slots__ = ("message", "service", "method", "args", "kwargs", "caller",
                 "trace", "key", "fence", "expires", "wait", "entry",
                 "journal", "injector")

    def __init__(self, message: Message,
                 reply_by: Optional[float] = None) -> None:
        payload = message.payload
        self.message = message
        self.service = payload.get("service", "")
        self.method = payload.get("method", "")
        self.args = payload.get("args", ())
        self.kwargs = payload.get("kwargs", {})
        self.caller = payload.get("caller")
        self.trace = payload.get("trace")
        self.key = payload.get("idempotency_key")
        self.fence = payload.get("fence")
        budget = payload.get("deadline_budget")
        self.expires = wait = \
            None if budget is None else message.sent_at + budget
        # An inline serve parks no longer than its caller waits: a
        # reply sent after that counts as lost (Client._send_once).
        if reply_by is not None and (wait is None or reply_by < wait):
            wait = reply_by
        self.wait = wait
        self.entry: Optional[DedupEntry] = None
        self.journal: Optional[JournalAspect] = None
        self.injector: Optional[Any] = None


class _Ambient(threading.local):
    #: the journaled request the thread is serving
    request: Optional[_Request] = None


_ambient = _Ambient()
#: join-point context key: the request whose plan's lock this
#: activation holds, from the journal precondition to its postaction
_HOLDS_JOURNAL = "__journal__"


class _ServeSlots:
    """A node's inbox that also holds the node's ``workers`` serve slots.

    Mixed into the inbox's queue class, so the free-slot count lives
    under the queue's own lock: a worker's ``get`` takes a request and
    a slot in one step (:meth:`_ready`, :meth:`_take`), and
    :meth:`offer` claims a slot only while nothing is queued. Workers
    and inline callers together therefore run at most ``workers``
    servant calls at once, and a request served inline never overtakes
    a queued one.

    A serve on the caller's thread holds the caller for as long as it
    runs, and no wait bound reaches into a method body. So the inbox
    also keeps, per ``(service, method)``, a decaying high-water mark
    of how long its serves took (:meth:`release`), and :meth:`offer`
    serves inline only a method whose mark is known, short
    (:data:`_INLINE_MAX_S`) and a small fraction
    (1/:data:`_INLINE_HEADROOM`) of the caller's remaining wait. A
    method's first serve on the node, and its serves after a slow one,
    take a worker.
    """

    def __init__(self, node: "Node", workers: int, *args: Any,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[call-arg]
        self.node = node
        #: idle serve slots
        self.free = workers
        #: threads serving a request inline right now
        self.callers: Set[threading.Thread] = set()
        #: (service, method) -> decaying high-water mark of its serve
        #: time on this node, seconds
        self.marks: Dict[Tuple[Any, Any], float] = {}

    def _ready(self) -> bool:
        # a stopped node's worker wakes to leave (``_take`` says so)
        return not self.node._running or bool(self._items) and self.free > 0

    def _take(self) -> Any:
        if not self.node._running:
            raise WaitQueue.Closed("node stopped")
        self.free -= 1
        return self._items.popleft()

    def halt(self) -> None:
        """Stop the node's serving and wake its waiting workers, which
        then leave their ``get``."""
        with self._not_empty:
            self.node._running = False
            self._not_empty.notify_all()

    def release(self, request: Optional[_Request], elapsed: float,
                caller: Optional[threading.Thread] = None) -> None:
        """Give a slot back after serving ``request`` (``None`` for a
        stray non-request) for ``elapsed`` seconds (and, for an inline
        ``caller``, its place in :attr:`callers`)."""
        with self._lock:  # ``_not_empty``'s lock, taken bare (cheaper)
            self.free += 1
            self.callers.discard(caller)
            if request is not None:
                key = (request.service, request.method)
                mark = self.marks.get(key)
                if mark is not None:
                    self.marks[key] = max(elapsed, mark * _MARK_DECAY)
                elif len(self.marks) < _MAX_MARKS:
                    self.marks[key] = elapsed
            if not self.node._running:
                self._not_empty.notify_all()  # a stop() may wait
            elif self._items:
                self._not_empty.notify()

    def offer(self, message: Message) -> bool:
        """Serve a client caller's due-now request on its thread.

        The network's offer (``Network._put``). False, and the request
        is queued as usual, unless it names a moderated servant
        (a :class:`ComponentProxy`) whose method serves quickly here
        (see the class), the node is running, an idle slot is free and
        nothing is queued. The caller's reply wait (``role.reply_by``)
        bounds the serve's BLOCK parks, so a BLOCK parks the caller no
        longer than it would have waited; a plain servant waits in ways
        no bound reaches, so it keeps the worker. A crash point that
        fires fail-stops the node and sends no reply: the caller times
        out as it would on a worker's silence.
        """
        node = self.node
        reply_by = role.reply_by
        request = _Request(message, reply_by)
        if not isinstance(node._servants.get(request.service),
                          ComponentProxy):
            return False
        mark = self.marks.get((request.service, request.method))
        started = time.monotonic()
        if mark is None or mark > _INLINE_MAX_S or \
                mark * _INLINE_HEADROOM > reply_by - started:
            return False
        thread = threading.current_thread()
        with self._lock:
            if not node._running or self._items or not self.free \
                    or self._closed:
                return False
            self.free -= 1
            self.callers.add(thread)
        role.serving = True
        try:
            node._handle_request(request)
        except _NodeCrashed:
            pass
        finally:
            role.serving = False
            self.release(request, time.monotonic() - started, thread)
        return True

    def settle_callers(self, timeout: float) -> List[threading.Thread]:
        """Wait up to ``timeout`` for inline serves to end (the caller
        of this method excepted); returns the threads still serving."""
        current = threading.current_thread()
        with self._not_empty:
            self._not_empty.wait_for(
                lambda: self.callers <= {current}, timeout)
            return list(self.callers)


class _Inbox(_ServeSlots, WaitQueue):
    """An unbounded node inbox."""


class _ShedInbox(_ServeSlots, ShedInbox):
    """A bounded, shedding node inbox."""


#: underlying function -> whether it takes ``caller``
#: (:meth:`Node._accepts_caller`)
_takes_caller: "weakref.WeakKeyDictionary[Any, bool]" = \
    weakref.WeakKeyDictionary()


class JournalAspect(Aspect):
    """The durable effect journal as a moderated concern.

    Registered last (innermost) on a journaled service's mutating
    methods. For the ambient :class:`_Request` of this service and
    method, the precondition takes the plan lock without waiting (BLOCK
    while held, so a parked mutator holds nothing) and the postaction
    appends the applied effect and releases it: journal order is apply
    order, and a checkpoint, which takes the same lock, never captures
    an unappended effect. Other activations (local, nested) pass.
    ``proxy`` serves a plain servant.
    """

    concern = "journal"

    def __init__(self, node: "Node", service: str, plan: Any,
                 methods: Any, moderator: AspectModerator,
                 proxy: Optional[ComponentProxy]) -> None:
        self.node = node
        self.service = service
        self.plan = plan
        self.methods = frozenset(methods)
        self.moderator = moderator
        self.proxy = proxy

    def precondition(self, joinpoint: JoinPoint) -> AspectResult:
        request = _ambient.request
        if request is None or request.journal.service != self.service \
                or request.method != joinpoint.method_id:
            return AspectResult.RESUME
        plan = request.journal.plan
        if not plan.lock.acquire(False):
            # Registered before the second try, so the holder's release
            # either lets that try succeed or finds this moderator to
            # wake, on whichever node the holder runs.
            plan.park(self.moderator)
            if not plan.lock.acquire(False):
                return AspectResult.BLOCK
        joinpoint.context[_HOLDS_JOURNAL] = request
        return AspectResult.RESUME

    def on_abort(self, joinpoint: JoinPoint) -> None:
        # a later aspect BLOCKed or ABORTed: park holding nothing
        request = joinpoint.context.pop(_HOLDS_JOURNAL, None)
        if request is not None:
            request.journal.plan.lock.release()

    def postaction(self, joinpoint: JoinPoint) -> None:
        request = joinpoint.context.pop(_HOLDS_JOURNAL, None)
        if request is None:
            return
        try:
            if joinpoint.exception is None \
                    and not joinpoint.invocation_skipped:
                request.journal.node._journal(request, joinpoint.result)
        finally:
            request.journal.plan.lock.release()


class Node:
    """One host on the simulated network.

    At most ``workers`` servant calls run at once, counting the node's
    worker threads and client callers served inline: a request is
    served on the sender's thread when it is due now, a slot is idle
    with nothing queued and its moderated method has been serving
    quickly on this node; otherwise a worker takes it from the inbox.
    ``inbox_limit`` arms admission control: at most that many requests
    queue; excess is shed per ``shed_policy`` (``"reject"`` answers
    ``Overloaded`` carrying the ``retry_after`` hint; ``"drop_oldest"``
    evicts the stalest queued request in favour of the arrival).
    The idempotency cache holds up to 1024 completed keys; ``registry``
    supplies the metrics registry the node reports through.
    """

    def __init__(self, node_id: str, network: Network,
                 workers: int = 1,
                 inbox_limit: Optional[int] = None,
                 shed_policy: str = "reject",
                 retry_after: float = 0.05,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.node_id = node_id
        self.network = network
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = self.registry.counter_block(
            _NODE_COUNTERS, prefix="repro_node_"
        )
        self.retry_after = retry_after
        inbox: _ServeSlots = _Inbox(self, workers) \
            if inbox_limit is None else \
            _ShedInbox(self, workers, inbox_limit, policy=shed_policy,
                       on_shed=self._on_shed)
        self.inbox = network.register(node_id, inbox=inbox)
        self.dedup = IdempotencyCache()
        self._servants: Dict[str, Any] = {}
        #: service -> attached continuation runtime
        #: (:class:`repro.core.continuation.ContinuationRuntime`).
        #: Moderated calls of such services ride the reactor: a BLOCKed
        #: activation parks as a heap continuation and the server thread
        #: returns to the inbox immediately, so the node holds orders of
        #: magnitude more in-flight requests than it has threads. Empty
        #: by default — and then every request is served threaded.
        self._runtimes: Dict[str, Any] = {}
        #: service -> attached recovery plan
        #: (:class:`repro.dist.recovery.RecoveryPlan`); empty by
        #: default — and then nothing is journaled.
        self._journals: Dict[str, Any] = {}
        #: service -> the :class:`JournalAspect` registered on its
        #: servant's mutating methods, for every service holding both a
        #: plan and a servant (and a non-empty mutating set)
        self._journaling: Dict[str, JournalAspect] = {}
        #: service -> fencing epoch it was exported at (the binding
        #: version the supervisor minted); armed requests carrying a
        #: different epoch are rejected with ``FencedOut``
        self._epochs: Dict[str, int] = {}
        #: set after :meth:`crash` with ``lose_memory=True``: the node
        #: can no longer prove anything about in-flight work, so
        #: :meth:`settle`'s drain barrier reports failure until
        #: :meth:`recover`
        self._crashed = False
        self._recovery_counters: Optional[Any] = None
        #: crash-site hook (:class:`repro.faults.FaultInjector`);
        #: installed via ``injector.install(node)`` like the network's
        self.fault_injector: Optional[Any] = None
        self._lock = threading.Lock()
        #: services withdrawn for a live migration: requests for them are
        #: answered with a *transient* Overloaded (+retry_after) so the
        #: client retry loop re-resolves onto the new binding, instead of
        #: the terminal LookupError an unknown service earns
        self._moving: set = set()
        #: per-service count of requests currently executing a servant
        #: call — what a migrator's drain (:meth:`settle`) waits on
        self._inflight: Dict[str, int] = {}
        self._idle = threading.Condition(self._lock)
        #: threads waiting in :meth:`settle`; kept under ``_idle``
        self._settlers = 0
        self._threads: List[threading.Thread] = []
        self._running = False
        self._workers = workers

    # -- legacy counter facade (exact under the striped registry) ------
    @property
    def requests_served(self) -> int:
        return int(self._counters.value("requests_served"))

    @property
    def requests_failed(self) -> int:
        return int(self._counters.value("requests_failed"))

    @property
    def requests_shed(self) -> int:
        return int(self._counters.value("shed"))

    @property
    def dedup_hits(self) -> int:
        return int(self._counters.value("dedup_hits"))

    def metrics(self) -> Dict[str, int]:
        """Consistent snapshot of the node's resilience counters."""
        return self._counters.as_dict()

    # ------------------------------------------------------------------
    # servants
    # ------------------------------------------------------------------
    def export(self, service: str, servant: Any,
               runtime: Optional[Any] = None,
               epoch: Optional[int] = None) -> None:
        """Expose ``servant`` under a local service name.

        ``runtime`` (a :class:`repro.core.continuation.ContinuationRuntime`
        attached to the servant proxy's moderator) opts the service into
        reactor serving: moderated calls are submitted as continuations
        and the reply is sent from the completion callback, so a BLOCKed
        request holds no server thread while parked. Only participating
        methods of a :class:`~repro.core.proxy.ComponentProxy` servant
        ride the reactor; everything else (plain servants, passthrough
        methods) keeps the synchronous path.

        ``epoch`` stamps the fencing epoch this export is authoritative
        for (``docs/recovery.md``): armed requests carrying a different
        epoch are rejected with a retryable
        :class:`~repro.core.errors.FencedOut`, so traffic aimed at a
        superseded binding cannot land effects here.
        """
        if runtime is not None and isinstance(servant, ComponentProxy) \
                and runtime._moderator is not servant._moderator:
            raise ValueError(
                "runtime is attached to a different moderator than "
                f"servant of {service!r}"
            )
        with self._lock:
            if service in self._servants:
                raise ValueError(
                    f"service {service!r} already exported on {self.node_id}"
                )
            self._servants[service] = servant
            if runtime is not None:
                self._runtimes[service] = runtime
            else:
                self._runtimes.pop(service, None)
            if epoch is not None:
                self._epochs[service] = int(epoch)
            self._moving.discard(service)
            self._arm(service)
        if epoch is not None:
            self._recovery_metrics()

    def expect(self, service: str) -> None:
        """Open the retryable window for a service about to arrive.

        A failover rebinds the name *before* the recovered servant is
        exported here; requests racing into that gap are answered with
        the retryable moving ``Overloaded`` instead of the terminal
        ``LookupError`` an unknown service earns. No-op if the service
        is already exported.
        """
        with self._lock:
            if service not in self._servants:
                self._moving.add(service)

    def withdraw(self, service: str, moving: bool = False) -> Any:
        """Remove a servant; ``moving=True`` opens the migration window.

        While a service is marked moving (until the next :meth:`export`
        of that name, here or nowhere), requests for it are rejected
        with a retryable ``Overloaded`` instead of ``LookupError`` — the
        client's retry loop backs off, re-resolves, and lands on the
        rebound location. The pop and the mark are atomic, so no request
        can slip between them and observe a terminal error.
        """
        with self._lock:
            servant = self._servants.pop(service)
            self._journaling.pop(service, None)
            if moving:
                self._moving.add(service)
            return servant

    def settle(self, service: str,
               timeout: Optional[float] = None) -> bool:
        """Wait until no request is executing ``service``'s servant.

        The migrator's drain barrier: after ``withdraw(moving=True)`` no
        *new* request can reach the servant, and ``settle`` returning
        True proves the in-flight ones finished — only then is captured
        state complete. False on timeout — or after a memory-losing
        crash, because an amnesiac node cannot prove anything about
        work that was in flight when it died.
        """
        with self._idle:
            self._settlers += 1
            drained = self._idle.wait_for(
                lambda: (self._crashed
                         or self._inflight.get(service, 0) == 0),
                timeout,
            )
            self._settlers -= 1
            return drained and not self._crashed

    def _release(self, service: str) -> None:
        # the in-flight count was taken while fetching the servant;
        # ``_idle``'s lock, taken bare
        with self._lock:
            count = self._inflight.get(service, 0) - 1
            if count > 0:
                self._inflight[service] = count
            else:
                self._inflight.pop(service, None)
                if self._settlers:
                    self._idle.notify_all()

    def _unavailable(self, service: str, moving: bool) -> BaseException:
        """The right rejection for a request naming no local servant."""
        if moving:
            return Overloaded(
                f"service {service!r} is migrating off {self.node_id}",
                retry_after=self.retry_after,
            )
        return LookupError(
            f"no service {service!r} on node {self.node_id}"
        )

    def services(self) -> List[str]:
        with self._lock:
            return sorted(self._servants)

    @property
    def load(self) -> int:
        """Queued requests — the least-loaded balancer's signal."""
        return len(self.inbox)

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _on_shed(self, message: Message, action: str) -> None:
        """A request was shed at admission; tell its caller.

        Runs on the sender's thread when the request was due now, else
        on the network dispatcher, outside the inbox lock either way.
        Both policies answer the shed request's caller with
        ``Overloaded`` so it wakes promptly and backs off, instead of
        burning its full timeout (under ``drop_oldest`` the *evicted*
        request is the one answered; the arrival was enqueued).
        """
        self._counters.bump("shed")
        response = error_reply(
            message,
            Overloaded(f"node {self.node_id} shed request "
                       f"({action})", retry_after=self.retry_after),
        )
        self._send_response(response)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def start(self) -> "Node":
        if self._running:
            return self
        self._running = True
        for index in range(self._workers):
            thread = threading.Thread(
                target=self._serve_loop,
                name=f"{self.node_id}-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def _serve_loop(self) -> None:
        role.serving = True
        while self._running:
            try:
                message = self.inbox.get()  # ``halt`` wakes it to leave
            except WaitQueue.Closed:
                return
            started = time.monotonic()
            request = None
            try:
                if message.kind == "request":
                    request = _Request(message)
                    self._handle_request(request)
                # replies are routed by client stubs sharing the inbox
                # of a client endpoint; a serving node ignores stray
                # replies.
            except _NodeCrashed:
                # The fault plan fail-stopped this node mid-request: no
                # reply, no cleanup — the thread just dies, like the
                # process it stands in for.
                return
            finally:
                self.inbox.release(request, time.monotonic() - started)

    def _handle_request(self, request: _Request) -> None:
        """Serve one request: fence → deadline → claim → serve → reply.

        Every request takes this one path, on a worker or, served
        inline, on the caller's thread, whose reply wait then bounds
        the duplicate wait and the BLOCK parks of a threaded servant
        call (``request.wait``). An unarmed request (no fence, budget or
        idempotency key on the wire) passes the first three steps on a
        ``None`` test each; the servant call, the crash points and the
        reply are the same either way. The in-flight count
        :meth:`settle` waits on is held until the call's dedup outcome
        is recorded.
        """
        message, service = request.message, request.service
        fence = request.fence
        if fence is not None and self._epochs:
            local = self._epochs.get(service)
            if local is not None and fence != local:
                # The caller resolved a binding whose epoch this export
                # does not hold: either we are the zombie (stale local
                # epoch) or the caller is (stale binding). Rejecting is
                # retryable — the caller re-resolves onto the current
                # epoch holder — and happens before the dedup claim so
                # a fenced request can never pin a dedup slot here.
                self._counters.bump("requests_failed")
                self._recovery_metrics().bump("fenced_rejections")
                self._send_response(error_reply(message, FencedOut(
                    f"request for {service!r} carries epoch {fence}; "
                    f"node {self.node_id} holds epoch {local}",
                    stale_epoch=int(fence), current_epoch=local,
                    retry_after=self.retry_after,
                )))
                return

        if request.expires is not None and request.expires <= time.monotonic():
            # Reject dead work before touching the servant: an expired
            # request's caller has already given up, so executing it
            # can only waste capacity (and double-apply if the caller
            # retried).
            self._counters.bump("requests_failed", "deadline_expired")
            self._send_response(error_reply(message, DeadlineExceeded(
                f"request {service}.{request.method} expired before "
                f"execution"
            )))
            return

        if request.key is not None and not self._claim(request):
            return  # duplicate: a cached/parked reply was sent
        journal = self._journaling.get(service)
        if journal is not None and request.method in journal.methods:
            request.journal = journal
        if self._runtimes and self._serve_on_reactor(request):
            return
        injector = request.injector = self.fault_injector
        servant = None
        try:
            if injector is not None:
                self._crash_point(injector, "serve")
            servant = self._enter(service)
            if request.trace is None:
                result = self._invoke(servant, request)
            else:
                # Activated around the servant call, so this node's
                # span recorder roots the activation under the
                # caller's span: one stitched trace.
                with propagation.activate(
                        propagation.from_wire(request.trace)):
                    result = self._invoke(servant, request)
            if injector is not None and request.journal is None:
                # a journaled call passed it in the journal aspect
                self._crash_point(injector, "applied")
            response = self._succeeded(request, result)
        except _NodeCrashed:
            raise
        except BaseException as exc:  # noqa: BLE001 - marshalled to caller
            response = self._failed(request, exc)
        finally:
            if servant is not None:
                self._release(service)
        self._send_response(response)
        if injector is not None:
            self._crash_point(injector, "replied")

    def _enter(self, service: str) -> Any:
        """The service's servant, counted in flight until
        :meth:`_release`; raises the rejection for a missing one."""
        with self._lock:
            servant = self._servants.get(service)
            if servant is None:
                raise self._unavailable(service, service in self._moving)
            self._inflight[service] = self._inflight.get(service, 0) + 1
        return servant

    def _invoke(self, servant: Any, request: _Request) -> Any:
        """Execute the servant call ``request`` describes.

        A journaled call runs with ``request`` as the thread's ambient
        request. On the way out, past every moderator lock (``notify``
        must not be called under one), it wakes the mutators parked on
        its plan's lock in any node's moderator: the journal aspect may
        have released that lock, and only a checkpoint would wake them
        otherwise.
        """
        journal = request.journal
        if journal is None:
            return self._dispatch(servant, request.method, request.args,
                                  request.kwargs, request.caller,
                                  request.wait)
        outer, _ambient.request = _ambient.request, request
        try:
            return self._dispatch(servant, request.method, request.args,
                                  request.kwargs, request.caller,
                                  request.wait, journal.proxy)
        finally:
            _ambient.request = outer
            if journal.plan.parked:
                journal.plan.wake_parked()

    @staticmethod
    def _dispatch(servant: Any, method: str, args: Any,
                  kwargs: Dict[str, Any], caller: Optional[str],
                  deadline: Any, proxy: Optional[ComponentProxy] = None,
                  ) -> Any:
        """One servant call; journal replay shares it with serving. A
        plain servant is called through its journaling ``proxy``, if
        any, and receives ``caller`` when it accepts one. ``kwargs`` is
        left as it came: the journal records it."""
        if isinstance(servant, ComponentProxy):
            # ``deadline`` (monotonic seconds) caps moderator BLOCK parks
            return servant.call(method, *args, caller=caller,
                                deadline=deadline, **kwargs)
        target = getattr(servant if proxy is None else proxy, method)
        if caller is not None and "caller" not in kwargs \
                and Node._accepts_caller(target):
            return target(*args, caller=caller, **kwargs)
        return target(*args, **kwargs)

    # ------------------------------------------------------------------
    # reactor serving (continuation runtime)
    # ------------------------------------------------------------------
    def _serve_on_reactor(self, request: _Request) -> bool:
        """Submit a moderated call to the service's continuation runtime.

        Returns True when the request was taken (the reply will be sent
        from the completion callback); False when this request must use
        the synchronous path — no runtime for the service, a non-proxy
        servant, a passthrough method, or a closed runtime. The
        in-flight count is taken here and released in the callback, so
        :meth:`settle`'s drain barrier covers parked continuations too.
        """
        service, method = request.service, request.method
        runtime = self._runtimes.get(service)
        if runtime is None:
            return False
        with self._lock:
            servant = self._servants.get(service)
            if not isinstance(servant, ComponentProxy) \
                    or not servant.is_participating(method):
                return False
            self._inflight[service] = self._inflight.get(service, 0) + 1
        caller = request.caller if request.caller is not None \
            else servant._caller
        journal = request.journal
        context = propagation.from_wire(request.trace)

        @contextmanager
        def wrap() -> Any:
            # Re-established around every segment run, as a serving
            # thread's (:meth:`_invoke`): the worker that resumes a
            # parked suffix is not the thread that started the
            # activation, and all three are thread-local.
            outer = _ambient.request, role.serving
            _ambient.request = request if journal is not None else None
            role.serving = True
            try:
                with propagation.activate(context):
                    yield
            finally:
                _ambient.request, role.serving = outer
                if journal is not None and journal.plan.parked:
                    journal.plan.wake_parked()

        try:
            future = runtime.submit(
                method, getattr(servant._component, method), *request.args,
                component=servant._component, caller=caller,
                timeout=servant._timeout, deadline=request.expires,
                wrap=wrap, **request.kwargs,
            )
        except RuntimeError:
            # Runtime closed under us: undo the claim, serve threaded.
            self._release(service)
            return False
        future.add_callback(lambda fut: self._finish_reactor(fut, request))
        return True

    def _finish_reactor(self, future: Any, request: _Request) -> None:
        """Completion callback: reply exactly as the threaded path would.

        A success replies and caches like :meth:`_handle_request`; a
        failure takes the same :meth:`_failed` step. The in-flight count
        is released once the dedup outcome is recorded.
        """
        try:
            exc = future.exception()
            if exc is None:
                response = self._succeeded(request, future.result())
            else:
                response = self._failed(request, exc)
        finally:
            self._release(request.service)
        self._send_response(response)

    def _succeeded(self, request: _Request, result: Any) -> Message:
        """The reply for a served request, counted and cached: with
        ``result``, or :meth:`_flatten`'s copy of it if the wire refuses
        it."""
        try:
            response = reply(request.message, result)
        except WireFormatError:
            response = reply(request.message, self._flatten(result))
        self._counters.inc("requests_served")
        self._cache(request, response)
        return response

    def _failed(self, request: _Request, exc: BaseException) -> Message:
        """The error reply for a failed request, counted and cached."""
        if isinstance(exc, AspectFault) and \
                exc.concern == JournalAspect.concern:
            # the journal's own failure (a fenced append) reaches the
            # caller as itself
            exc = exc.original
        if (isinstance(exc, ActivationTimeout) and request.expires is not None
                and request.expires <= time.monotonic()):
            # The park was cut short by the request's budget, not the
            # local timeout (the wire deadline decides, not the
            # caller's wait): surface the end-to-end semantics.
            exc = DeadlineExceeded(
                f"deadline elapsed while {request.service}."
                f"{request.method} was blocked in moderation"
            )
        counted = ["requests_failed"]
        if isinstance(exc, DeadlineExceeded):
            counted.append("deadline_expired")
        self._counters.bump(*counted)
        response = error_reply(request.message, exc)
        self._cache(request, response, exc)
        return response

    def _cache(self, request: _Request, response: Message,
               exc: Optional[BaseException] = None) -> None:
        """Record a claimed request's outcome: the reply as sent, which
        a retry replays instead of re-executing (at-most-once effects),
        or, for a failure that proves the body never ran
        (:meth:`_not_applied`), no slot, so a retry may execute it."""
        if request.entry is None:
            return
        if exc is not None and self._not_applied(exc):
            self.dedup.abandon(request.key)
        else:
            self.dedup.finish(request.key, response.kind,
                              decode(response.wire))

    def _claim(self, request: _Request) -> bool:
        """Claim the request's key for execution, or answer the duplicate.

        True when this delivery should execute the call (it then owns
        ``request.entry``); False when a reply has already been sent
        (cached replay, parked-then-replayed, or gave up waiting).
        """
        message, key = request.message, request.key
        while True:
            state, entry = self.dedup.begin(key)
            if state == "new":
                request.entry = entry
                return True
            self._counters.bump("dedup_hits")
            if state == "done":
                self._send_response(self._replay(message, entry))
                return False
            # The original delivery is still executing: park this
            # duplicate until it finishes (bounded by the wait) and
            # replay its reply — never run the body twice concurrently.
            budget = (request.wait - time.monotonic()
                      if request.wait is not None else _DEFAULT_DUP_WAIT)
            if budget > 0:
                entry.wait(budget)
            if entry.done and entry.payload is not None:
                self._send_response(self._replay(message, entry))
                return False
            if not entry.done:
                self._counters.bump("requests_failed")
                self._send_response(error_reply(message, TimeoutError(
                    f"duplicate of in-flight call {key!r} gave up "
                    f"waiting for the original to finish"
                )))
                return False
            # Abandoned (completed without a payload): the original
            # attempt provably did not apply — loop and re-claim.

    def _replay(self, message: Message, entry: DedupEntry) -> Message:
        """The cached reply, re-addressed to this duplicate's caller."""
        return Message(self.node_id, message.source, entry.kind or "reply",
                       entry.payload or {}, reply_to=message.msg_id)

    @staticmethod
    def _not_applied(exc: BaseException) -> bool:
        """Whether a failure proves the method body never ran.

        ABORTed activations, timed-out BLOCK parks, deadline
        rejections, missing servants, and admission rejections
        (``Overloaded`` — including the migration window's moving
        answer) all fail *before* invocation — a retry may safely
        re-execute. Anything else may have applied side effects, so the
        error is pinned in the dedup cache and a retry replays it
        instead of re-running the body.
        """
        return isinstance(
            exc,
            (MethodAborted, ActivationTimeout, DeadlineExceeded,
             LookupError, Overloaded),
        )

    def _send_response(self, response: Message) -> None:
        try:
            self.network.send(response)
        except Exception:  # noqa: BLE001 - reply to a vanished client
            pass

    @staticmethod
    def _accepts_caller(target: Any) -> bool:
        """Whether a servant method can receive the request principal.

        Cached per underlying function: a bound method's ``__func__``,
        behind a ``functools.wraps`` wrapper such as the journaling
        proxy's. Callables that cannot be weakly keyed (builtins) are
        inspected per call.
        """
        function = getattr(target, "__wrapped__", target)
        function = getattr(function, "__func__", function)
        try:
            return _takes_caller[function]
        except (KeyError, TypeError):
            pass
        try:
            parameters = inspect.signature(target).parameters
        except (TypeError, ValueError):
            answer = False
        else:
            answer = "caller" in parameters or any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in parameters.values()
            )
        try:
            _takes_caller[function] = answer
        except TypeError:
            pass
        return answer

    @staticmethod
    def _flatten(result: Any) -> Any:
        """``result`` if a reply can carry it, else its wire-safe
        attributes (two levels deep) or else its ``repr``."""
        if check_wire_safe(result, 1):
            return result
        if not hasattr(result, "__dict__"):
            return repr(result)
        flat = {key: value for key, value in vars(result).items()
                if check_wire_safe(value, 2)}
        flat["__type__"] = type(result).__name__
        return flat

    # ------------------------------------------------------------------
    # recovery plane (docs/recovery.md)
    # ------------------------------------------------------------------
    def attach_recovery(self, service: str, plan: Any) -> None:
        """Arm the durable effect journal for a service.

        ``plan`` is a :class:`repro.dist.recovery.RecoveryPlan`. Once
        the service also has a servant (here or at the next
        :meth:`export`), a :class:`JournalAspect` is registered last on
        the plan's mutating methods — every method of the component
        when ``mutating`` is ``None`` — so every call of one is
        journaled to the plan's store *before* its reply is sent: the
        write-ahead guarantee recovery's exactly-once replay rests on.
        A plain servant is then served through a moderated proxy the
        node owns.
        """
        with self._lock:
            self._journals[service] = plan
            self._arm(service)
        self._recovery_metrics()

    def detach_recovery(self, service: str) -> Optional[Any]:
        """Disarm journaling for a service; returns the plan, if any.

        Requests already in flight stay journaled. The aspect stays
        registered: unregistering would wake parked mutators into an
        unjournaled apply, and it passes every call that carries no
        journaled request of its service.
        """
        with self._lock:
            self._journaling.pop(service, None)
            return self._journals.pop(service, None)

    def _arm(self, service: str) -> None:
        # under self._lock; registration takes no domain lock
        plan = self._journals.get(service)
        servant = self._servants.get(service)
        if plan is None or servant is None:
            return
        owned = not isinstance(servant, ComponentProxy)
        component = servant if owned else servant.component
        methods = plan.mutating if plan.mutating is not None else [
            name for name in dir(component)
            if not name.startswith("_")
            and callable(getattr(component, name, None))
        ]
        if not methods:
            return
        if owned:
            moderator = AspectModerator()
            proxy = ComponentProxy(servant, moderator)
        else:
            moderator, proxy = servant.moderator, None
        journal = JournalAspect(self, service, plan, methods, moderator,
                                proxy)
        for method in journal.methods:
            moderator.register_aspect(method, JournalAspect.concern,
                                      journal, replace=True)
        self._journaling[service] = journal

    def checkpoint(self, service: str) -> int:
        """Durably checkpoint a journaled service's state now.

        Packs the servant state with its handoff bundle
        (:meth:`repro.dist.recovery.Handoff.pack`: completed
        idempotency entries, optional aspect state) under the plan lock
        — so the recorded journal sequence is exactly the last effect
        the captured state contains — then prunes the journal up to it
        and wakes the mutators that BLOCKed on the lock meanwhile,
        wherever they parked (:meth:`RecoveryPlan.park`: a paused node
        that comes back still holds its journal aspect).
        ``capture`` must not call moderated methods of its own servant:
        an automatic checkpoint runs inside a mutator's activation,
        whose outer aspects have not unwound yet. Returns the
        checkpointed sequence.
        """
        plan = self._journals.get(service)
        if plan is None:
            raise KeyError(
                f"service {service!r} has no recovery plan on "
                f"{self.node_id}"
            )
        with self._lock:
            servant = self._servants.get(service)
        if servant is None:
            raise KeyError(
                f"no service {service!r} on node {self.node_id}"
            )
        with plan.lock:
            seq = self._checkpoint_locked(plan, service, servant)
        plan.wake_parked()
        return seq

    def _checkpoint_locked(self, plan: Any, service: str,
                           servant: Any = None) -> int:
        # under the plan's lock
        if servant is None:
            with self._lock:
                servant = self._servants.get(service)
            if servant is None:  # withdrawn mid-flight: nothing to save
                return plan.store.last_seq(service)
        state = plan.pack(servant, self.dedup)
        epoch = self._epochs.get(service, 0)
        seq = plan.store.last_seq(service)
        plan.store.save_checkpoint(
            service, {"state": state, "seq": seq, "epoch": epoch},
            epoch=epoch,
        )
        plan.store.prune(service, seq)
        self._recovery_metrics().bump("checkpoints")
        return seq

    def _journal(self, request: _Request, result: Any) -> None:
        """Append one applied effect (the journal aspect's postaction,
        under the plan's lock); an automatic checkpoint may follow."""
        journal = request.journal
        plan, service = journal.plan, journal.service
        injector = request.injector
        if injector is not None:
            self._crash_point(injector, "applied")
        record = {
            "method": request.method,
            "args": request.args,
            "kwargs": request.kwargs,
            "caller": request.caller,
            "key": request.key,
            "reply": {"kind": "reply",
                      "payload": {"result": self._flatten(result)}},
        }
        epoch = self._epochs.get(service, 0)
        try:
            plan.store.append(service, record, epoch=epoch)
        except FencedOut:
            # The durable plane refused our epoch: a replacement was
            # promoted while we served. The local apply mutated doomed
            # state only (this node's memory is no longer
            # authoritative); step aside so retries re-resolve onto
            # the current holder, where dedup/journal govern.
            self._recovery_metrics().bump("fenced_rejections")
            try:
                self.withdraw(service, moving=True)
            except KeyError:
                pass
            raise
        self._recovery_metrics().bump("journal_appends")
        plan.appended += 1
        if plan.checkpoint_every and \
                plan.appended % plan.checkpoint_every == 0:
            self._checkpoint_locked(plan, service)
        if injector is not None:
            self._crash_point(injector, "journaled")

    def _recovery_metrics(self) -> Any:
        if self._recovery_counters is None:
            self._recovery_counters = self.registry.counter_block(
                _RECOVERY_COUNTERS, prefix="repro_recovery_"
            )
        return self._recovery_counters

    def _crash_point(self, injector: Any, point: str) -> None:
        """Consult the fault plan at one serving checkpoint.

        ``raise`` fail-stops the node here (volatile state discarded,
        network traffic dropped); ``delay`` widens the race window;
        ``skip`` is a no-op at crash sites.
        """
        spec = injector.crash_due(self.node_id, point)
        if spec is None:
            return
        if spec.action == "delay":
            injector._sleep(spec.arg)  # noqa: SLF001 - shared clock hook
            return
        if spec.action == "skip":
            return
        self._crash_now()
        raise _NodeCrashed(spec)

    def _crash_now(self) -> None:
        # Fail-stop from a serving thread: no joins (we may *be* a
        # serving thread), just drop off the network, stop the loops,
        # and lose the memory a real process death would lose.
        self.network.take_down(self.node_id)
        self.inbox.halt()
        self._lose_memory()

    def _lose_memory(self) -> None:
        """Discard every piece of volatile state, as process death does."""
        with self._lock:
            self._servants.clear()
            self._runtimes.clear()
            self._journals.clear()
            self._journaling.clear()
            self._epochs.clear()
            self._moving.clear()
            self._inflight.clear()
            self._crashed = True
        # a fresh, empty cache: the acknowledged replies the old one
        # held survive only via the journal/checkpoint handoff
        self.dedup = IdempotencyCache(self.dedup.capacity)
        with self._idle:
            self._idle.notify_all()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self, timeout: float = 1.0) -> List[threading.Thread]:
        """Stop serving; returns the threads still alive afterwards.

        Like ``WorkerPool.shutdown``, stragglers (serve threads wedged
        in a servant call past ``timeout``) are *surfaced*, not
        silently dropped: the caller decides whether a non-empty list
        is a leak to fail on. A caller serving a request inline is
        waited for and surfaced like a worker. The calling thread
        itself is reported as a straggler rather than joined (a servant
        stopping its own node must not deadlock).
        """
        self.inbox.halt()
        current = threading.current_thread()
        stragglers: List[threading.Thread] = []
        for thread in self._threads:
            if thread is current:
                stragglers.append(thread)
                continue
            thread.join(timeout=timeout)
            if thread.is_alive():
                stragglers.append(thread)
        self._threads.clear()
        stragglers.extend(self.inbox.settle_callers(timeout))
        return stragglers

    def crash(self, lose_memory: bool = False) -> List[threading.Thread]:
        """Fail-stop: the node stops serving and the network drops traffic.

        ``lose_memory=True`` is a *real* process crash: servants,
        attached runtimes and journals, fencing epochs, the idempotency
        cache, and the migration bookkeeping are all discarded — only
        what reached a durable :class:`~repro.dist.recovery`
        store survives. The default keeps memory (partition + pause),
        which models a network-isolated or suspended process that may
        come back as a zombie. Returns :meth:`stop`'s stragglers.
        """
        self.network.take_down(self.node_id)
        stragglers = self.stop()
        if lose_memory:
            self._lose_memory()
        return stragglers

    def recover(self) -> None:
        self._crashed = False
        self.network.bring_up(self.node_id)
        self.start()

    def __repr__(self) -> str:
        return (
            f"<Node {self.node_id} services={self.services()} "
            f"served={self.requests_served}>"
        )

"""RPC client: remote proxies over the simulated network.

A :class:`Client` owns an endpoint on the network and matches replies to
outstanding requests by message id. :class:`RemoteProxy` is the stub —
attribute access yields remote methods, so calling a remote ticket
server looks exactly like calling the local proxy (the paper's servant/
client symmetry, Section 2). Names resolve through the naming service
*per call*, giving location transparency across rebinds.

Resilience (``docs/resilience.md``): a client may be armed with a
:class:`~repro.aspects.retry.RetryPolicy` (driving a backoff/jitter
retry loop around each *logical* call) and per-destination circuit
breakers (:class:`~repro.dist.resilience.DestinationBreakers`). Every
retried call carries an idempotency key so the server's dedup cache
replays the original reply instead of re-executing — retries are safe
even for mutating methods. Deadlines (absolute budgets) ride the wire
as remaining seconds and bound every wait, sleep, and server-side park.
Every call takes the one path through :meth:`Client._call`; unarmed (no
policy, no breakers, no deadline, no key) it makes a single attempt
whose request carries none of the resilience fields.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.aspects.retry import RetryPolicy
from repro.concurrency.primitives import Future
from repro.core.errors import (
    CircuitOpen,
    ClientClosed,
    ContractViolation,
    DeadlineExceeded,
    FencedOut,
    FrameworkError,
    MethodAborted,
    NetworkError,
    Overloaded,
)
from repro.obs import propagation
from repro.obs.metrics import MetricsRegistry
from .message import Message, request
from .naming import NameService
from .network import Network, Sink, role
from .resilience import Deadline, DestinationBreakers

#: jitter seed for client retry loops ("RPCC"); a fixed private seed
#: keeps retry schedules replayable without touching global ``random``
_CLIENT_JITTER_SEED = 0x52504343


class RemoteError(NetworkError):
    """A remote invocation failed on the server side."""

    def __init__(self, error_type: str, detail: str) -> None:
        self.error_type = error_type
        self.detail = detail
        super().__init__(f"{error_type}: {detail}")


class RequestTimeout(NetworkError, TimeoutError):
    """No reply within the deadline (lost message or dead node)."""


#: counters every client keeps (prefix ``repro_rpc_``)
_CLIENT_COUNTERS = (
    "calls", "timeouts", "retries", "breaker_rejections",
    "deadline_expired",
)


class Client:
    """A client endpoint: sends requests, demultiplexes replies.

    The caller's thread sends and waits on its reply future; nothing
    else runs on the client's behalf. The inbox is a
    :class:`~repro.dist.network.Sink`, so whichever thread delivers a
    reply (the replier's when it is due now, else the network's
    dispatcher) matches it by message id and completes the waiting
    future itself. A request to a moderated servant that is due now at
    a node with an idle serve slot and nothing queued, for a method
    that has been serving quickly there, is served on the caller's own
    thread inside ``send``, so its future is done before the wait; the
    attempt's wait starts at the send and bounds that serve's BLOCK
    parks, and a reply sent after it counts as none.

    ``retry_policy`` arms the retry loop for every call (overridable
    per call); ``breakers`` arms per-destination circuit breaking;
    ``registry`` supplies the metrics registry the client reports
    through (a private one is created when omitted, so the legacy
    ``client.calls`` / ``client.timeouts`` integers keep working).
    """

    def __init__(self, client_id: str, network: Network,
                 names: Optional[NameService] = None,
                 default_timeout: float = 5.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 breakers: Optional[DestinationBreakers] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.client_id = client_id
        self.network = network
        self.names = names
        self.default_timeout = default_timeout
        self.retry_policy = retry_policy
        self.breakers = breakers
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = self.registry.counter_block(
            _CLIENT_COUNTERS, prefix="repro_rpc_"
        )
        self._budget_hist = self.registry.histogram(
            "repro_rpc_remaining_budget_seconds",
            help="remaining deadline budget when each attempt is sent",
        ).labels()
        self._pending: Dict[int, "Future[Message]"] = {}
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._rng = random.Random(_CLIENT_JITTER_SEED)
        self._sleep: Callable[[float], None] = time.sleep
        self._running = True
        self.inbox = network.register(client_id, Sink(self._on_reply))

    # -- legacy counter facade (exact under the striped registry) ------
    @property
    def calls(self) -> int:
        """Requests sent (every attempt counts)."""
        return int(self._counters.value("calls"))

    @property
    def timeouts(self) -> int:
        """Attempts that timed out awaiting a reply."""
        return int(self._counters.value("timeouts"))

    @property
    def retries(self) -> int:
        """Attempts that were retried after a transient failure."""
        return int(self._counters.value("retries"))

    def _on_reply(self, message: Message) -> None:
        """Complete the waiting caller's future.

        Runs on the replier's thread when the reply is due now, else on
        the network dispatcher. A message nobody waits for (not a reply,
        or its call timed out or the client closed) finds no pending
        future and is ignored.
        """
        with self._lock:
            future = self._pending.pop(message.reply_to, None)
        if future is not None:
            future.set_result(message)

    # ------------------------------------------------------------------
    def call_node(self, node_id: str, service: str, method: str,
                  *args: Any, caller: Optional[str] = None,
                  timeout: Optional[float] = None,
                  deadline: "Deadline | float | None" = None,
                  idempotency_key: Optional[str] = None,
                  retry_policy: Optional[RetryPolicy] = None,
                  **kwargs: Any) -> Any:
        """Invoke ``service.method`` on an explicit node.

        ``deadline`` is an end-to-end budget for the *logical* call (a
        :class:`Deadline` or a float budget in seconds) spanning every
        retry; ``timeout`` stays the per-attempt reply wait.
        """
        policy = retry_policy if retry_policy is not None \
            else self.retry_policy
        return self._call(
            lambda: (node_id, service, None), method, args, kwargs,
            caller=caller, timeout=timeout,
            deadline=Deadline.coerce(deadline),
            idempotency_key=idempotency_key, policy=policy,
        )

    def call_name(self, name: str, method: str, *args: Any,
                  caller: Optional[str] = None,
                  timeout: Optional[float] = None,
                  deadline: "Deadline | float | None" = None,
                  idempotency_key: Optional[str] = None,
                  retry_policy: Optional[RetryPolicy] = None,
                  **kwargs: Any) -> Any:
        """Invoke through the naming service (location-transparent).

        The name resolves *per attempt*, so a retry after a
        :class:`~repro.dist.recovery.Supervisor` failover follows the
        binding to the new home instead of re-dialing the dead node.
        """
        if self.names is None:
            raise NetworkError("client has no naming service configured")
        policy = retry_policy if retry_policy is not None \
            else self.retry_policy
        # An unarmed request carries no resilience field, so no fence.
        fenced = (policy is not None or deadline is not None
                  or idempotency_key is not None or self.breakers is not None)

        def resolve() -> Tuple[str, str, Optional[int]]:
            # The binding's epoch rides the armed request as its fence
            # (docs/recovery.md): re-resolving per attempt means a
            # retry after a failover rebind both follows the binding
            # *and* carries the new epoch — while a node exported at a
            # different epoch rejects the attempt with a retryable
            # FencedOut instead of applying a stale-bound effect.
            binding = self.names.resolve(name)
            return (binding.node_id, binding.service,
                    binding.epoch if fenced else None)

        return self._call(
            resolve, method, args, kwargs,
            caller=caller, timeout=timeout,
            deadline=Deadline.coerce(deadline),
            idempotency_key=idempotency_key, policy=policy,
        )

    # ------------------------------------------------------------------
    def _call(self, resolve: Callable[[], Tuple[str, str, Optional[int]]],
              method: str,
              args: Tuple[Any, ...], kwargs: Dict[str, Any], *,
              caller: Optional[str], timeout: Optional[float],
              deadline: Optional[Deadline], idempotency_key: Optional[str],
              policy: Optional[RetryPolicy]) -> Any:
        """One logical call: resolve → attempt → classify → retry.

        Every call takes this loop. Unarmed (no policy, breakers,
        deadline or key) it makes one attempt and re-raises its error.
        """
        key = idempotency_key
        if key is None and policy is not None:
            # Retries without dedup double-apply mutations; every
            # retry-armed call therefore gets a key. Client id + local
            # sequence makes keys globally unique, so server caches
            # need no per-caller namespace.
            key = f"{self.client_id}:{next(self._seq)}"

        attempt = 0
        while True:
            attempt += 1
            if deadline is not None and deadline.expired:
                self._counters.bump("deadline_expired")
                raise DeadlineExceeded(
                    f"deadline elapsed before attempt {attempt} "
                    f"of {method!r}"
                )
            node_id, service, fence = resolve()
            token = None
            if self.breakers is not None:
                try:
                    token = self.breakers.admit(node_id)
                except CircuitOpen as exc:
                    self._counters.bump("breaker_rejections")
                    # Retryable: after a failover rebind, the next
                    # resolve may point somewhere the circuit is closed.
                    self._maybe_retry(policy, attempt, exc, deadline)
                    continue
            try:
                return self._send_once(
                    node_id, service, method, args, kwargs,
                    caller, timeout, deadline, key, attempt, token,
                    fence=fence,
                )
            except (DeadlineExceeded, ClientClosed):
                raise  # budget spent / client gone: never retried
            except BaseException as exc:
                self._maybe_retry(policy, attempt, exc, deadline)

    def _maybe_retry(self, policy: Optional[RetryPolicy], attempt: int,
                     exc: BaseException,
                     deadline: Optional[Deadline]) -> None:
        """Sleep before the next attempt, or re-raise ``exc``."""
        if policy is None or not policy.should_retry(attempt, exc):
            raise exc
        delay = policy.delay_for(attempt + 1, self._rng)
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            # A shedding node's hint floors our own backoff.
            delay = max(delay, retry_after)
        if deadline is not None and delay >= deadline.remaining():
            self._counters.bump("deadline_expired")
            raise DeadlineExceeded(
                f"deadline would elapse during {delay:.3f}s backoff "
                f"before attempt {attempt + 1}"
            ) from exc
        self._counters.bump("retries")
        if delay > 0:
            self._sleep(delay)

    def _send_once(self, node_id: str, service: str, method: str,
                   args: Tuple[Any, ...], kwargs: Dict[str, Any],
                   caller: Optional[str], timeout: Optional[float],
                   deadline: Optional[Deadline], key: Optional[str],
                   attempt: int, token: Optional[Any],
                   fence: Optional[int] = None) -> Any:
        """Send one attempt and await its reply."""
        context = propagation.current()
        budget = deadline.to_wire() if deadline is not None else None
        message = request(
            self.client_id, node_id, service, method,
            args=args, kwargs=kwargs, caller=caller,
            # Carry the caller's trace across the wire: the server
            # activates it around the servant call, so both sides'
            # span recorders stitch into one trace.
            trace=propagation.to_wire(context)
            if context is not None else None,
            deadline_budget=budget, idempotency_key=key, attempt=attempt,
            fence=fence,
        )
        future: "Future[Message]" = Future()
        with self._lock:
            if not self._running:
                raise ClientClosed(f"client {self.client_id!r} is closed")
            self._pending[message.msg_id] = future
        self._counters.bump("calls")
        if budget is not None:
            self._budget_hist.observe(budget)
        effective = timeout if timeout is not None else self.default_timeout
        if budget is not None:
            effective = min(effective, budget)
        # The wait runs from the send: a node may serve the request on
        # this thread inside ``send``, its parks bounded by ``reply_by``.
        reply_by = time.monotonic() + effective
        outer, role.reply_by = role.reply_by, reply_by
        try:
            self.network.send(message)
        except BaseException as exc:
            with self._lock:
                self._pending.pop(message.msg_id, None)
            if token is not None:
                DestinationBreakers.record(token, exc)
            raise
        finally:
            role.reply_by = outer
        try:
            response = future.result(max(0.0, reply_by - time.monotonic()))
            if response.sent_at >= reply_by:
                # sent after the wait ended: as good as never arrived
                raise TimeoutError
        except TimeoutError:
            with self._lock:
                self._pending.pop(message.msg_id, None)
            self._counters.bump("timeouts")
            if deadline is not None and deadline.expired:
                exc: BaseException = DeadlineExceeded(
                    f"deadline elapsed awaiting reply from "
                    f"{node_id}/{service}.{method}"
                )
            else:
                exc = RequestTimeout(
                    f"no reply from {node_id}/{service}.{method} "
                    f"within {effective}s"
                )
            if token is not None:
                DestinationBreakers.record(token, exc)
            raise exc from None
        if token is not None:
            # Any reply — even an error — proves the node is alive.
            DestinationBreakers.record(token, None)
        if response.kind == "error":
            raise self._error_from_reply(method, response)
        return response.payload.get("result")

    @staticmethod
    def _error_from_reply(method: str, response: Message) -> FrameworkError:
        """Rehydrate a typed error from an error reply's payload."""
        payload = response.payload
        error_type = payload.get("error_type", "RemoteError")
        detail = payload.get("error", "")
        if error_type == "MethodAborted":
            return MethodAborted(method, reason=detail)
        if error_type == "DeadlineExceeded":
            return DeadlineExceeded(detail)
        if error_type == "FencedOut":
            # Retryable like its Overloaded parent: re-resolving lands
            # the retry on the current epoch holder.
            return FencedOut(
                detail,
                stale_epoch=payload.get("stale_epoch", 0),
                current_epoch=payload.get("current_epoch", 0),
                retry_after=payload.get("retry_after"),
            )
        if error_type == "Overloaded":
            return Overloaded(
                detail, retry_after=payload.get("retry_after")
            )
        if error_type == "ContractViolation":
            # Typed rehydration with the blame verdict and checkpoint
            # evidence the server attached (``wire_payload`` fields in
            # :func:`repro.dist.message.error_reply`): the caller can
            # inspect ``blame``/``evidence`` and hand the records to
            # the causal slicer exactly as a local caller would.
            return ContractViolation(
                payload.get("contract_method", method),
                clause=payload.get("contract_clause", ""),
                kind=payload.get("contract_kind", ""),
                blame=payload.get("contract_blame", "component"),
                evidence=payload.get("contract_evidence", ()),
                activation_id=payload.get("contract_activation", 0),
            )
        return RemoteError(error_type, detail)

    def shard_router(self, name: str,
                     shard_keys: Optional[Dict[str, Any]] = None,
                     registry: Optional[MetricsRegistry] = None) -> Any:
        """A :class:`~repro.dist.sharding.ShardRouter` for a sharded name.

        The sharded sibling of :meth:`proxy`: attribute calls extract a
        shard key, route through the consistent-hash ring, and dispatch
        via :meth:`call_name` — so retry/deadline/idempotency arming
        applies per shard exactly as for plain names.
        """
        from .sharding import ShardRouter

        return ShardRouter(self, name, shard_keys=shard_keys,
                           registry=registry)

    def proxy(self, name: str, caller: Optional[str] = None,
              timeout: Optional[float] = None,
              deadline: Optional[float] = None) -> "RemoteProxy":
        """A stub whose attribute calls go to the named remote service.

        ``deadline`` is a per-call budget in seconds: every logical
        call through the stub gets a fresh deadline of that budget.
        """
        return RemoteProxy(self, name, caller=caller, timeout=timeout,
                           deadline=deadline)

    def metrics(self) -> Dict[str, int]:
        """Consistent snapshot of the client's resilience counters."""
        return self._counters.as_dict()

    def close(self) -> None:
        """Shut down; in-flight callers fail fast with ClientClosed.

        Idempotent. Pending futures are failed, so callers blocked in
        ``call_node`` wake at once instead of burning their timeout.
        Unregistering closes the inbox sink, so a reply that arrives
        later is dropped by the network.
        """
        with self._lock:
            if not self._running:
                return
            self._running = False
            pending = list(self._pending.values())
            self._pending.clear()
        self.network.unregister(self.client_id)
        # Only whoever pops a future under the lock completes it (a
        # reply or this close), so none can be completed twice.
        for future in pending:
            future.set_exception(ClientClosed(
                f"client {self.client_id!r} closed with the call in flight"
            ))


class RemoteProxy:
    """Attribute-level stub: ``stub.open(ticket)`` -> remote invocation."""

    def __init__(self, client: Client, name: str,
                 caller: Optional[str] = None,
                 timeout: Optional[float] = None,
                 deadline: Optional[float] = None) -> None:
        self._client = client
        self._name = name
        self._caller = caller
        self._timeout = timeout
        self._deadline = deadline

    def __getattr__(self, method: str) -> Callable[..., Any]:
        if method.startswith("_"):
            raise AttributeError(method)

        def remote_method(*args: Any, **kwargs: Any) -> Any:
            return self._client.call_name(
                self._name, method, *args,
                caller=self._caller, timeout=self._timeout,
                deadline=self._deadline, **kwargs,
            )

        remote_method.__name__ = method
        return remote_method

    def __repr__(self) -> str:
        return f"<RemoteProxy {self._name} via {self._client.client_id}>"

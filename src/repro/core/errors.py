"""Exception hierarchy for the Aspect Moderator framework.

All framework errors derive from :class:`FrameworkError` so applications
can catch the whole family with one handler while still distinguishing
individual failure modes.
"""

from __future__ import annotations


class FrameworkError(Exception):
    """Base class for all Aspect Moderator framework errors."""


class MethodAborted(FrameworkError):
    """Raised when pre-activation returns ABORT for a participating method.

    Carries the method identifier and, when known, the concern whose
    precondition rejected the activation, so callers can react
    per-concern (e.g. re-authenticate vs. give up).
    """

    def __init__(self, method_id: str, concern: "str | None" = None,
                 reason: "str | None" = None) -> None:
        self.method_id = method_id
        self.concern = concern
        self.reason = reason
        detail = f"activation of {method_id!r} aborted"
        if concern is not None:
            detail += f" by concern {concern!r}"
        if reason:
            detail += f": {reason}"
        super().__init__(detail)


class AspectFault(FrameworkError):
    """An aspect raised out of a protocol phase — a contract violation.

    The moderation contract (paper Figures 11/18) expects ``precondition``,
    ``postaction`` and ``on_abort`` to *return*: RESUME/BLOCK/ABORT are the
    only sanctioned ways to influence an activation. An aspect that raises
    instead is wrapped in this error, which carries enough context
    (method, concern, phase) to drive quarantine policy and diagnostics.
    The original exception is available as ``original`` and as
    ``__cause__``.
    """

    def __init__(self, method_id: str, concern: str, phase: str,
                 original: BaseException) -> None:
        self.method_id = method_id
        self.concern = concern
        self.phase = phase
        self.original = original
        self.__cause__ = original
        super().__init__(
            f"aspect {concern!r} raised during {phase} of {method_id!r}: "
            f"{type(original).__name__}: {original}"
        )


class CompositionErrors(FrameworkError):
    """Several aspects faulted in one protocol phase (ExceptionGroup-style).

    The moderator never lets one faulty aspect abandon the rest of a
    reverse chain: every postaction / compensation still runs, and the
    faults collected along the way are aggregated here. ``exceptions``
    holds the individual :class:`AspectFault` instances in the order they
    occurred. (A hand-rolled group rather than :class:`ExceptionGroup`
    so the hierarchy works on Python 3.10.)
    """

    def __init__(self, faults: "tuple[BaseException, ...] | list") -> None:
        self.exceptions = tuple(faults)
        if self.exceptions:
            self.__cause__ = self.exceptions[0]
        detail = "; ".join(str(fault) for fault in self.exceptions)
        super().__init__(
            f"{len(self.exceptions)} aspect fault(s) during composition: "
            f"{detail}"
        )


class ContractViolation(FrameworkError):
    """A Design-by-Contract clause failed, with a blame verdict attached.

    Contract aspects (``repro.contracts``) check ``require`` clauses at
    the pre-activation seam and ``ensure``/``invariant`` clauses at the
    post-activation seams. When a clause fails, the runner replays the
    activation's checkpoint evidence to decide *who* broke the contract
    (Lorenz & Skotiniotis, *Extending Design by Contract for AOP*):

    * ``"caller"`` — a ``require`` clause (or an entry invariant) failed
      before any aspect ran: the activation was invalid on arrival;
    * ``"component"`` — an ``ensure`` clause failed at the post-body
      check point with no aspect having touched the observables;
    * ``"aspect:<concern>"`` — an interfering aspect mutated observable
      state between check points (pre-phase interference), or a clause
      that held at post-body broke right after that concern's
      postaction ran.

    ``evidence`` is a tuple of wire-safe checkpoint records — seam,
    concern, observable snapshot — so the verdict can be audited, sent
    across RPC (see :func:`repro.dist.message.error_reply`) and handed
    to the causal slicer (:mod:`repro.contracts.slicing`).
    """

    def __init__(self, method_id: str, clause: str, kind: str,
                 blame: str, detail: str = "",
                 evidence: "tuple | list" = (),
                 activation_id: int = 0) -> None:
        self.method_id = method_id
        self.clause = clause
        self.kind = kind
        self.blame = blame
        self.detail = detail
        self.evidence = tuple(evidence)
        self.activation_id = activation_id
        message = (
            f"contract {kind} {clause!r} violated on {method_id!r} "
            f"(blame: {blame})"
        )
        if detail:
            message += f": {detail}"
        super().__init__(message)

    @property
    def blamed_concern(self) -> "str | None":
        """The blamed aspect's concern, or None for caller/component."""
        if self.blame.startswith("aspect:"):
            return self.blame.split(":", 1)[1]
        return None

    def wire_payload(self) -> dict:
        """Wire-safe fields merged into an RPC error reply's payload."""
        return {
            "contract_method": self.method_id,
            "contract_clause": self.clause,
            "contract_kind": self.kind,
            "contract_blame": self.blame,
            "contract_activation": self.activation_id,
            "contract_evidence": [dict(record) for record in self.evidence],
        }


class RegistrationError(FrameworkError):
    """Raised on invalid aspect registration (e.g. duplicate or unknown kind)."""


class UnknownAspectError(FrameworkError, KeyError):
    """Raised when the factory or bank is asked for an unknown (method, concern)."""

    def __init__(self, method_id: str, concern: str) -> None:
        self.method_id = method_id
        self.concern = concern
        super().__init__(f"no aspect registered for ({method_id!r}, {concern!r})")


class WeavingError(FrameworkError):
    """Raised when weaving declarations are inconsistent (bad pointcut, etc.)."""


class ActivationTimeout(FrameworkError, TimeoutError):
    """Raised when a BLOCKed activation does not unblock within its deadline.

    The paper's wait loop can wait forever; a production framework must be
    able to bound that wait. The timeout is opt-in per proxy or per call.
    """

    def __init__(self, method_id: str, timeout: float) -> None:
        self.method_id = method_id
        self.timeout = timeout
        super().__init__(
            f"activation of {method_id!r} still blocked after {timeout:.3f}s"
        )


class AuthenticationError(FrameworkError):
    """Raised by authentication machinery on bad credentials or sessions."""


class NetworkError(FrameworkError):
    """Base error for the simulated distributed runtime."""


class DeadlineExceeded(NetworkError, TimeoutError):
    """The request's end-to-end deadline elapsed.

    Distinct from :class:`~repro.dist.rpc.RequestTimeout` (one attempt's
    reply did not arrive): the *logical call's* budget is spent, so no
    further attempt may be made — retry loops must re-raise instead of
    retrying. Servers raise it to reject already-expired requests
    without doing dead work; clients raise it when the budget runs out
    while waiting or between retries.
    """


class CircuitOpen(NetworkError):
    """A client-side circuit breaker is rejecting calls to a destination.

    Raised *before* any message is sent: the destination has timed out
    too many consecutive times, so the call fails fast instead of
    burning its full timeout against a node that is almost certainly
    down. The breaker half-opens after its reset timeout and probes.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        super().__init__(f"circuit open for node {node_id!r}")


class Overloaded(NetworkError):
    """A node shed the request at admission (bounded inbox full).

    Carries an optional ``retry_after`` hint, in seconds — the shedding
    node's suggestion of how long to back off before retrying. Retry
    loops honour it as a floor under their own backoff delay.
    """

    def __init__(self, detail: str = "",
                 retry_after: "float | None" = None) -> None:
        self.retry_after = retry_after
        message = detail or "node overloaded"
        if retry_after is not None:
            message += f" (retry after {retry_after:.3f}s)"
        super().__init__(message)


class FencedOut(Overloaded):
    """A request or journal append carried a stale fencing epoch.

    Minted by the naming service on every rebind (the binding version
    *is* the epoch), the fencing epoch rides armed requests and guards
    the durable journal (``repro.dist.recovery``). A zombie node that
    returns after being declared dead — or a client still dialing it
    with a stale binding — observes this rejection instead of
    corrupting the replacement's state.

    Subclasses :class:`Overloaded` deliberately: the failure is
    *transient from the caller's point of view* — re-resolving the name
    lands the retry on the current epoch holder — so existing
    ``RPC_TRANSIENT`` retry policies recover without modification.
    """

    def __init__(self, detail: str = "", stale_epoch: int = 0,
                 current_epoch: int = 0,
                 retry_after: "float | None" = None) -> None:
        self.stale_epoch = stale_epoch
        self.current_epoch = current_epoch
        message = detail or (
            f"fenced out: epoch {stale_epoch} superseded by "
            f"{current_epoch}"
        )
        super().__init__(message, retry_after=retry_after)

    def wire_payload(self) -> dict:
        """Wire-safe fields merged into an RPC error reply's payload."""
        return {
            "stale_epoch": self.stale_epoch,
            "current_epoch": self.current_epoch,
        }


class ClientClosed(NetworkError):
    """The RPC client was closed while (or before) a call was in flight.

    Callers blocked in ``call_node`` wake promptly with this error
    instead of burning their full timeout against a client that will
    never route them a reply.
    """


class NodeUnreachable(NetworkError):
    """Raised when a message cannot be delivered (partition or dead node)."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        super().__init__(f"node {node_id!r} unreachable")


class NameNotFound(NetworkError, KeyError):
    """Raised by the naming service for unbound names."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"name {name!r} is not bound")


class SimulationError(FrameworkError):
    """Base error for the discrete-event simulation substrate."""


class ClockError(SimulationError):
    """Raised on attempts to move virtual time backwards."""

"""Messages for the simulated distributed runtime, and its one codec.

A :class:`Message` is encoded (:func:`encode`: one check, then
``marshal``) when built and decoded at delivery, so the receiver sees
the payload as it was at send time. The wire takes what ``marshal``
round-trips as itself: ``None``/``bool``/``int``/``float``/``str``/
``bytes`` in ``list``, ``tuple`` and ``str``-keyed ``dict``, at most 16
deep. Anything else, subclasses (``IntEnum``, ``OrderedDict``) too, is
rejected at send time.
"""

from __future__ import annotations

import itertools
import marshal
import time
from typing import Any, Dict, Optional, Tuple

_message_ids = itertools.count(1)
_LEAVES = frozenset((type(None), bool, int, float, str, bytes))
_CONTAINERS = frozenset((dict, list, tuple))
_MAX_DEPTH = 16


def check_wire_safe(value: Any, depth: int = 0) -> bool:
    """Whether :func:`encode` would accept ``value``.

    Items are judged in the loop without a call when they are leaves or
    empty containers of an exact type: inside the loop ``depth`` is
    within the bound, where an empty container is always accepted.
    """
    kind = type(value)
    if depth > _MAX_DEPTH or kind in _LEAVES:
        return depth <= _MAX_DEPTH
    if kind not in _CONTAINERS:
        return False
    depth += 1
    if value and depth > _MAX_DEPTH:
        return False
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str:
                return False
            kind = type(item)
            if kind not in _LEAVES and (kind not in _CONTAINERS or item) \
                    and not check_wire_safe(item, depth):
                return False
    else:
        for item in value:
            kind = type(item)
            if kind not in _LEAVES and (kind not in _CONTAINERS or item) \
                    and not check_wire_safe(item, depth):
                return False
    return True


class WireFormatError(TypeError):
    """Raised when a payload is not wire-safe."""


def encode(value: Any) -> bytes:
    """Check ``value`` once and marshal it for the wire."""
    if not check_wire_safe(value):
        raise WireFormatError(f"{type(value).__name__} value is not wire-safe")
    return marshal.dumps(value)


decode = marshal.loads


class Message:
    """One message on the simulated network, built in one call.

    ``payload`` defaults to ``{}``, ``msg_id`` to a fresh id and
    ``sent_at`` to ``time.monotonic()``. ``wire`` is fixed at
    construction, so the receiver's copy carries the payload as built,
    whatever happens to it (or to the field) afterwards.
    """

    __slots__ = ("source", "dest", "kind", "payload", "msg_id", "reply_to",
                 "sent_at", "wire")

    def __init__(self, source: str, dest: str,
                 kind: str,  # "request" | "reply" | "error" | "event"
                 payload: Optional[Dict[str, Any]] = None,
                 msg_id: Optional[int] = None, reply_to: Optional[int] = None,
                 sent_at: Optional[float] = None) -> None:
        self.source = source
        self.dest = dest
        self.kind = kind
        self.payload = payload = {} if payload is None else payload
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        self.reply_to = reply_to
        self.sent_at = time.monotonic() if sent_at is None else sent_at
        self.wire = encode(payload)

    def copy_for_delivery(self) -> "Message":
        """The receiver's message, its payload decoded from ``wire``."""
        delivered = object.__new__(Message)
        delivered.source = self.source
        delivered.dest = self.dest
        delivered.kind = self.kind
        delivered.payload = decode(self.wire)
        delivered.msg_id = self.msg_id
        delivered.reply_to = self.reply_to
        delivered.sent_at = self.sent_at
        delivered.wire = self.wire
        return delivered

    def __repr__(self) -> str:
        return (f"<Message {self.kind} #{self.msg_id} "
                f"{self.source}->{self.dest}>")


def request(source: str, dest: str, service: str, method: str,
            args: Tuple[Any, ...] = (), kwargs: Optional[Dict[str, Any]] = None,
            caller: Optional[str] = None,
            trace: Optional[Dict[str, Any]] = None,
            deadline_budget: Optional[float] = None,
            idempotency_key: Optional[str] = None,
            attempt: int = 1,
            fence: Optional[int] = None) -> Message:
    """Build an RPC request message.

    ``trace`` is an optional wire-form trace context
    (:func:`repro.obs.propagation.to_wire`) — plain strings and floats,
    so it rides the payload through the same wire-safety check as
    everything else and lets the receiving node stitch its activation
    spans under the caller's trace.

    The resilience envelope (``docs/resilience.md``) is three more
    optional plain-data fields: ``deadline_budget`` is the remaining
    end-to-end budget in seconds at send time (absolute deadlines don't
    travel — monotonic clocks differ per host); ``idempotency_key``
    names the *logical* call so a server-side dedup cache can replay
    the original reply to a retry instead of re-executing; ``attempt``
    is the 1-based attempt number, carried for diagnostics.

    ``fence`` is the fencing epoch of the binding the caller resolved
    (``docs/recovery.md``): a node exported at a different epoch
    rejects the request with a retryable ``FencedOut`` instead of
    letting a stale binding land effects on a superseded location.
    """
    payload: Dict[str, Any] = {
        "service": service,
        "method": method,
        "args": list(args),
        "kwargs": kwargs or {},
        "caller": caller,
    }
    if trace is not None:
        payload["trace"] = trace
    if deadline_budget is not None:
        payload["deadline_budget"] = float(deadline_budget)
    if idempotency_key is not None:
        payload["idempotency_key"] = idempotency_key
    if attempt != 1:
        payload["attempt"] = attempt
    if fence is not None:
        payload["fence"] = int(fence)
    return Message(source=source, dest=dest, kind="request",
                   payload=payload)


def reply(to: Message, result: Any) -> Message:
    """Build a success reply to ``to``."""
    return Message(
        source=to.dest, dest=to.source, kind="reply",
        payload={"result": result}, reply_to=to.msg_id,
    )


def error_reply(to: Message, exc: BaseException) -> Message:
    """Build an error reply carrying the exception type and text, and
    its numeric ``retry_after`` hint, if any (``Overloaded``)."""
    payload: Dict[str, Any] = {
        "error_type": type(exc).__name__,
        "error": str(exc),
    }
    retry_after = getattr(exc, "retry_after", None)
    if isinstance(retry_after, (int, float)):
        payload["retry_after"] = retry_after
    wire = getattr(exc, "wire_payload", None)
    if callable(wire):
        # Errors that carry structured diagnostics (e.g.
        # ``ContractViolation`` with its blame verdict and checkpoint
        # evidence) contribute their own wire-safe fields, so the
        # client can rehydrate the typed error with evidence intact.
        payload.update(wire())
    return Message(
        source=to.dest, dest=to.source, kind="error",
        payload=payload,
        reply_to=to.msg_id,
    )

"""Active object: asynchronous method execution behind the same proxies.

The paper's component model ("objects may play the role of a servant
object, a client object, or perhaps both") maps onto the Active Object
pattern: callers enqueue method requests; a scheduler thread executes
them against the servant and completes futures. Combined with a
moderated proxy as the servant, this yields asynchronous *and* aspect-
guarded invocation — the shape the distributed runtime builds on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .primitives import Future, WaitQueue


@dataclass
class MethodRequest:
    """One queued invocation."""

    method_id: str
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any]
    future: "Future[Any]" = field(default_factory=Future)


class ActiveObject:
    """Runs a servant's methods on a private scheduler thread.

    Args:
        servant: any object — typically a
            :class:`~repro.core.proxy.ComponentProxy`, so every queued
            request still passes through moderation.

    Usage::

        active = ActiveObject(proxy)
        future = active.invoke("open", ticket)
        result = future.result(timeout=1.0)
        active.shutdown()
    """

    def __init__(self, servant: Any, name: str = "active-object") -> None:
        self.servant = servant
        self._queue: "WaitQueue[Optional[MethodRequest]]" = WaitQueue()
        self._thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )
        self._started = False
        self._shutdown = threading.Event()
        self.executed = 0
        self.failed = 0

    def start(self) -> "ActiveObject":
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    def invoke(self, method_id: str, *args: Any, **kwargs: Any) -> "Future[Any]":
        """Queue an invocation; returns a future for its result."""
        if self._shutdown.is_set():
            raise RuntimeError("active object is shut down")
        if not self._started:
            self.start()
        request = MethodRequest(method_id, args, kwargs)
        self._queue.put(request)
        return request.future

    def call(self, method_id: str, *args: Any,
             timeout: Optional[float] = 30.0, **kwargs: Any) -> Any:
        """Synchronous convenience: invoke and wait for the result."""
        return self.invoke(method_id, *args, **kwargs).result(timeout)

    def _run(self) -> None:
        while True:
            try:
                request = self._queue.get()
            except WaitQueue.Closed:
                return
            if request is None:
                return
            try:
                target = getattr(self.servant, request.method_id)
                request.future.set_result(target(
                    *request.args, **request.kwargs
                ))
                self.executed += 1
            except BaseException as exc:  # noqa: BLE001 - routed to future
                self.failed += 1
                request.future.set_exception(exc)

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = 5.0) -> None:
        """Stop the scheduler; with ``drain`` pending requests complete."""
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        if not self._started:
            return
        if drain:
            self._queue.put(None)
        else:
            self._queue.close()
        self._thread.join(timeout)

    @property
    def pending(self) -> int:
        return len(self._queue)

"""Join points: reified invocations of participating methods.

The paper calls methods that are associated with aspect objects
*participating methods* (Section 4.2). A :class:`JoinPoint` reifies one
activation of one participating method, carrying everything an aspect's
``precondition`` / ``postaction`` may need: the target component, the
method identifier, the call arguments, the phase, and (after invocation)
the result or the exception.

Aspects in the paper receive the component via their constructor and the
method implicitly via registration; passing the join point explicitly is
the Python generalization that lets one aspect instance serve many methods
and components.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from _thread import get_ident
from typing import Any, Dict, Mapping, Optional, Tuple

from .results import Phase

_next_id = itertools.count(1).__next__

class _Unset:
    """Sentinel distinguishing "no result yet" from "returned None"."""

    def __repr__(self) -> str:
        return "<unset>"


_UNSET = _Unset()

class JoinPoint:
    """A single activation of a participating method.

    Attributes:
        method_id: Name of the participating method (``"open"``,
            ``"assign"`` in the paper's trouble-ticketing example).
        component: The functional component the method belongs to.
        args: Positional arguments of the activation.
        kwargs: Keyword arguments of the activation.
        phase: Current :class:`~repro.core.results.Phase` of the protocol.
        caller: Optional identity of the calling principal/thread; used by
            authentication and scheduling aspects.
        context: Free-form per-activation scratch space; aspects may stash
            state here between precondition and postaction (e.g. a timing
            aspect stores its start timestamp).
        thread_name: Name of the thread that *created* the join point,
            whichever thread reads it (on the continuation runtime, the
            submitter, not the reactor worker), read on access from the
            ``Thread`` the constructor kept, after it exited too.
        sampled: The observability head decision, taken once at
            preactivation (:meth:`~repro.core.events.EventBus.sample`):
            only a sampled activation delivers trace events to the bus's
            listeners; sampled or not, it tallies its arrows for the
            folds (:attr:`tally`).
        exception: Exception raised by the method body, if any.
        uncounted_entry: Set by the moderator's entry step (1; 2 on the
            fast path) and cleared by the first round's counter flush, so
            the preactivation is counted with that round's outcome.
        tally: The observed activation's arrows, ``(kind, concern,
            detail, duration)`` items the moderator hands to the bus's
            folds in one :meth:`~repro.core.events.EventBus.flush` — at
            the end of post-activation, or when pre-activation ends or
            parks. ``None`` when no subscriber was there at
            preactivation; a :class:`~repro.core.events.DeliveringTally`
            when sampled.

    Join points compare by identity: each is one activation.
    """

    __slots__ = (
        "method_id", "component", "args", "kwargs", "phase", "caller",
        "context", "activation_id", "_thread", "created_at", "sampled",
        "uncounted_entry", "tally", "exception", "_result", "_skip",
    )

    def __init__(self, method_id: str, component: Any = None,
                 args: Tuple[Any, ...] = (),
                 kwargs: Optional[Mapping[str, Any]] = None,
                 phase: Phase = Phase.PRE_ACTIVATION,
                 caller: Optional[Any] = None,
                 context: Optional[Dict[str, Any]] = None,
                 activation_id: Optional[int] = None,
                 thread_name: Optional[str] = None,
                 created_at: Optional[float] = None,
                 sampled: bool = True) -> None:
        self.method_id = method_id
        self.component = component
        self.args = args
        self.kwargs = {} if kwargs is None else kwargs
        self.phase = phase
        self.caller = caller
        self.context = {} if context is None else context
        self.activation_id = _next_id() if activation_id is None \
            else activation_id
        # C calls only; a thread not started through ``threading`` gets
        # its dummy Thread from ``current_thread``
        self._thread = (threading._active.get(get_ident())
                        or threading.current_thread()) \
            if thread_name is None else thread_name
        self.created_at = time.monotonic() if created_at is None \
            else created_at
        self.sampled = sampled
        self.uncounted_entry = 0
        self.tally = None
        self.exception: Optional[BaseException] = None
        self._result: Any = _UNSET
        self._skip = False

    @property
    def thread_name(self) -> str:
        """Name of the thread that created this join point."""
        thread = self._thread
        return thread if thread.__class__ is str else thread.name

    @property
    def has_result(self) -> bool:
        """Whether the underlying method has produced a return value."""
        return self._result is not _UNSET

    @property
    def result(self) -> Any:
        """Return value of the participating method (post-activation only)."""
        if self._result is _UNSET:
            raise AttributeError(
                f"join point {self.method_id!r} has no result yet "
                f"(phase={self.phase.value})"
            )
        return self._result

    @result.setter
    def result(self, value: Any) -> None:
        self._result = value

    def replace_result(self, value: Any) -> None:
        """Substitute the activation's result (used by e.g. caching aspects)."""
        self._result = value

    def skip_invocation(self, result: Any = None) -> None:
        """Ask the proxy to skip the method body and use ``result`` instead.

        Framework extension beyond the paper (whose protocol is strictly
        pre/post): an aspect's ``precondition`` may satisfy the
        activation itself — e.g. a caching aspect serving a hit — while
        post-activation still runs normally. Only honoured when set
        during pre-activation.
        """
        self._skip = True
        self._result = result

    @property
    def invocation_skipped(self) -> bool:
        """Whether an aspect asked for the method body to be skipped."""
        return self._skip

    def describe(self) -> str:
        """Short human-readable description used by tracing and errors."""
        component = type(self.component).__name__ if self.component else "?"
        return (
            f"{component}.{self.method_id}"
            f"(args={len(self.args)}, kwargs={len(self.kwargs)})"
            f"#{self.activation_id}"
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in _FIELDS)
        return f"JoinPoint({fields})"


#: the constructor's parameters, which :meth:`JoinPoint.__repr__` shows
_FIELDS = tuple(inspect.signature(JoinPoint).parameters)

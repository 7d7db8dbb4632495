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

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from .results import Phase

_joinpoint_ids = itertools.count(1)

class _Unset:
    """Sentinel distinguishing "no result yet" from "returned None"."""

    def __repr__(self) -> str:
        return "<unset>"


_UNSET = _Unset()


@dataclass
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
        sampled: The observability head decision, taken once at
            preactivation (:meth:`~repro.core.events.EventBus.sample`):
            only a sampled activation delivers trace events to the bus's
            listeners; sampled or not, it tallies its arrows for the
            folds (:attr:`tally`).
    """

    method_id: str
    component: Any = None
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    phase: Phase = Phase.PRE_ACTIVATION
    caller: Optional[Any] = None
    context: Dict[str, Any] = field(default_factory=dict)
    activation_id: int = field(default_factory=_joinpoint_ids.__next__)
    thread_name: str = field(
        default_factory=lambda: threading.current_thread().name
    )
    created_at: float = field(default_factory=time.monotonic)
    sampled: bool = True
    #: not a field: the moderator's entry step sets it and the first
    #: round's counter flush clears it, so the preactivation is counted
    #: in one write with that round's outcome (1; 2 on the fast path)
    uncounted_entry = 0
    #: not a field: the observed activation's arrows, ``(kind, concern,
    #: detail, duration)`` items the moderator hands to the bus's folds
    #: in one :meth:`~repro.core.events.EventBus.flush` — at the end of
    #: post-activation, or when pre-activation ends or parks. ``None``
    #: when no subscriber was there at preactivation; a
    #: :class:`~repro.core.events.DeliveringTally` when sampled.
    tally = None

    _result: Any = field(default=_UNSET, repr=False)
    _exception: Optional[BaseException] = field(default=None, repr=False)

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

    @property
    def exception(self) -> Optional[BaseException]:
        """Exception raised by the method body, if any."""
        return self._exception

    @exception.setter
    def exception(self, exc: Optional[BaseException]) -> None:
        self._exception = exc

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
        self.context["__skip_invocation__"] = True
        self._result = result

    @property
    def invocation_skipped(self) -> bool:
        """Whether an aspect asked for the method body to be skipped."""
        return bool(self.context.get("__skip_invocation__"))

    def describe(self) -> str:
        """Short human-readable description used by tracing and errors."""
        component = type(self.component).__name__ if self.component else "?"
        return (
            f"{component}.{self.method_id}"
            f"(args={len(self.args)}, kwargs={len(self.kwargs)})"
            f"#{self.activation_id}"
        )

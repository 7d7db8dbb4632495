"""Concurrency substrate: functional components and thread utilities."""

from .active_object import ActiveObject, MethodRequest
from .buffer import (
    BoundedBuffer,
    BufferEmpty,
    BufferFull,
    Ticket,
    TicketStore,
)
from .executor import WorkerPool
from .primitives import (
    Future,
    FutureError,
    LockDomain,
    WaitQueue,
)

__all__ = [
    "ActiveObject",
    "BoundedBuffer",
    "BufferEmpty",
    "BufferFull",
    "Future",
    "FutureError",
    "LockDomain",
    "MethodRequest",
    "Ticket",
    "TicketStore",
    "WaitQueue",
    "WorkerPool",
]

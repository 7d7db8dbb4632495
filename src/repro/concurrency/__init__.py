"""Concurrency substrate: functional components and thread utilities."""

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
    "BoundedBuffer",
    "BufferEmpty",
    "BufferFull",
    "Future",
    "FutureError",
    "LockDomain",
    "Ticket",
    "TicketStore",
    "WaitQueue",
    "WorkerPool",
]

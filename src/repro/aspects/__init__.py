"""Reusable aspect library.

One module per interaction concern the paper names (Section 2: "load
balancing, fault tolerance, throughput, security, audits, location
transparency, concurrency, and coordination" — load balancing and
location transparency live in :mod:`repro.dist`, being inherently
distributed concerns).
"""

from .audit import AuditAspect, AuditLog, AuditRecord
from .authentication import (
    AuthenticationAspect,
    CredentialStore,
    Session,
    SessionManager,
)
from .authorization import AuthorizationAspect, RoleRegistry
from .caching import CachingAspect
from .circuit_breaker import BreakerState, CircuitBreakerAspect
from .coordination import (
    DependencyAspect,
    PhaseAspect,
    QuorumAspect,
    TurnTakingAspect,
)
from .rate_limit import (
    ConcurrencyWindowAspect,
    TokenBucket,
    TokenBucketAspect,
)
from .retry import (
    FailureAccountingAspect,
    FailureStats,
    RetryPolicy,
    retrying,
)
from .scheduling import (
    FifoSchedulingAspect,
    LifoSchedulingAspect,
    PrioritySchedulingAspect,
)
from .synchronization import (
    BarrierAspect,
    BoundedBufferSync,
    GuardAspect,
    MutexAspect,
    ReadersWriterAspect,
    ReentrantMutexAspect,
    SemaphoreAspect,
)
from .timing import StreamingStats, ThroughputWindow, TimingAspect
from .validation import TypeContractAspect, ValidationAspect

__all__ = [
    "AuditAspect",
    "AuditLog",
    "AuditRecord",
    "AuthenticationAspect",
    "AuthorizationAspect",
    "BarrierAspect",
    "BoundedBufferSync",
    "BreakerState",
    "CachingAspect",
    "CircuitBreakerAspect",
    "ConcurrencyWindowAspect",
    "CredentialStore",
    "DependencyAspect",
    "FailureAccountingAspect",
    "FailureStats",
    "FifoSchedulingAspect",
    "GuardAspect",
    "LifoSchedulingAspect",
    "MutexAspect",
    "PhaseAspect",
    "PrioritySchedulingAspect",
    "QuorumAspect",
    "ReadersWriterAspect",
    "ReentrantMutexAspect",
    "RetryPolicy",
    "RoleRegistry",
    "SemaphoreAspect",
    "Session",
    "SessionManager",
    "StreamingStats",
    "ThroughputWindow",
    "TimingAspect",
    "TokenBucket",
    "TokenBucketAspect",
    "TurnTakingAspect",
    "TypeContractAspect",
    "ValidationAspect",
    "retrying",
]

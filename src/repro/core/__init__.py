"""Core of the Aspect Moderator framework (the paper's contribution).

Public surface re-exported here mirrors the class diagram of the paper's
Figure 12: aspects (``AspectIF``), the factory (``AspectFactoryIF``), the
moderator (``AspectModeratorIF``), the component proxy, plus the Python
weaving layer (decorators, pointcuts) and the protocol event bus.
"""

from .aspect import (
    Aspect,
    FunctionAspect,
    NullAspect,
    StatefulAspect,
    as_aspect,
)
from .bank import AspectBank
from .errors import (
    ActivationTimeout,
    AspectFault,
    AuthenticationError,
    CompositionErrors,
    ContractViolation,
    FrameworkError,
    MethodAborted,
    NameNotFound,
    NetworkError,
    NodeUnreachable,
    RegistrationError,
    UnknownAspectError,
    WeavingError,
)
from .events import EventBus, TraceEvent, Tracer
from .health import FAIL_CLOSED, FAIL_OPEN, AspectHealth, HealthTracker
from .factory import (
    AspectFactory,
    CompositeFactory,
    RegistryAspectFactory,
    factory_from_table,
)
from .continuation import ActivationContinuation, ContinuationRuntime
from .joinpoint import JoinPoint
from .moderator import AspectModerator, ModerationStats
from .plan import ActivationPlan, PlanCell, PlanHandle, PlanSegment
from .ordering import (
    ExplicitOrder,
    PriorityOrder,
    guards_first,
    registration_order,
)
from .pointcut import (
    Pointcut,
    all_public,
    matching,
    named,
    on_type,
    predicate,
    regex,
)
from .proxy import ComponentProxy, GuardedMethod
from .registry import Cluster
from .results import ABORT, BLOCK, RESUME, AspectResult, Phase, combine
from .watchdog import ActivationWatchdog, StallReport
from .weaver import (
    ModeratedMeta,
    moderated,
    participating,
    participating_methods,
    weave,
)

__all__ = [
    "ABORT",
    "ActivationContinuation",
    "ActivationPlan",
    "ActivationTimeout",
    "ActivationWatchdog",
    "Aspect",
    "AspectBank",
    "AspectFactory",
    "AspectFault",
    "AspectHealth",
    "AspectModerator",
    "AspectResult",
    "AuthenticationError",
    "BLOCK",
    "Cluster",
    "ComponentProxy",
    "CompositeFactory",
    "CompositionErrors",
    "ContinuationRuntime",
    "ContractViolation",
    "EventBus",
    "ExplicitOrder",
    "FAIL_CLOSED",
    "FAIL_OPEN",
    "FrameworkError",
    "HealthTracker",
    "FunctionAspect",
    "GuardedMethod",
    "JoinPoint",
    "MethodAborted",
    "ModeratedMeta",
    "ModerationStats",
    "NameNotFound",
    "NetworkError",
    "NodeUnreachable",
    "NullAspect",
    "Phase",
    "PlanCell",
    "PlanHandle",
    "PlanSegment",
    "Pointcut",
    "PriorityOrder",
    "RESUME",
    "RegistrationError",
    "RegistryAspectFactory",
    "StallReport",
    "StatefulAspect",
    "TraceEvent",
    "Tracer",
    "UnknownAspectError",
    "WeavingError",
    "all_public",
    "as_aspect",
    "combine",
    "factory_from_table",
    "guards_first",
    "matching",
    "moderated",
    "named",
    "on_type",
    "participating",
    "participating_methods",
    "predicate",
    "regex",
    "registration_order",
    "weave",
]

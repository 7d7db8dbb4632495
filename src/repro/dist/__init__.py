"""Simulated distributed runtime: nodes, network, RPC, naming, balancing."""

from .loadbalance import (
    BalancingPolicy,
    LeastLoaded,
    LoadBalancer,
    RandomChoice,
    RoundRobin,
    WeightedChoice,
)
from .failure_detector import HeartbeatDetector, HeartbeatEmitter
from .message import Message, WireFormatError, check_wire_safe
from .migration import MigrationError, MigrationReport, Migrator
from .naming import Binding, NameService, ShardedBinding
from .network import Network
from .node import Node
from .recovery import (
    FailoverReport,
    FileStore,
    Handoff,
    MemoryStore,
    RecoveredService,
    RecoveryError,
    RecoveryPlan,
    RecoveryStore,
    SupervisedService,
    Supervisor,
    recover_service,
)
from .sharding import (
    HashRing,
    RebalanceReport,
    Rebalancer,
    ShardRouter,
    first_argument_key,
)
from .resilience import (
    Deadline,
    DestinationBreakers,
    IdempotencyCache,
    ShedInbox,
)
from .rpc import Client, RemoteError, RemoteProxy, RequestTimeout

__all__ = [
    "BalancingPolicy",
    "Binding",
    "Client",
    "FailoverReport",
    "FileStore",
    "Handoff",
    "HashRing",
    "HeartbeatDetector",
    "HeartbeatEmitter",
    "LeastLoaded",
    "LoadBalancer",
    "MemoryStore",
    "Message",
    "MigrationError",
    "MigrationReport",
    "Migrator",
    "NameService",
    "Network",
    "Node",
    "RandomChoice",
    "RebalanceReport",
    "Rebalancer",
    "RecoveredService",
    "RecoveryError",
    "RecoveryPlan",
    "RecoveryStore",
    "RemoteError",
    "RemoteProxy",
    "RequestTimeout",
    "RoundRobin",
    "SupervisedService",
    "Supervisor",
    "ShardRouter",
    "ShardedBinding",
    "Deadline",
    "DestinationBreakers",
    "IdempotencyCache",
    "ShedInbox",
    "WeightedChoice",
    "WireFormatError",
    "check_wire_safe",
    "first_argument_key",
    "recover_service",
]

"""repro: the Aspect Moderator framework, reproduced.

A production-quality Python implementation of "Composing Concerns with a
Framework Approach" (Constantinides & Elrad, ICDCS 2001): an aspect-
oriented framework for concurrent systems in which participating methods
are guarded by pre-activation and post-activation phases coordinated by
an aspect moderator over a two-dimensional aspect bank.

Subpackages:

* :mod:`repro.core` — the framework (aspects, bank, factory, moderator,
  proxy, weaving, pointcuts, events);
* :mod:`repro.aspects` — reusable aspect library (synchronization,
  authentication, authorization, audit, timing, scheduling, fault
  tolerance, throughput, coordination, validation, caching);
* :mod:`repro.concurrency` — functional components and thread utilities;
* :mod:`repro.sim` — deterministic discrete-event simulation substrate;
* :mod:`repro.dist` — simulated distributed runtime (nodes, network,
  RPC, naming, load balancing, sharding, supervised crash recovery);
* :mod:`repro.apps` — trouble ticketing (the paper's example), auction,
  reservation, timecard;
* :mod:`repro.baselines` — hand-tangled and stdlib baselines;
* :mod:`repro.analysis` — separation-of-concerns metrics and sequence-
  trace verification;
* :mod:`repro.verify` — explicit-state model checking of aspect
  compositions (the paper's formal-verification open question);
* :mod:`repro.obs` — observability plane: activation spans, striped
  metrics, Prometheus/JSON exporters, cross-node trace propagation.

Quickstart::

    from repro.apps import build_ticketing_cluster
    from repro.concurrency import Ticket

    cluster = build_ticketing_cluster(capacity=8)
    cluster.proxy.open(Ticket(summary="quickstart"))
    ticket = cluster.proxy.assign("agent-1")
"""

from . import (
    analysis,
    apps,
    aspects,
    baselines,
    concurrency,
    core,
    dist,
    obs,
    sim,
    verify,
)
from .core import (
    ABORT,
    BLOCK,
    RESUME,
    Aspect,
    AspectBank,
    AspectModerator,
    AspectResult,
    Cluster,
    ComponentProxy,
    JoinPoint,
    MethodAborted,
    Tracer,
    moderated,
    participating,
    weave,
)

__version__ = "1.0.0"

__all__ = [
    "ABORT",
    "Aspect",
    "AspectBank",
    "AspectModerator",
    "AspectResult",
    "BLOCK",
    "Cluster",
    "ComponentProxy",
    "JoinPoint",
    "MethodAborted",
    "RESUME",
    "Tracer",
    "__version__",
    "analysis",
    "apps",
    "aspects",
    "baselines",
    "concurrency",
    "core",
    "dist",
    "moderated",
    "obs",
    "participating",
    "sim",
    "verify",
    "weave",
]

"""Sharded moderated clusters: consistent-hash routing + live rebalance.

The paper's composition story stops at one moderator per process — the
scale ceiling named in ROADMAP. This module removes it by making
*placement* a separated concern, the same move the paper makes for
replication and load balancing:

* :class:`HashRing` — consistent hashing with virtual nodes. Hashes are
  ``blake2b`` (never the builtin ``hash``, which is salted per process:
  every router must derive the identical ring from the identical
  binding).
* :class:`ShardRouter` — the client-side stub. A shard key is extracted
  per call (declared per method, e.g. ``lock_domain``; default: first
  positional argument), looked up on the ring, and the call goes out
  through :meth:`~repro.dist.rpc.Client.call_name` to the shard's plain
  binding ``"<name>#<shard>"`` — so the PR-5 retry / re-resolve /
  idempotency machinery applies unchanged, per shard.
* :class:`Rebalancer` — moves one shard live. It is
  :meth:`~repro.dist.migration.Migrator.move` with the caller's aspect
  hooks in the :class:`~repro.dist.recovery.Handoff`: the one move
  path, which hands the source node's idempotency-cache entries (and
  optional aspect state) to the target *before* it starts serving. A
  client retry that raced the move therefore replays its original reply
  at the new home instead of re-executing — exactly-once effects
  survive the rebalance (proved by
  ``tests/properties/test_rebalance_chaos.py``).

Unsharded names never touch this module: the naming service keeps the
sharded registry apart, and ``resolve()`` stays byte-for-byte the legacy
path (``benchmarks/bench_sharding.py`` holds the ≤2% line).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.aspects.retry import RetryPolicy
from repro.obs import propagation
from repro.obs.metrics import MetricsRegistry
from .migration import MigrationError, Migrator
from .naming import NameService, ShardedBinding
from .node import Node
from .recovery import Handoff
from .rpc import Client

#: extracts the shard key from one call's arguments
ShardKeyFn = Callable[[Tuple[Any, ...], Dict[str, Any]], str]

_SHARD_COUNTERS = ("rebalances", "failed_rebalances", "dedup_entries_moved")


def _point(data: str) -> int:
    """Deterministic 64-bit ring position for a string."""
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def first_argument_key(args: Tuple[Any, ...],
                       kwargs: Dict[str, Any]) -> str:
    """Default shard key: the first positional argument, stringified."""
    if not args:
        raise ValueError(
            "cannot shard a call with no positional arguments; declare "
            "a shard key function for this method"
        )
    return str(args[0])


class HashRing:
    """Consistent-hash ring over shard ids, with virtual nodes.

    Each shard owns ``vnodes`` points on a 64-bit ring; a key routes to
    the shard owning the first point at or after the key's own hash.
    Adding/removing one shard therefore remaps only the keys in the
    arcs it gains/loses (~1/N of the space), not the whole keyspace —
    the property a live rebalancer depends on.
    """

    def __init__(self, shard_ids: Sequence[str], vnodes: int = 64) -> None:
        ids = tuple(shard_ids)
        if not ids:
            raise ValueError("a hash ring needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids in {ids!r}")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self._shard_ids = ids
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for shard in ids:
            for replica in range(vnodes):
                points.append((_point(f"{shard}/{replica}"), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    @classmethod
    def from_binding(cls, binding: ShardedBinding) -> "HashRing":
        """The ring a sharded binding describes (same for every router)."""
        return cls(binding.shard_ids, vnodes=binding.vnodes)

    def shards(self) -> Tuple[str, ...]:
        return self._shard_ids

    def lookup(self, key: str) -> str:
        """The shard owning ``key``."""
        index = bisect_right(self._points, _point(key))
        if index == len(self._points):
            index = 0  # wrap past the highest point
        return self._owners[index]

    def spread(self, keys: Iterable[str]) -> Dict[str, List[str]]:
        """Group ``keys`` by owning shard (balance checks, benches)."""
        assignment: Dict[str, List[str]] = {s: [] for s in self._shard_ids}
        for key in keys:
            assignment[self.lookup(key)].append(key)
        return assignment

    def __repr__(self) -> str:
        return (
            f"<HashRing shards={list(self._shard_ids)} "
            f"vnodes={self.vnodes}>"
        )


class ShardRouter:
    """Client-side stub for a sharded name.

    ``shard_keys`` maps method name → :data:`ShardKeyFn`; methods not
    listed use :func:`first_argument_key`. The ring is rebuilt whenever
    the sharded binding's version moves (a reshard via
    :meth:`~repro.dist.naming.NameService.update_sharded`), so routers
    follow topology changes without being told.

    Resilience parameters (``deadline`` / ``retry_policy`` /
    ``idempotency_key`` / ``timeout`` / ``caller``) pass straight
    through to :meth:`~repro.dist.rpc.Client.call_name`: a sharded call
    retries, re-resolves, and dedups exactly like a plain one — the
    re-resolve lands on the shard's rebound location mid-rebalance.
    """

    def __init__(self, client: Client, name: str,
                 shard_keys: Optional[Dict[str, ShardKeyFn]] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if client.names is None:
            raise ValueError("shard routing needs a naming service")
        self.client = client
        self.name = name
        self.shard_keys = dict(shard_keys or {})
        self.registry = registry if registry is not None else client.registry
        self._routes = self.registry.counter(
            "repro_shard_routes",
            help="calls routed per (name, shard)",
            labelnames=("name", "shard"),
        )
        #: shard id -> (shard name, its route counter child)
        self._shard_routes: Dict[str, Tuple[str, Any]] = {}
        self._ring: Optional[HashRing] = None
        self._ring_version = -1

    def ring(self) -> HashRing:
        """The current ring (cached per sharded-binding version)."""
        binding = self.client.names.resolve_sharded(self.name)
        if self._ring is None or binding.version != self._ring_version:
            self._ring = HashRing.from_binding(binding)
            self._ring_version = binding.version
        return self._ring

    def shard_for(self, method: str, args: Tuple[Any, ...],
                  kwargs: Dict[str, Any]) -> str:
        """Which shard a call with these arguments routes to."""
        key_fn = self.shard_keys.get(method, first_argument_key)
        return self.ring().lookup(key_fn(args, kwargs))

    def call(self, method: str, *args: Any,
             caller: Optional[str] = None,
             timeout: Optional[float] = None,
             deadline: Any = None,
             idempotency_key: Optional[str] = None,
             retry_policy: Optional[RetryPolicy] = None,
             **kwargs: Any) -> Any:
        """Route one invocation to its shard and dispatch it."""
        shard = self.shard_for(method, args, kwargs)
        route = self._shard_routes.get(shard)
        if route is None:
            route = self._shard_routes[shard] = (
                f"{self.name}#{shard}", self._routes.labels(self.name, shard),
            )
        shard_name, routes = route
        routes.inc()
        kwargs.update(caller=caller, timeout=timeout, deadline=deadline,
                      idempotency_key=idempotency_key,
                      retry_policy=retry_policy)
        context = propagation.current()
        if context is None:
            return self.client.call_name(shard_name, method, *args, **kwargs)
        # Stamp the shard into the trace baggage: the server-side span
        # recorder annotates the activation root with it.
        with propagation.activate(replace(
            context, baggage=context.baggage + (("shard", shard),),
        )):
            return self.client.call_name(shard_name, method, *args, **kwargs)

    def __getattr__(self, method: str) -> Callable[..., Any]:
        if method.startswith("_"):
            raise AttributeError(method)

        def routed(*args: Any, **kwargs: Any) -> Any:
            return self.call(method, *args, **kwargs)

        routed.__name__ = method
        return routed

    def __repr__(self) -> str:
        return f"<ShardRouter {self.name} via {self.client.client_id}>"


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one live shard move."""

    name: str
    shard_id: str
    source: str
    target: str
    downtime: float
    dedup_entries_moved: int
    state_keys: int


class Rebalancer:
    """Moves shards between nodes live, on top of the migrator.

    The migrator gives all-or-nothing moves with a bounded downtime
    window (withdraw → drain → pack → rebuild → rebind → install), the
    moving-window ``Overloaded`` keeps racing client retries alive
    through it, and its :class:`~repro.dist.recovery.Handoff` bundle
    seeds the source's completed idempotency entries into the target's
    cache before the target serves its first request. What the
    rebalancer adds is the shard bookkeeping: shard-name resolution,
    the optional aspect-state hooks, and per-shard metrics.
    """

    def __init__(self, names: NameService,
                 migrator: Optional[Migrator] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.names = names
        self.migrator = migrator if migrator is not None \
            else Migrator(names)
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._counters = self.registry.counter_block(
            _SHARD_COUNTERS, prefix="repro_shard_"
        )
        self._downtime = self.registry.histogram(
            "repro_shard_rebalance_downtime_seconds",
            help="seconds each rebalanced shard was withdrawn",
        ).labels()
        self.history: List[RebalanceReport] = []

    def rebalance(self, name: str, shard_id: str,
                  source: Node, target: Node,
                  capture: Callable[[Any], Dict[str, Any]],
                  rebuild: Callable[[Dict[str, Any]], Any],
                  quiesce: Optional[Callable[[], None]] = None,
                  resume: Optional[Callable[[], None]] = None,
                  aspect_capture: Optional[
                      Callable[[Any], Dict[str, Any]]] = None,
                  aspect_restore: Optional[
                      Callable[[Any, Dict[str, Any]], None]] = None,
                  drain_timeout: float = 5.0) -> RebalanceReport:
        """Move shard ``shard_id`` of sharded ``name`` source → target.

        ``capture`` / ``rebuild`` see only the servant's own state dict;
        the handoff bundle (dedup entries, ``aspect_capture`` output) is
        added and stripped by :class:`~repro.dist.recovery.Handoff`. On
        failure the migrator rolls back (servant re-exported at the
        source, name untouched, ``resume`` run).
        """
        sharded = self.names.resolve_sharded(name)
        if shard_id not in sharded.shard_ids:
            raise MigrationError(
                f"{name!r} has no shard {shard_id!r} "
                f"(shards: {list(sharded.shard_ids)})"
            )
        handoff = Handoff(capture, rebuild, aspect_capture, aspect_restore)
        try:
            report, moved = self.migrator.move(
                sharded.shard_name(shard_id), source, target, handoff,
                quiesce=quiesce, resume=resume,
                drain_timeout=drain_timeout,
            )
        except BaseException:
            self._counters.bump("failed_rebalances")
            raise
        self._counters.bump("rebalances")
        if moved:
            self._counters.bump("dedup_entries_moved", amount=moved)
        self._downtime.observe(report.downtime)
        outcome = RebalanceReport(
            name=name, shard_id=shard_id,
            source=source.node_id, target=target.node_id,
            downtime=report.downtime, dedup_entries_moved=moved,
            state_keys=report.state_keys,
        )
        self.history.append(outcome)
        return outcome

    def __repr__(self) -> str:
        return f"<Rebalancer moves={len(self.history)}>"

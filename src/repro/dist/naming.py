"""Naming service: location transparency (paper Section 2).

Services are addressed by logical name; the naming service maps names to
``(node, service)`` locations. Client stubs resolve per call, so
rebinding a name (migration, failover) transparently redirects traffic —
the "location transparency" concern as infrastructure rather than
tangled lookup code.

Sharded names (``docs/sharding.md``): one logical name may instead be
bound to a *set of shards* under a consistent-hash ring
(:meth:`NameService.bind_sharded`). The sharded registry is kept apart
from the plain bindings, so the unsharded :meth:`resolve` path is
byte-for-byte what it was before sharding existed. Each shard is itself
a plain binding under ``"<name>#<shard_id>"`` — shard moves therefore
reuse the whole rebind/version/wait_for machinery (and the migrator)
unchanged.

Versioning is monotonic **per name, forever**: rebinds bump, unbinds
bump (watchers receive a tombstone with empty ``node_id``), and a bind
after an unbind continues from the high-water mark. Watcher delivery is
version-ordered per name: two racing rebinds can never leave a watcher
holding the stale binding as its last observation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import NameNotFound


@dataclass(frozen=True)
class Binding:
    """A resolved name.

    A binding with an empty ``node_id`` and ``service`` is a *tombstone*:
    the notification watchers receive when the name is unbound.
    """

    name: str
    node_id: str
    service: str
    version: int

    @property
    def unbound(self) -> bool:
        """Whether this is an unbind tombstone, not a live location."""
        return not self.node_id

    @property
    def epoch(self) -> int:
        """The fencing epoch this binding mints (its version).

        Versions are monotonic per name forever, so every rebind — a
        failover in particular — mints a strictly greater epoch. The
        recovery plane (``docs/recovery.md``) fences the durable
        journal and the serving node at this value: armed requests
        carry it on the wire, and a zombie node holding an older epoch
        gets its late writes and replies rejected instead of corrupting
        the replacement.
        """
        return self.version


@dataclass(frozen=True)
class ShardedBinding:
    """One logical name spread over a set of shards.

    The binding names the shard ids and the ring geometry (virtual
    nodes per shard); the key→shard mapping itself is computed by a
    :class:`~repro.dist.sharding.HashRing` built from these fields, so
    every router derives the identical ring from the identical binding.
    Each shard's location is the plain binding :meth:`shard_name`.
    """

    name: str
    shard_ids: Tuple[str, ...]
    vnodes: int
    version: int

    def shard_name(self, shard_id: str) -> str:
        """The plain binding name one shard's location lives under."""
        return f"{self.name}#{shard_id}"


class _NotifyGate:
    """Per-name watcher dispatch state: version-ordered delivery.

    ``lock`` serializes deliveries for one name (reentrant, so a watcher
    that rebinds the same name from its callback does not deadlock);
    ``delivered`` is the highest version handed to watchers — a late
    notification carrying an older version is dropped instead of
    delivered out of order.
    """

    __slots__ = ("lock", "delivered")

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.delivered = 0


class NameService:
    """Thread-safe name -> location registry with rebind versioning."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._bindings: Dict[str, Binding] = {}
        self._sharded: Dict[str, ShardedBinding] = {}
        self._watchers: Dict[str, List[Callable[[Binding], None]]] = {}
        self._gates: Dict[str, _NotifyGate] = {}
        #: per-name high-water version mark — survives unbind, so a
        #: re-bound name can never reuse a version watchers already saw
        self._versions: Dict[str, int] = {}

    def _next_version(self, name: str) -> int:
        # under self._lock
        version = self._versions.get(name, 0) + 1
        self._versions[name] = version
        return version

    def bind(self, name: str, node_id: str, service: str) -> Binding:
        """Bind a fresh name; raises ``ValueError`` if already bound."""
        with self._lock:
            if name in self._bindings:
                raise ValueError(f"name {name!r} already bound")
            if name in self._sharded:
                raise ValueError(f"name {name!r} is bound sharded")
            binding = Binding(name=name, node_id=node_id,
                              service=service,
                              version=self._next_version(name))
            self._bindings[name] = binding
            self._changed.notify_all()
        self._notify(binding)
        return binding

    def rebind(self, name: str, node_id: str, service: str) -> Binding:
        """Bind or replace a name (migration / failover path)."""
        with self._lock:
            if name in self._sharded:
                raise ValueError(f"name {name!r} is bound sharded")
            binding = Binding(
                name=name, node_id=node_id, service=service,
                version=self._next_version(name),
            )
            self._bindings[name] = binding
            self._changed.notify_all()
        self._notify(binding)
        return binding

    def unbind(self, name: str) -> None:
        """Remove a name; watchers receive an unbind tombstone."""
        with self._lock:
            if name not in self._bindings:
                raise NameNotFound(name)
            del self._bindings[name]
            tombstone = Binding(name=name, node_id="", service="",
                                version=self._next_version(name))
            self._changed.notify_all()
        self._notify(tombstone)

    def resolve(self, name: str) -> Binding:
        with self._lock:
            binding = self._bindings.get(name)
        if binding is None:
            raise NameNotFound(name)
        return binding

    def wait_for(self, name: str, version: int = 1,
                 timeout: Optional[float] = None) -> Optional[Binding]:
        """Block until ``name`` is bound at ``version`` or newer.

        Returns the satisfying binding, or ``None`` on timeout. Lets a
        caller await a failover rebind (version bump) without polling
        ``resolve`` in a sleep loop.
        """
        def satisfied() -> Optional[Binding]:
            binding = self._bindings.get(name)
            if binding is not None and binding.version >= version:
                return binding
            return None

        with self._changed:
            if self._changed.wait_for(satisfied, timeout):
                return satisfied()
            return None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._bindings)

    # ------------------------------------------------------------------
    # sharded bindings (docs/sharding.md)
    # ------------------------------------------------------------------
    def bind_sharded(self, name: str, shard_ids: Sequence[str],
                     vnodes: int = 64) -> ShardedBinding:
        """Bind ``name`` as a sharded name over ``shard_ids``.

        The shard *locations* are not placed here: the caller binds each
        ``ShardedBinding.shard_name(shard_id)`` as a plain name (and
        rebinds it on every shard move). This keeps one machinery —
        resolve / rebind / version / ``wait_for`` — serving both plain
        names and every individual shard.
        """
        ids = tuple(shard_ids)
        if not ids:
            raise ValueError("a sharded binding needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids in {ids!r}")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        with self._lock:
            if name in self._bindings:
                raise ValueError(f"name {name!r} already bound (plain)")
            if name in self._sharded:
                raise ValueError(f"name {name!r} already bound sharded")
            sharded = ShardedBinding(
                name=name, shard_ids=ids, vnodes=vnodes,
                version=self._next_version(name),
            )
            self._sharded[name] = sharded
            self._changed.notify_all()
        return sharded

    def update_sharded(self, name: str,
                       shard_ids: Sequence[str]) -> ShardedBinding:
        """Replace the shard set of a sharded name (reshard).

        Bumps the sharded version so routers rebuild their rings; the
        vnode count is preserved.
        """
        ids = tuple(shard_ids)
        if not ids:
            raise ValueError("a sharded binding needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids in {ids!r}")
        with self._lock:
            current = self._sharded.get(name)
            if current is None:
                raise NameNotFound(name)
            sharded = ShardedBinding(
                name=name, shard_ids=ids, vnodes=current.vnodes,
                version=self._next_version(name),
            )
            self._sharded[name] = sharded
            self._changed.notify_all()
        return sharded

    def resolve_sharded(self, name: str) -> ShardedBinding:
        with self._lock:
            sharded = self._sharded.get(name)
        if sharded is None:
            raise NameNotFound(name)
        return sharded

    def is_sharded(self, name: str) -> bool:
        with self._lock:
            return name in self._sharded

    def unbind_sharded(self, name: str) -> None:
        """Remove a sharded name (the per-shard plain bindings remain)."""
        with self._lock:
            if name not in self._sharded:
                raise NameNotFound(name)
            del self._sharded[name]
            self._next_version(name)
            self._changed.notify_all()

    # ------------------------------------------------------------------
    def watch(self, name: str, callback: Callable[[Binding], None]) -> None:
        """Call ``callback`` on every (re/un)bind of ``name``.

        Deliveries are version-ordered per name: a callback's last-seen
        binding is always the newest delivered, never a stale one that
        lost a rebind race (shard routers cache routes off exactly this
        guarantee). Unbinds deliver a tombstone (``binding.unbound``).
        """
        with self._lock:
            self._watchers.setdefault(name, []).append(callback)

    def unwatch(self, name: str,
                callback: Callable[[Binding], None]) -> bool:
        """Deregister a watcher; returns whether it was registered."""
        with self._lock:
            callbacks = self._watchers.get(name)
            if not callbacks or callback not in callbacks:
                return False
            callbacks.remove(callback)
            if not callbacks:
                del self._watchers[name]
            return True

    def _notify(self, binding: Binding) -> None:
        # Runs outside self._lock (callbacks may re-enter the service);
        # the per-name gate serializes deliveries and drops stale
        # versions, so concurrent rebinds cannot be observed reordered.
        with self._lock:
            watchers = list(self._watchers.get(binding.name, ()))
            gate = self._gates.get(binding.name)
            if gate is None:
                gate = self._gates[binding.name] = _NotifyGate()
        with gate.lock:
            if binding.version <= gate.delivered:
                return
            gate.delivered = binding.version
            for callback in watchers:
                callback(binding)

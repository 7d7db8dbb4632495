"""Load balancing: dispatch across replicas as a separated concern.

"Load balancing" heads the paper's Section 2 concern list. Here it is a
dispatcher servant: clients call the balancer's logical name, and the
balancer forwards each call to one backend in a round-robin rotation,
failing over to the others on delivery failure. Neither clients nor
backends know it is there — the separation claim, demonstrated at the
distribution layer. There is one rotation and no swappable policy.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.errors import NetworkError
from .rpc import Client, RemoteError, RequestTimeout

#: A backend is identified by its logical name.
Backend = str


class RoundRobin:
    """Cycle through backends in order.

    Rotation is anchored to stable backend *identity*, not to the
    position in whatever candidate list a caller passes: during
    failover the balancer filters out already-tried backends, and a
    cursor taken modulo the filtered list's length would skew the
    rotation whenever one backend is down (the survivors after the hole
    get double the traffic). Instead the rotation remembers each backend
    in first-seen order and scans from its cursor for the first one
    currently offered.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0
        self._order: List[Backend] = []

    def choose(self, backends: Sequence[Backend]) -> Backend:
        if not backends:
            raise NetworkError("no backend available")
        with self._lock:
            for backend in backends:
                if backend not in self._order:
                    self._order.append(backend)
            offered = set(backends)
            for step in range(len(self._order)):
                index = (self._next + step) % len(self._order)
                backend = self._order[index]
                if backend in offered:
                    self._next = index + 1
                    return backend
            # Unreachable: every offered backend was added to _order.
            raise NetworkError("no backend available")


class LoadBalancer:
    """Client-side balancer forwarding named calls to backend replicas.

    Args:
        client: RPC client used for forwarding.
        backends: logical names of the replicas.
        retries: how many *other* backends to try after a delivery
            failure (timeout / unreachable) — fault tolerance composed
            with load balancing.
    """

    def __init__(self, client: Client, backends: Sequence[Backend],
                 retries: int = 1) -> None:
        if not backends:
            raise ValueError("at least one backend required")
        self.client = client
        self.backends = list(backends)
        self._rotation = RoundRobin()
        self.retries = retries
        self._lock = threading.Lock()
        self.dispatched: Dict[Backend, int] = {b: 0 for b in self.backends}
        self.failovers = 0

    def call(self, method: str, *args: Any, caller: Optional[str] = None,
             **kwargs: Any) -> Any:
        """Forward one invocation to the next backend in the rotation."""
        tried: List[Backend] = []
        last_error: Optional[Exception] = None
        attempts = 1 + max(0, self.retries)
        for _ in range(attempts):
            candidates = [b for b in self.backends if b not in tried]
            if not candidates:
                break
            backend = self._rotation.choose(candidates)
            tried.append(backend)
            try:
                result = self.client.call_name(
                    backend, method, *args, caller=caller, **kwargs
                )
                with self._lock:
                    self.dispatched[backend] = (
                        self.dispatched.get(backend, 0) + 1
                    )
                return result
            except (RequestTimeout, NetworkError) as exc:
                if isinstance(exc, RemoteError):
                    raise  # application errors do not fail over
                last_error = exc
                with self._lock:
                    self.failovers += 1
        raise last_error if last_error else NetworkError("dispatch failed")

    def __getattr__(self, method: str) -> Callable[..., Any]:
        if method.startswith("_"):
            raise AttributeError(method)

        def dispatched(*args: Any, **kwargs: Any) -> Any:
            return self.call(method, *args, **kwargs)

        dispatched.__name__ = method
        return dispatched

    def distribution(self) -> Dict[Backend, int]:
        """Dispatch histogram (for the balance-quality benches)."""
        with self._lock:
            return dict(self.dispatched)

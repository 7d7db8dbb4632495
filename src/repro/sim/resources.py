"""Simulated resources: capacity-limited resources and item stores.

Built on :mod:`repro.sim.engine`; used by benchmark workloads that model
server capacity and by deterministic re-runs of the producer/consumer
scenarios.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro.core.errors import SimulationError
from .engine import Engine, SimEvent


class SimResource:
    """A resource with ``capacity`` slots; FIFO acquisition.

    Usage inside a process generator::

        grant = resource.acquire()
        yield grant           # suspends until a slot is granted
        ...
        resource.release()
    """

    def __init__(self, engine: Engine, capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiting: Deque[SimEvent] = deque()
        self.grants = 0
        self.peak_queue = 0

    def acquire(self) -> SimEvent:
        """Return an event that triggers when a slot is granted."""
        grant = self.engine.event(name=f"{self.name}.grant")
        if self.in_use < self.capacity:
            self.in_use += 1
            self.grants += 1
            grant.trigger()
        else:
            self._waiting.append(grant)
            self.peak_queue = max(self.peak_queue, len(self._waiting))
        return grant

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiting:
            grant = self._waiting.popleft()
            self.grants += 1
            grant.trigger()
        else:
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        return len(self._waiting)


class SimStore:
    """A bounded item store with blocking get/put, FIFO both ways.

    The simulated twin of the bounded buffer: the substrate for
    deterministic replays of the trouble-ticketing workload.
    """

    def __init__(self, engine: Engine, capacity: Optional[int] = None,
                 name: str = "store") -> None:
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()
        self._putters: Deque[tuple] = deque()
        self.total_put = 0
        self.total_got = 0

    def put(self, item: Any) -> SimEvent:
        """Event triggering once the item is stored."""
        done = self.engine.event(name=f"{self.name}.put")
        if self._getters:
            # Hand straight to the oldest waiting getter.
            getter = self._getters.popleft()
            self.total_put += 1
            self.total_got += 1
            done.trigger()
            getter.trigger(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            self.total_put += 1
            done.trigger()
        else:
            self._putters.append((item, done))
        return done

    def get(self) -> SimEvent:
        """Event triggering with the oldest item as its value."""
        got = self.engine.event(name=f"{self.name}.get")
        if self._items:
            item = self._items.popleft()
            self.total_got += 1
            got.trigger(item)
            self._admit_putter()
        else:
            self._getters.append(got)
        return got

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            item, done = self._putters.popleft()
            self._items.append(item)
            self.total_put += 1
            done.trigger()

    def __len__(self) -> int:
        return len(self._items)

    def snapshot(self) -> List[Any]:
        return list(self._items)

"""The aspect bank: a hierarchical two-dimensional aspect registry.

Paper, Section 5.1.2: "we introduce the concept of an aspect bank, which
provides a hierarchical two-dimensional composition of the system in terms
of aspects and components. [...] Method registerAspect() will simply
create an entry in a two dimensional array within the moderator object."

The paper indexes a fixed-size array by integer constants
(``aspectArray[OPEN][SYNC]``). The bank generalizes this to a mapping
keyed by ``(method_id, concern)`` with ordered concerns per method —
order matters because pre-activation evaluates concerns in composition
order and post-activation unwinds them in reverse (Section 5.3).
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Dict, Iterator, List, Tuple

from .aspect import Aspect
from .errors import RegistrationError, UnknownAspectError


class AspectBank:
    """Ordered two-dimensional registry of first-class aspect objects.

    The first dimension is the participating method, the second the
    concern (``"sync"``, ``"authenticate"``, ...). Iteration order of the
    concerns for a method is registration order unless rearranged via
    :meth:`set_order`.

    Thread safety: mutating operations and lookups are guarded by an
    internal lock; concern lists handed out are copies.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        # method_id -> concern -> aspect
        self._cells: Dict[str, Dict[str, Aspect]] = {}
        # method_id -> concern order (explicit composition order)
        self._order: Dict[str, List[str]] = {}
        # bumped on every mutation
        self._revision = 0
        # weak callbacks run after every mutation (see :meth:`watch`)
        self._watchers: Tuple[weakref.WeakMethod, ...] = ()

    @property
    def revision(self) -> int:
        """Monotonic counter incremented by every mutating operation.

        Read without the lock: an int attribute read is atomic in
        CPython, and a consumer needs only monotonicity — a stale read
        makes a cache revalidate one call later, never incorrectly.
        Moderators key their plans on a version of their own, which
        :meth:`watch` moves.
        """
        return self._revision

    def watch(self, callback: Callable[[], None]) -> None:
        """Call the bound method ``callback`` after every mutation.

        Held weakly, so a bank shared by many moderators keeps none of
        them alive. Runs under the bank lock, after the mutation.
        """
        with self._lock:
            self._watchers = tuple(
                ref for ref in self._watchers if ref() is not None
            ) + (weakref.WeakMethod(callback),)

    def _changed(self) -> None:
        """Count one mutation and tell the watchers (under the lock)."""
        self._revision += 1
        for ref in self._watchers:
            callback = ref()
            if callback is not None:
                callback()

    # ------------------------------------------------------------------
    # registration (paper Figure 9)
    # ------------------------------------------------------------------
    def register(self, method_id: str, concern: str, aspect: Aspect,
                 replace: bool = False) -> None:
        """Create an entry for ``aspect`` at cell ``(method_id, concern)``.

        Duplicate registration for the same cell raises
        :class:`RegistrationError` unless ``replace=True`` (runtime
        adaptability: swapping an aspect in place is how the framework
        supports dynamic reconfiguration).
        """
        if not isinstance(aspect, Aspect):
            raise RegistrationError(
                f"expected an Aspect for ({method_id!r}, {concern!r}), "
                f"got {type(aspect).__name__}"
            )
        with self._lock:
            row = self._cells.setdefault(method_id, {})
            if concern in row and not replace:
                raise RegistrationError(
                    f"({method_id!r}, {concern!r}) already registered; "
                    f"pass replace=True to swap"
                )
            fresh = concern not in row
            row[concern] = aspect
            if fresh:
                self._order.setdefault(method_id, []).append(concern)
            self._changed()

    def unregister(self, method_id: str, concern: str) -> Aspect:
        """Remove and return the aspect at ``(method_id, concern)``."""
        with self._lock:
            row = self._cells.get(method_id, {})
            if concern not in row:
                raise UnknownAspectError(method_id, concern)
            aspect = row.pop(concern)
            self._order[method_id].remove(concern)
            if not row:
                del self._cells[method_id]
                del self._order[method_id]
            self._changed()
            return aspect

    def swap(self, method_id: str, concern: str, aspect: Aspect) -> Aspect:
        """Atomically replace the aspect at a cell; returns the old one.

        The recovery half of runtime adaptability: quarantined or buggy
        aspects are swapped for repaired instances in place, keeping the
        cell's composition-order slot. The moderator resets the cell's
        fault history when the swap goes through ``register_aspect(...,
        replace=True)``; direct bank swaps leave health tracking to the
        caller. Raises :class:`UnknownAspectError` when the cell is
        empty — swapping is for occupied cells, registering is for new
        ones.
        """
        if not isinstance(aspect, Aspect):
            raise RegistrationError(
                f"expected an Aspect for ({method_id!r}, {concern!r}), "
                f"got {type(aspect).__name__}"
            )
        with self._lock:
            row = self._cells.get(method_id, {})
            if concern not in row:
                raise UnknownAspectError(method_id, concern)
            old = row[concern]
            row[concern] = aspect
            self._changed()
            return old

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup(self, method_id: str, concern: str) -> Aspect:
        """Return the registered aspect for the cell, or raise."""
        with self._lock:
            try:
                return self._cells[method_id][concern]
            except KeyError:
                raise UnknownAspectError(method_id, concern) from None

    def concerns_for(self, method_id: str) -> List[str]:
        """Concern labels registered for ``method_id``, in composition order."""
        with self._lock:
            return list(self._order.get(method_id, []))

    def aspects_for(self, method_id: str) -> List[Tuple[str, Aspect]]:
        """(concern, aspect) pairs for ``method_id`` in composition order."""
        with self._lock:
            row = self._cells.get(method_id, {})
            return [(concern, row[concern])
                    for concern in self._order.get(method_id, [])]

    def snapshot_for(
        self, method_id: str
    ) -> Tuple[int, List[Tuple[str, Aspect]]]:
        """Atomically read ``(revision, ordered pairs)`` for one method.

        Compile-time hook for the plan compiler: taking both under one
        lock acquisition rules out the torn read where the pairs belong
        to a newer revision than the one the plan is keyed under (the
        reverse tear — older pairs under a newer key — cannot produce a
        stale cache entry, because the key would already have moved on).
        """
        with self._lock:
            row = self._cells.get(method_id, {})
            pairs = [(concern, row[concern])
                     for concern in self._order.get(method_id, [])]
            return self._revision, pairs

    def methods(self) -> List[str]:
        """All participating methods with at least one registered aspect."""
        with self._lock:
            return list(self._cells)

    def has_method(self, method_id: str) -> bool:
        """O(1) membership: does any aspect guard ``method_id``?

        Lock-free — dict membership is atomic under the GIL, and the
        per-call participation probe (every dynamic-proxy attribute
        access) must not build a concern list or take a lock just to
        answer yes/no.
        """
        return method_id in self._cells

    def contains(self, method_id: str, concern: str) -> bool:
        with self._lock:
            return concern in self._cells.get(method_id, {})

    def __contains__(self, key: "Tuple[str, str]") -> bool:
        method_id, concern = key
        return self.contains(method_id, concern)

    def __len__(self) -> int:
        """Total number of occupied cells."""
        with self._lock:
            return sum(len(row) for row in self._cells.values())

    def __iter__(self) -> Iterator[Tuple[str, str, Aspect]]:
        """Iterate ``(method_id, concern, aspect)`` over a snapshot."""
        with self._lock:
            snapshot = [
                (method_id, concern, self._cells[method_id][concern])
                for method_id in self._cells
                for concern in self._order[method_id]
            ]
        return iter(snapshot)

    # ------------------------------------------------------------------
    # composition order (Section 5.3: auth before sync on the way in)
    # ------------------------------------------------------------------
    def set_order(self, method_id: str, concerns: List[str]) -> None:
        """Set an explicit composition order for ``method_id``.

        ``concerns`` must be a permutation of the registered concerns.
        """
        with self._lock:
            current = set(self._order.get(method_id, []))
            if set(concerns) != current or len(concerns) != len(current):
                raise RegistrationError(
                    f"order {concerns!r} is not a permutation of the "
                    f"registered concerns {sorted(current)!r} for "
                    f"{method_id!r}"
                )
            self._order[method_id] = list(concerns)
            self._changed()

    def grid(self) -> Dict[str, Dict[str, str]]:
        """Render the two-dimensional composition as nested dicts of names.

        This is the "hierarchical two-dimensional composition of the
        system in terms of aspects and components" made inspectable —
        useful for documentation, debugging and the FIG1 reproduction.
        """
        with self._lock:
            return {
                method_id: {
                    concern: self._cells[method_id][concern].describe()
                    for concern in self._order[method_id]
                }
                for method_id in self._cells
            }

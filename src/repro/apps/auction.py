"""Online auction: one of the paper's motivating workloads (Section 2).

The functional component (:class:`AuctionHouse`) knows only auction
domain logic. Composed concerns:

* **sync** — a mutex aspect serializes bid placement and closing (the
  component's data structures are unsynchronized by design);
* **validate** — bids must exceed the current high bid by the increment;
* **authorize** — only principals with the ``auctioneer`` role may open
  or close auctions;
* **audit** — every attempt, including rejected bids, is logged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.aspects.audit import AuditAspect, AuditLog
from repro.aspects.authorization import AuthorizationAspect, RoleRegistry
from repro.aspects.synchronization import MutexAspect
from repro.aspects.validation import ValidationAspect
from repro.core.factory import RegistryAspectFactory
from repro.core.ordering import guards_first
from repro.core.registry import Cluster


class AuctionError(RuntimeError):
    """Domain errors (unknown item, closed auction, low bid)."""


class AuctionHouse:
    """Sequential auction state machine."""

    def __init__(self, min_increment: float = 1.0) -> None:
        self.min_increment = min_increment
        self._auctions: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    def open_auction(self, item: str, reserve: float = 0.0) -> str:
        """Start an auction for ``item`` with a reserve price."""
        if item in self._auctions:
            raise AuctionError(f"auction for {item!r} already exists")
        self._auctions[item] = {
            "reserve": reserve,
            "open": True,
            "bids": [],
        }
        return item

    def place_bid(self, item: str, bidder: str, amount: float) -> float:
        """Record a bid; returns the new high amount."""
        auction = self._auctions.get(item)
        if auction is None:
            raise AuctionError(f"no auction for {item!r}")
        if not auction["open"]:
            raise AuctionError(f"auction for {item!r} is closed")
        auction["bids"].append({"bidder": bidder, "amount": amount})
        return amount

    def close_auction(self, item: str) -> Optional[Dict[str, Any]]:
        """Close and return the winning bid (None when reserve unmet)."""
        auction = self._auctions.get(item)
        if auction is None:
            raise AuctionError(f"no auction for {item!r}")
        if not auction["open"]:
            raise AuctionError(f"auction for {item!r} already closed")
        auction["open"] = False
        winning = self.high_bid(item)
        if winning is not None and winning["amount"] >= auction["reserve"]:
            return dict(winning)
        return None

    # ------------------------------------------------------------------
    def high_bid(self, item: str) -> Optional[Dict[str, Any]]:
        auction = self._auctions.get(item)
        if auction is None:
            raise AuctionError(f"no auction for {item!r}")
        bids: List[Dict[str, Any]] = auction["bids"]
        if not bids:
            return None
        return max(bids, key=lambda bid: bid["amount"])

    def is_open(self, item: str) -> bool:
        auction = self._auctions.get(item)
        return bool(auction and auction["open"])


def _bid_is_competitive(joinpoint) -> bool:
    """Validation rule: a bid must beat the high bid by the increment."""
    house: AuctionHouse = joinpoint.component
    if len(joinpoint.args) < 3:
        return False
    item, _bidder, amount = joinpoint.args[:3]
    try:
        if not isinstance(amount, (int, float)) or amount <= 0:
            return False
        if not house.is_open(item):
            return False
        current = house.high_bid(item)
    except AuctionError:
        return False
    if current is None:
        return True
    return amount >= current["amount"] + house.min_increment


def build_auction_cluster(
    roles: Optional[RoleRegistry] = None,
    audit_log: Optional[AuditLog] = None,
    min_increment: float = 1.0,
    default_timeout: Optional[float] = None,
) -> Cluster:
    """Wire an auction house with sync + validation (+ authz, + audit).

    ``roles`` enables authorization: grant the ``auctioneer`` role the
    ``open_auction`` / ``close_auction`` methods and the ``bidder`` role
    ``place_bid`` (done by :func:`default_auction_roles`).
    """
    house = AuctionHouse(min_increment=min_increment)
    factory = RegistryAspectFactory()
    mutex = MutexAspect()
    methods = ("open_auction", "place_bid", "close_auction")
    for method in methods:
        factory.register(method, "sync", lambda _c, m=mutex: m)
    factory.register(
        "place_bid", "validate",
        lambda _c: ValidationAspect(
            rules=[("bid beats high bid by increment", _bid_is_competitive)]
        ),
    )
    bindings: Dict[str, List[str]] = {
        "open_auction": ["sync"],
        "place_bid": ["validate", "sync"],
        "close_auction": ["sync"],
    }
    cluster = Cluster(
        component=house,
        factory=factory,
        bindings=bindings,
        ordering=guards_first,
        default_timeout=default_timeout,
    )
    # All three methods contend on one shared mutex aspect: admission of
    # any of them can change when any other completes, so they moderate
    # in a single shared lock domain rather than per-method stripes.
    cluster.moderator.assign_lock_domain("auction:mutex", *methods)
    if roles is not None:
        authz_factory = RegistryAspectFactory()
        shared = AuthorizationAspect(roles)
        for method in methods:
            authz_factory.register(method, "authorize",
                                   lambda _c, a=shared: a)
        cluster.extend(
            authz_factory,
            bindings={method: ["authorize"] for method in methods},
        )
    if audit_log is not None:
        audit_factory = RegistryAspectFactory()
        shared_audit = AuditAspect(audit_log)
        for method in methods:
            audit_factory.register(method, "audit",
                                   lambda _c, a=shared_audit: a)
        cluster.extend(
            audit_factory,
            bindings={method: ["audit"] for method in methods},
        )
    return cluster


def default_auction_roles() -> RoleRegistry:
    """Standard role table: auctioneers run auctions, bidders bid."""
    roles = RoleRegistry()
    roles.permit("auctioneer", "open_auction", "close_auction", "place_bid")
    roles.permit("bidder", "place_bid")
    return roles

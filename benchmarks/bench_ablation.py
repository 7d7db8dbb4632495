"""A-ABL: ablations of the framework's own design choices.

DESIGN.md calls out several implementation decisions; each has a price
this bench isolates:

* **ordering policy** — recomputing the composition order per
  activation (what runtime re-ordering requires) vs. the identity
  policy;
* **exclusive vs. non-exclusive buffer sync** — the paper's
  ``ActiveOpen == 0`` term costs pipeline parallelism on multi-producer
  workloads;
* **compensation machinery** — chains that BLOCK once pay an extra
  evaluate+compensate round; measured via a one-shot blocking aspect;
* **per-activation chain snapshot** — the moderator records the chain
  in the join point; measured against the bank re-read fallback.
"""

import pytest

from repro.apps import build_ticketing_cluster
from repro.aspects.synchronization import BoundedBufferSync
from repro.concurrency import Ticket
from repro.core import (
    AspectModerator,
    ComponentProxy,
    ExplicitOrder,
    NullAspect,
    PriorityOrder,
    guards_first,
)


class Component:
    def service(self):
        return 42


def make_proxy(ordering=None, concerns=3):
    moderator = (
        AspectModerator(ordering=ordering) if ordering is not None
        else AspectModerator()
    )
    for index in range(concerns):
        moderator.register_aspect("service", f"c{index}", NullAspect())
    return ComponentProxy(Component(), moderator)


class TestOrderingPolicyCost:
    def test_ordering_registration(self, benchmark):
        proxy = make_proxy()
        assert benchmark(lambda: proxy.service()) == 42

    def test_ordering_priority(self, benchmark):
        proxy = make_proxy(PriorityOrder({"c0": 3, "c1": 2, "c2": 1}))
        assert benchmark(lambda: proxy.service()) == 42

    def test_ordering_explicit(self, benchmark):
        proxy = make_proxy(ExplicitOrder(["c2", "c0", "c1"]))
        assert benchmark(lambda: proxy.service()) == 42

    def test_ordering_guards_first(self, benchmark):
        proxy = make_proxy(guards_first)
        assert benchmark(lambda: proxy.service()) == 42


class TestExclusivityAblation:
    """The paper's ActiveOpen==0 term vs. relaxed occupancy-only sync."""

    @pytest.mark.parametrize("exclusive", [True, False])
    def test_buffer_sync_exclusivity(self, benchmark, pc_workload,
                                     exclusive):
        class Buffer:
            def __init__(self):
                self.capacity = 16
                self.items = []

            def put(self, item):
                self.items.append(item)

            def take(self):
                return self.items.pop(0)

        buffer = Buffer()
        moderator = AspectModerator()
        sync = BoundedBufferSync(
            buffer, producer="put", consumer="take", exclusive=exclusive,
        )
        moderator.register_aspect("put", "sync", sync)
        moderator.register_aspect("take", "sync", sync)
        proxy = ComponentProxy(buffer, moderator)

        def workload():
            return pc_workload(
                proxy.put, proxy.take, 3, 3, 40,
                lambda w, i: (w, i),
            )

        moved = benchmark.pedantic(workload, rounds=3, iterations=1)
        assert moved == 120
        benchmark.extra_info["exclusive"] = exclusive
        benchmark.extra_info["blocks"] = moderator.stats.blocks


class TestCompensationCost:
    def test_chain_without_blocking(self, benchmark):
        cluster = build_ticketing_cluster(capacity=10 ** 6)

        def one_pair():
            cluster.proxy.open(Ticket(summary="x"))
            cluster.proxy.assign()

        benchmark(one_pair)
        assert cluster.moderator.stats.blocks == 0

    def test_chain_with_block_rounds(self, benchmark, pc_workload):
        """Capacity 1 forces a compensate+wait round per item moved."""
        cluster = build_ticketing_cluster(capacity=1)

        def workload():
            return pc_workload(
                cluster.proxy.open, cluster.proxy.assign, 1, 1, 50,
                lambda w, i: Ticket(summary=f"{w}:{i}"),
            )

        moved = benchmark.pedantic(workload, rounds=3, iterations=1)
        assert moved == 50
        benchmark.extra_info["blocks"] = cluster.moderator.stats.blocks
        benchmark.extra_info["compensations"] = (
            cluster.moderator.stats.compensations
        )

#!/usr/bin/env python
"""Distributed trouble ticketing: nodes, naming, balancing, failover.

Run: ``python examples/distributed_ticketing.py``

Exercises the interaction concerns the paper lists for open concurrent
systems (Section 2) at the distribution layer:

* **location transparency** — clients address ``tickets`` by name;
* **load balancing** — a round-robin balancer spreads opens across two
  replicas;
* **fault tolerance** — the primary crashes mid-run; its heartbeats
  stop, the supervisor's failure detector declares it dead, and the
  supervisor rebinds the name to the backup while clients keep
  working. The ticket facade rides a stateless recovery plan (its
  blocking ``assign`` cannot be journaled), so the backup serves a
  fresh cluster.
"""

import time

from repro.apps import RemoteTicketFacade, build_ticketing_cluster
from repro.core.errors import Overloaded
from repro.dist import (
    Client,
    HeartbeatDetector,
    HeartbeatEmitter,
    LoadBalancer,
    MemoryStore,
    NameService,
    Network,
    Node,
    RecoveryPlan,
    RequestTimeout,
    Supervisor,
)


def fresh_facade(_state=None) -> RemoteTicketFacade:
    """A wire-safe facade over a fresh, fully moderated cluster."""
    return RemoteTicketFacade(build_ticketing_cluster(capacity=64).proxy)


def build_server(node_id: str, network: Network) -> Node:
    """A node exporting a fully moderated ticketing service."""
    node = Node(node_id, network, workers=2).start()
    node.export("tickets", fresh_facade())
    return node


def main() -> None:
    network = Network(latency=0.002, jitter=0.3, seed=99)
    names = NameService()

    print("=== two replicas behind logical names ===")
    node_a = build_server("dc1-tickets", network)
    node_b = build_server("dc2-tickets", network)
    names.bind("tickets-a", "dc1-tickets", "tickets")
    names.bind("tickets-b", "dc2-tickets", "tickets")

    client = Client("helpdesk", network, names, default_timeout=2.0)
    balancer = LoadBalancer(
        client, backends=["tickets-a", "tickets-b"], retries=1,
    )

    for index in range(10):
        balancer.call("open", f"issue-{index}", reporter="helpdesk")
    print(f"  dispatch distribution: {balancer.distribution()}")

    print("\n=== location transparency + failover ===")
    primary = Node("dc1-primary", network, workers=2).start()
    backup = Node("dc2-backup", network, workers=2).start()
    detector = HeartbeatDetector(network, "monitor", suspect_after=0.1,
                                 dead_after=0.25)
    emitters = [HeartbeatEmitter(network, node.node_id, "monitor",
                                 interval=0.03).start()
                for node in (primary, backup)]
    supervisor = Supervisor(names, detector)
    plan = RecoveryPlan(MemoryStore(), lambda facade: {}, fresh_facade,
                        mutating=[])
    spec = supervisor.supervise("tickets", "tickets", plan,
                                [primary, backup], bootstrap=fresh_facade)
    detector.wait_for_state("dc1-primary", "alive")
    detector.wait_for_state("dc2-backup", "alive")
    supervisor.place(spec, primary)
    supervisor.start(interval=0.05)

    stub = client.proxy("tickets", timeout=1.0)
    print(f"  open via name -> ticket "
          f"#{stub.open('before crash', reporter='ops')}")

    print("  crashing dc1-primary ...")
    primary.crash()

    recovered = None
    for attempt in range(10):
        try:
            recovered = stub.open(f"after crash (try {attempt})",
                                  reporter="ops")
            break
        except (RequestTimeout, Overloaded):
            time.sleep(0.1)
    print(f"  open after failover -> ticket #{recovered} "
          f"(now bound to {names.resolve('tickets').node_id})")
    assert names.resolve("tickets").node_id == "dc2-backup"
    assert recovered is not None

    print("\n=== live migration back onto a fresh node ===")
    from repro.dist import Migrator

    # the migrator takes over moving the name: supervision ends here
    supervisor.stop()
    for emitter in emitters:
        emitter.stop()
    detector.close()

    node_c = Node("dc3-tickets", network, workers=2).start()
    migrator = Migrator(names)

    # the facade exposes its pending count; capture/rebuild move the
    # backlog as wire-safe data
    def capture(facade):
        backlog = []
        while facade.pending:
            backlog.append(facade.assign("migrator")["summary"])
        return {"backlog": backlog}

    def rebuild(state):
        cluster = build_ticketing_cluster(capacity=64)
        fresh = RemoteTicketFacade(cluster.proxy)
        for summary in state["backlog"]:
            fresh.open(summary, reporter="migrated")
        return fresh

    report = migrator.migrate(
        "tickets", backup, node_c, capture=capture, rebuild=rebuild,
    )
    print(f"  migrated '{report.name}' {report.source} -> "
          f"{report.target} (downtime {report.downtime * 1000:.1f} ms, "
          f"{report.state_keys} state keys)")
    post_migration = stub.open("after migration", reporter="ops")
    print(f"  same stub, new host -> ticket #{post_migration} on "
          f"{names.resolve('tickets').node_id}")
    assert names.resolve("tickets").node_id == "dc3-tickets"

    print(f"\n  network stats: {network.stats()}")
    client.close()
    node_a.stop()
    node_b.stop()
    backup.stop()
    node_c.stop()
    network.close()
    print("  done.")


if __name__ == "__main__":
    main()

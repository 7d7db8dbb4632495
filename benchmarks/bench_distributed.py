"""T-DIST: the distributed concerns — RPC, balancing, failover.

The paper positions the framework for components "distributed across
the network" (Section 2). These benches measure the simulated
distribution layer: remote moderated calls vs. local ones, balancing
quality, and failover recovery time.

Expected shape: remote calls cost dispatch + 2x simulated latency on
top of the moderated local call; round-robin splits within 1 request;
failover time tracks the detector's ``dead_after`` plus the
supervisor's check interval (the placement itself is milliseconds),
floored by ``Node.crash``, which runs inside the timed window and
joins serve loops that poll their inbox every 200 ms.
"""

import time

import pytest

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


@pytest.fixture
def world():
    network = Network()  # zero added latency: measure machinery cost
    names = NameService()
    resources = {"nodes": [], "clients": []}
    yield network, names, resources
    for client in resources["clients"]:
        client.close()
    for node in resources["nodes"]:
        node.stop()
    network.close()


def ticket_node(network, node_id, resources):
    node = Node(node_id, network, workers=2).start()
    cluster = build_ticketing_cluster(capacity=10 ** 6)
    node.export("tickets", RemoteTicketFacade(cluster.proxy))
    resources["nodes"].append(node)
    return node, cluster


def test_local_moderated_call(benchmark):
    """Reference: the same moderated call without the network."""
    cluster = build_ticketing_cluster(capacity=10 ** 6)
    facade = RemoteTicketFacade(cluster.proxy)
    counter = iter(range(10 ** 9))
    benchmark(lambda: facade.open(f"t{next(counter)}"))


def test_remote_moderated_call(benchmark, world):
    network, names, resources = world
    ticket_node(network, "server", resources)
    names.bind("tickets", "server", "tickets")
    client = Client("client", network, names, default_timeout=5.0)
    resources["clients"].append(client)
    stub = client.proxy("tickets")
    counter = iter(range(10 ** 9))
    benchmark(lambda: stub.open(f"t{next(counter)}"))


def test_balanced_remote_call(benchmark, world):
    network, names, resources = world
    clusters = []
    for index in range(3):
        _node, cluster = ticket_node(network, f"replica-{index}",
                                     resources)
        names.bind(f"tickets-{index}", f"replica-{index}", "tickets")
        clusters.append(cluster)
    client = Client("client", network, names, default_timeout=5.0)
    resources["clients"].append(client)
    balancer = LoadBalancer(client, [f"tickets-{i}" for i in range(3)])
    counter = iter(range(10 ** 9))
    benchmark(lambda: balancer.call("open", f"t{next(counter)}"))

    distribution = balancer.distribution()
    spread = max(distribution.values()) - min(distribution.values())
    assert spread <= 1, f"round robin must balance exactly: {distribution}"
    benchmark.extra_info["distribution"] = dict(distribution)


def test_migration_downtime(benchmark, world):
    """Wall-clock service gap during a live migration."""
    from repro.dist import Migrator

    network, names, resources = world

    def one_migration():
        tag = time.monotonic_ns()
        source, _sc = ticket_node(network, f"src-{tag}", resources)
        target = Node(f"dst-{tag}", network, workers=2).start()
        resources["nodes"].append(target)
        name = f"svc-{tag}"
        names.rebind(name, source.node_id, "tickets")
        migrator = Migrator(names)
        report = migrator.migrate(
            name, source, target,
            capture=lambda facade: {"pending": facade.pending},
            rebuild=lambda state: RemoteTicketFacade(
                build_ticketing_cluster(capacity=10 ** 6).proxy
            ),
        )
        return report.downtime

    downtime = benchmark.pedantic(one_migration, rounds=3, iterations=1)
    assert downtime < 1.0
    benchmark.extra_info["downtime_s"] = round(downtime, 6)


def test_failover_recovery_time(benchmark, world):
    """Wall-clock from primary crash to first successful failover call.

    Detector-driven: heartbeats every 10 ms, dead after 100 ms of
    silence, supervisor checks every 10 ms. The ticket facade rides a
    stateless plan (its blocking ``assign`` cannot be journaled), so
    the backup serves a fresh cluster.
    """
    network, names, resources = world

    def fresh_facade(_state=None):
        return RemoteTicketFacade(
            build_ticketing_cluster(capacity=10 ** 6).proxy)

    def crash_and_recover():
        tag = time.monotonic_ns()
        primary = Node(f"primary-{tag}", network, workers=2).start()
        backup = Node(f"backup-{tag}", network, workers=2).start()
        resources["nodes"] += [primary, backup]
        monitor = f"monitor-{tag}"
        detector = HeartbeatDetector(network, monitor, suspect_after=0.05,
                                     dead_after=0.1)
        emitters = [HeartbeatEmitter(network, node.node_id, monitor,
                                     interval=0.01).start()
                    for node in (primary, backup)]
        supervisor = Supervisor(names, detector)
        plan = RecoveryPlan(MemoryStore(), lambda facade: {},
                            fresh_facade, mutating=[])
        name = f"tickets-{tag}"
        spec = supervisor.supervise(name, "tickets", plan,
                                    [primary, backup],
                                    bootstrap=fresh_facade)
        client = Client(f"ops-{tag}", network, names, default_timeout=0.5)
        resources["clients"].append(client)
        try:
            assert detector.wait_for_state(primary.node_id, "alive")
            assert detector.wait_for_state(backup.node_id, "alive")
            supervisor.place(spec, primary)
            supervisor.start(interval=0.01)
            started = time.monotonic()
            primary.crash()
            while True:
                try:
                    client.call_name(name, "open", "probe", timeout=0.05)
                    break
                except (RequestTimeout, Overloaded):
                    continue
            return time.monotonic() - started
        finally:
            supervisor.stop()
            for emitter in emitters:
                emitter.stop()
            detector.close()

    recovery = benchmark.pedantic(crash_and_recover, rounds=3,
                                  iterations=1)
    assert recovery < 5.0

"""Integration tests: ticketing over the simulated distributed runtime."""

import time

import pytest

from repro.apps import (
    RemoteTicketFacade,
    build_ticketing_cluster,
    make_session_manager,
)
from repro.core import MethodAborted
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
    RoundRobin,
    Supervisor,
)


@pytest.fixture
def world():
    network = Network(latency=0.001)
    names = NameService()
    created = {"nodes": [], "clients": []}

    def make_node(node_id, **cluster_kwargs):
        node = Node(node_id, network, workers=2).start()
        cluster = build_ticketing_cluster(capacity=32, **cluster_kwargs)
        node.export("tickets", RemoteTicketFacade(cluster.proxy))
        created["nodes"].append(node)
        return node, cluster

    def make_client(client_id):
        client = Client(client_id, network, names, default_timeout=2.0)
        created["clients"].append(client)
        return client

    yield network, names, make_node, make_client
    for client in created["clients"]:
        client.close()
    for node in created["nodes"]:
        node.stop()
    network.close()


class TestRemoteTicketing:
    def test_remote_open_and_assign(self, world):
        network, names, make_node, make_client = world
        make_node("server")
        names.bind("tickets", "server", "tickets")
        client = make_client("helpdesk")
        stub = client.proxy("tickets")
        ticket_id = stub.open("remote issue", reporter="ops")
        assigned = stub.assign("alice")
        assert assigned["ticket_id"] == ticket_id
        assert assigned["assignee"] == "alice"

    def test_remote_moderation_enforces_auth(self, world):
        network, names, make_node, make_client = world
        sessions = make_session_manager({"alice": "pw"})
        make_node("secure", sessions=sessions)
        names.bind("secure-tickets", "secure", "tickets")
        client = make_client("helpdesk")

        with pytest.raises(MethodAborted):
            client.call_name("secure-tickets", "open", "sneaky",
                             caller="nobody")
        token = sessions.login("alice", "pw")
        assert client.call_name(
            "secure-tickets", "open", "legit", caller=token
        )

    def test_concurrent_remote_clients(self, world):
        network, names, make_node, make_client = world
        node, cluster = make_node("server")
        names.bind("tickets", "server", "tickets")
        clients = [make_client(f"client-{i}") for i in range(3)]
        for index, client in enumerate(clients):
            for item in range(5):
                client.call_name("tickets", "open",
                                 f"c{index}-i{item}")
        assert cluster.component.pending == 15


class TestLoadBalancedTicketing:
    def test_round_robin_across_replicas(self, world):
        network, names, make_node, make_client = world
        clusters = []
        for index in range(2):
            _node, cluster = make_node(f"replica-{index}")
            names.bind(f"tickets-{index}", f"replica-{index}", "tickets")
            clusters.append(cluster)
        client = make_client("lb-client")
        balancer = LoadBalancer(
            client, ["tickets-0", "tickets-1"], policy=RoundRobin(),
        )
        for index in range(8):
            balancer.call("open", f"issue-{index}")
        assert clusters[0].component.pending == 4
        assert clusters[1].component.pending == 4


class TestFailover:
    def test_name_rebinds_and_clients_recover(self, world):
        network, names, _make_node, make_client = world
        primary = Node("primary", network, workers=2).start()
        backup = Node("backup", network, workers=2).start()
        detector = HeartbeatDetector(network, "monitor",
                                     suspect_after=0.12, dead_after=0.3)
        emitters = [HeartbeatEmitter(network, node.node_id, "monitor",
                                     interval=0.03).start()
                    for node in (primary, backup)]
        # Stateless plan: the ticket facade's blocking ``assign`` cannot
        # be journaled, so the backup serves a fresh cluster.
        clusters = []

        def fresh_facade(_state=None):
            clusters.append(build_ticketing_cluster(capacity=32))
            return RemoteTicketFacade(clusters[-1].proxy)

        plan = RecoveryPlan(MemoryStore(), lambda facade: {},
                            fresh_facade, mutating=[])
        supervisor = Supervisor(names, detector)
        spec = supervisor.supervise("tickets", "tickets", plan,
                                    [primary, backup],
                                    bootstrap=fresh_facade)
        try:
            assert detector.wait_for_state("primary", "alive", timeout=2.0)
            assert detector.wait_for_state("backup", "alive", timeout=2.0)
            supervisor.place(spec, primary)
            client = make_client("ops")
            client.call_name("tickets", "open", "before-crash")

            primary.crash()
            with pytest.raises(RequestTimeout):
                client.call_name("tickets", "open", "lost", timeout=0.2)
            assert detector.wait_for_state("primary", "dead", timeout=3.0)
            assert supervisor.check_once()

            client.call_name("tickets", "open", "after-failover")
            backup_cluster = clusters[-1]
            assert backup_cluster.component.pending == 1
        finally:
            for emitter in emitters:
                emitter.stop()
            detector.close()
            primary.stop()
            backup.stop()

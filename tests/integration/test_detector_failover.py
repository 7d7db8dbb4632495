"""Integration: heartbeat-driven failover (no network introspection).

The supervisor acts only on the detector's verdicts. The ticket facade
rides a stateless plan: its blocking ``assign`` cannot be journaled, so
a failover serves a fresh cluster on the backup.
"""

import time

import pytest

from repro.apps import RemoteTicketFacade, build_ticketing_cluster
from repro.dist import (
    Client,
    HeartbeatDetector,
    HeartbeatEmitter,
    MemoryStore,
    NameService,
    Network,
    Node,
    RecoveryPlan,
    Supervisor,
)


@pytest.fixture
def world():
    network = Network()
    names = NameService()
    detector = HeartbeatDetector(
        network, "monitor", suspect_after=0.12, dead_after=0.3,
    )
    resources = {"nodes": [], "emitters": [], "clients": []}
    #: every cluster the plan built, newest last
    clusters = []

    def fresh_facade(_state=None):
        clusters.append(build_ticketing_cluster(capacity=256))
        return RemoteTicketFacade(clusters[-1].proxy)

    supervisor = Supervisor(names, detector)
    plan = RecoveryPlan(MemoryStore(), lambda facade: {}, fresh_facade,
                        mutating=[])

    def supervise(candidates):
        return supervisor.supervise("tickets", "tickets", plan, candidates,
                                    bootstrap=fresh_facade)

    def serve(node_id):
        node = Node(node_id, network, workers=2).start()
        emitter = HeartbeatEmitter(
            network, node_id, "monitor", interval=0.03,
        ).start()
        resources["nodes"].append(node)
        resources["emitters"].append(emitter)
        return node, emitter

    def client(client_id):
        c = Client(client_id, network, names, default_timeout=0.5)
        resources["clients"].append(c)
        return c

    yield network, names, detector, supervisor, supervise, serve, \
        client, clusters
    supervisor.stop()
    for emitter in resources["emitters"]:
        emitter.stop()
    for c in resources["clients"]:
        c.close()
    for node in resources["nodes"]:
        node.stop()
    detector.close()
    network.close()


class TestDetectorDrivenFailover:
    def test_full_loop_crash_detect_rebind_recover(self, world):
        (network, names, detector, supervisor, supervise, serve,
         make_client, clusters) = world
        primary, _pe = serve("primary")
        backup, _be = serve("backup")
        spec = supervise([primary, backup])

        assert detector.wait_for_state("primary", "alive", timeout=2.0)
        assert detector.wait_for_state("backup", "alive", timeout=2.0)
        supervisor.place(spec, primary)

        client = make_client("ops")
        assert client.call_name("tickets", "open", "before")

        # crash: the node drops off the network, so it stops serving
        # AND its heartbeats stop arriving
        primary.crash()
        assert detector.wait_for_state("primary", "dead", timeout=3.0)

        # the supervisor consults only observed heartbeats
        reports = supervisor.check_once()
        assert [report.to_node for report in reports] == ["backup"]
        assert names.resolve("tickets").node_id == "backup"

        assert client.call_name("tickets", "open", "after")
        backup_cluster = clusters[-1]
        assert backup_cluster.component.pending == 1

    def test_false_suspicion_recovers_without_failover(self, world):
        (network, names, detector, supervisor, supervise, serve,
         make_client, clusters) = world
        primary, _pe = serve("primary")
        spec = supervise([primary])
        assert detector.wait_for_state("primary", "alive", timeout=2.0)
        supervisor.place(spec, primary)

        # a transient partition delays heartbeats past the suspicion
        # threshold, then heals: the detector must walk back
        network.partition({"primary"}, {"monitor"})
        assert detector.wait_for_state("primary", "suspect", timeout=3.0)
        assert supervisor.check_once() == []  # suspect is not dead
        network.heal()
        assert detector.wait_for_state("primary", "alive", timeout=3.0)
        client = make_client("ops")
        assert client.call_name("tickets", "open", "still-primary")
        assert names.resolve("tickets").node_id == "primary"

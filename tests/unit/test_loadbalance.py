"""Unit tests for the round-robin rotation and the balancer."""

import threading
from collections import Counter

import pytest

from repro.core.errors import NetworkError
from repro.dist import (
    Client,
    LoadBalancer,
    NameService,
    Network,
    Node,
    RemoteError,
    RoundRobin,
)


class Backend:
    def __init__(self, tag):
        self.tag = tag
        self.calls = 0

    def work(self):
        self.calls += 1
        return self.tag

    def explode(self):
        raise RuntimeError(f"app error on {self.tag}")


@pytest.fixture
def rig():
    network = Network()
    names = NameService()
    nodes, backends = [], []
    for index in range(3):
        node = Node(f"node-{index}", network).start()
        backend = Backend(f"backend-{index}")
        node.export("svc", backend)
        names.bind(f"svc-{index}", f"node-{index}", "svc")
        nodes.append(node)
        backends.append(backend)
    client = Client("client", network, names, default_timeout=2.0)
    yield network, names, nodes, backends, client
    client.close()
    for node in nodes:
        node.stop()
    network.close()


BACKEND_NAMES = ["svc-0", "svc-1", "svc-2"]


class TestPolicies:
    def test_round_robin_cycles(self):
        policy = RoundRobin()
        picks = [policy.choose(BACKEND_NAMES) for _ in range(6)]
        assert picks == BACKEND_NAMES * 2

    def test_round_robin_stable_under_filtered_candidates(self):
        # During failover the balancer passes a *filtered* candidate
        # list; rotation must stay anchored to backend identity, not to
        # positions in whatever list was passed this call.
        policy = RoundRobin()
        assert policy.choose(BACKEND_NAMES) == "svc-0"
        # svc-1 unavailable this call: rotation resumes at svc-1's slot
        # and takes the next live backend, without skewing the cycle.
        assert policy.choose(["svc-0", "svc-2"]) == "svc-2"
        assert policy.choose(BACKEND_NAMES) == "svc-0"
        assert policy.choose(BACKEND_NAMES) == "svc-1"

    def test_round_robin_empty_rejected(self):
        with pytest.raises(NetworkError):
            RoundRobin().choose([])

    def test_round_robin_new_backend_joins_rotation(self):
        policy = RoundRobin()
        assert policy.choose(["svc-0", "svc-1"]) == "svc-0"
        assert policy.choose(BACKEND_NAMES) == "svc-1"
        picks = [policy.choose(BACKEND_NAMES) for _ in range(4)]
        assert picks == ["svc-2", "svc-0", "svc-1", "svc-2"]

    def test_round_robin_rotations_are_independent(self):
        first, second = RoundRobin(), RoundRobin()
        assert first.choose(BACKEND_NAMES) == "svc-0"
        assert first.choose(BACKEND_NAMES) == "svc-1"
        assert second.choose(BACKEND_NAMES) == "svc-0"

    def test_round_robin_even_under_concurrent_callers(self):
        policy = RoundRobin()
        picks = Counter()
        lock = threading.Lock()

        def caller():
            for _ in range(300):
                backend = policy.choose(BACKEND_NAMES)
                with lock:
                    picks[backend] += 1

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert picks == {"svc-0": 400, "svc-1": 400, "svc-2": 400}


class TestLoadBalancer:
    def test_round_robin_distributes_evenly(self, rig):
        network, names, nodes, backends, client = rig
        balancer = LoadBalancer(client, BACKEND_NAMES)
        for _ in range(9):
            balancer.call("work")
        assert balancer.distribution() == {
            "svc-0": 3, "svc-1": 3, "svc-2": 3,
        }
        assert [backend.calls for backend in backends] == [3, 3, 3]

    def test_attribute_dispatch(self, rig):
        network, names, nodes, backends, client = rig
        balancer = LoadBalancer(client, BACKEND_NAMES)
        assert balancer.work() in {"backend-0", "backend-1", "backend-2"}

    def test_failover_to_other_backend(self, rig):
        network, names, nodes, backends, client = rig
        network.take_down("node-0")
        balancer = LoadBalancer(
            client, BACKEND_NAMES, retries=2,
        )
        client.default_timeout = 0.3
        results = [balancer.call("work") for _ in range(3)]
        assert all(r in {"backend-1", "backend-2"} for r in results)
        assert balancer.failovers >= 1

    def test_round_robin_even_with_one_backend_down(self, rig):
        # The rotation bug: a cursor taken modulo the *filtered*
        # candidate list skews traffic whenever one backend is down.
        # Stable-identity rotation keeps the survivors evenly loaded.
        network, names, nodes, backends, client = rig
        network.take_down("node-0")
        balancer = LoadBalancer(
            client, BACKEND_NAMES, retries=2,
        )
        client.default_timeout = 0.25
        for _ in range(12):
            balancer.call("work")
        distribution = balancer.distribution()
        assert distribution["svc-0"] == 0
        assert distribution["svc-1"] == 6
        assert distribution["svc-2"] == 6

    def test_application_errors_do_not_fail_over(self, rig):
        network, names, nodes, backends, client = rig
        balancer = LoadBalancer(client, BACKEND_NAMES)
        with pytest.raises(RemoteError):
            balancer.call("explode")
        # only the first backend was attempted
        assert sum(backend.calls for backend in backends) == 0

    def test_all_backends_down_raises_delivery_error(self, rig):
        network, names, nodes, backends, client = rig
        for index in range(3):
            network.take_down(f"node-{index}")
        balancer = LoadBalancer(client, BACKEND_NAMES, retries=2)
        client.default_timeout = 0.2
        with pytest.raises(NetworkError):
            balancer.call("work")
        assert balancer.failovers == 3
        assert balancer.distribution() == {
            "svc-0": 0, "svc-1": 0, "svc-2": 0,
        }

    def test_no_retries_means_no_failover(self, rig):
        network, names, nodes, backends, client = rig
        network.take_down("node-0")
        balancer = LoadBalancer(client, BACKEND_NAMES, retries=0)
        client.default_timeout = 0.2
        with pytest.raises(NetworkError):
            balancer.call("work")  # svc-0 is first and down
        assert sum(backend.calls for backend in backends) == 0
        assert balancer.call("work") == "backend-1"

    def test_empty_backends_rejected(self, rig):
        network, names, nodes, backends, client = rig
        with pytest.raises(ValueError):
            LoadBalancer(client, [])

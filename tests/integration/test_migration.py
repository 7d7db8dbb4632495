"""Integration tests for live service migration."""

import pytest

from repro.dist import Client, NameService, Network, Node
from repro.dist.migration import MigrationError, Migrator


class CounterService:
    """A stateful servant with a wire-safe snapshot."""

    def __init__(self, value=0, host_tag="unset"):
        self.value = value
        self.host_tag = host_tag

    def bump(self, by=1):
        self.value += by
        return self.value

    def snapshot(self):
        return {"value": self.value}

    def where(self):
        return self.host_tag


@pytest.fixture
def world():
    network = Network()
    names = NameService()
    source = Node("node-a", network).start()
    target = Node("node-b", network).start()
    servant = CounterService(host_tag="node-a")
    source.export("counter", servant)
    names.bind("counter", "node-a", "counter")
    client = Client("client", network, names, default_timeout=1.0)
    migrator = Migrator(names)
    yield network, names, source, target, client, migrator
    client.close()
    source.stop()
    target.stop()
    network.close()


def do_migrate(migrator, source, target, **kwargs):
    return migrator.migrate(
        "counter", source, target,
        capture=lambda servant: servant.snapshot(),
        rebuild=lambda state: CounterService(
            value=state["value"], host_tag=target.node_id,
        ),
        **kwargs,
    )


class TestMigration:
    def test_state_survives_and_name_follows(self, world):
        network, names, source, target, client, migrator = world
        for _ in range(3):
            client.call_name("counter", "bump")
        report = do_migrate(migrator, source, target)
        assert report.source == "node-a"
        assert report.target == "node-b"
        assert names.resolve("counter").node_id == "node-b"
        # clients keep working against the same name; state carried over
        assert client.call_name("counter", "bump") == 4
        assert client.call_name("counter", "where") == "node-b"

    def test_downtime_recorded_and_small(self, world):
        network, names, source, target, client, migrator = world
        report = do_migrate(migrator, source, target)
        assert 0 <= report.downtime < 1.0
        assert migrator.history == [report]

    def test_source_no_longer_serves(self, world):
        network, names, source, target, client, migrator = world
        do_migrate(migrator, source, target)
        assert "counter" not in source.services()
        assert "counter" in target.services()

    def test_quiesce_and_resume_bracket_the_move(self, world):
        network, names, source, target, client, migrator = world
        events = []
        do_migrate(
            migrator, source, target,
            quiesce=lambda: events.append("quiesce"),
            resume=lambda: events.append("resume"),
        )
        assert events == ["quiesce", "resume"]

    def test_wrong_source_rejected(self, world):
        network, names, source, target, client, migrator = world
        with pytest.raises(MigrationError):
            do_migrate(migrator, target, source)  # name bound to node-a

    def test_dead_target_rejected_before_withdraw(self, world):
        network, names, source, target, client, migrator = world
        network.take_down("node-b")
        with pytest.raises(MigrationError):
            do_migrate(migrator, source, target)
        # service untouched on the source
        assert "counter" in source.services()
        assert client.call_name("counter", "bump") == 1

    def test_unwire_safe_state_rolls_back(self, world):
        network, names, source, target, client, migrator = world
        with pytest.raises(MigrationError, match="wire-safe"):
            migrator.migrate(
                "counter", source, target,
                capture=lambda servant: {"obj": object()},
                rebuild=lambda state: CounterService(),
            )
        assert "counter" in source.services()
        assert names.resolve("counter").node_id == "node-a"

    def test_failed_rebuild_rolls_back(self, world):
        network, names, source, target, client, migrator = world

        def broken_rebuild(state):
            raise RuntimeError("target out of memory")

        with pytest.raises(MigrationError, match="rebuild failed"):
            migrator.migrate(
                "counter", source, target,
                capture=lambda servant: servant.snapshot(),
                rebuild=broken_rebuild,
            )
        assert names.resolve("counter").node_id == "node-a"
        assert client.call_name("counter", "bump") == 1

    def test_failed_rebuild_still_resumes(self, world):
        # Regression: resume used to run only on the success path, so a
        # failed capture/rebuild left the service quiesced forever.
        network, names, source, target, client, migrator = world
        events = []

        def broken_rebuild(state):
            raise RuntimeError("target out of memory")

        with pytest.raises(MigrationError):
            migrator.migrate(
                "counter", source, target,
                capture=lambda servant: servant.snapshot(),
                rebuild=broken_rebuild,
                quiesce=lambda: events.append("quiesce"),
                resume=lambda: events.append("resume"),
            )
        assert events == ["quiesce", "resume"]
        # and the source servant is back to *serving*, not just present
        assert client.call_name("counter", "bump") == 1

    def test_unwire_safe_capture_still_resumes(self, world):
        network, names, source, target, client, migrator = world
        events = []
        with pytest.raises(MigrationError, match="wire-safe"):
            migrator.migrate(
                "counter", source, target,
                capture=lambda servant: {"obj": object()},
                rebuild=lambda state: CounterService(),
                quiesce=lambda: events.append("quiesce"),
                resume=lambda: events.append("resume"),
            )
        assert events == ["quiesce", "resume"]
        assert client.call_name("counter", "bump") == 1

    def test_missing_service_still_resumes(self, world):
        network, names, source, target, client, migrator = world
        events = []
        source.withdraw("counter")
        with pytest.raises(MigrationError, match="not on"):
            do_migrate(
                migrator, source, target,
                quiesce=lambda: events.append("quiesce"),
                resume=lambda: events.append("resume"),
            )
        assert events == ["quiesce", "resume"]

    def test_keyed_retry_after_migrate_replays(self, world):
        # The dedup handoff rides every move, not only a shard
        # rebalance: a retry of a call the source already applied
        # replays its reply at the new home instead of re-executing.
        network, names, source, target, client, migrator = world
        assert client.call_name("counter", "bump",
                                idempotency_key="c:1") == 1
        do_migrate(migrator, source, target)
        assert client.call_name("counter", "bump",
                                idempotency_key="c:1") == 1
        assert target.dedup_hits == 1
        assert client.call_name("counter", "bump") == 2

    def test_drain_barrier_captures_inflight_effects(self, world):
        # A call already executing when the migrator withdraws must
        # land in the captured state: settle() blocks the capture until
        # the in-flight count drains.
        import threading
        import time

        network, names, source, target, client, migrator = world
        release = threading.Event()
        servant = source._servants["counter"]
        original_bump = servant.bump

        def slow_bump(by=1):
            release.wait(2.0)
            return original_bump(by)

        servant.bump = slow_bump
        caller_done = []

        def call():
            caller_done.append(client.call_name("counter", "bump",
                                                timeout=5.0))

        thread = threading.Thread(target=call)
        thread.start()
        time.sleep(0.15)  # let the call reach the servant
        # release the servant only after the migrator is already inside
        # its drain barrier: settle() must wait the call out
        threading.Timer(0.3, release.set).start()
        do_migrate(migrator, source, target)
        thread.join(5.0)
        assert caller_done == [1]
        # the slow bump's effect travelled with the captured state
        assert client.call_name("counter", "where") == "node-b"
        assert client.call_name("counter", "bump") == 2

    def test_drain_timeout_rolls_back(self, world):
        import threading
        import time

        network, names, source, target, client, migrator = world
        release = threading.Event()
        servant = source._servants["counter"]

        def stuck_bump(by=1):
            release.wait(10.0)
            return 0

        servant.bump = stuck_bump
        thread = threading.Thread(
            target=lambda: client.call_name("counter", "bump", timeout=12.0)
        )
        thread.start()
        time.sleep(0.15)
        try:
            with pytest.raises(MigrationError, match="drain"):
                do_migrate(migrator, source, target, drain_timeout=0.2)
            assert names.resolve("counter").node_id == "node-a"
            assert "counter" in source.services()
        finally:
            release.set()
            thread.join(5.0)

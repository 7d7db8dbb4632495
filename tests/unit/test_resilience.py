"""Unit tests for the resilience primitives (`repro.dist.resilience`)."""

import random
import sys
import threading
import time

import pytest

from repro.core.errors import CircuitOpen
from repro.dist import Client, Network, Node, resilience
from repro.dist.message import Message, request
from repro.dist.resilience import (
    Deadline,
    DestinationBreakers,
    IdempotencyCache,
    ShedInbox,
)


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_after_and_remaining(self):
        now = [100.0]
        deadline = Deadline.after(5.0, clock=lambda: now[0])
        assert deadline.remaining(clock=lambda: now[0]) == pytest.approx(5.0)
        now[0] = 104.0
        assert deadline.remaining(clock=lambda: now[0]) == pytest.approx(1.0)

    def test_expired(self):
        assert Deadline.after(-0.001).expired
        assert not Deadline.after(60.0).expired

    def test_coerce_accepts_budget_float(self):
        deadline = Deadline.coerce(2.0)
        assert isinstance(deadline, Deadline)
        assert 0 < deadline.remaining() <= 2.0

    def test_coerce_passthrough(self):
        deadline = Deadline.after(1.0)
        assert Deadline.coerce(deadline) is deadline
        assert Deadline.coerce(None) is None

    def test_wire_roundtrip_shrinks_budget(self):
        deadline = Deadline.after(5.0)
        budget = deadline.to_wire()
        assert 0 < budget <= 5.0
        rebuilt = Deadline.from_wire(budget)
        assert rebuilt.remaining() <= budget
        assert Deadline.from_wire(None) is None

    def test_to_wire_floors_at_zero(self):
        assert Deadline.after(-1.0).to_wire() == 0.0

    def test_cap(self):
        deadline = Deadline.after(1.0)
        assert deadline.cap(10.0) <= 1.0
        assert deadline.cap(None) <= 1.0
        assert deadline.cap(0.1) == pytest.approx(0.1, abs=0.01)


# ----------------------------------------------------------------------
# IdempotencyCache
# ----------------------------------------------------------------------
class TestIdempotencyCache:
    def test_new_then_done_replays(self):
        cache = IdempotencyCache(8)
        state, entry = cache.begin("k1")
        assert state == "new"
        cache.finish("k1", "reply", {"result": 42})
        state, entry = cache.begin("k1")
        assert state == "done"
        assert entry.kind == "reply"
        assert entry.payload == {"result": 42}
        assert cache.hits == 1

    def test_pending_while_in_flight(self):
        cache = IdempotencyCache(8)
        cache.begin("k1")
        state, entry = cache.begin("k1")
        assert state == "pending"
        assert not entry.done

    def test_pending_wait_wakes_on_finish(self):
        cache = IdempotencyCache(8)
        cache.begin("k1")
        _, entry = cache.begin("k1")
        woke = []

        def waiter():
            woke.append(entry.wait(2.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        cache.finish("k1", "reply", {"result": 1})
        thread.join(timeout=2.0)
        assert woke == [True]
        assert entry.payload == {"result": 1}

    def test_abandon_allows_reexecution(self):
        cache = IdempotencyCache(8)
        _, entry = cache.begin("k1")
        cache.abandon("k1")
        assert entry.done and entry.payload is None
        state, _ = cache.begin("k1")
        assert state == "new"

    def test_lru_evicts_completed_only(self):
        cache = IdempotencyCache(2)
        cache.begin("done1")
        cache.finish("done1", "reply", {})
        cache.begin("pending1")  # in flight: never evicted
        cache.begin("done2")
        cache.finish("done2", "reply", {})
        # capacity 2, three entries: the completed LRU entry goes
        assert cache.evictions == 1
        state, _ = cache.begin("pending1")
        assert state == "pending"

    def test_seed_overflow_evicts_oldest_completed_in_order(self):
        cache = IdempotencyCache(3)
        cache.begin("inflight")  # the LRU head, never evicted
        for key in ("old1", "old2"):
            cache.begin(key)
            cache.finish(key, "reply", {"key": key})
        # five more completed entries overflow capacity by four
        seeded = cache.seed({
            key: {"kind": "reply", "payload": {"key": key}}
            for key in ("new1", "new2", "new3", "new4", "new5")
        })
        assert seeded == 5
        assert cache.evictions == 5
        assert len(cache) == 3
        # the in-flight head survived; the oldest completed entries went,
        # in order, and the newest completed ones remain in LRU order
        assert list(cache._entries) == ["inflight", "new4", "new5"]
        state, _ = cache.begin("inflight")
        assert state == "pending"

    def test_inflight_entries_survive_overflow(self):
        cache = IdempotencyCache(2)
        for key in ("p1", "p2", "p3", "p4"):
            state, _ = cache.begin(key)
            assert state == "new"
        # nothing was completed, so nothing could be evicted
        assert cache.evictions == 0
        assert len(cache) == 4

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            IdempotencyCache(0)

    def test_stats(self):
        cache = IdempotencyCache(4)
        cache.begin("a")
        cache.finish("a", "reply", {})
        cache.begin("a")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1


class CountingThreading:
    """``threading`` as :mod:`repro.dist.resilience` sees it, counting
    the events it builds."""

    def __init__(self):
        self.events = 0

    def __getattr__(self, name):
        return getattr(threading, name)

    def Event(self):  # noqa: N802 - stands in for threading.Event
        self.events += 1
        return threading.Event()


class Ledger:
    def __init__(self):
        self.entries = []

    def add(self, item):
        self.entries.append(item)
        return len(self.entries)


@pytest.fixture
def counted(monkeypatch):
    counting = CountingThreading()
    monkeypatch.setattr(resilience, "threading", counting)
    return counting


@pytest.fixture
def served():
    network = Network()
    node = Node("server", network).start()
    node.export("ledger", Ledger())
    client = Client("client", network, default_timeout=5.0)
    yield node, client
    client.close()
    node.stop()
    network.close()


class TestLazyDedupEvent:
    """A dedup entry builds its event only for a duplicate that waits,
    and a waiter never misses the finish it raced."""

    def test_keyed_calls_that_meet_no_duplicate_build_no_event(
            self, counted, served):
        node, client = served
        for index in range(3):
            assert client.call_node("server", "ledger", "add", index,
                                    idempotency_key=f"k{index}") == index + 1
        # a retry of a finished call replays without waiting
        assert client.call_node("server", "ledger", "add", 0,
                                idempotency_key="k0") == 1
        assert node.dedup_hits == 1
        assert counted.events == 0

    def test_a_waiting_duplicate_builds_one_event(self, counted):
        cache = IdempotencyCache(8)
        cache.begin("k")
        _, entry = cache.begin("k")
        assert entry.wait(0.01) is False
        assert entry.wait(0.01) is False
        assert counted.events == 1
        cache.finish("k", "reply", {"result": 1})
        assert entry.wait(0.01) is True
        assert counted.events == 1

    @pytest.mark.parametrize("outcome", ["finish", "abandon"])
    def test_a_wait_never_loses_a_racing_outcome(self, outcome):
        rounds = 2000
        cache = IdempotencyCache(rounds)
        keys = [f"k{index}" for index in range(rounds)]
        # Both sides spin a seeded while after meeting, so the outcome
        # lands at every point of the wait's check-then-park.
        rng = random.Random(rounds)
        spins = [(rng.randrange(3000), rng.randrange(3000)) for _ in keys]
        both = threading.Barrier(2)
        late = []

        def complete():
            try:
                for key, (_, spin) in zip(keys, spins):
                    both.wait()
                    for _ in range(spin):
                        pass
                    if outcome == "finish":
                        cache.finish(key, "reply", {"result": key})
                    else:
                        cache.abandon(key)
            except threading.BrokenBarrierError:
                pass

        completer = threading.Thread(target=complete, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            completer.start()
            for key, (spin, _) in zip(keys, spins):
                cache.begin(key)
                _, entry = cache.begin(key)  # a duplicate's view
                both.wait()
                for _ in range(spin):
                    pass
                started = time.monotonic()
                woke = entry.wait(1.0)
                if not woke or time.monotonic() - started > 0.5:
                    late.append(key)
                    break
                assert entry.done
                if outcome == "finish":
                    assert (entry.kind, entry.payload) == \
                        ("reply", {"result": key})
                else:
                    assert entry.payload is None
        finally:
            sys.setswitchinterval(interval)
            both.abort()
            completer.join(timeout=5.0)
        assert not completer.is_alive()
        assert late == []


class Tagged(Exception):
    """A failure that carries the servant's live list on the wire."""

    def __init__(self, notes):
        super().__init__("tagged")
        self.notes = notes

    def wire_payload(self):
        return {"notes": self.notes}


class Noter:
    def __init__(self):
        self.notes = []

    def fail(self):
        self.notes.append(len(self.notes) + 1)
        raise Tagged(self.notes)


class TestDedupOutcome:
    def test_a_pinned_failure_is_cached_as_sent(self, served):
        node, client = served
        noter = Noter()
        node.export("noter", noter)
        with pytest.raises(Exception, match="Tagged"):
            client.call_node("server", "noter", "fail",
                             idempotency_key="once")
        noter.notes.append(99)  # the servant moves on after replying
        state, entry = node.dedup.begin("once")
        assert state == "done"
        assert (entry.kind, entry.payload["notes"]) == ("error", [1])


# ----------------------------------------------------------------------
# DestinationBreakers
# ----------------------------------------------------------------------
class TestDestinationBreakers:
    def make(self, **kwargs):
        self.now = [0.0]
        defaults = dict(failure_threshold=2, reset_timeout=10.0,
                        clock=lambda: self.now[0])
        defaults.update(kwargs)
        return DestinationBreakers(**defaults)

    def fail_once(self, breakers, node="n1"):
        token = breakers.admit(node)
        breakers.record(token, TimeoutError("boom"))

    def test_opens_after_consecutive_failures(self):
        breakers = self.make()
        self.fail_once(breakers)
        self.fail_once(breakers)
        with pytest.raises(CircuitOpen) as excinfo:
            breakers.admit("n1")
        assert excinfo.value.node_id == "n1"

    def test_success_resets_failure_count(self):
        breakers = self.make()
        self.fail_once(breakers)
        token = breakers.admit("n1")
        breakers.record(token, None)  # success
        self.fail_once(breakers)
        breakers.admit("n1")  # still closed: never 2 consecutive

    def test_destinations_are_independent(self):
        breakers = self.make()
        self.fail_once(breakers, "n1")
        self.fail_once(breakers, "n1")
        with pytest.raises(CircuitOpen):
            breakers.admit("n1")
        breakers.admit("n2")  # other node unaffected

    def test_half_open_probe_recovers(self):
        breakers = self.make()
        self.fail_once(breakers)
        self.fail_once(breakers)
        self.now[0] = 11.0  # past reset_timeout: half-open
        token = breakers.admit("n1")
        breakers.record(token, None)  # probe succeeds
        assert breakers.state("n1").value == "closed"

    def test_half_open_failure_reopens(self):
        breakers = self.make()
        self.fail_once(breakers)
        self.fail_once(breakers)
        self.now[0] = 11.0
        self.fail_once(breakers)  # probe fails
        with pytest.raises(CircuitOpen):
            breakers.admit("n1")

    def test_states_snapshot(self):
        breakers = self.make()
        self.fail_once(breakers, "n1")
        self.fail_once(breakers, "n1")
        breakers.admit("n2")
        states = breakers.states()
        assert states["n1"] == "open"
        assert states["n2"] == "closed"


# ----------------------------------------------------------------------
# ShedInbox
# ----------------------------------------------------------------------
def _request(n):
    return request("client", "server", "svc", "m", args=(n,))


class TestShedInbox:
    def test_reject_policy_sheds_arrival(self):
        shed = []
        inbox = ShedInbox(2, policy="reject",
                          on_shed=lambda m, a: shed.append((m, a)))
        first, second, third = _request(1), _request(2), _request(3)
        inbox.put(first)
        inbox.put(second)
        inbox.put(third)
        assert len(inbox) == 2
        assert inbox.shed == 1
        assert shed == [(third, "reject")]

    def test_drop_oldest_evicts_stalest_request(self):
        shed = []
        inbox = ShedInbox(2, policy="drop_oldest",
                          on_shed=lambda m, a: shed.append((m, a)))
        first, second, third = _request(1), _request(2), _request(3)
        inbox.put(first)
        inbox.put(second)
        inbox.put(third)
        assert len(inbox) == 2
        assert shed == [(first, "drop_oldest")]
        assert inbox.get(timeout=0.1) is second
        assert inbox.get(timeout=0.1) is third

    def test_replies_never_shed(self):
        inbox = ShedInbox(1, policy="reject")
        inbox.put(_request(1))
        req = _request(0)
        for n in range(5):
            inbox.put(Message(source="s", dest="c", kind="reply",
                              payload={"result": n}, reply_to=req.msg_id))
        assert inbox.shed == 0
        assert len(inbox) == 6

    def test_depth_counts_only_requests(self):
        inbox = ShedInbox(2, policy="reject")
        req = _request(0)
        inbox.put(Message(source="s", dest="c", kind="reply",
                          payload={}, reply_to=req.msg_id))
        inbox.put(_request(1))
        inbox.put(_request(2))
        # the reply does not consume request budget
        assert inbox.shed == 0

    def test_closed_inbox_still_raises(self):
        inbox = ShedInbox(2)
        inbox.close()
        with pytest.raises(ShedInbox.Closed):
            inbox.put(_request(1))

    def test_validation(self):
        with pytest.raises(ValueError):
            ShedInbox(0)
        with pytest.raises(ValueError):
            ShedInbox(1, policy="bogus")

    def test_put_never_blocks_at_limit(self):
        inbox = ShedInbox(1, policy="reject")
        inbox.put(_request(1))
        started = time.monotonic()
        inbox.put(_request(2))  # would deadlock a bounded WaitQueue
        assert time.monotonic() - started < 0.5

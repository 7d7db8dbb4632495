"""Pins what one Figure-3 activation pays for beyond its aspects.

With nobody subscribed, an activation of the paper's ticketing cluster
builds no event, writes its moderation counters in at most two stripe
writes (one per phase), never reads the aspect bank's revision (the plan
version is a stored int) and never takes the moderator-wide registry
lock (the locked round confirms its queue by the plan key). With a
1-in-16 plane on, an unsampled activation builds no event and hands its
tally of arrows to each fold once. Each cost is counted by patching one
instance, not by frame totals.
"""

import threading

from repro.apps import build_ticketing_cluster, make_session_manager
from repro.aspects.audit import AuditAspect, AuditLog
from repro.concurrency.buffer import Ticket
import repro.core.events as events_module
from repro.core import AspectModerator, ComponentProxy
from repro.core.bank import AspectBank
from repro.obs import ObservabilityPlane


class CountingBlock:
    """Stands in for a ``CounterBlock``; counts every write."""

    def __init__(self, block):
        self.block = block
        self.writes = 0

    def inc(self, *args, **kwargs):
        self.writes += 1
        self.block.inc(*args, **kwargs)

    def bump(self, *args, **kwargs):
        self.writes += 1
        self.block.bump(*args, **kwargs)

    def add(self, *args, **kwargs):
        self.writes += 1
        self.block.add(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.block, name)


class CountingLock:
    """Stands in for the moderator's registry ``RLock``."""

    def __init__(self):
        self.lock = threading.RLock()
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self.lock.acquire(*args, **kwargs)

    def release(self):
        self.lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()


class Costs:
    """Patches one moderator's instances and counts what they pay."""

    def __init__(self, moderator):
        self.emits = 0
        self.revision_reads = 0
        costs = self

        def emit(*args, **kwargs):
            costs.emits += 1

        class CountingBank(type(moderator.bank)):
            @property
            def revision(self):
                costs.revision_reads += 1
                return self._revision

        moderator.events.emit = emit
        moderator.bank.__class__ = CountingBank
        self.block = moderator.stats._block = CountingBlock(
            moderator.stats._block
        )
        self.lock = moderator._lock = CountingLock()

    def reset(self):
        self.emits = self.revision_reads = 0
        self.block.writes = self.lock.acquisitions = 0


def _fig3_cluster():
    sessions = make_session_manager({"bench": "secret"})
    token = sessions.login("bench", "secret")
    cluster = build_ticketing_cluster(capacity=16, sessions=sessions,
                                      audit_log=AuditLog())
    return cluster, token


def test_fig3_activation_pays_no_bookkeeping_beyond_two_flushes():
    cluster, token = _fig3_cluster()
    call, moderator = cluster.proxy.call, cluster.moderator
    # compile both plans and create both wait queues first
    call("open", Ticket(summary="warm"), caller=token)
    call("assign", "agent", caller=token)
    costs = Costs(moderator)
    for method, args in (("open", (Ticket(summary="one"),)),
                         ("assign", ("agent",))):
        costs.reset()
        call(method, *args, caller=token)
        assert costs.emits == 0, method
        assert costs.block.writes <= 2, method
        assert costs.revision_reads == 0, method
        assert costs.lock.acquisitions == 0, method
    stats = moderator.stats.as_dict()
    assert stats["preactivations"] == stats["resumes"] == 4
    assert stats["postactivations"] == stats["notifications"] == 4
    assert stats["fastpaths"] == 0


class Sink:
    def push(self, value):
        return value


def test_fast_path_activation_flushes_twice_and_counts_its_fastpath():
    moderator = AspectModerator()
    moderator.register_aspect("push", "audit", AuditAspect(AuditLog()))
    proxy = ComponentProxy(Sink(), moderator)
    assert moderator.plan_for("push").never_blocks
    proxy.push(0)
    costs = Costs(moderator)
    assert proxy.push(1) == 1
    assert costs.emits == 0
    assert costs.block.writes == 2
    assert costs.revision_reads == 0
    assert costs.lock.acquisitions == 0
    stats = moderator.stats.as_dict()
    assert stats["preactivations"] == stats["resumes"] == 2
    assert stats["fastpaths"] == stats["postactivations"] == 2
    # the wake is elided with nothing parked: no notification
    assert stats["notifications"] == 0


def test_shared_bank_mutation_moves_every_moderator_version():
    bank = AspectBank()
    first, second = AspectModerator(bank=bank), AspectModerator(bank=bank)
    versions = (first.registration_version, second.registration_version)
    bank.register("push", "audit", AuditAspect(AuditLog()))
    assert first.registration_version == versions[0] + 1
    assert second.registration_version == versions[1] + 1
    plan = first.plan_for("push")
    bank.unregister("push", "audit")
    assert first.plan_for("push") is not plan
    assert first.plan_for("push").cells == ()


def test_health_transitions_move_the_version():
    moderator = AspectModerator()
    moderator.register_aspect("push", "audit", AuditAspect(AuditLog()),
                              fault_policy="fail_open",
                              fault_threshold=1)
    before = moderator.registration_version
    moderator.health.record_fault("push", "audit", "precondition",
                                  RuntimeError("boom"))
    assert moderator.registration_version == before + 1
    assert moderator.plan_for("push").cells[0].degraded == "fail_open"


#: a Figure-3 activation's arrows, in protocol order
FIG3_KINDS = [
    "preactivation", "precondition", "precondition", "precondition",
    "invoke", "postactivation", "postaction", "postaction", "postaction",
    "notify",
]


class CountingFold:
    """Stands in for a fold; records the kinds of every tally."""

    def __init__(self, fold):
        self.fold = fold
        self.tallies = []

    def __call__(self, method_id, items):
        self.tallies.append((method_id, [item[0] for item in items]))
        self.fold(method_id, items)


class CountingListener:
    """Stands in for a bus listener; other attributes pass through."""

    def __init__(self, listener):
        self.listener = listener
        self.kinds = []

    def __call__(self, event):
        self.kinds.append(event.kind)
        self.listener(event)

    def __getattr__(self, name):
        return getattr(self.listener, name)


def test_unsampled_activation_folds_its_tally_once_and_builds_no_event(
        monkeypatch):
    built = []

    class CountingEvent(events_module.TraceEvent):
        __slots__ = ()

        def __init__(self, kind, *args, **kwargs):
            built.append(kind)
            super().__init__(kind, *args, **kwargs)

    monkeypatch.setattr(events_module, "TraceEvent", CountingEvent)
    cluster, token = _fig3_cluster()
    call = cluster.proxy.call
    call("open", Ticket(summary="warm"), caller=token)
    call("assign", "agent", caller=token)
    plane = ObservabilityPlane(cluster.moderator, sample_rate=16)
    # the bus takes the plane's fold and listener by attribute, so the
    # stand-ins go first
    fold = plane.fold = CountingFold(plane.fold)
    listener = plane.recorder = CountingListener(plane.recorder)
    plane.enable()

    # the first activation after the enable is sampled: every arrow is
    # delivered as it happens, and the plane's one fold gets the tally
    # once, which moves the recorder's exact count by one
    call("open", Ticket(summary="sampled"), caller=token)
    assert built == listener.kinds == FIG3_KINDS
    assert fold.tallies == [("open", FIG3_KINDS)]
    assert plane.recorder.counts["open"]["activations"] == 1

    built.clear()
    listener.kinds.clear()
    fold.tallies.clear()
    call("assign", "agent", caller=token)
    assert built == listener.kinds == []
    assert fold.tallies == [("assign", FIG3_KINDS)]
    assert plane.recorder.counts["open"]["activations"] == 1
    assert cluster.moderator.events.listener_errors == 0
    assert plane.recorder.counts["assign"]["activations"] == 1

"""Unit tests for the aspect-composition model checker."""

import pytest

from repro.aspects.coordination import DependencyAspect, TurnTakingAspect
from repro.aspects.synchronization import (
    BarrierAspect,
    BoundedBufferSync,
    MutexAspect,
    SemaphoreAspect,
)
from repro.aspects.validation import ValidationAspect
from repro.core import AspectModerator
from repro.core.aspect import Aspect
from repro.core.ordering import ExplicitOrder
from repro.core.results import AspectResult
from repro.verify import (
    ActivationSpec,
    Explorer,
    concurrency_bound,
    mutual_exclusion,
    occupancy_bound,
    verify,
)


class FakeBuffer:
    capacity = 2


def buffer_chains(capacity=2):
    class Sized:
        pass

    sized = Sized()
    sized.capacity = capacity
    sync = BoundedBufferSync(sized, producer="put", consumer="take")
    return {"put": [sync], "take": [sync]}


class TestVerifiedCompositions:
    def test_bounded_buffer_safe_and_deadlock_free(self):
        report = verify(
            lambda: buffer_chains(capacity=2),
            specs=[
                ActivationSpec("p1", "put", 2),
                ActivationSpec("p2", "put", 2),
                ActivationSpec("c1", "take", 2),
                ActivationSpec("c2", "take", 2),
            ],
            properties=[occupancy_bound("put", capacity=2)],
        )
        assert report.ok, report.summary()
        assert report.states_explored > 10

    def test_mutex_guarantees_mutual_exclusion(self):
        report = verify(
            lambda: {"work": [MutexAspect()]},
            specs=[ActivationSpec(f"t{i}", "work", 2) for i in range(3)],
            properties=[mutual_exclusion("work")],
        )
        assert report.ok, report.summary()

    def test_semaphore_bounds_concurrency(self):
        report = verify(
            lambda: {"work": [SemaphoreAspect(2)]},
            specs=[ActivationSpec(f"t{i}", "work", 1) for i in range(4)],
            properties=[concurrency_bound(2, "work")],
        )
        assert report.ok, report.summary()

    def test_barrier_releases_full_cohort(self):
        report = verify(
            lambda: {"meet": [BarrierAspect(3)]},
            specs=[ActivationSpec(c, "meet", 1) for c in "abc"],
        )
        assert report.ok, report.summary()

    def test_dependency_ordering_deadlock_free(self):
        def chains():
            dependency = DependencyAspect({"serve": {"init"}})
            return {"init": [dependency], "serve": [dependency]}

        report = verify(
            chains,
            specs=[
                ActivationSpec("boot", "init", 1),
                ActivationSpec("web", "serve", 2),
            ],
        )
        assert report.ok, report.summary()


class TestDetectedBugs:
    def test_producers_without_consumers_deadlock(self):
        report = verify(
            lambda: buffer_chains(capacity=1),
            specs=[ActivationSpec("p1", "put", 3)],
        )
        assert not report.ok
        violation = report.violations[0]
        assert violation.kind == "deadlock"
        assert "p1" in violation.detail
        assert violation.trace  # a witness path exists

    def test_undersized_barrier_cohort_deadlocks(self):
        report = verify(
            lambda: {"meet": [BarrierAspect(3)]},
            specs=[ActivationSpec(c, "meet", 1) for c in "ab"],
        )
        assert not report.ok
        assert report.violations[0].kind == "deadlock"

    def test_missing_sync_aspect_violates_occupancy(self):
        report = verify(
            lambda: {"put": [], "take": []},
            specs=[ActivationSpec("p1", "put", 2),
                   ActivationSpec("p2", "put", 2)],
            properties=[occupancy_bound("put", capacity=1)],
        )
        assert not report.ok
        assert report.violations[0].kind == "property"

    def test_unsound_semaphore_caught(self):
        """A semaphore with too many permits violates the bound."""
        report = verify(
            lambda: {"work": [SemaphoreAspect(3)]},
            specs=[ActivationSpec(f"t{i}", "work", 1) for i in range(3)],
            properties=[concurrency_bound(2, "work")],
        )
        assert not report.ok
        assert "bound 2 exceeded" in report.violations[0].detail

    def test_counterexample_trace_is_replayable(self):
        report = verify(
            lambda: buffer_chains(capacity=1),
            specs=[ActivationSpec("p1", "put", 2)],
        )
        violation = report.violations[0]
        # the witness must be the shortest path: start, finish, start(block)
        assert len(violation.trace) <= 3
        formatted = violation.format()
        assert "deadlock" in formatted
        assert "p1" in formatted


class TestExplorerMechanics:
    def test_aborting_aspects_consume_turns(self):
        def chains():
            return {"work": [ValidationAspect(
                rules=[("never", lambda _jp: False)],
            )]}

        report = verify(
            chains,
            specs=[ActivationSpec("t", "work", 2)],
        )
        # aborted attempts complete the script: no deadlock, no hang
        assert report.ok, report.summary()

    def test_max_states_truncation_flagged(self):
        explorer = Explorer(
            lambda: {"work": [SemaphoreAspect(4)]},
            specs=[ActivationSpec(f"t{i}", "work", 3) for i in range(4)],
            max_states=10,
        )
        report = explorer.run()
        assert report.truncated
        assert not report.ok

    def test_stop_at_first_vs_collect_all(self):
        args = dict(
            build_chains=lambda: {"work": [SemaphoreAspect(3)]},
            specs=[ActivationSpec(f"t{i}", "work", 1) for i in range(3)],
            properties=[concurrency_bound(1, "work")],
        )
        first = verify(stop_at_first=True, **args)
        every = verify(stop_at_first=False, **args)
        assert len(first.violations) == 1
        assert len(every.violations) >= len(first.violations)

    def test_exploration_is_deterministic(self):
        def run():
            return verify(
                lambda: buffer_chains(capacity=2),
                specs=[
                    ActivationSpec("p", "put", 2),
                    ActivationSpec("c", "take", 2),
                ],
            )

        first, second = run(), run()
        assert first.states_explored == second.states_explored
        assert first.transitions_taken == second.transitions_taken


class _Flag:
    def __init__(self):
        self.up = False


class _Opener(Aspect):
    """Raises the flag and admits."""

    concern = "opener"

    def __init__(self, flag):
        self.flag = flag

    def precondition(self, joinpoint):
        self.flag.up = True
        return AspectResult.RESUME


class _Gate(Aspect):
    """Admits only once the flag is up."""

    concern = "gate"

    def __init__(self, flag):
        self.flag = flag

    def precondition(self, joinpoint):
        return AspectResult.RESUME if self.flag.up else AspectResult.BLOCK


class TestExploresTheModerator:
    """The explorer runs the composition the moderator would run."""

    specs = [ActivationSpec("t", "m", 1)]

    def test_chain_list_runs_in_list_order(self):
        def chains():
            flag = _Flag()
            return {"m": [_Opener(flag), _Gate(flag)]}

        report = verify(chains, self.specs)
        assert report.ok, report.summary()
        assert (report.states_explored, report.transitions_taken) == (3, 2)

    def test_moderator_ordering_policy_decides(self):
        seen = []

        def moderator():
            flag = _Flag()
            wired = AspectModerator(ordering=ExplicitOrder(["gate",
                                                            "opener"]))
            wired.register_aspect("m", "opener", _Opener(flag))
            wired.register_aspect("m", "gate", _Gate(flag))
            return wired

        def plan_order(state):
            seen.append([type(aspect) for aspect in state.chains["m"]])

        report = verify(moderator, self.specs, properties=[plan_order])
        assert not report.ok
        violation = report.violations[0]
        assert violation.kind == "deadlock"
        assert violation.trace == (("start", "t"),)
        assert seen and all(order == [_Gate, _Opener] for order in seen)


# ----------------------------------------------------------------------
# Pinned exploration counts
# ----------------------------------------------------------------------
# Every composition explored by this file, tests/integration/
# test_verify_apps.py, tests/unit/test_verify_graph.py,
# ``python -m repro verify`` and examples/verify_composition.py, with
# its exact state and transition counts, verdict and first witness. A
# change to how the explorer executes a composition must not move them.


class _Sized:
    def __init__(self, capacity):
        self.capacity = capacity


def _ticketing(capacity):
    from repro.apps.ticketing import (
        AssignSynchronizationAspect,
        OpenSynchronizationAspect,
        TicketSyncState,
    )

    state = TicketSyncState(capacity=capacity)
    return {
        "open": [OpenSynchronizationAspect(state)],
        "assign": [AssignSynchronizationAspect(state)],
    }


def _buffer(capacity, producer="put", consumer="take"):
    sync = BoundedBufferSync(_Sized(capacity), producer=producer,
                             consumer=consumer)
    return {producer: [sync], consumer: [sync]}


def _dependency():
    dependency = DependencyAspect({"serve": {"init"}})
    return {"init": [dependency], "serve": [dependency]}


def _readers_writer():
    from repro.aspects.synchronization import ReadersWriterAspect

    rw = ReadersWriterAspect(
        readers={"report"}, writers={"clock_in", "clock_out"},
    )
    return {"report": [rw], "clock_in": [rw], "clock_out": [rw]}


def _phase_mutex():
    from repro.aspects.coordination import PhaseAspect

    mutex = MutexAspect()
    phase = PhaseAspect(
        schedule={"reserve": {"booking"}, "cancel": {"booking", "closing"}},
        initial="booking",
    )
    return {"reserve": [phase, mutex], "cancel": [phase, mutex]}


def _wrong_phase():
    from repro.aspects.coordination import PhaseAspect

    return {"reserve": [PhaseAspect(schedule={"reserve": {"booking"}},
                                    initial="closed")]}


def _figure7_invariants():
    from repro.apps.ticketing import OpenSynchronizationAspect
    from repro.verify import aspect_invariant

    return [
        aspect_invariant(
            "open", OpenSynchronizationAspect,
            lambda a: 0 <= a.state.no_items <= a.state.capacity,
            "0 <= noItems <= capacity",
        ),
        aspect_invariant(
            "open", OpenSynchronizationAspect,
            lambda a: a.state.active_open in (0, 1),
            "at most one active open",
        ),
        mutual_exclusion("open"),
        mutual_exclusion("assign"),
    ]


def _open_occupancy():
    from repro.apps.ticketing import OpenSynchronizationAspect

    return [occupancy_bound("open", capacity=2,
                            aspect_type=OpenSynchronizationAspect)]


def _no_reader_with_writer(state):
    running = {c.spec.method for c in state.clients if c.status == "running"}
    if "report" in running and running & {"clock_in", "clock_out"}:
        return "reader and writer concurrently running"
    return None


def _specs(*triples):
    return [ActivationSpec(client, method, repeat)
            for client, method, repeat in triples]


def _pairs(producer, consumer, names=("p1", "p2", "c1", "c2")):
    return _specs((names[0], producer, 2), (names[1], producer, 2),
                  (names[2], consumer, 2), (names[3], consumer, 2))


#: (id, builder, specs, properties, options)
PINNED = [
    ("buffer-2x2", lambda: _buffer(2), _pairs("put", "take"),
     lambda: [occupancy_bound("put", capacity=2)], {}),
    ("mutex-3x2", lambda: {"work": [MutexAspect()]},
     _specs(*((f"t{i}", "work", 2) for i in range(3))),
     lambda: [mutual_exclusion("work")], {}),
    ("semaphore-2-of-4", lambda: {"work": [SemaphoreAspect(2)]},
     _specs(*((f"t{i}", "work", 1) for i in range(4))),
     lambda: [concurrency_bound(2, "work")], {}),
    ("barrier-3", lambda: {"meet": [BarrierAspect(3)]},
     _specs(*((c, "meet", 1) for c in "abc")), list, {}),
    ("dependency", _dependency,
     _specs(("boot", "init", 1), ("web", "serve", 2)), list, {}),
    ("producers-only", lambda: _buffer(1), _specs(("p1", "put", 3)),
     list, {}),
    ("barrier-undersized", lambda: {"meet": [BarrierAspect(3)]},
     _specs(*((c, "meet", 1) for c in "ab")), list, {}),
    ("missing-sync", lambda: {"put": [], "take": []},
     _specs(("p1", "put", 2), ("p2", "put", 2)),
     lambda: [occupancy_bound("put", capacity=1)], {}),
    ("semaphore-unsound", lambda: {"work": [SemaphoreAspect(3)]},
     _specs(*((f"t{i}", "work", 1) for i in range(3))),
     lambda: [concurrency_bound(2, "work")], {}),
    ("buffer-witness", lambda: _buffer(1), _specs(("p1", "put", 2)),
     list, {}),
    ("validation-abort",
     lambda: {"work": [ValidationAspect(
         rules=[("never", lambda _jp: False)])]},
     _specs(("t", "work", 2)), list, {}),
    # two orders reach one state: its rule functions must not split it
    ("validation-abort-2-clients",
     lambda: {"work": [ValidationAspect(
         rules=[("never", lambda _jp: False)])]},
     _specs(("t1", "work", 1), ("t2", "work", 1)), list, {}),
    ("truncated", lambda: {"work": [SemaphoreAspect(4)]},
     _specs(*((f"t{i}", "work", 3) for i in range(4))), list,
     {"max_states": 10}),
    ("semaphore-first", lambda: {"work": [SemaphoreAspect(3)]},
     _specs(*((f"t{i}", "work", 1) for i in range(3))),
     lambda: [concurrency_bound(1, "work")], {}),
    ("semaphore-every", lambda: {"work": [SemaphoreAspect(3)]},
     _specs(*((f"t{i}", "work", 1) for i in range(3))),
     lambda: [concurrency_bound(1, "work")], {"stop_at_first": False}),
    ("buffer-1x2", lambda: _buffer(2),
     _specs(("p", "put", 2), ("c", "take", 2)), list, {}),
    ("mutex-graph", lambda: {"work": [MutexAspect()]},
     _specs(("a", "work", 1), ("b", "work", 1)), list,
     {"collect_graph": True}),
    ("figure7-2x2", lambda: _ticketing(1), _pairs("open", "assign"),
     _figure7_invariants, {}),
    ("figure7-producers-only", lambda: _ticketing(1),
     _specs(("p1", "open", 2)), list, {}),
    ("readers-writer", _readers_writer,
     _specs(("reader-1", "report", 2), ("reader-2", "report", 2),
            ("writer", "clock_in", 2)),
     lambda: [mutual_exclusion("clock_in", "clock_out"),
              _no_reader_with_writer], {}),
    ("phase-mutex", _phase_mutex,
     _specs(("desk-1", "reserve", 2), ("desk-2", "reserve", 2),
            ("ops", "cancel", 1)),
     lambda: [mutual_exclusion("reserve", "cancel"), concurrency_bound(1)],
     {}),
    ("wrong-phase", _wrong_phase, _specs(("desk", "reserve", 1)), list,
     {}),
    ("cli-figure7", lambda: _ticketing(2), _pairs("open", "assign"),
     _open_occupancy, {}),
    ("cli-broken", lambda: _ticketing(2), _specs(("p1", "open", 3)), list,
     {}),
    ("example-act1", lambda: _buffer(2, "open", "assign"),
     _pairs("open", "assign",
            ("producer-1", "producer-2", "consumer-1", "consumer-2")),
     lambda: [occupancy_bound("open", capacity=2)], {}),
    ("example-act2", lambda: _buffer(1, "open", "assign"),
     _specs(("producer", "open", 3)), list, {}),
    ("example-act3",
     lambda: {"open": [SemaphoreAspect(3)], "assign": []},
     _specs(*((f"p{i}", "open", 1) for i in range(3))),
     lambda: [concurrency_bound(2, "open")], {}),
]


#: (states, transitions, verdict, violations, first witness trace)
EXPECTED = {
    "buffer-2x2": (801, 2146, "ok", 0, None),
    "mutex-3x2": (249, 492, "ok", 0, None),
    "semaphore-2-of-4": (172, 428, "ok", 0, None),
    "barrier-3": (33, 63, "ok", 0, None),
    "dependency": (10, 11, "ok", 0, None),
    "producers-only": (4, 3, "deadlock", 1, "start(p1) finish(p1) start(p1)"),
    "barrier-undersized": (4, 4, "deadlock", 1, "start(a) start(b)"),
    "missing-sync": (1, 0, "property", 1, ""),
    "semaphore-unsound": (14, 17, "property", 1,
        "start(t0) start(t1) start(t2)"),
    "buffer-witness": (4, 3, "deadlock", 1, "start(p1) finish(p1) start(p1)"),
    "validation-abort": (3, 2, "ok", 0, None),
    "validation-abort-2-clients": (4, 4, "ok", 0, None),
    "truncated": (10, 10, "truncated", 0, None),
    "semaphore-first": (6, 5, "property", 1, "start(t0) start(t1)"),
    "semaphore-every": (27, 54, "property", 7, "start(t0) start(t1)"),
    "buffer-1x2": (21, 30, "ok", 0, None),
    "mutex-graph": (12, 14, "ok", 0, None),
    "figure7-2x2": (539, 1294, "ok", 0, None),
    "figure7-producers-only": (4, 3, "deadlock", 1,
        "start(p1) finish(p1) start(p1)"),
    "readers-writer": (263, 518, "ok", 0, None),
    "phase-mutex": (143, 268, "ok", 0, None),
    "wrong-phase": (2, 1, "deadlock", 1, "start(desk)"),
    "cli-figure7": (801, 2146, "ok", 0, None),
    "cli-broken": (6, 5, "deadlock", 1,
        "start(p1) finish(p1) start(p1) finish(p1) start(p1)"),
    "example-act1": (801, 2146, "ok", 0, None),
    "example-act2": (4, 3, "deadlock", 1,
        "start(producer) finish(producer) start(producer)"),
    "example-act3": (14, 17, "property", 1, "start(p0) start(p1) start(p2)"),
}

def _explore(builder, specs, properties, options):
    options = dict(options)
    stop_at_first = options.pop("stop_at_first", True)
    collect_graph = options.pop("collect_graph", False)
    explorer = Explorer(builder, specs, properties(), **options)
    return explorer.run(stop_at_first=stop_at_first,
                        collect_graph=collect_graph)


def _observed(report):
    verdict = "truncated" if report.truncated else (
        report.violations[0].kind if report.violations else "ok"
    )
    first = " ".join(
        f"{kind}({client})" for kind, client in report.violations[0].trace
    ) if report.violations else None
    return (report.states_explored, report.transitions_taken, verdict,
            len(report.violations), first)


@pytest.mark.parametrize(
    "builder, specs, properties, options, expected",
    [pytest.param(*case[1:], EXPECTED[case[0]], id=case[0])
     for case in PINNED],
)
def test_pinned_exploration(builder, specs, properties, options, expected):
    report = _explore(builder, specs, properties, options)
    assert _observed(report) == expected

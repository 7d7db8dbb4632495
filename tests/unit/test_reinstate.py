"""Reinstatement regression suite: quarantine must be fully reversible.

``reinstate_aspect`` returns a quarantined cell to service. The contract
(regressed here, and property-tested below) is that reinstatement resets
the *whole* fault history — the fault counter, the per-phase breakdown,
the quarantine flag — so a reinstated aspect re-quarantines only after
accumulating ``fault_threshold`` fresh faults, exactly like a new cell.
A partial reset (keeping old phase counts, or leaving ``faults`` at the
threshold) would make the second quarantine trigger early, which is the
regression this file pins down.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AspectFault, AspectModerator, FunctionAspect
from repro.core.health import FAIL_CLOSED, FAIL_OPEN, HealthTracker
from repro.core.joinpoint import JoinPoint
from repro.core.results import AspectResult


def _flaky(concern="flaky"):
    def precondition(joinpoint):
        raise OSError("transient")

    return FunctionAspect(concern=concern, precondition=precondition)


def _fault_times(moderator, count, method="op"):
    for _ in range(count):
        with pytest.raises(AspectFault):
            moderator.preactivation(method)


class TestReinstateResets:
    def test_faults_and_phases_cleared(self):
        moderator = AspectModerator()
        moderator.register_aspect("op", "flaky", _flaky(),
                                  fault_policy=FAIL_OPEN,
                                  fault_threshold=3)
        _fault_times(moderator, 3)
        before = moderator.aspect_health()[("op", "flaky")]
        assert before["quarantined"]
        assert before["faults"] == 3
        assert before["phases"] == {"precondition": 3}

        assert moderator.reinstate_aspect("op", "flaky") is True
        after = moderator.aspect_health()[("op", "flaky")]
        assert after["quarantined"] is False
        assert after["faults"] == 0
        assert after["phases"] == {}

    def test_requarantines_at_the_same_threshold(self):
        moderator = AspectModerator()
        moderator.register_aspect("op", "flaky", _flaky(),
                                  fault_policy=FAIL_OPEN,
                                  fault_threshold=3)
        _fault_times(moderator, 3)
        moderator.reinstate_aspect("op", "flaky")
        # One fault short of the threshold: still in service.
        _fault_times(moderator, 2)
        assert not moderator.aspect_health()[("op", "flaky")][
            "quarantined"]
        _fault_times(moderator, 1)
        assert moderator.aspect_health()[("op", "flaky")]["quarantined"]
        assert moderator.stats.quarantines == 2

    def test_reinstate_bumps_epoch_only_when_quarantined(self):
        tracker = HealthTracker()
        tracker.set_policy("op", "c", FAIL_OPEN, threshold=2)
        tracker.record_fault("op", "c", "precondition", OSError("x"))
        epoch = tracker.epoch
        # Not quarantined yet: reinstate is a no-op epoch-wise.
        assert tracker.reinstate("op", "c") is False
        assert tracker.epoch == epoch
        tracker.record_fault("op", "c", "precondition", OSError("x"))
        tracker.record_fault("op", "c", "precondition", OSError("x"))
        epoch = tracker.epoch
        assert tracker.reinstate("op", "c") is True
        assert tracker.epoch == epoch + 1

    def test_reinstate_keeps_last_fault_evidence(self):
        # The structured last_fault_info is forensic, not health state:
        # it survives reinstatement so the *cause* of the previous
        # quarantine remains inspectable.
        moderator = AspectModerator()
        moderator.register_aspect("op", "flaky", _flaky(),
                                  fault_policy=FAIL_OPEN,
                                  fault_threshold=1)
        _fault_times(moderator, 1)
        moderator.reinstate_aspect("op", "flaky")
        info = moderator.aspect_health()[("op", "flaky")][
            "last_fault_info"]
        assert info["exception"] == "OSError"
        assert info["phase"] == "precondition"


class TestQuarantineMap:
    def test_healthy_round_reads_no_cell_while_another_is_quarantined(
            self, monkeypatch):
        moderator = AspectModerator()
        moderator.register_aspect("sick", "flaky", _flaky(),
                                  fault_policy=FAIL_OPEN, fault_threshold=1)
        for concern in ("a", "b", "c"):
            moderator.register_aspect("well", concern, FunctionAspect(
                concern=concern, precondition=lambda _jp: True,
            ))
        _fault_times(moderator, 1, method="sick")
        moderator.plan_for("well")  # compiled after the flip
        calls = []
        lookup = moderator.health.quarantine_policy
        monkeypatch.setattr(
            moderator.health, "quarantine_policy",
            lambda *cell: calls.append(cell) or lookup(*cell),
        )
        joinpoint = JoinPoint(method_id="well")
        assert moderator.preactivation("well", joinpoint) \
            is AspectResult.RESUME
        moderator.postactivation("well", joinpoint)
        assert calls == []
        # the quarantined method still skips its degraded cell
        assert moderator.preactivation("sick") is AspectResult.RESUME
        assert moderator.stats.degraded_skips == 1

    def test_map_is_rebuilt_at_flip_reinstate_and_drop(self):
        tracker = HealthTracker()
        tracker.set_policy("op", "a", FAIL_OPEN, threshold=1)
        tracker.set_policy("op", "b", FAIL_CLOSED, threshold=1)
        tracker.set_policy("other", "c", FAIL_OPEN, threshold=1)
        assert tracker.degraded == {}
        for method, concern in (("op", "a"), ("op", "b"), ("other", "c")):
            tracker.record_fault(method, concern, "precondition",
                                 OSError("x"))
        held = tracker.degraded
        assert held == {"op": {"a": FAIL_OPEN, "b": FAIL_CLOSED},
                        "other": {"c": FAIL_OPEN}}
        tracker.reinstate("op", "a")
        assert tracker.degraded == {"op": {"b": FAIL_CLOSED},
                                    "other": {"c": FAIL_OPEN}}
        tracker.drop("other", "c")
        assert tracker.degraded == {"op": {"b": FAIL_CLOSED}}
        # copy-on-write: a map already read is never mutated
        assert held == {"op": {"a": FAIL_OPEN, "b": FAIL_CLOSED},
                        "other": {"c": FAIL_OPEN}}


class TestReinstateProperties:
    @given(
        threshold=st.integers(min_value=1, max_value=6),
        cycles=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_cycle_needs_exactly_threshold_faults(
            self, threshold, cycles):
        """fault x threshold -> quarantine -> reinstate, repeatably."""
        tracker = HealthTracker()
        tracker.set_policy("op", "c", FAIL_OPEN, threshold=threshold)
        for cycle in range(cycles):
            for index in range(threshold):
                flipped = tracker.record_fault(
                    "op", "c", "precondition", OSError("x"),
                )
                expected = index == threshold - 1
                assert flipped is expected, (
                    f"cycle {cycle}: fault {index + 1}/{threshold} "
                    f"flipped={flipped}"
                )
            assert tracker.quarantine_policy("op", "c") == FAIL_OPEN
            assert tracker.reinstate("op", "c") is True
            assert tracker.quarantine_policy("op", "c") is None
            snapshot = tracker.snapshot()[("op", "c")]
            assert snapshot["faults"] == 0
            assert snapshot["phases"] == {}

    @given(
        phases=st.lists(
            st.sampled_from(["precondition", "postaction", "contract"]),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_phase_breakdown_always_sums_to_faults(self, phases):
        tracker = HealthTracker()
        tracker.set_policy("op", "c", FAIL_OPEN, threshold=100)
        for phase in phases:
            tracker.record_fault("op", "c", phase, OSError("x"))
        snapshot = tracker.snapshot()[("op", "c")]
        assert sum(snapshot["phases"].values()) == snapshot["faults"] \
            == len(phases)
        tracker.reinstate("op", "c")
        snapshot = tracker.snapshot()[("op", "c")]
        assert snapshot["faults"] == 0 and snapshot["phases"] == {}

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_active_flag_tracks_any_quarantined_cell(self, data):
        cells = data.draw(st.integers(min_value=1, max_value=4))
        tracker = HealthTracker()
        for index in range(cells):
            tracker.set_policy("op", f"c{index}", FAIL_OPEN, threshold=1)
            tracker.record_fault("op", f"c{index}", "precondition",
                                 OSError("x"))
        assert tracker.degraded
        order = data.draw(st.permutations(range(cells)))
        for position, index in enumerate(order):
            tracker.reinstate("op", f"c{index}")
            remaining = cells - position - 1
            assert bool(tracker.degraded) == (remaining > 0)
            assert len(tracker.degraded.get("op", {})) == remaining

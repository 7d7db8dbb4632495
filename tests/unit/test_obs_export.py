"""Unit tests: Prometheus/JSON exporters, golden-file checked.

The text exposition is deterministic (families sorted by name, samples
by label values), so a byte-for-byte golden file keeps the wire format
honest — a formatting regression fails loudly instead of silently
breaking scrapers.
"""

import json
import os

import pytest

from repro.core.events import TraceEvent
from repro.obs.export import snapshot_dict, to_json, to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder

GOLDEN = os.path.join(
    os.path.dirname(__file__), "..", "data", "prometheus_golden.txt"
)


def _golden_registry():
    """A fixed population exercising every exporter branch."""
    registry = MetricsRegistry()
    events = registry.counter(
        "repro_protocol_events_total", help="protocol arrows",
        labelnames=("method", "kind"),
    )
    events.labels("open", "preactivation").inc(4)
    events.labels("open", "notify").inc(4)
    events.labels("assign", "preactivation").inc(2)
    registry.gauge(
        "repro_wait_queue_depth", help="parked per method",
        labelnames=("method",),
    ).labels("open").inc(1)
    phase = registry.histogram(
        "repro_phase_seconds", help="phase latency",
        labelnames=("method", "phase"), buckets=(0.001, 0.01, 0.1),
    )
    cell = phase.labels("open", "precondition")
    cell.observe(0.0005)
    cell.observe(0.0005)
    cell.observe(0.05)
    phase.labels("open", "invoke").observe(0.25)
    return registry


def _render():
    return to_prometheus(_golden_registry())


class TestPrometheus:
    def test_matches_golden_file(self):
        with open(GOLDEN, encoding="utf-8") as handle:
            assert _render() == handle.read()

    def test_deterministic_across_builds(self):
        assert _render() == _render()

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = _render()
        lines = [
            line for line in text.splitlines()
            if line.startswith("repro_phase_seconds_bucket")
            and 'phase="precondition"' in line
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == [2, 2, 3, 3]
        assert 'le="+Inf"' in lines[-1]

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("detail",)).labels(
            'say "hi"\nback\\slash'
        ).inc()
        text = to_prometheus(registry)
        assert r'detail="say \"hi\"\nback\\slash"' in text

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""

    def test_integral_floats_drop_point(self):
        registry = MetricsRegistry()
        registry.gauge("g").labels().inc(3)
        registry.gauge("h").labels().inc(2.5)
        text = to_prometheus(registry)
        assert "g 3\n" in text
        assert "h 2.5\n" in text


class TestJson:
    def test_snapshot_dict_quantiles(self):
        document = snapshot_dict(_golden_registry())
        family = document["metrics"]["repro_phase_seconds"]
        entry = next(
            sample for sample in family["samples"]
            if sample["labels"]["phase"] == "precondition"
        )
        assert entry["count"] == 3
        assert 0 < entry["p50"] <= 0.001
        assert entry["p99"] > 0.01
        assert entry["buckets"][-1]["le"] == "+Inf"

    def test_to_json_round_trips(self):
        document = json.loads(to_json(_golden_registry(), indent=None))
        assert "repro_protocol_events_total" in document["metrics"]

    def test_spans_included_when_recorder_given(self):
        recorder = SpanRecorder(node="export-test")
        recorder.anchor = (1000.0, 0.0)
        for event in [
            TraceEvent(kind="preactivation", method_id="open",
                       activation_id=1, timestamp=1.0),
            TraceEvent(kind="invoke", method_id="open",
                       activation_id=1, timestamp=1.1),
            TraceEvent(kind="postactivation", method_id="open",
                       activation_id=1, timestamp=1.2),
            TraceEvent(kind="notify", method_id="open",
                       activation_id=1, timestamp=1.3),
        ]:
            recorder(event)
        document = snapshot_dict(MetricsRegistry(), recorder)
        assert document["node"] == "export-test"
        [span] = document["spans"]
        assert span["start"] == 1001.0
        assert span["duration"] == pytest.approx(0.3)
        assert document["wake_edges"] == []


class TestHealthExport:
    def _health(self):
        return {
            ("write", "skim"): {
                "policy": "fail_open",
                "threshold": 1,
                "faults": 1,
                "quarantined": True,
                "last_fault": "ContractViolation: ...",
                "last_fault_info": {
                    "exception": "ContractViolation",
                    "message": "contract ensure 'grows' violated",
                    "phase": "contract",
                    "activation_id": 7,
                    "blame": "aspect:skim",
                },
                "phases": {"contract": 1},
            },
            ("open", "audit"): {
                "policy": None,
                "threshold": 3,
                "faults": 1,
                "quarantined": False,
                "last_fault": "OSError: disk",
                "last_fault_info": {
                    "exception": "OSError",
                    "message": "disk",
                    "phase": "postaction",
                    "activation_id": 3,
                    "blame": None,
                },
                "phases": {"postaction": 1},
            },
        }

    def test_snapshot_flattens_cell_keys(self):
        document = snapshot_dict(MetricsRegistry(), health=self._health())
        assert sorted(document["aspect_health"]) == [
            "open/audit", "write/skim",
        ]

    def test_structured_evidence_survives_json(self):
        text = to_json(MetricsRegistry(), health=self._health())
        document = json.loads(text)
        info = document["aspect_health"]["write/skim"]["last_fault_info"]
        assert info["blame"] == "aspect:skim"
        assert info["activation_id"] == 7
        assert info["phase"] == "contract"

    def test_no_health_key_when_not_given(self):
        document = snapshot_dict(MetricsRegistry())
        assert "aspect_health" not in document

    def test_plane_json_includes_live_health(self):
        from repro.core import AspectModerator, FunctionAspect
        from repro.obs import ObservabilityPlane

        moderator = AspectModerator()

        def explode(joinpoint):
            raise OSError("injected")

        moderator.register_aspect(
            "op", "flaky",
            FunctionAspect(concern="flaky", precondition=explode),
            fault_policy="fail_open", fault_threshold=1,
        )
        plane = ObservabilityPlane(moderator, node="health-test")
        with plane:
            with pytest.raises(Exception):
                moderator.preactivation("op")
        document = json.loads(plane.json())
        record = document["aspect_health"]["op/flaky"]
        assert record["quarantined"] is True
        assert record["last_fault_info"]["exception"] == "OSError"
        assert record["last_fault_info"]["activation_id"] > 0


class TestPlaneSummary:
    def test_summary_while_new_methods_make_first_calls(self):
        """``summary()`` copies the exact counts under the recorder lock:
        a first call of a new method, inserting concurrently, can never
        make it raise ``dictionary changed size during iteration``."""
        import sys
        import threading

        from repro.core import AspectModerator, NullAspect
        from repro.obs import ObservabilityPlane

        moderator = AspectModerator()
        methods = [f"m{index}" for index in range(300)]
        for method in methods:
            moderator.register_aspect(method, "null", NullAspect())
        plane = ObservabilityPlane(moderator).enable()
        errors = []
        stop = threading.Event()

        def first_calls(offset):
            for method in methods[offset::2]:
                moderator.moderate_call(method, lambda: None)

        def summarize():
            while not stop.is_set():
                try:
                    plane.summary()
                except RuntimeError as exc:
                    errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave as finely as possible
        try:
            reader = threading.Thread(target=summarize)
            reader.start()
            callers = [
                threading.Thread(target=first_calls, args=(offset,))
                for offset in (0, 1)
            ]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(30.0)
            stop.set()
            reader.join(30.0)
        finally:
            sys.setswitchinterval(interval)
            plane.disable()
        assert not reader.is_alive()
        assert errors == []
        counts = plane.summary()["counts"]
        assert set(counts) == set(methods)
        assert {entry["activations"] for entry in counts.values()} == {1}

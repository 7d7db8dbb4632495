"""Unit tests for the causal slicer, on hand-built span exports (and
one recorder's)."""

import threading
import time

import pytest

from repro.contracts import causal_slice, find_failed, slice_to_dot
from repro.contracts.slicing import FAILED_STATUSES
from repro.core import AspectModerator, FunctionAspect
from repro.obs.spans import SpanRecorder


def activation(node, activation_id, method_id, *, trace="t1",
               span_id=None, parent_id=None, start=0.0, end=1.0,
               status="ok", children=(), annotations=()):
    return {
        "name": "activation",
        "node": node,
        "activation_id": activation_id,
        "method_id": method_id,
        "trace_id": trace,
        "span_id": span_id or f"{node}-{activation_id}",
        "parent_id": parent_id,
        "start": start,
        "end": end,
        "status": status,
        "children": list(children),
        "annotations": list(annotations),
    }


def invoke(node, activation_id, start, end):
    return {
        "name": "invoke",
        "node": node,
        "span_id": f"{node}-{activation_id}-invoke",
        "start": start,
        "end": end,
        "children": [],
    }


class TestFindFailed:
    def test_none_when_everything_ok(self):
        export = [activation("a", 1, "m")]
        assert find_failed(export) is None

    def test_contract_beats_earlier_other_failures(self):
        export = [
            activation("a", 1, "m", start=0.0, status="aborted"),
            activation("a", 2, "m", start=5.0, status="contract"),
        ]
        assert find_failed(export) == ("a", 2)

    def test_earliest_within_a_class(self):
        export = [
            activation("a", 1, "m", start=3.0, status="contract"),
            activation("a", 2, "m", start=1.0, status="contract"),
        ]
        assert find_failed(export) == ("a", 2)

    def test_all_failed_statuses_count(self):
        for status in FAILED_STATUSES:
            export = [activation("a", 9, "m", status=status)]
            assert find_failed(export) == ("a", 9)


class TestEdges:
    def test_parent_edge_from_nested_activation(self):
        outer = activation(
            "a", 1, "outer",
            children=[invoke("a", 1, 0.1, 0.9)],
        )
        inner = activation(
            "a", 2, "inner", parent_id="a-1-invoke",
            start=0.2, end=0.8, status="fault",
        )
        slice_ = causal_slice([outer, inner])
        assert slice_.target == ("a", 2)
        assert slice_.edges == [(("a", 1), ("a", 2), "parent")]

    def test_rpc_edge_from_trace_sibling_enclosure(self):
        caller = activation(
            "a", 1, "relay", parent_id="client-root",
            start=0.0, end=1.0,
            children=[invoke("a", 1, 0.1, 0.9)],
        )
        callee = activation(
            "b", 2, "write", parent_id="client-root",
            start=0.3, end=0.6, status="contract",
        )
        slice_ = causal_slice([caller], [callee])
        assert (("a", 1), ("b", 2), "rpc") in slice_.edges

    def test_no_rpc_edge_across_different_traces(self):
        caller = activation(
            "a", 1, "relay", trace="t1",
            children=[invoke("a", 1, 0.1, 0.9)],
        )
        callee = activation(
            "b", 2, "write", trace="t2",
            start=0.3, end=0.6, status="contract",
        )
        slice_ = causal_slice([caller], [callee])
        assert slice_.edges == []
        assert slice_.excluded == [("a", 1)]

    def test_no_rpc_edge_outside_the_invoke_interval(self):
        caller = activation(
            "a", 1, "relay",
            children=[invoke("a", 1, 0.1, 0.2)],
        )
        callee = activation(
            "b", 2, "write", start=0.5, end=0.6, status="contract",
        )
        slice_ = causal_slice([caller], [callee])
        assert slice_.edges == []

    def test_parent_edge_suppresses_rpc_inference(self):
        outer = activation(
            "a", 1, "outer", children=[invoke("a", 1, 0.0, 1.0)],
        )
        inner = activation(
            "a", 2, "inner", parent_id="a-1-invoke",
            start=0.2, end=0.8, status="fault",
        )
        slice_ = causal_slice([outer, inner])
        kinds = [kind for _c, _e, kind in slice_.edges]
        assert kinds == ["parent"]

    def test_wake_edge_links_notifier_to_woken(self):
        notifier = activation("a", 1, "put", start=0.0, end=0.5)
        woken = activation("a", 2, "get", start=0.1, end=0.9,
                           status="timeout")
        slice_ = causal_slice(
            [notifier, woken],
            wake_edges=[{
                "node": "a",
                "notifier_activation": 1,
                "woken_activation": 2,
            }],
        )
        assert (("a", 1), ("a", 2), "wake") in slice_.edges

    def test_wake_from_an_unsampled_notifier_is_listed_unresolved(self):
        moderator = AspectModerator()
        ready = threading.Event()
        moderator.register_aspect("take", "gate", FunctionAspect(
            concern="gate", precondition=lambda jp: ready.is_set(),
        ))
        moderator.register_aspect("give", "gate", FunctionAspect(
            concern="gate", postaction=lambda jp: ready.set(),
        ))
        recorder = SpanRecorder(node="n", sample_rate=2)
        moderator.events.subscribe(recorder)
        # activation 1 (sampled) parks; activation 2 (unsampled) wakes it
        taker = threading.Thread(
            target=moderator.moderate_call, args=("take", lambda: None),
        )
        taker.start()
        deadline = time.monotonic() + 10.0
        while not moderator.parked_snapshot():
            assert time.monotonic() < deadline, "take never parked"
            time.sleep(0.001)
        moderator.moderate_call("give", lambda: None)
        taker.join(10.0)
        assert not taker.is_alive()
        [root] = recorder.finished
        [edge] = recorder.export_wake_edges()
        target = ("n", root.activation_id)
        notifier = ("n", edge["notifier_activation"])

        slice_ = causal_slice(recorder.export(), target=target,
                              wake_edges=[edge])
        assert slice_.unresolved_wakes == [(notifier, target)]
        assert [kind for _c, _e, kind in slice_.edges] == []
        assert f"? wake from n/#{notifier[1]} to n/#{target[1]}" in \
            slice_.format()

    def test_unresolved_wakes_outside_the_slice_are_not_listed(self):
        upstream = activation("a", 1, "put", start=0.0, end=0.5)
        target = activation("a", 2, "get", start=0.1, end=0.9,
                            status="timeout")
        bystander = activation("a", 3, "get", start=0.2, end=0.4)
        edges = [
            # unsampled notifiers: one into the slice, one into an
            # activation outside it, one into an activation with no tree
            {"node": "a", "notifier_activation": 7, "woken_activation": 2},
            {"node": "a", "notifier_activation": 8, "woken_activation": 3},
            {"node": "a", "notifier_activation": 9, "woken_activation": 4},
            {"node": "a", "notifier_activation": 1, "woken_activation": 2},
        ]
        slice_ = causal_slice([upstream, target, bystander],
                              target=("a", 2), wake_edges=edges)
        assert slice_.unresolved_wakes == [(("a", 7), ("a", 2))]
        assert slice_.edges == [(("a", 1), ("a", 2), "wake")]
        assert slice_.excluded == [("a", 3)]
        text = slice_.format()
        assert "? wake from a/#7 to a/#2" in text
        assert "a/#8" not in text and "a/#9" not in text

    def test_state_edge_from_prior_write_evidence(self):
        writer = activation("a", 1, "write", start=0.0, end=0.2)
        failed = activation("a", 5, "read", start=4.0, end=4.1,
                            status="contract")
        slice_ = causal_slice(
            [writer, failed],
            evidence=[
                {"seam": "entry", "node": "a", "activation_id": 5},
                {"seam": "prior_write", "node": "a", "activation_id": 1,
                 "scope": "s"},
            ],
        )
        assert (("a", 1), ("a", 5), "state") in slice_.edges

    def test_evidence_for_unknown_activation_is_ignored(self):
        failed = activation("a", 5, "read", status="contract")
        slice_ = causal_slice(
            [failed],
            evidence=[{"seam": "prior_write", "node": "zz",
                       "activation_id": 404}],
        )
        assert slice_.edges == []


class TestClosure:
    def _chain(self):
        """c <- b <- a (parent edges), plus an unrelated d."""
        a = activation("n", 1, "a", children=[invoke("n", 1, 0.0, 1.0)])
        b = activation("n", 2, "b", parent_id="n-1-invoke",
                       start=0.1, end=0.9,
                       children=[invoke("n", 2, 0.2, 0.8)])
        c = activation("n", 3, "c", parent_id="n-2-invoke",
                       start=0.3, end=0.7, status="fault")
        d = activation("n", 4, "d", trace="other", start=0.4, end=0.5)
        return [a, b, c, d]

    def test_transitive_closure_and_exclusion(self):
        slice_ = causal_slice(self._chain())
        assert set(slice_.activations) == {("n", 1), ("n", 2), ("n", 3)}
        assert slice_.excluded == [("n", 4)]

    def test_ordered_is_causes_first(self):
        slice_ = causal_slice(self._chain())
        assert [item.activation_id for item in slice_.ordered()] \
            == [1, 2, 3]

    def test_explicit_target_overrides_find_failed(self):
        slice_ = causal_slice(self._chain(), target=("n", 2))
        assert slice_.target == ("n", 2)
        assert set(slice_.activations) == {("n", 1), ("n", 2)}

    def test_no_target_and_no_failure_raises(self):
        with pytest.raises(ValueError, match="no failed activation"):
            causal_slice([activation("n", 1, "m")])

    def test_missing_target_raises_with_inventory(self):
        with pytest.raises(ValueError, match="not in the"):
            causal_slice([activation("n", 1, "m")], target=("n", 99))

    def test_cycle_terminates(self):
        # Mutual wake edges must not hang the closure.
        a = activation("n", 1, "a", status="fault")
        b = activation("n", 2, "b")
        slice_ = causal_slice(
            [a, b],
            wake_edges=[
                {"node": "n", "notifier_activation": 2,
                 "woken_activation": 1},
                {"node": "n", "notifier_activation": 1,
                 "woken_activation": 2},
            ],
        )
        assert set(slice_.activations) == {("n", 1), ("n", 2)}


class TestRendering:
    def _slice(self):
        caller = activation(
            "a", 1, "relay", children=[invoke("a", 1, 0.0, 1.0)],
        )
        callee = activation(
            "b", 2, "write", start=0.3, end=0.6, status="contract",
            annotations=[(0.5, "contract_violation: ensure:grows:caller")],
        )
        return causal_slice([caller], [callee])

    def test_format_marks_target_and_edges(self):
        text = self._slice().format()
        assert "* b/#2 write (contract)" in text
        assert "- a/#1 relay" in text
        assert "<- rpc from a/#1" in text
        assert "@ contract_violation" in text

    def test_nodes_in_causal_order(self):
        assert self._slice().nodes() == ["a", "b"]

    def test_dot_clusters_and_styles(self):
        dot = slice_to_dot(self._slice())
        assert dot.startswith("digraph causal_slice {")
        assert dot.rstrip().endswith("}")
        assert 'label="a"' in dot and 'label="b"' in dot
        assert "color=red, penwidth=2" in dot
        assert "[style=bold, label=\"rpc\"]" in dot

    def test_dot_statuses_render_in_labels(self):
        dot = slice_to_dot(self._slice())
        assert "\\n(contract)" in dot

"""Unit tests for JoinPoint."""

import threading
import time

import pytest

from repro.core import AspectModerator, ContinuationRuntime, FunctionAspect
from repro.core.joinpoint import JoinPoint
from repro.core.results import Phase


def _on_thread(name, body):
    """Run ``body()`` on a fresh thread called ``name``; return its value."""
    box = []
    thread = threading.Thread(target=lambda: box.append(body()), name=name)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    return box[0]


class TestJoinPoint:
    def test_defaults(self):
        jp = JoinPoint(method_id="open")
        assert jp.method_id == "open"
        assert jp.phase is Phase.PRE_ACTIVATION
        assert jp.args == ()
        assert jp.kwargs == {}
        assert jp.caller is None
        assert jp.context == {}

    def test_activation_ids_are_unique_and_increasing(self):
        first = JoinPoint(method_id="a")
        second = JoinPoint(method_id="b")
        assert second.activation_id > first.activation_id

    def test_result_unset_raises(self):
        jp = JoinPoint(method_id="open")
        assert not jp.has_result
        with pytest.raises(AttributeError):
            _ = jp.result

    def test_result_roundtrip_including_none(self):
        jp = JoinPoint(method_id="open")
        jp.result = None
        assert jp.has_result
        assert jp.result is None

    def test_replace_result(self):
        jp = JoinPoint(method_id="open")
        jp.result = 1
        jp.replace_result(2)
        assert jp.result == 2

    def test_exception_recording(self):
        jp = JoinPoint(method_id="open")
        assert jp.exception is None
        error = ValueError("x")
        jp.exception = error
        assert jp.exception is error

    def test_skip_invocation_sets_result_and_flag(self):
        jp = JoinPoint(method_id="open")
        assert not jp.invocation_skipped
        jp.skip_invocation("cached")
        assert jp.invocation_skipped
        assert jp.result == "cached"

    def test_describe_mentions_method_and_id(self):
        jp = JoinPoint(method_id="open", args=(1, 2), kwargs={"k": 1})
        text = jp.describe()
        assert "open" in text
        assert str(jp.activation_id) in text

    def test_context_is_per_joinpoint(self):
        a = JoinPoint(method_id="m")
        b = JoinPoint(method_id="m")
        a.context["x"] = 1
        assert "x" not in b.context

    def test_thread_name_recorded(self):
        jp = JoinPoint(method_id="m")
        assert jp.thread_name == threading.current_thread().name

    def test_keyword_defaults(self):
        before = time.monotonic()
        jp = JoinPoint(method_id="m")
        assert jp.component is None
        assert jp.args == () and jp.kwargs == {} and jp.context == {}
        assert jp.phase is Phase.PRE_ACTIVATION
        assert jp.caller is None
        assert isinstance(jp.activation_id, int)
        assert before <= jp.created_at <= time.monotonic()
        assert jp.sampled is True
        assert jp.exception is None
        assert jp.tally is None and jp.uncounted_entry == 0
        assert not jp.has_result and not jp.invocation_skipped
        # fresh containers per join point
        assert JoinPoint(method_id="m").kwargs is not jp.kwargs

    def test_explicit_fields_are_kept(self):
        # the model checker pins identity and time per (client, attempt)
        jp = JoinPoint("m", "component", (1,), {"k": 2}, Phase.INVOCATION,
                       "alice", {"x": 3}, activation_id=7, created_at=0.0,
                       thread_name="worker", sampled=False)
        assert (jp.method_id, jp.component, jp.args, jp.kwargs, jp.phase,
                jp.caller, jp.context, jp.activation_id, jp.created_at,
                jp.thread_name, jp.sampled) == \
            ("m", "component", (1,), {"k": 2}, Phase.INVOCATION, "alice",
             {"x": 3}, 7, 0.0, "worker", False)

    def test_repr_lists_the_constructor_fields(self):
        jp = JoinPoint("open", args=(1,), activation_id=7, created_at=0.0,
                       thread_name="T")
        assert repr(jp) == (
            "JoinPoint(method_id='open', component=None, args=(1,), "
            f"kwargs={{}}, phase={Phase.PRE_ACTIVATION!r}, caller=None, "
            "context={}, activation_id=7, thread_name='T', "
            "created_at=0.0, sampled=True)"
        )

    def test_equality_is_identity(self):
        first = JoinPoint("m", activation_id=1, created_at=0.0,
                          thread_name="T")
        twin = JoinPoint("m", activation_id=1, created_at=0.0,
                         thread_name="T")
        assert first == first
        assert first != twin
        assert len({first, twin}) == 2

    def test_skip_invocation_before_any_result(self):
        jp = JoinPoint(method_id="open")
        jp.skip_invocation()
        assert jp.invocation_skipped
        assert jp.has_result and jp.result is None

    def test_exception_is_a_plain_attribute(self):
        jp = JoinPoint(method_id="open")
        jp.exception = error = KeyError("k")
        assert jp.exception is error
        with pytest.raises(AttributeError):
            jp.undeclared = 1  # slotted: no stray attributes


class TestCreatingThread:
    def test_name_is_the_creators_when_read_elsewhere(self):
        jp = _on_thread("creator", lambda: JoinPoint(method_id="m"))
        # read here, on the main thread, after the creator has exited
        assert jp.thread_name == "creator"
        assert _on_thread("reader", lambda: jp.thread_name) == "creator"

    def test_a_successor_on_a_reused_ident_keeps_its_own_name(self):
        jp = _on_thread("short-lived", lambda: JoinPoint(method_id="m"))
        # the creator's ident may be reused by the next thread
        assert _on_thread("successor",
                          lambda: JoinPoint(method_id="m").thread_name) \
            == "successor"
        assert jp.thread_name == "short-lived"

    def test_continuation_submit_names_the_submitter(self):
        moderator = AspectModerator()
        seen = []
        moderator.register_aspect("work", "probe", FunctionAspect(
            concern="probe",
            precondition=lambda jp: seen.append(
                (threading.current_thread().name, jp.thread_name)),
        ))
        runtime = ContinuationRuntime(moderator, workers=1)
        try:
            future = _on_thread(
                "submitter", lambda: runtime.submit("work", lambda: 42))
            assert future.result(5) == 42
        finally:
            runtime.close()
        [(worker, name)] = seen
        assert worker != "submitter"
        assert name == "submitter"

"""The pre/invoke/post bracket (paper Figure 10) at every entry point.

Six entry points run a participating method through the moderator: the
dynamic proxy's attribute access, ``ComponentProxy.call``, the
hand-written-proxy descriptor :class:`GuardedMethod`, a woven class,
``AspectModerator.moderate_call`` and ``ContinuationRuntime.submit``.
All of them must run the same bracket:

* a skip request (a caching aspect's hit) leaves the body un-run and
  returns the aspect's result;
* a body that runs emits exactly one ``invoke`` event;
* the join point is in the ``INVOCATION`` phase while the body runs;
* a raising body is recorded on the join point and post-activation
  still runs.
"""

import pytest

from repro.core import (
    AspectModerator,
    ComponentProxy,
    ContinuationRuntime,
    GuardedMethod,
    NullAspect,
    Tracer,
    moderated,
    participating,
)
from repro.core.results import Phase


class Probe(NullAspect):
    """Captures the join point; optionally serves a cached result."""

    concern = "probe"

    def __init__(self):
        self.joinpoint = None
        self.cached = None
        self.post = []

    def evaluate_precondition(self, joinpoint):
        self.joinpoint = joinpoint
        if self.cached is not None:
            joinpoint.skip_invocation(self.cached)
        return super().evaluate_precondition(joinpoint)

    def postaction(self, joinpoint):
        self.post.append((
            joinpoint.result if joinpoint.has_result else None,
            joinpoint.exception,
        ))


class Worker:
    def __init__(self, probe):
        self.probe = probe
        self.runs = 0
        self.phase = None
        self.fail = False

    def work(self, value):
        self.runs += 1
        self.phase = self.probe.joinpoint.phase
        if self.fail:
            raise ValueError("body failed")
        return value * 2


class GuardedWorker(Worker):
    """Paper-style hand-written proxy (Figure 10)."""

    work = GuardedMethod("work")

    def __init__(self, probe, moderator):
        super().__init__(probe)
        self.moderator = moderator


@moderated
class WovenWorker(Worker):
    @participating("probe")
    def work(self, value):
        return Worker.work(self, value)

    def __init__(self, probe, moderator):
        super().__init__(probe)
        self.moderator = moderator


def _proxy_attribute(moderator, probe, closers):
    worker = Worker(probe)
    return worker, ComponentProxy(worker, moderator).work


def _proxy_call(moderator, probe, closers):
    worker = Worker(probe)
    proxy = ComponentProxy(worker, moderator)
    return worker, lambda value: proxy.call("work", value)


def _guarded_method(moderator, probe, closers):
    worker = GuardedWorker(probe, moderator)
    return worker, worker.work


def _woven_class(moderator, probe, closers):
    worker = WovenWorker(probe, moderator)
    return worker, worker.work


def _moderate_call(moderator, probe, closers):
    worker = Worker(probe)
    return worker, lambda value: moderator.moderate_call(
        "work", worker.work, value, component=worker,
    )


def _runtime_submit(moderator, probe, closers):
    worker = Worker(probe)
    runtime = ContinuationRuntime(moderator, workers=1)
    closers.append(runtime.close)
    return worker, lambda value: runtime.submit(
        "work", worker.work, value, component=worker,
    ).result(timeout=5.0)


ENTRY_POINTS = {
    "proxy-attribute": _proxy_attribute,
    "proxy-call": _proxy_call,
    "guarded-method": _guarded_method,
    "woven-class": _woven_class,
    "moderate-call": _moderate_call,
    "runtime-submit": _runtime_submit,
}


@pytest.fixture(params=sorted(ENTRY_POINTS))
def bracket(request):
    moderator = AspectModerator()
    probe = Probe()
    moderator.register_aspect("work", "probe", probe)
    tracer = Tracer()
    moderator.events.subscribe(tracer)
    closers = []
    worker, call = ENTRY_POINTS[request.param](moderator, probe, closers)
    yield moderator, probe, tracer, worker, call
    for close in closers:
        close()


def _kinds(tracer, kind):
    return [event for event in tracer.events if event.kind == kind]


def test_skip_request_keeps_the_aspect_result(bracket):
    moderator, probe, tracer, worker, call = bracket
    probe.cached = "cached"
    assert call(5) == "cached"
    assert worker.runs == 0
    assert _kinds(tracer, "invoke") == []
    assert probe.post == [("cached", None)]


def test_body_that_runs_emits_exactly_one_invoke(bracket):
    moderator, probe, tracer, worker, call = bracket
    assert call(5) == 10
    assert worker.runs == 1
    assert len(_kinds(tracer, "invoke")) == 1
    assert probe.post == [(10, None)]


def test_body_runs_in_the_invocation_phase(bracket):
    moderator, probe, tracer, worker, call = bracket
    call(5)
    assert worker.phase is Phase.INVOCATION


def test_raising_body_is_recorded_and_still_post_activates(bracket):
    moderator, probe, tracer, worker, call = bracket
    worker.fail = True
    with pytest.raises(ValueError, match="body failed"):
        call(5)
    assert isinstance(probe.joinpoint.exception, ValueError)
    (result, exception), = probe.post
    assert exception is probe.joinpoint.exception
    assert moderator.stats.postactivations == 1
    assert len(_kinds(tracer, "postactivation")) == 1

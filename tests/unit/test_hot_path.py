"""Structural guard for the Figure-3 path: what a moderated call never runs.

The paper's cost model is the Figure-3 sequence: proxy → preactivation →
preconditions → invoke → postactivation → postactions → notify. This
test profiles 200 activations of the paper's ticketing cluster
(synchronization, authentication and audit around ``open``/``assign``)
through ``ComponentProxy.call`` and asserts that none of the framework
frames the compiled plan makes unnecessary shows up:

* the ``evaluate_precondition`` / ``_coerce_result`` wrappers and the
  base no-op ``Aspect.postaction`` (cells bind the bare callables);
* anything in ``threading.py`` (the rounds and the unwind hold the
  domain ``RLock`` rather than entering its ``Condition``; a join point
  records its creating thread without ``current_thread``);
* the ``lambda`` of the join point module (no default factories);
* the participation probes ``participates`` / ``has_method`` (the
  plan carries the flag);
* ``plan_for`` on a cached plan (the proxy revalidates the handle's
  plan, and the rounds run the plan the entry step validated).

It bounds no frame count, which differs between interpreter versions.
"""

import sys
import threading

from repro.apps import build_ticketing_cluster, make_session_manager
from repro.aspects.audit import AuditLog
from repro.concurrency.buffer import Ticket
from repro.core import aspect as aspect_module
from repro.core import joinpoint as joinpoint_module

ACTIVATIONS = 200


def _frames_of_fig3_calls():
    sessions = make_session_manager({"clerk": "secret"})
    token = sessions.login("clerk", "secret")
    cluster = build_ticketing_cluster(sessions=sessions,
                                      audit_log=AuditLog())
    call = cluster.proxy.call

    def step(index):
        opened = call("open", Ticket(summary=f"fault {index}"),
                      caller=token)
        assert call("assign", "agent", caller=token).ticket_id == opened

    step(-1)  # compile both plans before profiling
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_name, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for index in range(ACTIVATIONS // 2):
            step(index)
    finally:
        sys.setprofile(None)
    assert cluster.moderator.stats.resumes == ACTIVATIONS + 2
    return seen


def _code(function):
    code = function.__code__
    return code.co_filename, code.co_name, code.co_firstlineno


def test_fig3_calls_run_no_bracket_tax_frames():
    seen = _frames_of_fig3_calls()
    forbidden = {
        _code(aspect_module.Aspect.evaluate_precondition),
        _code(aspect_module._coerce_result),
        _code(aspect_module.Aspect.postaction),
    }
    assert not seen & forbidden
    names = {name for _file, name, _line in seen}
    assert not names & {"participates", "has_method", "plan_for",
                        "plan_handle", "current"}
    assert not [frame for frame in seen
                if frame[0] == threading.__file__]
    assert not [frame for frame in seen
                if frame[0] == joinpoint_module.__file__
                and frame[1] == "<lambda>"]
    # the profile did see the Figure-3 sequence itself
    assert {"call", "_bracket", "_rounds", "_run_postactions",
            "_wake"} <= names

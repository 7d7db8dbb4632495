"""Property tests: moderation counters stay consistent under flushing.

The moderator writes each activation phase's counters in one stripe
write: the preactivation with its first round's outcome, the
postactivation with its wake. These tests read the counters the way an
exporter does, concurrently with traffic, and check the two things that
batching must not break:

* no ``stats.as_dict()`` snapshot shows a resume or abort without its
  preactivation, or a postactivation without its resume;
* an activation parked on BLOCK is already counted (``preactivations``,
  ``blocks`` and ``waits``) while it is parked, on the threaded
  ``ConditionSeam`` and on the ``ContinuationRuntime``.
"""

import sys
import threading
import time

import pytest

from repro.apps.ticketing import build_ticketing_cluster
from repro.concurrency.buffer import Ticket
from repro.core import ContinuationRuntime

THREADS = 4
ROUNDS = 1500


def _join(threads):
    for thread in threads:
        thread.join(30.0)
    assert not any(thread.is_alive() for thread in threads), "drive wedged"


def test_snapshots_never_show_a_half_counted_activation():
    cluster = build_ticketing_cluster(capacity=16)
    proxy, stats = cluster.proxy, cluster.moderator.stats
    done = threading.Event()
    torn = []
    snapshots = [0]

    def drive(index):
        for step in range(ROUNDS):
            proxy.open(Ticket(summary=f"t{index}-{step}"))
            proxy.assign(f"agent{index}")

    def read():
        while not done.is_set():
            snapshot = stats.as_dict()
            snapshots[0] += 1
            if snapshot["resumes"] + snapshot["aborts"] > \
                    snapshot["preactivations"] or \
                    snapshot["postactivations"] > snapshot["resumes"]:
                torn.append(snapshot)

    # Switch threads often, so snapshots land between a thread's writes.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        drivers = [threading.Thread(target=drive, args=(index,), daemon=True)
                   for index in range(THREADS)]
        for thread in drivers:
            thread.start()
        _join(drivers)
        done.set()
        _join([reader])
    finally:
        sys.setswitchinterval(interval)

    assert not torn, torn[:3]
    assert snapshots[0] > 0
    final = stats.as_dict()
    activations = 2 * THREADS * ROUNDS
    assert final["preactivations"] == activations
    assert final["resumes"] == final["postactivations"] == activations
    assert final["notifications"] == activations
    assert final["aborts"] == 0


def _await_park(moderator):
    deadline = time.monotonic() + 10.0
    while not (moderator.stats.waits and moderator.parked_snapshot()):
        assert time.monotonic() < deadline, "the assign never parked"
        time.sleep(0.001)


@pytest.mark.parametrize("runtime", ["condition", "continuation"])
def test_a_parked_activation_is_already_counted(runtime):
    cluster = build_ticketing_cluster(capacity=4)
    moderator, store = cluster.moderator, cluster.component
    continuation = None
    if runtime == "continuation":
        continuation = ContinuationRuntime(moderator, workers=1)
        future = continuation.submit("assign", store.assign, "agent",
                                     component=store)
    else:
        result = []
        thread = threading.Thread(
            target=lambda: result.append(cluster.proxy.assign("agent")),
            daemon=True,
        )
        thread.start()
    try:
        _await_park(moderator)
        parked = moderator.stats.as_dict()
        assert parked["preactivations"] == 1
        assert parked["blocks"] == 1
        assert parked["waits"] == 1
        assert parked["resumes"] == parked["postactivations"] == 0

        ticket = Ticket(summary="wake")
        cluster.proxy.open(ticket)
        if continuation is not None:
            assigned = future.result(timeout=10.0)
        else:
            _join([thread])
            assigned = result[0]
        assert assigned.ticket_id == ticket.ticket_id
    finally:
        if continuation is not None:
            continuation.close()
    final = moderator.stats.as_dict()
    assert final["preactivations"] == 2
    assert final["resumes"] == final["postactivations"] == 2
    assert final["blocks"] == final["waits"] == final["wakeups"] == 1

"""B-WIRE bench: one wire codec against the check-and-deepcopy wire.

A payload crossing the simulated wire used to be checked when its
``Message`` was built, deep-copied at delivery, and checked again when
the delivered ``Message`` was built. The codec checks once, encodes at
send and decodes at delivery. This bench times both on the payload of
one armed ``kv_rpc`` put (args, deadline budget, idempotency key,
fence):

* **legacy** — :class:`LegacyWire`, the pre-codec check, then
  ``copy.deepcopy``, then the re-check, kept verbatim as the control;
* **codec**  — ``decode(encode(payload))``.

It also reports the check on its own (codec against legacy) for
EXPERIMENTS.md B-WIRE. The two sides are timed as pairs every round
(``harness.paired_rounds``), so scheduler noise hits both. The gate is
on the round trip: codec / legacy must stay at or below
:data:`RATIO_BOUND`.

``python benchmarks/bench_wire.py [--smoke]`` writes
``.bench/BENCH_WIRE.json`` (see ``harness.run``); pytest asserts the
bound.
"""

from __future__ import annotations

import contextlib
import copy
from typing import Any, Dict, List

from repro.dist.message import check_wire_safe, decode, encode, request

import harness

RATIO_BOUND = 0.6  # codec round trip / legacy round trip
SMOKE = dict(iterations=4000, rounds=5)  # --smoke and the pytest gate


#: Types allowed on the simulated wire.
WIRE_SAFE_TYPES = (type(None), bool, int, float, str, bytes)


def legacy_check_wire_safe(value: Any, depth: int = 0) -> bool:
    """Whether ``value`` could survive a real serialization boundary."""
    if depth > 16:
        return False
    if isinstance(value, WIRE_SAFE_TYPES):
        return True
    if isinstance(value, (list, tuple)):
        return all(legacy_check_wire_safe(item, depth + 1) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and legacy_check_wire_safe(item, depth + 1)
            for key, item in value.items()
        )
    return False


class LegacyWire:
    """The pre-codec wire: check at send, deep-copy and re-check at
    delivery (``Message.__post_init__`` and ``copy_for_delivery``)."""

    @staticmethod
    def deliver(payload: Dict[str, Any]) -> Dict[str, Any]:
        if not legacy_check_wire_safe(payload):
            raise TypeError("payload is not wire-safe")
        delivered = copy.deepcopy(payload)
        if not legacy_check_wire_safe(delivered):
            raise TypeError("payload is not wire-safe")
        return delivered


def put_payload() -> Dict[str, Any]:
    """The payload of one armed ``kv_rpc`` put."""
    return request(
        "client", "n0", "kv#s0", "put", args=("k0417", 1234567890),
        caller=None, deadline_budget=4.99, idempotency_key="1:417",
        fence=1,
    ).payload


def codec_round_trip(payload: Dict[str, Any]) -> Dict[str, Any]:
    return decode(encode(payload))


def measure(iterations: int = 20000, rounds: int = 5) -> Dict[str, Any]:
    """Paired rounds of codec against legacy, for the round trip and
    for the check on its own."""
    payload = put_payload()
    assert codec_round_trip(payload) == LegacyWire.deliver(payload) \
        == payload

    def pair(codec, legacy):
        calls = {"codec": codec, "legacy": legacy}
        return harness.paired_rounds(
            lambda facts: contextlib.nullcontext(calls), "legacy", "codec",
            rounds=rounds, iterations=iterations,
            timer=harness.floor_pair_ns)

    return {
        "round_trip": pair(lambda: codec_round_trip(payload),
                           lambda: LegacyWire.deliver(payload)),
        "check": pair(lambda: check_wire_safe(payload),
                      lambda: legacy_check_wire_safe(payload)),
    }


def check_round_trip(round_trip) -> List[str]:
    ratio = round_trip["ratio"]["codec"]
    if ratio > RATIO_BOUND:
        return [f"round-trip ratio {ratio:.2f}x > {RATIO_BOUND}x"]
    return []


def measure_all(smoke: bool) -> Dict[str, Any]:
    return measure(**SMOKE) if smoke else measure()


def test_codec_round_trip_within_bound():
    assert not check_round_trip(measure(**SMOKE)["round_trip"])


def main(argv=None):
    return harness.run(argv, __doc__, "BENCH_WIRE.json", measure_all,
                       {"round_trip": check_round_trip},
                       {"round_trip_ratio": RATIO_BOUND})


if __name__ == "__main__":
    import sys

    sys.exit(main())

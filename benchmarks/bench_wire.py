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
EXPERIMENTS.md B-WIRE. The two sides are interleaved so scheduler
noise hits both. The gate is on the round trip: codec / legacy must
stay at or below :data:`RATIO_BOUND`. No JSON is written.

Run styles::

    pytest benchmarks/bench_wire.py --benchmark-disable -q   # the gate
    python benchmarks/bench_wire.py                          # full table
    python benchmarks/bench_wire.py --smoke                  # CI: quick
"""

from __future__ import annotations

import copy
import statistics
from typing import Any, Dict

from repro.dist.message import check_wire_safe, decode, encode, request

from harness import floor_pair_ns

RATIO_BOUND = 0.6  # codec round trip / legacy round trip


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


def measure(iterations: int = 20000, rounds: int = 5) -> Dict[str, float]:
    """Median per-round floors (ns) and the codec / legacy ratio."""
    payload = put_payload()
    assert codec_round_trip(payload) == LegacyWire.deliver(payload) \
        == payload
    pairs = {
        "round_trip": (lambda: codec_round_trip(payload),
                       lambda: LegacyWire.deliver(payload)),
        "check": (lambda: check_wire_safe(payload),
                  lambda: legacy_check_wire_safe(payload)),
    }
    results: Dict[str, float] = {}
    for name, (codec, legacy) in pairs.items():
        samples = [floor_pair_ns(codec, legacy, iterations)
                   for _ in range(rounds)]
        results[f"codec_{name}_ns"] = statistics.median(
            codec_ns for codec_ns, _ in samples)
        results[f"legacy_{name}_ns"] = statistics.median(
            legacy_ns for _, legacy_ns in samples)
        results[f"{name}_ratio"] = statistics.median(
            codec_ns / legacy_ns for codec_ns, legacy_ns in samples)
    return results


def test_codec_round_trip_within_bound():
    results = measure(iterations=4000, rounds=5)
    assert results["round_trip_ratio"] <= RATIO_BOUND, (
        f"codec round trip is {results['round_trip_ratio']:.2f}x the "
        f"legacy check-copy-check (bound {RATIO_BOUND}x): {results}"
    )


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (fewer iterations), still asserts the bound",
    )
    arguments = parser.parse_args(argv)
    if arguments.smoke:
        results = measure(iterations=4000, rounds=5)
    else:
        results = measure()
    for name in ("round_trip", "check"):
        print(f"{name:>10}: codec {results[f'codec_{name}_ns'] / 1e3:6.2f} us"
              f"  legacy {results[f'legacy_{name}_ns'] / 1e3:6.2f} us"
              f"  ratio {results[f'{name}_ratio']:.2f}x")
    ratio = results["round_trip_ratio"]
    if ratio > RATIO_BOUND:
        print(f"FAIL: round-trip ratio {ratio:.2f}x > {RATIO_BOUND}x")
        return 1
    print(f"ok: round-trip ratio {ratio:.2f}x <= {RATIO_BOUND}x")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())

"""Self-test of the bench harness on synthetic per-round samples.

The paired loop, the summary and the re-measure rule decide every
bench gate, so they are checked here without timing anything.
"""

import contextlib
import json
import statistics

import pytest

import harness


def test_a_slower_control_has_the_larger_median_and_a_negative_overhead():
    samples = {
        "legacy": [120.0, 131.0, 118.0, 140.0, 125.0, 122.0],
        "current": [100.0, 110.0, 101.0, 120.0, 104.0, 99.0],
    }
    summary = harness.summarize(samples, "legacy")
    ns = summary["ns_per_call"]
    assert ns["legacy"]["median"] > ns["current"]["median"]
    assert summary["ratio"]["current"] - 1.0 < 0
    assert "legacy" not in summary["ratio"]
    assert summary["control"] == "legacy"
    assert summary["rounds"] == 6


def test_quartiles_and_median_ratio_equal_statistics():
    samples = {
        "base": [10.0, 12.0, 9.5, 30.0, 11.0, 10.5, 10.2],
        "candidate": [10.1, 12.5, 9.4, 29.0, 11.3, 10.4, 10.9],
        "extra": [50.0, 61.0, 47.0, 150.0, 55.0, 52.0, 51.0],
    }
    summary = harness.summarize(samples, "base")
    for name, values in samples.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert summary["ns_per_call"][name] == {
            "median": statistics.median(values), "q1": q1, "q3": q3,
        }
        assert median == statistics.median(values)
    for name in ("candidate", "extra"):
        assert summary["ratio"][name] == statistics.median(
            value / base
            for value, base in zip(samples[name], samples["base"]))


@pytest.mark.parametrize("fresh, opened", [(False, 1), (True, 4)])
def test_paired_rounds_alternates_which_side_goes_first(fresh, opened):
    calls = {"control": lambda: None, "candidate": lambda: None,
             "extra": lambda: None}

    @contextlib.contextmanager
    def rigs(facts):
        facts["entries"] = facts.get("entries", 0) + 1
        yield calls

    def timer(first, second, iterations):
        # the side timed first reads 1 ns, the other 2 ns
        assert {first, second} == {calls["control"], calls["candidate"]}
        return 1.0, 2.0

    summary = harness.paired_rounds(
        rigs, "control", "candidate", rounds=4, iterations=10, timer=timer,
        extras=("extra",), extra_iterations=3, fresh=fresh)
    assert summary["entries"] == opened
    assert summary["rounds"] == 4
    assert summary["ns_per_call"]["control"]["median"] == 1.5
    # control first on even rounds: ratios 2, 0.5, 2, 0.5
    assert summary["ratio"]["candidate"] == 1.25
    assert set(summary["ratio"]) == {"candidate", "extra"}


@pytest.mark.parametrize("overheads, attempts, kept, taken, discarded", [
    # stops at the first in bound
    ([0.05, 0.03, 0.01, 0.00], 4, 0.01, 3, [0.05, 0.03]),
    # none in bound: the lowest
    ([0.05, 0.03, 0.04, 0.06], 4, 0.03, 4, [0.05, 0.04, 0.06]),
    ([0.01, 0.00], 3, 0.01, 1, []),
])
def test_remeasure_stops_in_bound_or_keeps_the_lowest(
        overheads, attempts, kept, taken, discarded):
    runs = []

    def measure():
        runs.append({"overhead": overheads[len(runs)]})
        return runs[-1]

    best = harness.remeasure(
        measure, attempts, key=lambda results: results["overhead"],
        failures=lambda results: ["over"] if results["overhead"] > 0.02
        else [])
    assert best == {"overhead": kept, "remeasure": {
        "attempts": taken, "discarded": discarded}}
    assert len(runs) == taken
    # the table shows a later-attempt pass as one
    rows = "\n".join(harness.table({"section": best}))
    assert f"remeasure.attempts            {taken}" in rows


def test_run_writes_its_json_into_the_ignored_bench_dir(tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = harness.run(
        [], "bench title\n", "BENCH_X.json",
        lambda smoke: {"section": {"overhead": 0.01}},
        {"section": lambda results: []}, {"overhead": 0.02})
    assert code == 0
    assert not (tmp_path / "BENCH_X.json").exists()
    document = json.loads((tmp_path / ".bench" / "BENCH_X.json").read_text())
    assert document["results"] == {"section": {"overhead": 0.01}}

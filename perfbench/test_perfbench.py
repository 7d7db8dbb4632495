"""Smoke tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

Each test starts ``perfbench/run.py`` in a fresh interpreter, the way
the benchmark is meant to be run, with a one-second measurement.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("fig3_local", "fig3_observed", "kv_rpc", "tickets_park")


def _run(workload, *extra, seed=7, seconds=1, cwd=ROOT):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done, lines, result


def _printed(lines):
    """name -> (unit, sample count) of the per-metric lines."""
    printed = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[3].startswith("n="):
            printed[fields[0]] = (fields[2], int(fields[3][2:]))
    return printed


def test_benchmark_json_names_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_end_to_end_metric(workload):
    done, lines, result = _run(workload, "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    printed = _printed(lines)
    for name, unit in END_TO_END.items():
        assert printed[name][0] == unit
        assert printed[name][1] >= 1
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    diagnostics = {line.split()[0] for line in lines
                   if line.endswith(" diagnostic")}
    assert {"latency_p99_us", "read_p99_us", "write_p99_us"} <= diagnostics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    done, lines, result = _run(workload, "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(result["metrics"]) == set(PER_LAYER)
    printed = _printed(lines)
    for name, unit in PER_LAYER.items():
        assert printed[name][0] == unit
    metrics = {name: entry["value"] for name, entry in
               result["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0
    assert abs(metrics["trace.ledger_residual_ratio"]) <= 0.05
    assert metrics["core.moderator.preactivation_ns"] > 0


def test_exact_counts_repeat_for_a_seed():
    def exact(lines):
        return [line for line in lines if line.startswith("exact.")]
    for workload in ("kv_rpc", "fig3_observed"):
        first = exact(_run(workload, "--trace", "0", seed=3)[1])
        second = exact(_run(workload, "--trace", "0", seed=3)[1])
        assert first and first == second
    parks = exact(_run("tickets_park", "--trace", "0", seed=3)[1])
    assert [line.split() for line in parks] == \
        [["exact.parks_per_assign", "1.000000"]]


@pytest.mark.parametrize("workload,plant", [
    ("kv_rpc", "wrong_read"),
    ("fig3_local", "double_assign"),
    ("tickets_park", "double_assign"),
])
def test_planted_defect_trips_the_gate(workload, plant):
    done, lines, result = _run(workload, "--trace", "0", "--plant", plant)
    assert done.returncode == 1
    assert result["correct"] is False
    assert any(line.startswith("GATE FAILED") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, _lines, result = _run("fig3_local", "--trace", "0",
                                cwd=str(tmp_path))
    assert done.returncode != 0
    assert result is None

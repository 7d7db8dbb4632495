#!/usr/bin/env python3
"""Steadiness evidence: many untraced runs per workload, one per seed.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 --seconds 25 [--workload W ...]

Runs ``perfbench/run.py`` once per seed (1..runs) and workload, in
sequence, and writes ``perfbench/STEADINESS.md``: each run's metrics and
``host.ref_us``, then per metric the median, the quartiles and their
spread (distance between quartiles over the median, as
``statistics.quantiles(values, n=4)`` gives them) — for the estimator
the benchmark reports and, from the same runs, for the same estimator
without host normalization and for whole-run pooled figures, which
justify it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig3_local", "fig3_observed", "kv_rpc", "tickets_park")


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diag = json.loads(next(line for line in lines
                           if line.startswith("diag "))[5:])
    return {"seed": seed, "exit": done.returncode, "result": result,
            "diag": diag}


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else 0.0}


def report(runs: Dict[str, List[Dict[str, Any]]], seconds: float) -> str:
    out = ["# Steadiness evidence", "",
           f"Untraced runs of `perfbench/run.py --seconds {seconds:g}`, "
           "one per seed, each in a fresh interpreter, run one after "
           "another on one 2-vCPU VM. *spread* is the distance between the "
           "quartiles over the median (`statistics.quantiles(values, "
           "n=4)`). *windowed* is what the benchmark reports (host-"
           "normalized windows, see README.md); *wall* is the same "
           "estimator without the host normalization; *pooled* is the "
           "run's wall-clock figure over all its samples at once.", ""]
    for workload, rows in runs.items():
        metrics = list(rows[0]["result"]["metrics"])
        out += [f"## {workload}", "",
                "| seed | ok | host.ref_us | "
                + " | ".join(metrics) + " |",
                "|---" * (len(metrics) + 3) + "|"]
        for row in rows:
            values = row["result"]["metrics"]
            out.append(
                f"| {row['seed']} | {row['result']['correct']} | "
                f"{row['diag']['host_ref_us']:.0f} | "
                + " | ".join(f"{values[name]['value']:.4g}"
                             for name in metrics) + " |")
        out += ["", "| metric | estimator | median | q1 | q3 | spread |",
                "|---|---|---|---|---|---|"]
        for name in metrics:
            estimators = [("windowed", [r["result"]["metrics"][name]["value"]
                                        for r in rows])]
            for label in ("wall", "pooled"):
                values = [r["diag"][label].get(name) for r in rows]
                if None not in values:
                    estimators.append((label, values))
            for label, values in estimators:
                s = spread(values)
                out.append(f"| {name} | {label} | {s['median']:.4g} | "
                           f"{s['q1']:.4g} | {s['q3']:.4g} | "
                           f"{s['spread']:.3f} |")
        unbounded = [name for name, value in
                     rows[0]["diag"].get("unbounded", {}).items()
                     if value is not None]
        if unbounded:
            out += ["", "Diagnostics (printed, not bounded):", "",
                    "| metric | median | q1 | q3 | spread |",
                    "|---|---|---|---|---|"]
            for name in unbounded:
                s = spread([r["diag"]["unbounded"][name] for r in rows])
                out.append(f"| {name} | {s['median']:.4g} | {s['q1']:.4g} "
                           f"| {s['q3']:.4g} | {s['spread']:.3f} |")
        refs = [row["diag"]["host_ref_us"] for row in rows]
        out += ["", f"host.ref_us over the runs: {spread(refs)}", ""]
    return "\n".join(out) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", default=os.path.join(HERE, "STEADINESS.md"))
    args = parser.parse_args()
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for workload in args.workload or WORKLOADS:
        runs[workload] = []
        for seed in range(1, args.runs + 1):
            row = run_once(workload, seed, args.seconds)
            runs[workload].append(row)
            print(workload, seed, row["exit"], json.dumps(
                {name: round(entry["value"], 4) for name, entry in
                 row["result"]["metrics"].items()}), flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report(runs, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())

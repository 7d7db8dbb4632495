"""The one harness behind the paired-control benches.

Every bench with a ``--smoke`` mode runs through :func:`run`, and those
that bound a feature against a control time it with
:func:`paired_rounds`. A bench keeps its rigs, sizes, bounds and checks.

**The loop.** :func:`paired_rounds` opens a rig set once, or afresh each
round (``fresh``: redrawing scheduler placement every round turns a
per-process bias into per-round noise), warms every call up, then times
control and candidate with a pair timer — :func:`chunk_pair_ns` (one
:func:`mean_call_ns` chunk each) or :func:`floor_pair_ns` (min of
interleaved sub-chunks) — control first on even rounds and candidate
first on odd ones, then each unpaired extra in one chunk. A rig set is
a context manager: code after its ``yield`` runs the bench's checks and
records facts, its ``finally`` closes the rigs.

**The summary.** :func:`summarize` gives, per configuration, the median
and quartiles of the per-round ns/call, and per candidate or extra the
median of its within-round ratio to the control. Drift and scheduler
noise hit both members of a pair alike, so the ratio is what the gates
bound; the ns columns are medians of the same per-round samples, so
they cannot contradict it the way a min-of-rounds column could.

**The re-measure rule.** :func:`remeasure` repeats a measurement while
its check fails, up to a fixed number of attempts, and keeps the best:
on a shared host steal time can inflate one whole run. The kept result
says how many attempts ran and what the discarded ones measured, so a
pass on a later attempt shows as one in the table and the JSON.

**The runner.** :func:`run` is every bench's ``main``:
``python benchmarks/bench_<name>.py [--smoke] [--json PATH]`` measures
(``--smoke``: CI-sized, same bounds), prints one table, writes one JSON
schema (``bench``, ``smoke``, ``bounds``, ``results``, ``failures``)
to ``PATH`` (default ``.bench/BENCH_<X>.json``, an ignored directory:
the tracked ``BENCH_*.json`` at the repository root are archives),
prints a ``FAIL:`` line per failure of the check function the bench's
pytest gate asserts, and exits non-zero on any.

The benches import this module by bare name: both ``python
benchmarks/bench_<name>.py`` and a pytest run over ``benchmarks/`` put
this directory on ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

#: where a bench writes its JSON document unless given ``--json``
BENCH_DIR = ".bench"


def mean_call_ns(bound_call, iterations):
    """Mean per-call nanoseconds over one timed chunk."""
    started = time.perf_counter_ns()
    for _ in range(iterations):
        bound_call()
    return (time.perf_counter_ns() - started) / iterations


def chunk_pair_ns(first_call, second_call, iterations):
    """One :func:`mean_call_ns` chunk for each of two callables."""
    return (mean_call_ns(first_call, iterations),
            mean_call_ns(second_call, iterations))


#: sub-chunks each side's per-round budget is split into; the per-round
#: figure is the *minimum* sub-chunk mean, so a steal burst or GC pause
#: landing inside one sub-chunk is excluded instead of averaged in
CHUNKS = 10


def floor_pair_ns(first_call, second_call, iterations):
    """Floor (min-of-chunks) ns/call for two interleaved callables.

    Splits each side's budget into :data:`CHUNKS` timed sub-chunks and
    interleaves them first/second/first/second, so contamination from a
    shared-host steal window or a GC pause hits isolated sub-chunks of
    *both* sides; the per-side minimum keeps only clean sub-chunks.
    """
    per_chunk = max(iterations // CHUNKS, 10)
    first_samples = []
    second_samples = []
    for _ in range(CHUNKS):
        first_samples.append(mean_call_ns(first_call, per_chunk))
        second_samples.append(mean_call_ns(second_call, per_chunk))
    return min(first_samples), min(second_samples)


def paired_rounds(open_rigs, control, candidate, *, rounds, iterations,
                  timer=chunk_pair_ns, extras=(), extra_iterations=0,
                  warm_iterations=0, fresh=False):
    """Time ``candidate`` against ``control`` over ``rounds`` rounds.

    ``open_rigs(facts)`` returns a context manager yielding a mapping of
    configuration name to zero-argument call, entered once or, when
    ``fresh``, once per round; whatever it puts in ``facts`` joins the
    returned :func:`summarize` of the per-round samples.
    """
    samples = {name: [] for name in (control, candidate, *extras)}
    facts = {}

    def warm(calls):
        if warm_iterations:
            for call in calls.values():
                mean_call_ns(call, warm_iterations)

    def one_round(calls, index):
        if index % 2 == 0:
            control_ns, candidate_ns = timer(
                calls[control], calls[candidate], iterations)
        else:
            candidate_ns, control_ns = timer(
                calls[candidate], calls[control], iterations)
        samples[control].append(control_ns)
        samples[candidate].append(candidate_ns)
        for name in extras:
            samples[name].append(mean_call_ns(calls[name], extra_iterations))

    if fresh:
        for index in range(rounds):
            with open_rigs(facts) as calls:
                warm(calls)
                one_round(calls, index)
    else:
        with open_rigs(facts) as calls:
            warm(calls)
            for index in range(rounds):
                one_round(calls, index)
    return {"iterations": iterations, **summarize(samples, control), **facts}


def spread(values):
    """Median and quartiles of ``values``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(samples, control):
    """Per-configuration spread of the per-round ns/call samples, and
    per non-control configuration the median within-round ratio to
    ``control`` (``samples[name][i] / samples[control][i]``)."""
    base = samples[control]
    return {
        "control": control,
        "rounds": len(base),
        "ns_per_call": {name: spread(values)
                        for name, values in samples.items()},
        "ratio": {
            name: statistics.median(
                ns / control_ns for ns, control_ns in zip(values, base))
            for name, values in samples.items() if name != control
        },
    }


def overhead_failures(summary, bounds):
    """A message for each configuration in ``bounds`` whose overhead
    (median ratio to the control, minus one) exceeds its bound."""
    failures = []
    for name, bound in bounds.items():
        overhead = summary["ratio"][name] - 1.0
        if overhead > bound:
            failures.append(f"{name} overhead {overhead * 100:.2f}% exceeds "
                            f"{bound * 100:.0f}% bound")
    return failures


def remeasure(measure, attempts, key, failures):
    """Run ``measure()`` up to ``attempts`` times while the best result
    so far has ``failures``; keep the one with the lowest ``key``.

    The kept result gains ``remeasure``: the number of ``attempts`` run
    and the ``discarded`` attempts' keys, in the order they ran."""
    runs = [measure()]
    while len(runs) < attempts and failures(min(runs, key=key)):
        runs.append(measure())
    best = min(runs, key=key)
    return dict(best, remeasure={
        "attempts": len(runs),
        "discarded": [key(run) for run in runs if run is not best],
    })


def _shown(value):
    if isinstance(value, float):
        return f"{value:,.6g}"
    if isinstance(value, list):
        return "[" + ", ".join(_shown(item) for item in value) + "]"
    return value


def _rows(values, prefix=""):
    for key, value in values.items():
        if isinstance(value, dict):
            yield from _rows(value, f"{prefix}{key}.")
        else:
            yield f"  {prefix + key:<30}{_shown(value)}"


def table(results):
    """Per section: a row per configuration of a paired summary (median
    and quartile ns, ratio to the control), then every other figure."""
    for section, values in results.items():
        yield f"[{section}]"
        paired = values.get("ns_per_call", {})
        if paired:
            yield (f"  {'configuration':<18}{'median ns':>12}"
                   f"{'q1 ns':>12}{'q3 ns':>12}  ratio")
        for name, ns in paired.items():
            ratio = values["ratio"].get(name)
            shown = "control" if ratio is None else \
                f"{ratio:.4f}x ({(ratio - 1.0) * 100:+.2f}%)"
            yield (f"  {name:<18}{ns['median']:>12,.0f}"
                   f"{ns['q1']:>12,.0f}{ns['q3']:>12,.0f}  {shown}")
        yield from _rows({key: value for key, value in values.items()
                          if key not in ("ns_per_call", "ratio", "control")})


def run(argv, doc, json_name, measure, checks, bounds):
    """The ``main`` of a bench.

    ``measure(smoke)`` returns the bench's results as a mapping of
    section name to figures; ``checks`` maps a section name to the
    function that returns one message per failed gate of that section.
    Prints the table, writes the JSON document to ``--json`` (default
    ``json_name`` in :data:`BENCH_DIR`), prints a ``FAIL:`` line per
    failure and returns the exit code.
    """
    json_path = os.path.join(BENCH_DIR, json_name)
    title = doc.splitlines()[0]
    parser = argparse.ArgumentParser(description=title)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run (fewer rounds), still asserts every bound",
    )
    parser.add_argument(
        "--json", default=json_path,
        help=f"output path for the measured table (default {json_path})",
    )
    arguments = parser.parse_args(argv)
    results = measure(arguments.smoke)
    failures = [failure for section, check in checks.items()
                for failure in check(results[section])]
    print(title, *table(results), sep="\n")
    document = {"bench": title, "smoke": arguments.smoke, "bounds": bounds,
                "results": results, "failures": failures}
    os.makedirs(os.path.dirname(arguments.json) or ".", exist_ok=True)
    with open(arguments.json, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    print(f"wrote {arguments.json}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0

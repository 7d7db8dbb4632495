"""Architecture diagrams: render a cluster as Graphviz DOT (Figure 1).

The paper's Figure 1 draws the moderator/bank/factory/proxy/component
box diagram by hand. :func:`cluster_to_dot` renders the same picture
from a live cluster — the diagram can never drift from the code.
"""

from __future__ import annotations

from typing import List

from repro.core.registry import Cluster


def _quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def cluster_to_dot(cluster: Cluster, name: str = "cluster") -> str:
    """Render the Figure 1 architecture of one cluster as DOT text.

    Nodes: the functional component, the proxy, the moderator, the
    factories, and one node per registered aspect; edges mirror the
    figure's arrows (proxy guards component, proxy delegates to
    moderator, moderator evaluates aspects, factories create aspects,
    bank cells labelled method x concern).
    """
    arch = cluster.architecture()
    lines: List[str] = [
        f"digraph {name} {{",
        "  rankdir=LR;",
        "  node [shape=box, fontsize=11];",
        f"  component [label={_quote(arch['functional_component'])}, "
        f"style=filled, fillcolor=lightyellow];",
        f"  proxy [label={_quote(arch['proxy'])}];",
        f"  moderator [label={_quote(arch['aspect_moderator'])}];",
    ]
    for index, factory_name in enumerate(arch["aspect_factory"]):
        lines.append(
            f"  factory{index} [label={_quote(factory_name)}, "
            f"shape=component];"
        )
    lines.append("  proxy -> component [label=\"invokes\"];")
    lines.append(
        "  proxy -> moderator [label=\"pre/post-activation\"];"
    )
    seen_aspects = {}
    for method_id, concern, aspect in cluster.bank:
        key = id(aspect)
        if key not in seen_aspects:
            node = f"aspect{len(seen_aspects)}"
            seen_aspects[key] = node
            lines.append(
                f"  {node} [label={_quote(aspect.describe())}, "
                f"shape=ellipse, style=filled, fillcolor=lightblue];"
            )
        node = seen_aspects[key]
        lines.append(
            f"  moderator -> {node} "
            f"[label={_quote(method_id + ' x ' + concern)}];"
        )
    for index in range(len(arch["aspect_factory"])):
        for node in set(seen_aspects.values()):
            # factories create aspects; draw one dashed creation edge
            lines.append(
                f"  factory{index} -> {node} [style=dashed, "
                f"label=\"creates\"];"
            )
            break  # one representative edge per factory keeps it readable
    lines.append("}")
    return "\n".join(lines)


def bank_to_table(cluster: Cluster) -> str:
    """Render the aspect bank as a fixed-width text table.

    The textual form of the "hierarchical two-dimensional composition"
    — rows are participating methods, columns are concerns.
    """
    grid = cluster.bank.grid()
    concerns: List[str] = []
    for row in grid.values():
        for concern in row:
            if concern not in concerns:
                concerns.append(concern)
    if not grid:
        return "(empty bank)"
    method_width = max(len(m) for m in grid) + 2
    widths = {
        concern: max(
            len(concern),
            *(len(row.get(concern, "")) for row in grid.values()),
        ) + 2
        for concern in concerns
    }
    header = " " * method_width + "".join(
        f"{concern:<{widths[concern]}}" for concern in concerns
    )
    lines = [header.rstrip()]
    for method, row in grid.items():
        line = f"{method:<{method_width}}" + "".join(
            f"{row.get(concern, '-'):<{widths[concern]}}"
            for concern in concerns
        )
        lines.append(line.rstrip())
    return "\n".join(lines)


def plan_to_dot(plan: "object", name: str = "plan") -> str:
    """Render one compiled activation plan as a DOT pipeline.

    Accepts an :class:`~repro.core.plan.ActivationPlan` or its
    ``explain()`` report. The rendering is the dynamic complement of
    :func:`cluster_to_dot`: Figure 1 shows who talks to whom, this shows
    what one activation of ``method_id`` will actually execute, in
    order — pre-activation left to right, post-activation implied in
    reverse. Degraded cells are drawn filled red with their quarantine
    policy, so a quarantined composition is visibly different from a
    healthy one.
    """
    report = plan.explain() if hasattr(plan, "explain") else dict(plan)
    method_id = report["method_id"]
    mode = "fast-path" if report["never_blocks"] else "locked"
    lines: List[str] = [
        f"digraph {name} {{",
        "  rankdir=LR;",
        "  node [shape=box, fontsize=11];",
        f"  method [label={_quote(method_id + ' (' + mode + ')')}, "
        f"style=filled, fillcolor=lightyellow];",
    ]
    previous = "method"
    for cell in report["cells"]:
        node = f"cell{cell['position']}"
        label = f"{cell['concern']}\\n{cell['aspect_class']}"
        if cell["degraded"]:
            label += f"\\nQUARANTINED ({cell['degraded']})"
            style = "style=filled, fillcolor=lightcoral"
        else:
            style = "style=filled, fillcolor=lightblue"
        lines.append(f"  {node} [label={_quote(label)}, {style}];")
        lines.append(f"  {previous} -> {node} [label=\"precondition\"];")
        previous = node
    note = (
        f"domain {report['lock_domain']}\\nordering {report['ordering']}"
    )
    lines.append(f"  key [shape=note, fontsize=9, label={_quote(note)}];")
    lines.append("}")
    return "\n".join(lines)


def plan_table(moderator: "object") -> str:
    """Summarize every method's compiled plan as a fixed-width table.

    One row per participating method: the effective pre-activation
    order, the executor the plan selected (fast/locked), and the lock
    domain — the at-a-glance answer to "what did compilation decide".
    """
    reports = moderator.explain()
    if not reports:
        return "(no participating methods)"
    rows = []
    for method_id in sorted(reports):
        report = reports[method_id]
        chain = " -> ".join(report["preactivation_order"]) or "(empty)"
        flags = []
        flags.append("fast" if report["never_blocks"] else "locked")
        if report["injector_armed"]:
            flags.append("injected")
        if any(cell["degraded"] for cell in report["cells"]):
            flags.append("degraded")
        profile = report.get("profile")
        if profile:
            if profile.get("reordered"):
                flags.append("reordered by profile")
            if profile.get("memoized"):
                flags.append("memoized")
            if profile.get("elided"):
                flags.append("elided:" + ",".join(profile["elided"]))
        rows.append(
            (method_id, chain, ",".join(flags), report["lock_domain"])
        )
    headers = ("method", "pre-activation order", "executor", "lock domain")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) + 2
        for i in range(4)
    ]
    lines = [
        "".join(f"{headers[i]:<{widths[i]}}" for i in range(4)).rstrip()
    ]
    for row in rows:
        lines.append(
            "".join(f"{row[i]:<{widths[i]}}" for i in range(4)).rstrip()
        )
    return "\n".join(lines)

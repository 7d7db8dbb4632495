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


def span_to_dot(span: "object", name: str = "span",
                wake_edges: "object" = None) -> str:
    """Render one activation span tree as a DOT graph.

    Accepts a :class:`~repro.obs.spans.Span` or its exported dict form
    (:meth:`~repro.obs.spans.Span.to_dict`). The temporal complement of
    :func:`plan_to_dot`: the plan shows what an activation *would*
    execute, this shows what one activation *did* — every segment with
    its measured duration, aborted/faulted segments filled red, blocked
    (parked) segments filled grey. ``wake_edges`` (an iterable of
    :class:`~repro.obs.spans.WakeEdge` or equivalent dicts) adds dashed
    cross-activation wake arrows when the referenced spans are present.
    """
    def _as_dict(node: "object") -> dict:
        if isinstance(node, dict):
            return node
        return {
            "name": node.name, "concern": node.concern,
            "status": node.status, "duration": node.duration,
            "span_id": node.span_id, "method_id": node.method_id,
            "activation_id": node.activation_id,
            "children": list(node.children),
        }

    lines: List[str] = [
        f"digraph {name} {{",
        "  rankdir=TB;",
        "  node [shape=box, fontsize=10];",
    ]
    ids = {}

    def _render(node: "object", parent: str) -> None:
        data = _as_dict(node)
        dot_id = f"s{len(ids)}"
        ids[data["span_id"]] = dot_id
        label = data["name"]
        if data.get("concern"):
            label += f"[{data['concern']}]"
        if data["name"] == "activation":
            label += (
                f"\\n{data.get('method_id', '')}"
                f" #{data.get('activation_id', '')}"
            )
        label += f"\\n{data.get('duration', 0.0) * 1e6:.1f}us"
        status = data.get("status", "ok")
        if status in ("aborted", "fault", "timeout"):
            label += f"\\n{status.upper()}"
            style = "style=filled, fillcolor=lightcoral"
        elif data["name"] == "blocked":
            style = "style=filled, fillcolor=lightgrey"
        elif data["name"] == "activation":
            style = "style=filled, fillcolor=lightyellow"
        else:
            style = "style=filled, fillcolor=lightblue"
        lines.append(f"  {dot_id} [label={_quote(label)}, {style}];")
        if parent:
            lines.append(f"  {parent} -> {dot_id};")
        for child in data.get("children", ()):
            _render(child, dot_id)

    roots = span if isinstance(span, (list, tuple)) else [span]
    for root in roots:
        _render(root, "")
    for edge in (wake_edges or ()):
        if isinstance(edge, dict):
            notifier = edge.get("notifier_span")
            woken = edge.get("woken_span")
        else:
            notifier = edge.notifier_span
            woken = edge.woken_span
        if notifier in ids and woken in ids:
            lines.append(
                f"  {ids[notifier]} -> {ids[woken]} "
                f"[style=dashed, color=darkgreen, label=\"wakes\"];"
            )
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

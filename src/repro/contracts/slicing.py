"""Dynamic causal slicing of failed activations across nodes.

When a contract violation (or an abort, timeout, stall) surfaces, the
interesting question is rarely the failing activation itself — it is
the chain of activations whose effects it observed. Ray et al.
(*Dynamic Slice of Concurrent Aspect-Oriented Programs*, PAPERS.md)
compute such slices at the statement level; this plane computes them at
the framework's natural granularity — the **activation** — using
evidence the observability plane already records:

* **parent edges** — the failing activation's root span is nested
  under a span of another activation (same-thread nesting: a servant
  body invoking another moderated method);
* **rpc edges** — two activations share a trace id and the callee's
  root falls inside the caller's ``invoke`` segment. The RPC layer
  propagates the *caller's* context verbatim, so caller and callee are
  trace siblings, not parent/child — this edge restores the enclosure
  the wire format flattens;
* **wake edges** — the recorder's notify→unblock links: the
  activation whose completion unparked this one is causally upstream.
  An edge whose notifier (or woken activation) has no tree in the
  exports — an unsampled notifier, usually — cannot be followed; the
  slice lists it in :attr:`CausalSlice.unresolved_wakes` instead of
  dropping it silently;
* **state edges** — contract evidence: a ``prior_write`` record names
  the activation (possibly on another node) that last mutated the
  observables the violated clause ranges over.

The slice is the backward closure of the failing activation over these
edges — the *minimal causal sub-trace*: activations with no path to
the failure are excluded, however close in time they ran.

Inputs are the wire-safe export forms (``SpanRecorder.export()``,
``SpanRecorder.export_wake_edges()``, ``ContractViolation.evidence``),
so slices can be computed offline, on another machine, from several
nodes' dumps at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CausalSlice",
    "SliceActivation",
    "causal_slice",
    "find_failed",
    "slice_to_dot",
]

#: root statuses that count as failures for :func:`find_failed`
FAILED_STATUSES = ("contract", "fault", "aborted", "timeout", "stalled")

#: wall-clock slack when testing rpc enclosure — per-process anchors
#: are captured independently, so allow a little skew
_RPC_SKEW = 1e-3

Key = Tuple[str, int]


@dataclass
class SliceActivation:
    """One activation node of a causal slice."""

    node: str
    activation_id: int
    method_id: str
    trace_id: str
    span_id: str
    start: float
    end: float
    status: str
    annotations: List[str] = field(default_factory=list)

    @property
    def key(self) -> Key:
        return (self.node, self.activation_id)

    def label(self) -> str:
        text = f"{self.node}/#{self.activation_id} {self.method_id}"
        if self.status != "ok":
            text += f" ({self.status})"
        return text


@dataclass
class CausalSlice:
    """The minimal causal sub-trace of one failed activation."""

    target: Key
    activations: Dict[Key, SliceActivation]
    #: (cause key, effect key, kind) — kind in parent/rpc/wake/state
    edges: List[Tuple[Key, Key, str]]
    #: activations seen in the input but *not* causally upstream —
    #: what the slice excluded (the point of slicing)
    excluded: List[Key] = field(default_factory=list)
    #: (notifier key, woken key) of each input wake edge into a slice
    #: member whose notifier has no tree in the exports (an unsampled
    #: notifier, most often): the closure could not follow it, so a
    #: cause behind it may be missing from the slice
    unresolved_wakes: List[Tuple[Key, Key]] = field(default_factory=list)

    def ordered(self) -> List[SliceActivation]:
        """Slice members in wall-clock order (cause before effect)."""
        return sorted(self.activations.values(),
                      key=lambda item: (item.start, item.activation_id))

    def nodes(self) -> List[str]:
        """Distinct node labels the slice spans, first-seen order."""
        seen: List[str] = []
        for item in self.ordered():
            if item.node not in seen:
                seen.append(item.node)
        return seen

    def format(self) -> str:
        """Human-readable rendering, causes first, target last."""
        lines = [
            f"causal slice of {self.target[0]}/#{self.target[1]} "
            f"({len(self.activations)} activation(s) across "
            f"{len(self.nodes())} node(s), "
            f"{len(self.excluded)} excluded)"
        ]
        incoming: Dict[Key, List[Tuple[Key, str]]] = {}
        for cause, effect, kind in self.edges:
            incoming.setdefault(effect, []).append((cause, kind))
        for item in self.ordered():
            marker = "*" if item.key == self.target else "-"
            lines.append(f"  {marker} {item.label()}")
            for cause, kind in incoming.get(item.key, ()):
                lines.append(
                    f"      <- {kind} from {cause[0]}/#{cause[1]}"
                )
            for note in item.annotations:
                lines.append(f"      @ {note}")
        for cause, effect in self.unresolved_wakes:
            lines.append(
                f"  ? wake from {cause[0]}/#{cause[1]} to "
                f"{effect[0]}/#{effect[1]} not followed: an end has no tree"
            )
        return "\n".join(lines)


def _flatten(span: Dict[str, Any], out: List[Dict[str, Any]]) -> None:
    out.append(span)
    for child in span.get("children", ()):
        _flatten(child, out)


def _collect(
    exports: Sequence[Iterable[Dict[str, Any]]],
) -> Tuple[Dict[Key, SliceActivation], Dict[Key, Dict[str, Any]],
           Dict[str, Key]]:
    """Index exported spans: activations, raw roots, span ownership."""
    activations: Dict[Key, SliceActivation] = {}
    roots: Dict[Key, Dict[str, Any]] = {}
    span_owner: Dict[str, Key] = {}
    for export in exports:
        for root in export:
            if root.get("name") != "activation":
                continue
            key = (root.get("node", ""), int(root.get("activation_id", 0)))
            flat: List[Dict[str, Any]] = []
            _flatten(root, flat)
            for span in flat:
                span_owner[span["span_id"]] = key
            activations[key] = SliceActivation(
                node=key[0], activation_id=key[1],
                method_id=root.get("method_id", ""),
                trace_id=root.get("trace_id", ""),
                span_id=root.get("span_id", ""),
                start=float(root.get("start", 0.0)),
                end=float(root.get("end", 0.0)),
                status=root.get("status", "ok"),
                annotations=[
                    text for _ts, text in root.get("annotations", ())
                ],
            )
            roots[key] = root
    return activations, roots, span_owner


def _invoke_intervals(
    roots: Dict[Key, Dict[str, Any]],
) -> Dict[Key, List[Tuple[float, float]]]:
    intervals: Dict[Key, List[Tuple[float, float]]] = {}
    for key, root in roots.items():
        for child in root.get("children", ()):
            if child.get("name") == "invoke":
                intervals.setdefault(key, []).append(
                    (float(child.get("start", 0.0)),
                     float(child.get("end", 0.0)))
                )
    return intervals


def find_failed(
    *exports: Iterable[Dict[str, Any]],
) -> Optional[Key]:
    """The most interesting failed activation in the exports, if any.

    Contract violations win over other failure modes (they carry blame
    and evidence); within a class, the earliest failure by wall clock —
    downstream failures are usually symptoms of the first one.
    """
    activations, _roots, _owner = _collect(exports)
    failed = [
        item for item in activations.values()
        if item.status in FAILED_STATUSES
    ]
    if not failed:
        return None
    failed.sort(key=lambda item: (item.status != "contract", item.start))
    return failed[0].key


def causal_slice(
    *exports: Iterable[Dict[str, Any]],
    target: Optional[Key] = None,
    wake_edges: Iterable[Dict[str, Any]] = (),
    evidence: Iterable[Dict[str, Any]] = (),
) -> CausalSlice:
    """Backward-close ``target`` over parent/rpc/wake/state edges.

    Args:
        exports: span exports (``SpanRecorder.export()``), one or more.
        target: ``(node, activation_id)``; defaults to
            :func:`find_failed` over the same exports.
        wake_edges: ``SpanRecorder.export_wake_edges()`` dicts.
        evidence: a :class:`~repro.core.errors.ContractViolation`'s
            evidence records — ``prior_write`` records become state
            edges into the target.

    Raises:
        ValueError: no target given and nothing failed, or the target
            is not present in the exports.
    """
    activations, roots, span_owner = _collect(exports)
    if target is None:
        target = find_failed(*exports)
        if target is None:
            raise ValueError(
                "no failed activation in the exports and no explicit "
                "target given"
            )
    target = (target[0], int(target[1]))
    if target not in activations:
        raise ValueError(
            f"target activation {target[0]}/#{target[1]} is not in the "
            f"exports (have {sorted(activations)})"
        )

    # -- build the full edge set (cause -> effect) ---------------------
    edges: List[Tuple[Key, Key, str]] = []

    for key, root in roots.items():
        parent_id = root.get("parent_id")
        if parent_id:
            owner = span_owner.get(parent_id)
            if owner is not None and owner != key:
                edges.append((owner, key, "parent"))

    intervals = _invoke_intervals(roots)
    parented = {effect for _cause, effect, _kind in edges}
    for key, item in activations.items():
        if key in parented:
            continue
        for caller_key, spans in intervals.items():
            if caller_key == key:
                continue
            caller = activations[caller_key]
            if caller.trace_id != item.trace_id:
                continue
            if any(
                start - _RPC_SKEW <= item.start <= end + _RPC_SKEW
                for start, end in spans
            ):
                edges.append((caller_key, key, "rpc"))
                break

    unresolved: List[Tuple[Key, Key]] = []
    for edge in wake_edges:
        node = edge.get("node", "")
        cause = (node, int(edge.get("notifier_activation", 0)))
        effect = (node, int(edge.get("woken_activation", 0)))
        if cause not in activations or effect not in activations:
            unresolved.append((cause, effect))
        elif cause != effect:
            edges.append((cause, effect, "wake"))

    for record in evidence:
        if record.get("seam") != "prior_write":
            continue
        cause = (record.get("node", ""),
                 int(record.get("activation_id", 0)))
        if cause in activations and cause != target:
            edges.append((cause, target, "state"))

    # -- backward closure from the target ------------------------------
    incoming: Dict[Key, List[Tuple[Key, Key, str]]] = {}
    for edge in edges:
        incoming.setdefault(edge[1], []).append(edge)
    member = {target}
    kept: List[Tuple[Key, Key, str]] = []
    frontier = [target]
    while frontier:
        current = frontier.pop()
        for cause, effect, kind in incoming.get(current, ()):
            kept.append((cause, effect, kind))
            if cause not in member:
                member.add(cause)
                frontier.append(cause)

    kept.sort(key=lambda edge: (activations[edge[0]].start,
                                activations[edge[1]].start, edge[2]))
    return CausalSlice(
        target=target,
        activations={key: activations[key] for key in member},
        edges=kept,
        excluded=sorted(set(activations) - member),
        unresolved_wakes=[(cause, effect) for cause, effect in unresolved
                          if effect in member],
    )


def slice_to_dot(slice_: CausalSlice) -> str:
    """Graphviz rendering: nodes clustered per process, edges by kind."""
    styles = {
        "parent": "solid",
        "rpc": "bold",
        "wake": "dashed",
        "state": "dotted",
    }
    names: Dict[Key, str] = {
        key: f"a{index}"
        for index, key in enumerate(sorted(slice_.activations))
    }
    lines = [
        "digraph causal_slice {",
        "  rankdir=LR;",
        "  node [shape=box, fontname=\"monospace\"];",
    ]
    for cluster_index, node in enumerate(slice_.nodes()):
        lines.append(f"  subgraph cluster_{cluster_index} {{")
        lines.append(f"    label=\"{node}\";")
        for key, item in sorted(slice_.activations.items()):
            if item.node != node:
                continue
            shape = []
            if key == slice_.target:
                shape.append("color=red, penwidth=2")
            label = f"#{item.activation_id} {item.method_id}"
            if item.status != "ok":
                label += f"\\n({item.status})"
            attrs = ", ".join([f"label=\"{label}\"", *shape])
            lines.append(f"    {names[key]} [{attrs}];")
        lines.append("  }")
    for cause, effect, kind in slice_.edges:
        style = styles.get(kind, "solid")
        lines.append(
            f"  {names[cause]} -> {names[effect]} "
            f"[style={style}, label=\"{kind}\"];"
        )
    lines.append("}")
    return "\n".join(lines)

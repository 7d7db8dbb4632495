"""Explicit-state exploration of aspect compositions.

Breadth-first exploration of every interleaving of the modelled
activations, checking safety properties in every reached state and
reporting deadlocks (pending work, no enabled transition — e.g. a
buffer whose consumers all aborted while producers still BLOCK) with a
shortest counterexample trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .model import (
    ActivationSpec, ChainBuilder, ModelState, Transition, replay,
)

#: A safety property: state -> error string or None.
Property = Callable[[ModelState], Optional[str]]

#: A trace is the transition labels from the root to a state.
Trace = Tuple[Tuple[str, str], ...]  # (kind, client)


@dataclass
class Violation:
    """A property violation or deadlock with its witness trace."""

    kind: str  # "property" | "deadlock"
    detail: str
    trace: Trace

    def format(self) -> str:
        steps = " -> ".join(f"{kind}({client})" for kind, client in self.trace)
        return f"{self.kind}: {self.detail}\n  trace: {steps or '<initial>'}"


@dataclass
class ExplorationReport:
    """Outcome of one exhaustive exploration."""

    states_explored: int
    transitions_taken: int
    violations: List[Violation] = field(default_factory=list)
    truncated: bool = False
    #: (from_id, label, to_id) edges when graph collection was requested
    edges: List[Tuple[int, str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated

    def summary(self) -> str:
        status = "OK" if self.ok else (
            "TRUNCATED" if self.truncated else "VIOLATIONS"
        )
        return (
            f"{status}: {self.states_explored} states, "
            f"{self.transitions_taken} transitions, "
            f"{len(self.violations)} violation(s)"
        )

    def to_dot(self, name: str = "composition") -> str:
        """Render the collected state graph as Graphviz DOT text.

        Requires the exploration to have run with
        ``collect_graph=True``; nodes are state ids, edges are labelled
        with the transition that produced them.
        """
        lines = [f"digraph {name} {{", "  rankdir=LR;",
                 '  node [shape=circle, fontsize=10];',
                 '  0 [shape=doublecircle, label="init"];']
        for source, label, target in self.edges:
            lines.append(f'  {source} -> {target} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


class Explorer:
    """Breadth-first explorer over the activation model.

    Args:
        build_chains: a fresh composition per replay — method ->
            aspect chains, or a wired moderator; called once per
            explored transition.
        specs: the scripted clients.
        properties: safety checks run in every state.
        max_states: exploration budget; exceeding it sets ``truncated``
            rather than raising, so callers can distinguish "verified"
            from "ran out of budget".
    """

    def __init__(
        self,
        build_chains: ChainBuilder,
        specs: Sequence[ActivationSpec],
        properties: Sequence[Property] = (),
        max_states: int = 100_000,
    ) -> None:
        self.build_chains = build_chains
        self.specs = list(specs)
        self.properties = list(properties)
        self.max_states = max_states

    def run(self, stop_at_first: bool = True,
            collect_graph: bool = False) -> ExplorationReport:
        """Explore all interleavings; returns the exploration report.

        Every successor is a replay of its parent's path plus one
        transition on a fresh composition. With ``collect_graph`` every
        transition (including those into already-visited states) is
        recorded for :meth:`ExplorationReport.to_dot`.
        """
        root = replay(self.build_chains, self.specs, ())
        root_fingerprint = root.fingerprint()
        #: fingerprint -> state id, in discovery order
        visited = {root_fingerprint: 0}
        frontier: deque = deque([((), 0, root.candidate_transitions())])
        report = ExplorationReport(states_explored=1, transitions_taken=0)

        self._check_state(root, (), report)
        if report.violations and stop_at_first:
            return report

        while frontier:
            path, state_id, candidates = frontier.popleft()
            enabled = 0
            for transition in candidates:
                successor_path = path + (transition,)
                successor = replay(self.build_chains, self.specs,
                                   successor_path)
                if successor is None:
                    continue  # the retry parks again: not enabled
                enabled += 1
                report.transitions_taken += 1
                fingerprint = successor.fingerprint()
                kind, index = transition
                client_name = self.specs[index].client
                if collect_graph:
                    target_id = visited.get(fingerprint, len(visited))
                    report.edges.append(
                        (state_id, f"{kind}({client_name})", target_id)
                    )
                if fingerprint in visited:
                    continue
                visited[fingerprint] = successor_id = len(visited)
                report.states_explored += 1
                self._check_state(successor, self._trace(successor_path),
                                  report)
                if report.violations and stop_at_first:
                    return report
                frontier.append((successor_path, successor_id,
                                 successor.candidate_transitions()))
                if report.states_explored >= self.max_states:
                    report.truncated = True
                    return report
            if candidates and not enabled:
                # pending work, no enabled transition
                report.violations.append(Violation(
                    kind="deadlock",
                    detail=self._describe_deadlock(
                        replay(self.build_chains, self.specs, path)
                    ),
                    trace=self._trace(path),
                ))
                if stop_at_first:
                    return report
        return report

    # ------------------------------------------------------------------
    def _trace(self, path: Sequence[Transition]) -> Trace:
        return tuple((kind, self.specs[index].client)
                     for kind, index in path)

    def _check_state(self, state: ModelState, trace: Trace,
                     report: ExplorationReport) -> None:
        for check in self.properties:
            error = check(state)
            if error:
                report.violations.append(Violation(
                    kind="property", detail=error, trace=trace,
                ))

    @staticmethod
    def _describe_deadlock(state: ModelState) -> str:
        stuck = [
            f"{client.spec.client}({client.spec.method}, "
            f"{client.completed}/{client.spec.repeat}, {client.status})"
            for client in state.clients
            if client.status == "waiting"
            or (client.status == "idle"
                and client.completed < client.spec.repeat)
        ]
        return f"no enabled transition; waiting clients: {', '.join(stuck)}"


def verify(build_chains: ChainBuilder,
           specs: Sequence[ActivationSpec],
           properties: Sequence[Property] = (),
           max_states: int = 100_000,
           stop_at_first: bool = True) -> ExplorationReport:
    """One-call interface: explore and report.

    Example — prove the bounded-buffer composition deadlock- and
    overflow-free for 2 producers x 2 consumers::

        report = verify(
            build_chains=lambda: make_buffer_chains(capacity=1),
            specs=[
                ActivationSpec("p1", "put", repeat=2),
                ActivationSpec("p2", "put", repeat=2),
                ActivationSpec("c1", "take", repeat=2),
                ActivationSpec("c2", "take", repeat=2),
            ],
            properties=[occupancy_bound("put", capacity=1)],
        )
        assert report.ok, report.summary()
    """
    explorer = Explorer(build_chains, specs, properties,
                        max_states=max_states)
    return explorer.run(stop_at_first=stop_at_first)

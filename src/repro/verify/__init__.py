"""Formal verification of aspect compositions (paper's open question).

"Should it further enable formal verification of system properties?"
(Section 1). This subpackage provides an explicit-state model checker
over compositions of real aspect objects, executed by the production
:class:`~repro.core.moderator.AspectModerator`: every interleaving of a
set of scripted activations is explored, safety properties are
evaluated in every state, and deadlocks are reported with shortest
counterexample traces.
"""

from .lint import Finding, lint_chain, lint_cluster, lint_plan
from .explorer import (
    ExplorationReport,
    Explorer,
    Violation,
    verify,
)
from .model import ActivationSpec, ClientState, ModelState, initial_state
from .properties import (
    aspect_invariant,
    concurrency_bound,
    mutual_exclusion,
    occupancy_bound,
)

__all__ = [
    "ActivationSpec",
    "ClientState",
    "ExplorationReport",
    "Finding",
    "Explorer",
    "ModelState",
    "Violation",
    "aspect_invariant",
    "concurrency_bound",
    "initial_state",
    "lint_chain",
    "lint_cluster",
    "lint_plan",
    "mutual_exclusion",
    "occupancy_bound",
    "verify",
]

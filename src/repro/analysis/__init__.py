"""Analysis tools: separation-of-concerns metrics and trace verification."""

from .diagram import bank_to_table, cluster_to_dot, plan_table, plan_to_dot
from .metrics import (
    CONCERN_KEYWORDS,
    ConcernReport,
    FunctionReport,
    SourceAnalyzer,
)
from .tracing import (
    FIGURE2_TEMPLATE,
    FIGURE3_TEMPLATE,
    MatchResult,
    match_activation,
    match_subsequence,
    postactivation_reverses_preactivation,
    render_figure,
    verify_figure2,
    verify_figure3,
)

__all__ = [
    "CONCERN_KEYWORDS",
    "bank_to_table",
    "cluster_to_dot",
    "plan_table",
    "plan_to_dot",
    "ConcernReport",
    "FIGURE2_TEMPLATE",
    "FIGURE3_TEMPLATE",
    "FunctionReport",
    "MatchResult",
    "SourceAnalyzer",
    "match_activation",
    "match_subsequence",
    "postactivation_reverses_preactivation",
    "render_figure",
    "verify_figure2",
    "verify_figure3",
]

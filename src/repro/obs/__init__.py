"""``repro.obs`` — the observability plane.

Spans (:mod:`~repro.obs.spans`), a thread-striped metrics registry
(:mod:`~repro.obs.metrics`), Prometheus/JSON exporters
(:mod:`~repro.obs.export`), cross-node trace propagation
(:mod:`~repro.obs.propagation`) and the :class:`ObservabilityPlane`
facade (:mod:`~repro.obs.plane`) that wires them around one moderator.

See ``docs/observability.md`` for the span model, metric names and
overhead numbers.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    CounterBlock,
    Gauge,
    Histogram,
    HistogramValue,
    MetricSnapshot,
    MetricsRegistry,
    histogram_quantile,
)
from .propagation import (
    TraceContext,
    activate,
    current,
    from_wire,
    new_span_id,
    new_trace_id,
    start_trace,
    to_wire,
)
from .spans import Span, SpanRecorder, WakeEdge, stitch_traces
from .export import snapshot_dict, to_json, to_prometheus
from .plane import MetricsListener, ObservabilityPlane
from .profile import CLAUSE_COST_BUCKETS, ClauseProfiler, MemoCache

__all__ = [
    "CLAUSE_COST_BUCKETS",
    "ClauseProfiler",
    "Counter",
    "CounterBlock",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MemoCache",
    "MetricSnapshot",
    "MetricsListener",
    "MetricsRegistry",
    "ObservabilityPlane",
    "Span",
    "SpanRecorder",
    "TraceContext",
    "WakeEdge",
    "activate",
    "current",
    "from_wire",
    "histogram_quantile",
    "new_span_id",
    "new_trace_id",
    "snapshot_dict",
    "start_trace",
    "stitch_traces",
    "to_json",
    "to_prometheus",
    "to_wire",
]

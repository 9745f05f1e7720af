"""repro.obs — end-to-end observability: tracing, funnels, metrics.

A zero-dependency observability layer threaded through the whole stack:

* :mod:`repro.obs.tracing` — a lightweight span API (context managers,
  contextvars propagation, monotonic clocks, configurable sampling,
  near-zero overhead when disabled) with JSON and ``chrome://tracing``
  export, instrumented into the search pipeline, the composite filter,
  the Zhang–Shasha refinement, the feature store and the serving layer;
* :mod:`repro.obs.funnel` — per-query :class:`~repro.obs.funnel.FilterFunnel`
  records (corpus → survivors per filter stage → refined → results, with
  per-stage seconds and false-positive counts) and corpus-level
  selectivity aggregation;
* :mod:`repro.obs.profile` — a zero-dependency sampling profiler
  (``setitimer`` signals with a thread-safe ``sys.setprofile`` fallback)
  whose samples are attributed to the active span path, exported as
  flamegraph collapsed stacks or schema-versioned JSON;
* :mod:`repro.obs.metrics` — a process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  histograms) with Prometheus text exposition and JSON snapshots; the
  serving tiers record straight into one (``service.metrics``).

See ``docs/OBSERVABILITY.md`` and the ``repro trace`` / ``repro metrics``
CLI commands.
"""

from repro.obs.funnel import (
    FilterFunnel,
    FunnelAggregate,
    FunnelSink,
    FunnelStage,
    active_sink,
    collect_funnels,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramState,
    MetricsRegistry,
    default_latency_bounds,
    get_registry,
)
from repro.obs.profile import (
    SamplingProfiler,
    get_profiler,
    profiling_enabled,
)
from repro.obs.tracing import (
    NOOP_SPAN,
    Span,
    Tracer,
    current_path,
    current_span,
    enabled,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "span",
    "enabled",
    "current_span",
    "current_path",
    "get_tracer",
    "set_tracer",
    "SamplingProfiler",
    "get_profiler",
    "profiling_enabled",
    "FilterFunnel",
    "FunnelStage",
    "FunnelSink",
    "FunnelAggregate",
    "collect_funnels",
    "active_sink",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramState",
    "MetricsRegistry",
    "default_latency_bounds",
    "get_registry",
]

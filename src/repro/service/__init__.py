"""Query-serving layer: concurrency, caching, batching, observability.

The library's filter-and-refine algorithms answer one query at a time; this
package turns them into a *service*:

* :class:`~repro.service.engine.TreeSearchService` — a thread-safe facade
  over :class:`~repro.search.database.TreeDatabase` with a bounded LRU
  result cache, a shared prepared-tree cache, and batch fan-out;
* :class:`~repro.service.metrics.ServiceMetrics` — process-local counters
  and latency histograms recorded into a metrics registry, with a
  plain-``dict`` snapshot view;
* :mod:`~repro.service.workload` — a deterministic synthetic traffic
  generator and replay driver (``repro serve-bench``).

Later scaling work (sharding, async backends, multi-process serving) builds
on these interfaces.
"""

from repro.service.engine import QueryRequest, TreeSearchService
from repro.service.metrics import ServiceMetrics
from repro.service.workload import (
    WorkloadReport,
    WorkloadSpec,
    format_report,
    generate_workload,
    percentile,
    replay,
)

__all__ = [
    "TreeSearchService",
    "QueryRequest",
    "ServiceMetrics",
    "percentile",
    "WorkloadSpec",
    "WorkloadReport",
    "generate_workload",
    "replay",
    "format_report",
]

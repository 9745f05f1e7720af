"""Query-serving layer: concurrency, caching, batching, observability.

The library's filter-and-refine algorithms answer one query at a time; this
package turns them into a *service*:

* :class:`~repro.service.engine.TreeSearchService` — a thread-safe facade
  over :class:`~repro.search.database.TreeDatabase` with a bounded LRU
  result cache, a shared prepared-tree cache, and batch fan-out;
* ``service.metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry`
  every query is recorded into (counters and latency histograms, read by
  instrument name);
* :mod:`~repro.service.workload` — a deterministic synthetic traffic
  generator and replay driver (``repro serve-bench``).

Later scaling work (sharding, async backends, multi-process serving) builds
on these interfaces.
"""

from repro.service.engine import QueryRequest, TreeSearchService
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
    "percentile",
    "WorkloadSpec",
    "WorkloadReport",
    "generate_workload",
    "replay",
    "format_report",
]

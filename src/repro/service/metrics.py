"""Process-local serving metrics: counters and latency histograms.

The serving layer's observability surface.  Every query the
:class:`~repro.service.engine.TreeSearchService` executes is folded into a
:class:`ServiceMetrics` instance: how many queries of each kind were served,
how many hit the result cache, how much wall time the filter and refinement
phases consumed (aggregated from :class:`~repro.search.statistics.SearchStats`),
how many candidates were refined, and a log-bucketed latency histogram per
query kind from which percentiles are interpolated.

The storage is a :class:`~repro.obs.metrics.MetricsRegistry` — each
``ServiceMetrics`` owns a private registry by default (so independent
instances never share counters) or can be pointed at a shared one (e.g. the
process-wide :func:`~repro.obs.metrics.get_registry`), in which case several
services' counters simply sum.  ``ServiceMetrics`` only records; the two
read paths are the registry itself (``metrics.registry.prometheus_text()``
for the Prometheus text format) and :meth:`ServiceMetrics.snapshot`, a
plain-``dict`` point-in-time view computed from the instruments.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.search.statistics import SearchStats

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Thread-safe recorder of everything a serving layer should expose.

    One instance per :class:`~repro.service.engine.TreeSearchService`;
    multiple services may also share one instance (counters simply sum).

    Parameters
    ----------
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to register
        the instruments in — pass :func:`repro.obs.metrics.get_registry`
        to expose this service on the process-wide scrape endpoint, or a
        shared registry to sum several services into one set of series.
        A private registry is created by default, preserving the historic
        per-instance counting semantics.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._queries = r.counter(
            "repro_queries_total", "Queries served, by kind.", ("kind",)
        )
        self._cache_hits = r.counter(
            "repro_cache_hits_total", "Result-cache hits."
        )
        self._cache_misses = r.counter(
            "repro_cache_misses_total", "Result-cache misses."
        )
        self._batches = r.counter(
            "repro_batches_total", "Batch submissions."
        )
        self._objects = r.counter(
            "repro_dataset_objects_considered_total",
            "Database objects scanned by the filter step.",
        )
        self._candidates = r.counter(
            "repro_candidates_examined_total",
            "Filter survivors refined with the exact edit distance.",
        )
        self._results = r.counter(
            "repro_results_returned_total", "Objects in final answers."
        )
        self._phase_seconds = r.counter(
            "repro_phase_seconds_total",
            "CPU seconds per query phase, by phase and query kind.",
            ("phase", "kind"),
        )
        self._invalidations = r.counter(
            "repro_invalidations_total", "Cache invalidation passes (mutations)."
        )
        self._entries_retained = r.counter(
            "repro_cache_entries_retained_total",
            "Cache entries proven valid across a mutation.",
        )
        self._entries_evicted = r.counter(
            "repro_cache_entries_evicted_total",
            "Cache entries dropped by a mutation.",
        )
        self._latency_histogram = r.histogram(
            "repro_query_latency_seconds", "End-to-end query latency.", ("kind",)
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe_query(
        self,
        kind: str,
        stats: SearchStats,
        latency_seconds: float,
        cache_hit: bool,
    ) -> None:
        """Fold one served query into the aggregate.

        ``stats`` is the query's :class:`SearchStats`; for a cache hit the
        stored stats describe the original computation and only the (tiny)
        lookup latency is recorded as work done now, so filter/refine time
        is attributed once per distinct computation.
        """
        with self._lock:
            self._queries.inc(kind=kind)
            if cache_hit:
                self._cache_hits.inc()
            else:
                self._cache_misses.inc()
                self._objects.inc(stats.dataset_size)
                self._candidates.inc(stats.candidates)
                self._results.inc(stats.results)
                self._phase_seconds.inc(
                    stats.filter_seconds, phase="filter", kind=kind
                )
                self._phase_seconds.inc(
                    stats.refine_seconds, phase="refine", kind=kind
                )
            self._latency_histogram.observe(latency_seconds, kind=kind)

    def observe_batch(self) -> None:
        """Count one batch submission."""
        self._batches.inc()

    def observe_invalidation(self, retained: int = 0, evicted: int = 0) -> None:
        """Count one invalidation pass (a database mutation).

        ``retained``/``evicted`` break down what the selective pruner did
        to the result cache: entries proven still valid by the filter's
        lower bound versus entries that had to go.
        """
        with self._lock:
            self._invalidations.inc()
            self._entries_retained.inc(retained)
            self._entries_evicted.inc(evicted)

    # ------------------------------------------------------------------
    # View
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time view as a plain JSON-serialisable dict.

        Hit rate and accessed percentage are 0 while idle; filter/refine
        seconds are broken down per query kind under ``seconds.by_kind``
        and summed across kinds in ``seconds.filter`` / ``seconds.refine``.
        """
        with self._lock:
            queries_by_kind = {
                labels[0]: int(count)
                for labels, count in self._queries.values().items()
            }
            hits = int(self._cache_hits.value())
            misses = int(self._cache_misses.value())
            considered = int(self._objects.value())
            candidates = int(self._candidates.value())
            by_kind: Dict[str, Dict[str, float]] = {}
            for (phase, kind), seconds in sorted(
                self._phase_seconds.values().items()
            ):
                entry = by_kind.setdefault(kind, {"filter": 0.0, "refine": 0.0})
                entry[phase] = seconds
            for entry in by_kind.values():
                entry["total"] = entry["filter"] + entry["refine"]
            filter_seconds = sum(entry["filter"] for entry in by_kind.values())
            refine_seconds = sum(entry["refine"] for entry in by_kind.values())
            return {
                "queries_served": sum(queries_by_kind.values()),
                "queries_by_kind": queries_by_kind,
                "batches": int(self._batches.value()),
                "cache": {
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                    "invalidations": int(self._invalidations.value()),
                    "entries_retained": int(self._entries_retained.value()),
                    "entries_evicted": int(self._entries_evicted.value()),
                },
                "work": {
                    "dataset_objects_considered": considered,
                    "candidates_examined": candidates,
                    "results_returned": int(self._results.value()),
                    "accessed_percentage": (
                        100.0 * candidates / considered if considered else 0.0
                    ),
                },
                "seconds": {
                    "filter": filter_seconds,
                    "refine": refine_seconds,
                    "total": filter_seconds + refine_seconds,
                    "by_kind": by_kind,
                },
                "latency": {
                    labels[0]: state.to_dict()
                    for labels, state in sorted(
                        self._latency_histogram.states().items()
                    )
                },
            }

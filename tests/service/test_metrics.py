"""Unit tests for the serving metrics layer."""

import json

import pytest

from repro.search import SearchStats
from repro.service import ServiceMetrics, percentile


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_sample(self):
        assert percentile([0.25], 0) == 0.25
        assert percentile([0.25], 100) == 0.25

    def test_known_values(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 90) == 90.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        # nearest rank, whatever the parity of the sample count
        assert percentile([1, 2], 50) == 1
        assert percentile([1, 2, 3, 4], 50) == 2
        # 28 % of 25 samples is exactly rank 7
        assert percentile(range(1, 26), 28) == 7

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 100) == 3.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLatencyHistogram:
    """The per-kind latency histogram a ``ServiceMetrics`` records into."""

    def _record(self, latencies):
        metrics = ServiceMetrics()
        stats = SearchStats(dataset_size=10, candidates=1, results=1)
        for latency in latencies:
            metrics.observe_query("range", stats, latency, cache_hit=False)
        return metrics

    def _histogram(self, metrics):
        return metrics.registry.get("repro_query_latency_seconds").state(
            kind="range"
        )

    def test_count_sum_min_max(self):
        histogram = self._histogram(self._record((0.001, 0.01, 0.1)))
        assert histogram.total == 3
        assert histogram.sum == pytest.approx(0.111)
        assert histogram.min == 0.001
        assert histogram.max == 0.1

    def test_quantiles_are_monotone_and_bracketing(self):
        # 1ms .. 199ms
        histogram = self._histogram(
            self._record([i / 1000.0 for i in range(1, 200)])
        )
        p50, p90, p99 = (histogram.quantile(p) for p in (50, 90, 99))
        assert p50 <= p90 <= p99
        assert histogram.min <= p50 and p99 <= histogram.max

    def test_to_dict_is_json_serialisable(self):
        metrics = self._record((0.002,))
        data = self._histogram(metrics).to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["count"] == 1
        assert metrics.snapshot()["latency"]["range"] == data


class TestServiceMetrics:
    def _stats(self):
        return SearchStats(dataset_size=100, candidates=10, results=2,
                           filter_seconds=0.01, refine_seconds=0.05)

    def test_observe_miss_accumulates_work(self):
        metrics = ServiceMetrics()
        metrics.observe_query("range", self._stats(), 0.06, cache_hit=False)
        snapshot = metrics.snapshot()
        assert snapshot["queries_served"] == 1
        assert snapshot["work"]["candidates_examined"] == 10
        assert snapshot["seconds"]["filter"] == pytest.approx(0.01)
        assert snapshot["seconds"]["refine"] == pytest.approx(0.05)

    def test_observe_hit_skips_work_counters(self):
        metrics = ServiceMetrics()
        metrics.observe_query("range", self._stats(), 0.06, cache_hit=False)
        metrics.observe_query("range", self._stats(), 0.0001, cache_hit=True)
        snapshot = metrics.snapshot()
        assert snapshot["cache"]["hit_rate"] == 0.5
        # the hit does not double-count filter/refine work
        assert snapshot["work"]["candidates_examined"] == 10

    def test_snapshot_schema(self):
        metrics = ServiceMetrics()
        metrics.observe_query("knn", self._stats(), 0.06, cache_hit=False)
        metrics.observe_batch()
        metrics.observe_invalidation()
        snapshot = metrics.snapshot()
        assert snapshot["queries_served"] == 1
        assert snapshot["queries_by_kind"] == {"knn": 1}
        assert snapshot["batches"] == 1
        assert snapshot["cache"]["invalidations"] == 1
        assert snapshot["work"]["accessed_percentage"] == pytest.approx(10.0)
        assert snapshot["seconds"]["total"] == pytest.approx(0.06)
        assert set(snapshot["latency"]) == {"knn"}
        for key in ("count", "p50_seconds", "p90_seconds", "p99_seconds"):
            assert key in snapshot["latency"]["knn"]

    def test_idle_hit_rate_is_zero(self):
        assert ServiceMetrics().snapshot()["cache"]["hit_rate"] == 0.0


class TestPerKindSeconds:
    """Regression: snapshot() must break filter/refine time down per kind."""

    @staticmethod
    def _stats(filter_seconds, refine_seconds):
        return SearchStats(dataset_size=50, candidates=5, results=1,
                           filter_seconds=filter_seconds,
                           refine_seconds=refine_seconds)

    def test_seconds_by_kind(self):
        metrics = ServiceMetrics()
        metrics.observe_query("range", self._stats(0.01, 0.04), 0.05,
                              cache_hit=False)
        metrics.observe_query("range", self._stats(0.01, 0.04), 0.05,
                              cache_hit=False)
        metrics.observe_query("knn", self._stats(0.002, 0.008), 0.01,
                              cache_hit=False)
        by_kind = metrics.snapshot()["seconds"]["by_kind"]
        assert by_kind["range"]["filter"] == pytest.approx(0.02)
        assert by_kind["range"]["refine"] == pytest.approx(0.08)
        assert by_kind["range"]["total"] == pytest.approx(0.10)
        assert by_kind["knn"]["filter"] == pytest.approx(0.002)
        assert by_kind["knn"]["refine"] == pytest.approx(0.008)

    def test_snapshot_carries_by_kind_and_totals_agree(self):
        metrics = ServiceMetrics()
        metrics.observe_query("range", self._stats(0.01, 0.04), 0.05,
                              cache_hit=False)
        metrics.observe_query("knn", self._stats(0.002, 0.008), 0.01,
                              cache_hit=False)
        snapshot = metrics.snapshot()
        by_kind = snapshot["seconds"]["by_kind"]
        assert set(by_kind) == {"range", "knn"}
        assert sum(entry["filter"] for entry in by_kind.values()) == pytest.approx(
            snapshot["seconds"]["filter"]
        )
        assert sum(entry["refine"] for entry in by_kind.values()) == pytest.approx(
            snapshot["seconds"]["refine"]
        )

    def test_cache_hits_do_not_accrue_phase_seconds(self):
        metrics = ServiceMetrics()
        metrics.observe_query("range", self._stats(0.01, 0.04), 0.05,
                              cache_hit=False)
        metrics.observe_query("range", self._stats(0.01, 0.04), 0.0001,
                              cache_hit=True)
        by_kind = metrics.snapshot()["seconds"]["by_kind"]
        assert by_kind["range"]["filter"] == pytest.approx(0.01)


class TestPrometheusExport:
    @staticmethod
    def _stats():
        return SearchStats(dataset_size=100, candidates=10, results=2,
                           filter_seconds=0.01, refine_seconds=0.05)

    def test_exposes_serving_series(self):
        metrics = ServiceMetrics()
        metrics.observe_query("range", self._stats(), 0.06, cache_hit=False)
        metrics.observe_batch()
        text = metrics.registry.prometheus_text()
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{kind="range"} 1.0' in text
        assert 'repro_phase_seconds_total{phase="filter",kind="range"}' in text
        assert 'repro_query_latency_seconds_bucket{kind="range",le="+Inf"} 1' in text
        assert "repro_batches_total 1.0" in text

    def test_shared_registry_aggregates_two_services(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        first = ServiceMetrics(registry=registry)
        second = ServiceMetrics(registry=registry)
        first.observe_query("range", self._stats(), 0.06, cache_hit=False)
        second.observe_query("range", self._stats(), 0.06, cache_hit=False)
        counter = registry.get("repro_queries_total")
        assert counter.value(kind="range") == 2

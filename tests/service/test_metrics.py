"""Unit tests for what a serving tier records into its metrics registry."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.search import SearchStats
from repro.search.database import TreeDatabase
from repro.service import (
    QueryRequest,
    TreeSearchService,
    WorkloadReport,
    format_report,
    percentile,
)
from repro.trees import parse_bracket
from tests.metric_reads import metric

BRACKETS = ["a(b,c)", "a(b,d)", "x(y(z),w)", "a(b(c,d),e(f))", "x(y,w)"]


def _service(metrics=None):
    database = TreeDatabase([parse_bracket(text) for text in BRACKETS])
    return TreeSearchService(database, metrics=metrics)


def _phase_seconds(service):
    """``{"phase,kind": seconds}`` as the registry snapshot keys them."""
    return service.metrics.snapshot()["repro_phase_seconds_total"]["value"]


def _latency_counts(service):
    states = service.metrics.get("repro_query_latency_seconds").states()
    return {labels[0]: state.total for labels, state in states.items()}


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
    """The per-kind latency histogram a service records into."""

    def _record(self, latencies):
        service = _service()
        stats = SearchStats(dataset_size=10, candidates=1, results=1)
        for latency in latencies:
            service._observe("range", stats, latency, cache_hit=False)
        return service

    def _histogram(self, service):
        return service.metrics.get("repro_query_latency_seconds").state(
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
        service = self._record((0.002,))
        data = self._histogram(service).to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["count"] == 1
        snapshot = service.metrics.snapshot()
        assert snapshot["repro_query_latency_seconds"]["value"]["range"] == data


class TestServiceRecording:
    def test_observe_miss_accumulates_work(self):
        with _service() as service:
            _, stats = service.range(parse_bracket("a(b,c)"), 1)
            assert metric(service, "repro_queries_total", kind="range") == 1
            assert metric(service, "repro_cache_misses_total") == 1
            assert (
                metric(service, "repro_dataset_objects_considered_total")
                == stats.dataset_size
            )
            assert (
                metric(service, "repro_candidates_examined_total")
                == stats.candidates
            )
            assert metric(service, "repro_results_returned_total") == stats.results
            phases = _phase_seconds(service)
            assert phases["filter,range"] == pytest.approx(stats.filter_seconds)
            assert phases["refine,range"] == pytest.approx(stats.refine_seconds)
            assert _latency_counts(service) == {"range": 1}

    def test_observe_hit_skips_work_counters(self):
        with _service() as service:
            query = parse_bracket("a(b,c)")
            _, stats = service.range(query, 1)
            service.range(query, 1)  # from cache
            assert metric(service, "repro_cache_hits_total") == 1
            assert metric(service, "repro_cache_misses_total") == 1
            # the hit does not double-count filter/refine work ...
            assert (
                metric(service, "repro_candidates_examined_total")
                == stats.candidates
            )
            assert (
                metric(service, "repro_dataset_objects_considered_total")
                == stats.dataset_size
            )
            # ... but its latency is recorded
            assert _latency_counts(service) == {"range": 2}

    def test_series_by_instrument_name(self):
        with _service() as service:
            query = parse_bracket("a(b,c)")
            [(_, stats)] = service.batch([QueryRequest("knn", query, k=2)])
            service.add(parse_bracket("z(w(v,u),t(s,r),p,o,n)"))
            snapshot = service.metrics.snapshot()
        assert snapshot["repro_queries_total"]["value"] == {"knn": 1.0}
        assert snapshot["repro_batches_total"]["value"] == 1
        assert snapshot["repro_invalidations_total"]["value"] == 1
        candidates = snapshot["repro_candidates_examined_total"]["value"]
        considered = snapshot["repro_dataset_objects_considered_total"]["value"]
        assert 100.0 * candidates / considered == pytest.approx(
            stats.accessed_percentage
        )
        latency = snapshot["repro_query_latency_seconds"]["value"]
        assert set(latency) == {"knn"}
        for key in ("count", "p50_seconds", "p90_seconds", "p99_seconds"):
            assert key in latency["knn"]

    def test_idle_hit_rate_is_zero(self):
        service = _service()
        assert metric(service, "repro_cache_hits_total") == 0
        assert metric(service, "repro_cache_misses_total") == 0
        report = WorkloadReport(
            mode="serial",
            queries=0,
            clients=1,
            wall_seconds=0.0,
            metrics=service.metrics.snapshot(),
        )
        assert "(hit rate 0.0%)" in format_report(report)


class TestPerKindSeconds:
    """Filter/refine seconds are split per query kind, on misses only."""

    def test_seconds_by_kind(self):
        with _service() as service:
            _, first = service.range(parse_bracket("a(b,c)"), 1)
            _, second = service.range(parse_bracket("x(y,w)"), 1)
            _, knn = service.knn(parse_bracket("a(b,c)"), 2)
            phases = _phase_seconds(service)
        assert phases["filter,range"] == pytest.approx(
            first.filter_seconds + second.filter_seconds
        )
        assert phases["refine,range"] == pytest.approx(
            first.refine_seconds + second.refine_seconds
        )
        assert phases["filter,knn"] == pytest.approx(knn.filter_seconds)
        assert phases["refine,knn"] == pytest.approx(knn.refine_seconds)

    def test_snapshot_carries_by_kind_and_totals_agree(self):
        with _service() as service:
            _, ranged = service.range(parse_bracket("a(b,c)"), 1)
            _, knn = service.knn(parse_bracket("a(b,c)"), 2)
            phases = _phase_seconds(service)
        assert set(phases) == {
            "filter,range", "refine,range", "filter,knn", "refine,knn"
        }
        filter_total = sum(v for k, v in phases.items() if k.startswith("filter"))
        refine_total = sum(v for k, v in phases.items() if k.startswith("refine"))
        assert filter_total == pytest.approx(
            ranged.filter_seconds + knn.filter_seconds
        )
        assert refine_total == pytest.approx(
            ranged.refine_seconds + knn.refine_seconds
        )

    def test_cache_hits_do_not_accrue_phase_seconds(self):
        with _service() as service:
            query = parse_bracket("a(b,c)")
            _, stats = service.range(query, 1)
            service.range(query, 1)  # from cache
            phases = _phase_seconds(service)
        assert phases["filter,range"] == pytest.approx(stats.filter_seconds)


class TestPrometheusExport:
    def test_exposes_serving_series(self):
        with _service() as service:
            service.batch([QueryRequest("range", parse_bracket("a(b,c)"), 1)])
            text = service.metrics.prometheus_text()
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{kind="range"} 1.0' in text
        assert 'repro_phase_seconds_total{phase="filter",kind="range"}' in text
        assert 'repro_query_latency_seconds_bucket{kind="range",le="+Inf"} 1' in text
        assert "repro_batches_total 1.0" in text

    def test_shared_registry_aggregates_two_services(self):
        registry = MetricsRegistry()
        query = parse_bracket("a(b,c)")
        with _service(registry) as first, _service(registry) as second:
            first.range(query, 1)
            second.range(query, 1)  # a miss: the result caches are private
            second.range(query, 1)
        assert first.metrics is second.metrics is registry
        counter = registry.get("repro_queries_total")
        assert counter.value(kind="range") == 3
        assert registry.get("repro_cache_misses_total").value() == 2
        assert registry.get("repro_cache_hits_total").value() == 1

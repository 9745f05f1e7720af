"""Unit tests for the synthetic workload generator and replay driver."""

import json

import pytest

from repro.exceptions import QueryError
from repro.search.database import TreeDatabase
from repro.service import (
    TreeSearchService,
    WorkloadSpec,
    format_report,
    generate_workload,
    replay,
)
from repro.trees import parse_bracket, to_bracket

BRACKETS = ["a(b,c)", "a(b,d)", "x(y)", "a(b(c),d)", "x(y,z)"]


@pytest.fixture
def trees():
    return [parse_bracket(t) for t in BRACKETS]


class TestGeneration:
    def test_deterministic_given_seed(self, trees):
        spec = WorkloadSpec(queries=40, seed=7)
        first = generate_workload(trees, spec)
        second = generate_workload(trees, spec)
        assert [(r.kind, to_bracket(r.query), r.threshold, r.k) for r in first] == \
            [(r.kind, to_bracket(r.query), r.threshold, r.k) for r in second]

    def test_different_seeds_differ(self, trees):
        first = generate_workload(trees, WorkloadSpec(queries=40, seed=1))
        second = generate_workload(trees, WorkloadSpec(queries=40, seed=2))
        assert [(r.kind, to_bracket(r.query)) for r in first] != \
            [(r.kind, to_bracket(r.query)) for r in second]

    def test_repeat_fraction_one_repeats_forever(self, trees):
        stream = generate_workload(
            trees, WorkloadSpec(queries=20, repeat_fraction=1.0, seed=3)
        )
        # the first query is necessarily fresh; all others repeat it
        assert len({(r.kind, to_bracket(r.query)) for r in stream}) == 1

    def test_range_fraction_extremes(self, trees):
        all_range = generate_workload(
            trees,
            WorkloadSpec(queries=20, range_fraction=1.0, repeat_fraction=0.0),
        )
        assert {r.kind for r in all_range} == {"range"}
        all_knn = generate_workload(
            trees,
            WorkloadSpec(queries=20, range_fraction=0.0, repeat_fraction=0.0),
        )
        assert {r.kind for r in all_knn} == {"knn"}

    def test_k_clamped_to_dataset(self, trees):
        stream = generate_workload(
            trees,
            WorkloadSpec(queries=10, range_fraction=0.0, repeat_fraction=0.0,
                         k=100),
        )
        assert all(r.k == len(trees) for r in stream)

    def test_rejects_bad_specs(self, trees):
        with pytest.raises(QueryError):
            WorkloadSpec(queries=0)
        with pytest.raises(QueryError):
            WorkloadSpec(repeat_fraction=1.5)
        with pytest.raises(QueryError):
            generate_workload([], WorkloadSpec())


class TestReplay:
    def test_serial_replay_reports(self, trees):
        workload = generate_workload(
            trees, WorkloadSpec(queries=25, repeat_fraction=0.6, seed=5)
        )
        with TreeSearchService(TreeDatabase(trees)) as service:
            answers, report = replay(service, workload, clients=1)
        assert len(answers) == 25
        assert report.queries == 25
        assert report.mode == "serial"
        assert report.throughput_qps > 0
        assert len(report.latencies) == 25
        assert report.metrics["repro_cache_hits_total"]["value"] > 0

    def test_concurrent_replay_same_answers_as_serial(self, trees):
        workload = generate_workload(
            trees, WorkloadSpec(queries=30, repeat_fraction=0.4, seed=9)
        )
        with TreeSearchService(TreeDatabase(trees)) as serial_service:
            serial_answers, _ = replay(serial_service, workload, clients=1)
        with TreeSearchService(TreeDatabase(trees)) as concurrent_service:
            concurrent_answers, report = replay(
                concurrent_service, workload, clients=4
            )
        assert concurrent_answers == serial_answers
        assert report.mode == "concurrent×4"

    def test_report_to_dict_is_json_serialisable(self, trees):
        workload = generate_workload(trees, WorkloadSpec(queries=5))
        with TreeSearchService(TreeDatabase(trees)) as service:
            _, report = replay(service, workload)
        data = report.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["latency"]["p50_seconds"] <= data["latency"]["p99_seconds"]

    def test_format_report_mentions_key_figures(self, trees):
        workload = generate_workload(
            trees, WorkloadSpec(queries=10, repeat_fraction=0.5)
        )
        with TreeSearchService(TreeDatabase(trees)) as service:
            _, report = replay(service, workload)
        text = format_report(report)
        assert "throughput" in text
        assert "p99" in text
        assert "result cache" in text

    def test_rejects_bad_client_count(self, trees):
        with TreeSearchService(TreeDatabase(trees)) as service:
            with pytest.raises(QueryError):
                replay(service, [], clients=0)

"""Unit tests for funnel telemetry: stages, invariants, aggregation."""

import json

import pytest

from repro.datasets import SyntheticSpec, generate_dataset
from repro.features.store import FeatureStore
from repro.filters import (
    BranchCountFilter,
    HistogramFilter,
    MaxCompositeFilter,
    SizeDifferenceFilter,
)
from repro.filters.binary_branch import BinaryBranchFilter
from repro.filters.registry import DEFAULT_FILTER, FILTERS
from repro.obs.funnel import (
    FilterFunnel,
    FunnelStage,
    active_sink,
    collect_funnels,
)
from repro.search.knn import knn_query
from repro.search.range_query import range_query
from repro.search.database import TreeDatabase
from repro.search.sequential import sequential_range_query
from repro.sharding import ShardedTreeService
from repro.trees import parse_bracket


@pytest.fixture
def trees():
    return [
        parse_bracket("a(b,c)"),
        parse_bracket("a(b,d)"),
        parse_bracket("a(b(e),d)"),
        parse_bracket("x(y,z)"),
        parse_bracket("x(y(w),z(v))"),
        parse_bracket("m"),
    ]


class TestFunnelRecord:
    def test_stage_arithmetic(self):
        stage = FunnelStage("count", entered=100, survivors=25, seconds=0.5)
        assert stage.refuted == 75
        assert stage.selectivity == 0.25

    def test_survivor_counts_and_false_positives(self):
        funnel = FilterFunnel(
            kind="range",
            corpus_size=100,
            stages=[FunnelStage("a", 100, 40), FunnelStage("b", 40, 10)],
            refined=10,
            results=3,
        )
        assert funnel.survivor_counts() == [100, 40, 10, 10, 3]
        assert funnel.false_positives == 7
        assert funnel.survivors == 10
        assert funnel.check_invariants() == []

    def test_invariant_violations_detected(self):
        growing = FilterFunnel(
            kind="range",
            corpus_size=10,
            stages=[FunnelStage("bad", 10, 12)],
            refined=12,
            results=1,
        )
        assert growing.check_invariants()
        refine_overflow = FilterFunnel(
            kind="range", corpus_size=10, stages=[], refined=11, results=1
        )
        assert refine_overflow.check_invariants()
        result_overflow = FilterFunnel(
            kind="range", corpus_size=10, stages=[], refined=5, results=6
        )
        assert result_overflow.check_invariants()

    def test_to_dict_serialisable_and_table_renders(self):
        funnel = FilterFunnel(
            kind="range",
            corpus_size=10,
            stages=[FunnelStage("count", 10, 4, 0.001)],
            refined=4,
            results=2,
            refine_seconds=0.01,
            parameter=2.0,
        )
        data = funnel.to_dict()
        assert json.loads(json.dumps(data)) == data
        table = funnel.format_table()
        assert "corpus" in table and "filter:count" in table and "refine" in table


class TestCollection:
    def test_no_sink_outside_context(self, trees):
        assert active_sink() is None
        flt = BinaryBranchFilter().fit(trees)
        _, stats = range_query(trees, trees[0], 1.0, flt)
        assert stats.funnel is None

    def test_range_query_records_funnel(self, trees):
        flt = BinaryBranchFilter().fit(trees)
        with collect_funnels() as sink:
            matches, stats = range_query(trees, trees[0], 1.0, flt)
        assert len(sink.funnels) == 1
        funnel = sink.funnels[0]
        assert funnel is stats.funnel
        assert funnel.kind == "range"
        assert funnel.corpus_size == len(trees)
        assert funnel.refined == stats.candidates
        assert funnel.results == len(matches)
        assert funnel.check_invariants() == []

    def test_staged_cascade_matches_direct_refutation(self, trees):
        """With the matrix planes and without them, the staged cascade
        keeps the same rows stage by stage, and its final survivors are
        exactly the rows the one-pass ``refutes`` keeps."""
        store = FeatureStore((2,)).fit(trees)
        query = trees[2]
        for factory in (
            FILTERS[DEFAULT_FILTER],
            lambda: MaxCompositeFilter(
                [BranchCountFilter(), SizeDifferenceFilter(), HistogramFilter()]
            ),
        ):
            flt = factory().fit(trees)
            signature = flt.signature(query)
            for threshold in (0.0, 1.0, 2.0, 4.0):
                direct = sum(
                    not flt.refutes(signature, flt.data_signature(row), threshold)
                    for row in range(len(trees))
                )
                runs = []
                for matrices in (store.matrices(), None):
                    plain_matches, plain_stats = range_query(
                        trees, query, threshold, flt, matrices=matrices
                    )
                    with collect_funnels() as sink:
                        matches, stats = range_query(
                            trees, query, threshold, flt, matrices=matrices
                        )
                    assert matches == plain_matches
                    assert stats.candidates == plain_stats.candidates
                    funnel = sink.funnels[0]
                    assert funnel.check_invariants() == []
                    runs.append(
                        (
                            matches,
                            [
                                (stage.name, stage.entered, stage.survivors)
                                for stage in funnel.stages
                            ],
                        )
                    )
                assert runs[0] == runs[1]
                _, stages = runs[0]
                # one stage per composite child, in order
                assert [name for name, _, _ in stages] == [
                    f"{position}:{child.name}"
                    for position, child in enumerate(flt.filters)
                ]
                assert stages[-1][2] == direct

    def test_knn_funnel(self, trees):
        flt = BinaryBranchFilter().fit(trees)
        with collect_funnels() as sink:
            matches, stats = knn_query(trees, trees[0], 2, flt)
        funnel = sink.funnels[0]
        assert funnel.kind == "knn"
        assert funnel.refined == stats.candidates
        assert funnel.results == len(matches) == 2
        assert funnel.check_invariants() == []

    def test_knn_funnel_bounds_lazily_over_planes(self):
        """Over the matrix planes the ordering stage bounds only the rows
        optimal stopping consumes, single-process and across shards (whose
        streams report k bounds ahead, so they bound a little more)."""
        spec = SyntheticSpec(size_mean=8, size_stddev=2, label_count=8, decay=0.1)
        corpus = generate_dataset(spec, count=300, seed=3)
        database = TreeDatabase(corpus)
        with ShardedTreeService(corpus, shards=2, max_workers=1) as service:
            for query in corpus[:3]:
                with collect_funnels() as sink:
                    knn_query(
                        corpus, query, 2, database.filter,
                        matrices=database.matrices(),
                    )
                    service.knn(query, 2)
                for funnel in sink.funnels:
                    assert [stage.name for stage in funnel.stages] == [
                        "order:BiBranch+Label"
                    ]
                    survivors = funnel.stages[0].survivors
                    assert funnel.refined <= survivors < funnel.corpus_size
                    assert funnel.check_invariants() == []

    def test_sequential_funnel_refines_everything(self, trees):
        with collect_funnels() as sink:
            _, stats = sequential_range_query(trees, trees[0], 1.0)
        funnel = sink.funnels[0]
        assert funnel.stages == []
        assert funnel.refined == len(trees)
        assert funnel.check_invariants() == []
        assert stats.funnel is funnel

    def test_stats_dict_carries_funnel_only_when_collected(self, trees):
        flt = BinaryBranchFilter().fit(trees)
        _, cold = range_query(trees, trees[0], 1.0, flt)
        assert "funnel" not in cold.to_dict()
        with collect_funnels():
            _, warm = range_query(trees, trees[0], 1.0, flt)
        assert warm.to_dict()["funnel"]["kind"] == "range"

    def test_nested_collection_scopes(self, trees):
        flt = BinaryBranchFilter().fit(trees)
        with collect_funnels() as outer:
            with collect_funnels() as inner:
                range_query(trees, trees[0], 1.0, flt)
            range_query(trees, trees[0], 1.0, flt)
        assert len(inner.funnels) == 1
        assert len(outer.funnels) == 1


class TestAggregate:
    def test_aggregate_groups_by_kind_and_stage(self, trees):
        flt = BinaryBranchFilter().fit(trees)
        with collect_funnels() as sink:
            for query in trees[:3]:
                range_query(trees, query, 1.0, flt)
                knn_query(trees, query, 2, flt)
        aggregate = sink.aggregate()
        summary = aggregate.to_dict()
        assert summary["queries"] == 6
        assert set(summary["kinds"]) == {"range", "knn"}
        range_entry = summary["kinds"]["range"]
        assert range_entry["queries"] == 3
        assert range_entry["corpus_considered"] == 3 * len(trees)
        assert range_entry["refined"] <= range_entry["corpus_considered"]
        assert range_entry["results"] <= range_entry["refined"]
        assert 0.0 <= range_entry["refined_fraction"] <= 1.0
        assert json.loads(json.dumps(summary)) == summary

    def test_aggregate_table_renders(self, trees):
        flt = BinaryBranchFilter().fit(trees)
        with collect_funnels() as sink:
            range_query(trees, trees[0], 1.0, flt)
        table = sink.aggregate().format_table()
        assert "range" in table and "refine" in table

    def test_empty_aggregate(self):
        with collect_funnels() as sink:
            pass
        assert sink.aggregate().format_table() == "(no funnels collected)"

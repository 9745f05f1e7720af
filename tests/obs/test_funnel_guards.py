"""Zero-total guards: selectivity and percentiles never raise on empties.

Regression tests for the empty-corpus hardening: every ratio in the
funnel/metrics layer reports 0.0 where a naive implementation would
divide by zero (empty corpus, a cascade that pruned everything upstream,
a histogram that never observed a sample).
"""

from __future__ import annotations

import pytest

from repro.obs.funnel import (
    FilterFunnel,
    FunnelAggregate,
    FunnelStage,
    collect_funnels,
)
from repro.obs.metrics import HistogramState
from repro.filters.binary_branch import BinaryBranchFilter
from repro.search.range_query import range_query
from repro.service.workload import percentile
from repro.trees import parse_bracket


class TestStageSelectivity:
    def test_empty_stage_is_zero(self):
        assert FunnelStage("BiBranch", 0, 0).selectivity == 0.0

    def test_populated_stage_is_ratio(self):
        assert FunnelStage("BiBranch", 10, 4).selectivity == pytest.approx(0.4)


class TestFunnelSelectivity:
    def test_empty_corpus_is_zero(self):
        funnel = FilterFunnel(kind="range", corpus_size=0)
        assert funnel.selectivity == 0.0
        assert funnel.survivors == 0

    def test_end_to_end_ratio(self):
        funnel = FilterFunnel(
            kind="range",
            corpus_size=10,
            stages=[FunnelStage("BiBranch", 10, 3)],
        )
        assert funnel.selectivity == pytest.approx(0.3)

    def test_empty_corpus_query_records_safe_funnel(self):
        """A range query over an empty corpus produces a funnel whose every
        derived ratio is 0.0 — the original failure mode was a raise."""
        flt = BinaryBranchFilter().fit([])
        with collect_funnels() as sink:
            matches, _ = range_query([], parse_bracket("a(b)"), 1.0, flt)
        assert matches == []
        for funnel in sink.funnels:
            assert funnel.selectivity == 0.0
            for stage in funnel.stages:
                assert stage.selectivity == 0.0
            assert funnel.check_invariants() == []


class TestAggregateSelectivity:
    def test_empty_aggregate_cells(self):
        aggregate = FunnelAggregate()
        funnel = FilterFunnel(
            kind="range",
            corpus_size=0,
            stages=[FunnelStage("BiBranch", 0, 0)],
        )
        aggregate.add(funnel)
        document = aggregate.to_dict()
        cell = document["kinds"]["range"]["stages"][0]
        assert cell["selectivity"] == 0.0
        assert document["kinds"]["range"]["refined_fraction"] == 0.0
        # the rendered table and the cost report survive the same input
        assert "range" in aggregate.format_table()
        assert aggregate.cost_report()["range"].speedup_vs_unfiltered == 0.0


class TestPercentileGuards:
    def test_exact_percentile_empty_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_exact_percentile_range_checked(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_histogram_quantile_empty_is_zero(self):
        state = HistogramState(bounds=(0.1, 1.0))
        assert state.quantile(50) == 0.0
        assert state.quantile(99) == 0.0

    def test_histogram_quantile_single_sample(self):
        state = HistogramState(bounds=(0.1, 1.0))
        state.record(0.5)
        assert 0.0 < state.quantile(50) <= 1.0

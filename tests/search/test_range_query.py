"""Unit and property tests for filter-and-refine range queries."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import SyntheticSpec, generate_dataset
from repro.editdist import weighted_costs
from repro.editdist.zhang_shasha import EditDistanceCounter
from repro.exceptions import QueryError
from repro.filters import BinaryBranchFilter, HistogramFilter, TraversalStringFilter
from repro.filters.cost_scaled import CostScaledFilter
from repro.obs import tracing
from repro.obs.tracing import Tracer
from repro.search import range_query, sequential_range_query
from repro.trees import parse_bracket
from tests.strategies import trees

DATASET = [
    parse_bracket(text)
    for text in [
        "a(b,c)",
        "a(b,d)",
        "a(b(c,d),e)",
        "x(y,z)",
        "a",
        "a(b,c,d,e)",
        "q(w(e(r(t))))",
    ]
]


@pytest.fixture(params=[BinaryBranchFilter, HistogramFilter, TraversalStringFilter])
def fitted_filter(request):
    return request.param().fit(DATASET)


class TestBasics:
    def test_exact_match_found(self, fitted_filter):
        matches, stats = range_query(DATASET, parse_bracket("a(b,c)"), 0, fitted_filter)
        assert matches == [(0, 0.0)]
        assert stats.results == 1

    def test_radius_one(self, fitted_filter):
        matches, _ = range_query(DATASET, parse_bracket("a(b,c)"), 1, fitted_filter)
        assert [index for index, _ in matches] == [0, 1]

    def test_distances_reported(self, fitted_filter):
        matches, _ = range_query(DATASET, parse_bracket("a(b,c)"), 2, fitted_filter)
        distances = dict(matches)
        assert distances[0] == 0.0
        assert distances[1] == 1.0

    def test_huge_radius_returns_everything(self, fitted_filter):
        matches, stats = range_query(
            DATASET, parse_bracket("a(b,c)"), 100, fitted_filter
        )
        assert len(matches) == len(DATASET)
        assert stats.accessed_percentage == 100.0

    def test_negative_threshold_rejected(self, fitted_filter):
        with pytest.raises(QueryError):
            range_query(DATASET, parse_bracket("a"), -1, fitted_filter)

    def test_unfitted_size_mismatch_rejected(self):
        flt = BinaryBranchFilter().fit(DATASET[:2])
        with pytest.raises(QueryError):
            range_query(DATASET, parse_bracket("a"), 1, flt)

    def test_stats_consistent(self, fitted_filter):
        _, stats = range_query(DATASET, parse_bracket("a(b,c)"), 1, fitted_filter)
        assert stats.dataset_size == len(DATASET)
        assert stats.results <= stats.candidates <= stats.dataset_size
        assert stats.false_positives == stats.candidates - stats.results


class TestCompleteness:
    """The paper's no-false-negatives guarantee, against the brute force."""

    @pytest.mark.parametrize("threshold", [0, 0.5, 1, 1.5, 2, 2.5, 3, 5])
    def test_matches_sequential_scan(self, fitted_filter, threshold):
        query = parse_bracket("a(b(c,d),e)")
        filtered, _ = range_query(DATASET, query, threshold, fitted_filter)
        brute, _ = sequential_range_query(DATASET, query, threshold)
        assert filtered == brute

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_sequential_on_synthetic_data(self, data):
        rng = random.Random(99)
        spec = SyntheticSpec(size_mean=8, size_stddev=2, label_count=4, decay=0.2)
        dataset = generate_dataset(spec, count=12, seed_count=3, rng=rng)
        query = data.draw(st.sampled_from(dataset))
        threshold = data.draw(st.integers(0, 6))
        for filter_cls in (BinaryBranchFilter, HistogramFilter):
            flt = filter_cls().fit(dataset)
            filtered, _ = range_query(dataset, query, threshold, flt)
            brute, _ = sequential_range_query(dataset, query, threshold)
            assert filtered == brute

    @given(trees(max_leaves=6))
    @settings(max_examples=20, deadline=None)
    def test_query_always_finds_itself(self, query):
        dataset = DATASET + [query]
        flt = BinaryBranchFilter().fit(dataset)
        matches, _ = range_query(dataset, query.clone(), 0, flt)
        assert any(index == len(dataset) - 1 for index, _ in matches)


class TestFilterEffectiveness:
    def test_bibranch_prunes_distant_trees(self):
        flt = BinaryBranchFilter().fit(DATASET)
        _, stats = range_query(DATASET, parse_bracket("a(b,c)"), 1, flt)
        # the deep chain and the disjoint-label tree must be filtered out
        assert stats.candidates < len(DATASET)

    def test_zero_radius_accesses_few(self):
        flt = BinaryBranchFilter().fit(DATASET)
        _, stats = range_query(DATASET, parse_bracket("q(w(e(r(t))))"), 0, flt)
        assert stats.candidates <= 2


class TestRefineGate:
    """Survivors are refined by ``distance_below(q, t, ⌊τ⌋ + 1)``: under
    unit costs the traversal-string gate rejects rows without the DP, and
    other cost models come back exact at ``≤ τ`` with no gate."""

    SPEC = SyntheticSpec(size_mean=8, size_stddev=2, label_count=6, decay=0.2)

    def test_weighted_costs_stay_exact_without_gate(self):
        costs = weighted_costs(2.0, 3.0, 1.5)
        dataset = generate_dataset(self.SPEC, count=40, seed=3)
        flt = CostScaledFilter(BinaryBranchFilter(), costs).fit(dataset)
        counter = EditDistanceCounter(costs)
        for query in dataset[:5]:
            for threshold in (2.5, 4.5):
                filtered, stats = range_query(
                    dataset, query, threshold, flt, counter
                )
                brute, _ = sequential_range_query(
                    dataset, query, threshold, EditDistanceCounter(costs)
                )
                assert filtered == brute
                assert (stats.gated, stats.rungs) == (0, 0)
        assert counter.gated == 0

    def test_refine_span_reports_the_gate(self):
        dataset = generate_dataset(self.SPEC, count=80, seed=11)
        flt = HistogramFilter().fit(dataset)
        tracer = tracing.set_tracer(Tracer())
        try:
            stats = [
                range_query(dataset, query, 2.5, flt)[1] for query in dataset[:8]
            ]
        finally:
            tracing.set_tracer(None)
        spans = tracer.finished_spans()
        refines = [span for span in spans if span.name == "search.refine"]
        kernels = [span for span in spans if span.name == "editdist.zhang_shasha"]
        assert [span.attributes["gated"] for span in refines] == [
            entry.gated for entry in stats
        ]
        assert [span.attributes["rungs"] for span in refines] == [
            entry.rungs for entry in stats
        ]
        gated = sum(entry.gated for entry in stats)
        assert gated > 0
        for entry in stats:
            # one rung per refined row; only a non-answer can be gated
            assert entry.rungs == entry.candidates
            assert entry.gated <= entry.candidates - entry.results
        # a gated row runs no kernel, every other row runs it once at ⌊τ⌋
        assert len(kernels) == sum(entry.candidates for entry in stats) - gated
        assert {span.attributes["budget"] for span in kernels} == {2}

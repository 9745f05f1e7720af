"""Unit and property tests for the multi-step k-NN algorithm (Algorithm 2)."""

import random

import pytest

from repro.datasets import SyntheticSpec, generate_dataset
from repro.exceptions import QueryError
from repro.filters import BinaryBranchFilter, BranchCountFilter, HistogramFilter
from repro.search import TreeDatabase, knn_query, sequential_knn_query
from repro.trees import parse_bracket

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


@pytest.fixture
def flt():
    return BinaryBranchFilter().fit(DATASET)


class TestBasics:
    def test_nearest_is_identical_tree(self, flt):
        neighbors, _ = knn_query(DATASET, parse_bracket("a(b,c)"), 1, flt)
        assert neighbors == [(0, 0.0)]

    def test_k_results_returned(self, flt):
        neighbors, _ = knn_query(DATASET, parse_bracket("a(b,c)"), 3, flt)
        assert len(neighbors) == 3
        distances = [d for _, d in neighbors]
        assert distances == sorted(distances)

    def test_k_equal_to_dataset(self, flt):
        neighbors, stats = knn_query(DATASET, parse_bracket("a"), len(DATASET), flt)
        assert len(neighbors) == len(DATASET)
        assert stats.candidates == len(DATASET)

    def test_invalid_k(self, flt):
        for k in (0, len(DATASET) + 1, 2.5, True):
            with pytest.raises(QueryError):
                knn_query(DATASET, parse_bracket("a"), k, flt)
            with pytest.raises(QueryError):
                sequential_knn_query(DATASET, parse_bracket("a"), k)

    def test_size_mismatch_rejected(self):
        flt = BinaryBranchFilter().fit(DATASET[:3])
        with pytest.raises(QueryError):
            knn_query(DATASET, parse_bracket("a"), 1, flt)

    def test_stats(self, flt):
        _, stats = knn_query(DATASET, parse_bracket("a(b,c)"), 2, flt)
        assert stats.dataset_size == len(DATASET)
        assert 2 <= stats.candidates <= len(DATASET)
        assert stats.results == 2


class TestOptimalMultiStep:
    def test_early_termination_prunes(self, flt):
        """With a query identical to one tree and k=1, refinement should
        stop well before scanning everything."""
        _, stats = knn_query(DATASET, parse_bracket("q(w(e(r(t))))"), 1, flt)
        assert stats.candidates < len(DATASET)

    def test_distance_set_matches_sequential(self, flt):
        """k-NN distances must equal the brute-force k smallest (the member
        set may differ only among equal distances)."""
        for k in range(1, len(DATASET) + 1):
            query = parse_bracket("a(b(c),d)")
            fast, _ = knn_query(DATASET, query, k, flt)
            brute, _ = sequential_knn_query(DATASET, query, k)
            assert sorted(d for _, d in fast) == sorted(d for _, d in brute)

    def test_matches_sequential_on_synthetic_data(self):
        rng = random.Random(5)
        spec = SyntheticSpec(size_mean=10, size_stddev=2, label_count=4, decay=0.15)
        dataset = generate_dataset(spec, count=15, seed_count=4, rng=rng)
        queries = rng.sample(dataset, 4)
        for filter_cls in (BinaryBranchFilter, HistogramFilter):
            flt = filter_cls().fit(dataset)
            for query in queries:
                for k in (1, 3, 5):
                    fast, _ = knn_query(dataset, query, k, flt)
                    brute, _ = sequential_knn_query(dataset, query, k)
                    assert sorted(d for _, d in fast) == sorted(
                        d for _, d in brute
                    )

    def test_results_sorted_by_distance_then_index(self, flt):
        neighbors, _ = knn_query(DATASET, parse_bracket("a(b,c)"), 4, flt)
        keys = [(d, i) for i, d in neighbors]
        assert keys == sorted(keys)


PLANE_CORPUS = [
    parse_bracket(text)
    for text in ["a(b,c)", "a(b,d)", "x(y)", "a(b(c),d)", "q(r,s)", "a"]
]


class TestMatrixPlanes:
    @pytest.mark.parametrize("filter_cls", [BinaryBranchFilter, BranchCountFilter])
    @pytest.mark.parametrize("plane_trees", [3, 7], ids=["short", "long"])
    def test_plane_of_another_corpus_rejected(self, filter_cls, plane_trees):
        flt = filter_cls().fit(PLANE_CORPUS)
        other = (PLANE_CORPUS + [parse_bracket("z(y)")])[-plane_trees:]
        matrices = TreeDatabase(other, flt=filter_cls()).matrices()
        for k in (1, len(PLANE_CORPUS)):
            with pytest.raises(QueryError, match="matrix planes"):
                knn_query(PLANE_CORPUS, parse_bracket("a"), k, flt, matrices=matrices)

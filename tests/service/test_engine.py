"""Unit tests for the TreeSearchService engine."""

import math

import pytest

from repro.exceptions import InvalidParameterError, QueryError
from repro.search.database import TreeDatabase
from repro.service import QueryRequest, TreeSearchService
from repro.trees import parse_bracket

BRACKETS = ["a(b,c)", "a(b,d)", "x(y)", "a(b(c),d)", "x(y,z)", "a(b,c)"]


@pytest.fixture
def database():
    return TreeDatabase([parse_bracket(t) for t in BRACKETS])


@pytest.fixture
def service(database):
    with TreeSearchService(database, max_workers=2, cache_size=16) as svc:
        yield svc


class TestSingleQueries:
    def test_range_matches_database(self, database, service):
        query = parse_bracket("a(b,c)")
        expected, _ = database.sequential_range_query(query, 1)
        got, stats = service.range(query, 1)
        assert got == expected
        assert stats.dataset_size == len(database)

    def test_knn_matches_database(self, database, service):
        query = parse_bracket("x(y)")
        expected, _ = database.knn(query, 3)
        got, _ = service.knn(query, 3)
        assert got == expected
        brute, _ = database.sequential_knn(query, 3)
        assert sorted(d for _, d in got) == sorted(d for _, d in brute)

    def test_execute_dispatches_by_kind(self, service):
        query = parse_bracket("a(b,c)")
        assert service.execute(QueryRequest("range", query, threshold=1)) == \
            service.range(query, 1)
        assert service.execute(QueryRequest("knn", query, k=2)) == \
            service.knn(query, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError):
            QueryRequest("join", parse_bracket("a"))

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected_and_not_cached(self, service, threshold):
        assert service._matrices is not None  # the vectorized path
        with pytest.raises(QueryError, match="finite"):
            service.range(parse_bracket("a(b,c)"), threshold)
        assert len(service._cache) == 0
        assert service.metrics.snapshot()["cache"]["misses"] == 0


    @pytest.mark.parametrize("k", [2.5, True])
    def test_non_integer_k_rejected_and_not_cached(self, service, k):
        query = parse_bracket("a(b)")
        service.knn(query, 1)  # k=True must not hit this k=1 entry
        with pytest.raises(QueryError, match="integer"):
            service.knn(query, k)
        assert len(service._cache) == 1


class TestResultCache:
    def test_repeat_query_hits_cache(self, service):
        query = parse_bracket("a(b,c)")
        first, _ = service.range(query, 1)
        second, _ = service.range(query, 1)
        assert first == second
        assert service.metrics.snapshot()["cache"]["hits"] == 1
        assert service.metrics.snapshot()["cache"]["misses"] == 1

    def test_cache_keyed_by_canonical_form_not_identity(self, service):
        service.range(parse_bracket("a(b,c)"), 1)
        service.range(parse_bracket("a(b,c)"), 1)  # distinct object, same tree
        assert service.metrics.snapshot()["cache"]["hits"] == 1

    def test_cache_distinguishes_parameters(self, service):
        query = parse_bracket("a(b,c)")
        service.range(query, 1)
        service.range(query, 2)
        assert service.metrics.snapshot()["cache"]["hits"] == 0

    def test_cache_distinguishes_kinds(self, service):
        query = parse_bracket("a(b,c)")
        service.range(query, 2)
        service.knn(query, 2)
        assert service.metrics.snapshot()["cache"]["hits"] == 0

    def test_cached_answer_is_a_private_copy(self, service):
        query = parse_bracket("a(b,c)")
        first, first_stats = service.range(query, 1)
        first.append(("poison", 0.0))
        first_stats.candidates = -1
        second, second_stats = service.range(query, 1)
        assert ("poison", 0.0) not in second
        assert second_stats.candidates >= 0

    def test_add_invalidates_cache(self, database, service):
        query = parse_bracket("a(b,c)")
        before, _ = service.range(query, 0)
        index = service.add(parse_bracket("a(b,c)"))
        after, _ = service.range(query, 0)
        assert index == len(BRACKETS)
        assert (index, 0.0) in after
        assert len(after) == len(before) + 1
        assert service.metrics.snapshot()["cache"]["invalidations"] == 1

    def test_zero_cache_size_disables_caching(self, database):
        with TreeSearchService(database, cache_size=0) as svc:
            query = parse_bracket("a(b,c)")
            first, _ = svc.range(query, 1)
            second, _ = svc.range(query, 1)
            assert first == second
            assert svc.metrics.snapshot()["cache"]["hits"] == 0
            assert svc.metrics.snapshot()["cache"]["misses"] == 2

    def test_cache_is_lru_bounded(self, database):
        with TreeSearchService(database, cache_size=2) as svc:
            for threshold in (0, 1, 2, 3):
                svc.range(parse_bracket("a(b,c)"), threshold)
            assert len(svc._cache) == 2


class TestBatches:
    def test_batch_range_matches_singles(self, database, service):
        queries = [parse_bracket(t) for t in BRACKETS]
        answers = service.batch_range(queries, 1)
        for query, (matches, _) in zip(queries, answers):
            expected, _ = database.sequential_range_query(query, 1)
            assert matches == expected

    def test_batch_knn_matches_singles(self, database, service):
        queries = [parse_bracket(t) for t in BRACKETS]
        answers = service.batch_knn(queries, 2)
        for query, (matches, _) in zip(queries, answers):
            expected, _ = database.knn(query, 2)
            assert matches == expected
            brute, _ = database.sequential_knn(query, 2)
            assert sorted(d for _, d in matches) == sorted(d for _, d in brute)

    def test_mixed_batch_preserves_order(self, service):
        requests = [
            QueryRequest("range", parse_bracket("a(b,c)"), threshold=1),
            QueryRequest("knn", parse_bracket("x(y)"), k=1),
            QueryRequest("range", parse_bracket("x(y,z)"), threshold=0),
        ]
        answers = service.batch(requests)
        assert len(answers) == 3
        assert answers[1][0] == service.knn(parse_bracket("x(y)"), 1)[0]

    def test_empty_batch(self, service):
        assert service.batch([]) == []

    def test_batch_counts_in_metrics(self, service):
        service.batch_range([parse_bracket("a(b,c)")], 1)
        assert service.metrics.snapshot()["batches"] == 1


class TestLifecycle:
    def test_close_is_idempotent(self, database):
        svc = TreeSearchService(database)
        svc.batch_range([parse_bracket("a")], 1)
        svc.close()
        svc.close()

    def test_batch_after_close_raises(self, database):
        svc = TreeSearchService(database)
        svc.close()
        with pytest.raises(RuntimeError):
            svc.batch_range([parse_bracket("a"), parse_bracket("b")], 1)

    def test_len_and_repr(self, service):
        assert len(service) == len(BRACKETS)
        assert "TreeSearchService" in repr(service)

    def test_rejects_bad_sizes(self, database):
        with pytest.raises(InvalidParameterError):
            TreeSearchService(database, max_workers=0)
        with pytest.raises(InvalidParameterError):
            TreeSearchService(database, cache_size=-1)
        for source in ("loop", "vptree", "bogus"):
            with pytest.raises(InvalidParameterError, match="candidate_source"):
                TreeSearchService(database, candidate_source=source)

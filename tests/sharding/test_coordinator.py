"""ShardedTreeService: API contract, delegation, lifecycle, batching."""

import math
import pickle

import pytest

from repro.exceptions import InvalidParameterError, QueryError
from repro.search.database import TreeDatabase
from repro.service.engine import QueryRequest, TreeSearchService
from repro.sharding import ShardedTreeService, encode_query
from repro.sharding.partition import RoundRobinPartitioner
from repro.trees import parse_bracket, to_bracket

BRACKETS = [
    "a(b,c)",
    "a(b,d)",
    "x(y(z),w)",
    "a(b(c,d),e(f))",
    "a(b,c,d)",
    "x(y,w)",
]


@pytest.fixture
def trees():
    return [parse_bracket(b) for b in BRACKETS]


@pytest.fixture
def service(trees):
    with ShardedTreeService(trees, shards=2, max_workers=2) as service:
        yield service


class TestConstruction:
    def test_rejects_zero_shards(self, trees):
        with pytest.raises(InvalidParameterError):
            ShardedTreeService(trees, shards=0)

    def test_rejects_unknown_filter(self, trees):
        with pytest.raises(InvalidParameterError, match="unknown filter"):
            ShardedTreeService(trees, shards=2, filter_name="psychic")

    def test_rejects_unknown_partitioner(self, trees):
        with pytest.raises(InvalidParameterError, match="unknown partitioner"):
            ShardedTreeService(trees, shards=2, partitioner="hash-ring")

    def test_rejects_mismatched_partitioner_instance(self, trees):
        with pytest.raises(InvalidParameterError, match="configured for"):
            ShardedTreeService(
                trees, shards=3, partitioner=RoundRobinPartitioner(2)
            )

    @pytest.mark.parametrize("source", ["loop", "vptree"])
    def test_rejects_unknown_candidate_source(self, trees, source):
        with pytest.raises(InvalidParameterError, match="candidate_source"):
            ShardedTreeService(trees, shards=2, candidate_source=source)

    def test_accepts_partitioner_instance(self, trees):
        with ShardedTreeService(
            trees, shards=2, partitioner=RoundRobinPartitioner(2)
        ) as service:
            assert len(service) == len(trees)


class TestSingleShardDelegation:
    def test_delegates_to_in_process_service(self, trees):
        query = parse_bracket("a(b,c)")
        reference = TreeSearchService(TreeDatabase(list(trees)))
        try:
            with ShardedTreeService(trees, shards=1) as service:
                assert "1 shard" in repr(service)
                assert len(service) == len(trees)
                assert (
                    service.range(query, 1.0)[0]
                    == reference.range(query, 1.0)[0]
                )
                assert service.knn(query, 2)[0] == reference.knn(query, 2)[0]
                (info,) = service.shard_info()
                assert info["trees"] == len(trees)
        finally:
            reference.close()

    def test_delegate_add(self, trees):
        with ShardedTreeService(trees, shards=1) as service:
            index = service.add(parse_bracket("a(b,c,q)"))
            assert index == len(trees)
            assert len(service) == len(trees) + 1
            assert service.generation == 1


class TestQueries:
    def test_range_returns_global_indices(self, service, trees):
        query = parse_bracket("a(b,c)")
        matches, stats = service.range(query, 1.0)
        assert [index for index, _ in matches] == sorted(
            index for index, _ in matches
        )
        assert {index for index, _ in matches} <= set(range(len(trees)))
        assert stats.dataset_size == len(trees)
        assert stats.results == len(matches)

    def test_knn_distances_ascend(self, service):
        matches, _ = service.knn(parse_bracket("a(b,c)"), 4)
        distances = [distance for _, distance in matches]
        assert distances == sorted(distances)
        assert len(matches) == 4

    def test_negative_threshold_rejected(self, service):
        with pytest.raises(QueryError):
            service.range(parse_bracket("a"), -1.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, service, threshold):
        with pytest.raises(QueryError, match="finite"):
            service.range(parse_bracket("a"), threshold)
        # the workers never saw it and keep serving
        assert service.range(parse_bracket("a(b,c)"), 0.0)[0] == [(0, 0.0)]

    @pytest.mark.parametrize("k", [0, 99, 2.5, True])
    def test_bad_k_rejected(self, service, k):
        with pytest.raises(QueryError):
            service.knn(parse_bracket("a"), k)

    def test_execute_dispatch(self, service):
        query = parse_bracket("a(b,c)")
        assert (
            service.execute(QueryRequest("range", query, threshold=1.0))[0]
            == service.range(query, 1.0)[0]
        )

    def test_batch_matches_individual_execution(self, service):
        requests = [
            QueryRequest("range", parse_bracket("a(b,c)"), threshold=1.0),
            QueryRequest("knn", parse_bracket("x(y)"), k=2),
            QueryRequest("range", parse_bracket("a"), threshold=2.0),
        ]
        batched = service.batch(requests)
        individual = [service.execute(request) for request in requests]
        assert [answer[0] for answer in batched] == [
            answer[0] for answer in individual
        ]


class TestMutation:
    def test_add_is_visible_to_queries(self, service, trees):
        clone = parse_bracket("x(y(z),w)")
        index = service.add(clone)
        assert index == len(trees)
        assert len(service) == len(trees) + 1
        assert service.generation == 1
        matches, _ = service.range(clone, 0.0)
        assert (index, 0.0) in matches

    def test_adds_spread_over_shards(self, service, trees):
        for offset in range(4):
            service.add(parse_bracket(f"n{offset}"))
        info = service.shard_info()
        assert sum(entry["trees"] for entry in info) == len(trees) + 4


class TestLifecycle:
    def test_close_is_idempotent(self, trees):
        service = ShardedTreeService(trees, shards=2)
        service.close()
        service.close()

    def test_query_after_close_raises(self, trees):
        service = ShardedTreeService(trees, shards=2)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.range(parse_bracket("a"), 1.0)

    def test_shard_info_counts_workers(self, service, trees):
        info = service.shard_info()
        assert [entry["shard"] for entry in info] == [0, 1]
        assert sum(entry["trees"] for entry in info) == len(trees)
        assert all(entry["filter"] == "BiBranch" for entry in info)


class TestMetrics:
    def test_queries_are_observed(self, service):
        before = service.metrics.snapshot()["queries_by_kind"].get("range", 0)
        service.range(parse_bracket("a(b,c)"), 1.0)
        snapshot = service.metrics.snapshot()
        assert snapshot["queries_by_kind"]["range"] == before + 1
        assert snapshot["queries_served"] >= before + 1


class TestEncodeQuery:
    def test_range_encoding(self):
        query = parse_bracket("a(b,c)")
        request = QueryRequest("range", query, threshold=2.0)
        assert encode_query(request) == ("range", to_bracket(query), 2.0)

    def test_knn_encoding(self):
        query = parse_bracket("x(y)")
        request = QueryRequest("knn", query, k=3)
        assert encode_query(request) == ("knn", to_bracket(query), 3)

    def test_encoding_is_flat_and_picklable(self):
        # the hot path ships brackets, never TreeNode object graphs
        encoded = encode_query(
            QueryRequest("range", parse_bracket("a(b(c))"), threshold=1.0)
        )
        assert all(isinstance(part, (str, int, float)) for part in encoded)
        assert pickle.loads(pickle.dumps(encoded)) == encoded

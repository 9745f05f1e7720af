"""ShardedTreeService: API contract, lifecycle, batching."""

import math
import multiprocessing
import pickle

import pytest

from repro.datasets.dblp import generate_dblp_dataset
from repro.exceptions import InvalidParameterError, QueryError, ShardError
from repro.features.store import FeatureStore
from repro.search.database import TreeDatabase
from repro.service.engine import QueryRequest, TreeSearchService
from repro.sharding import ShardedTreeService
from repro.sharding.partition import RoundRobinPartitioner
from repro.trees import parse_bracket
from tests.metric_reads import metric

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
        for shards in (0, 1):  # one shard is TreeSearchService's job
            with pytest.raises(InvalidParameterError, match="TreeSearchService"):
                ShardedTreeService(trees, shards=shards)

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

    def test_rejects_zero_workers_before_forking(self, trees):
        with pytest.raises(InvalidParameterError, match="max_workers"):
            ShardedTreeService(trees, shards=2, max_workers=0)
        assert multiprocessing.active_children() == []

    def test_accepts_partitioner_instance(self, trees):
        with ShardedTreeService(
            trees, shards=2, partitioner=RoundRobinPartitioner(2)
        ) as service:
            assert len(service) == len(trees)

    def test_coordinator_extracts_no_features(self, trees, monkeypatch):
        # every worker indexes its own rows; a forked worker's fit calls
        # land in its own copy of `calls`, never in this process's
        calls = []
        fit = FeatureStore.fit

        def counting_fit(store, forest):
            calls.append(len(forest))
            return fit(store, forest)

        monkeypatch.setattr(FeatureStore, "fit", counting_fit)
        with ShardedTreeService(trees, shards=2) as service:
            matches, _ = service.range(parse_bracket("a(b,c)"), 0.0)
        assert matches == [(0, 0.0)]
        assert calls == []


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

    def test_batch_matches_individual_execution(self, service, trees):
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
        with TreeSearchService(TreeDatabase(trees), max_workers=2) as single:
            expected = single.batch(requests)
        assert [answer[0] for answer in batched] == [
            answer[0] for answer in expected
        ]

    def test_wire_messages_are_flat_and_picklable(self, service, trees):
        """Queries and adds cross the pipe as flat primitives — brackets,
        never TreeNode object graphs."""
        messages = []
        call = service._call

        def recording(shard, message, kind):
            messages.append(message)
            return call(shard, message, kind)

        service._call = recording
        service.range(parse_bracket("a(b(c))"), 1.0)
        service.knn(parse_bracket("x(y)"), 3)
        service.add(parse_bracket("a(b,c)"))
        service._call = call
        ops = {message[0] for message in messages}
        assert {"range", "knn", "add"} <= ops
        for message in messages:
            assert all(
                isinstance(operand, (str, int, float, bool)) for operand in message
            ), message
            assert pickle.loads(pickle.dumps(message)) == message


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
        shards = service.health()["shards"]
        assert sum(entry["trees"] for entry in shards) == len(trees) + 4


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
        with pytest.raises(RuntimeError, match="closed"):
            service.batch_range([parse_bracket("a"), parse_bracket("b")], 1.0)

    def test_failed_knn_leaves_the_service_serving(self):
        """A k-NN that fails on one shard raises ``ShardError``; the
        workers hold no per-query state, so the next k-NN answers right."""
        trees = generate_dblp_dataset(60)
        reference = TreeDatabase(list(trees))
        with ShardedTreeService(trees, shards=2, max_workers=2) as service:
            call = service._call

            def failing(shard, message, kind):
                if shard == 1 and message[0] == "knn":
                    raise ShardError("injected k-NN failure")
                return call(shard, message, kind)

            service._call = failing
            with pytest.raises(ShardError, match="injected"):
                service.knn(trees[0], 5)
            service._call = call
            for query in trees[:3]:
                assert service.knn(query, 5)[0] == reference.knn(query, 5)[0]

    def test_health_counts_workers(self, service, trees):
        shards = service.health()["shards"]
        assert [entry["shard"] for entry in shards] == [0, 1]
        assert sum(entry["trees"] for entry in shards) == len(trees)
        assert all(entry["filter"] == "BiBranch+Label" for entry in shards)

    def test_health_counts_gated_refines(self):
        """A refine the traversal-string gate settles still counts as one
        distance computation; ``gated_distances`` counts it again, among
        the budgeted attempts of ``distance_rungs``.  Both query kinds
        refine through the gate, and the merged stats carry the shards'
        gated and rung counts."""
        trees = generate_dblp_dataset(80)
        with ShardedTreeService(trees, shards=2, max_workers=2) as service:
            stats = [service.knn(tree, 3)[1] for tree in trees[:4]]
            stats += [service.range(tree, 2.0)[1] for tree in trees[4:8]]
            shards = service.health()["shards"]
        computed = sum(entry["distance_computations"] for entry in shards)
        gated = sum(entry["gated_distances"] for entry in shards)
        rungs = sum(entry["distance_rungs"] for entry in shards)
        assert computed == sum(entry.candidates for entry in stats)
        assert gated == sum(entry.gated for entry in stats)
        assert rungs == sum(entry.rungs for entry in stats)
        assert 0 < gated < computed
        assert gated < rungs
        assert any(entry.gated for entry in stats[4:])


class TestMetrics:
    def test_queries_are_observed(self, service):
        before = metric(service, "repro_queries_total", kind="range")
        service.range(parse_bracket("a(b,c)"), 1.0)
        assert metric(service, "repro_queries_total", kind="range") == before + 1
        served = service.metrics.get("repro_queries_total").values()
        assert sum(served.values()) >= before + 1

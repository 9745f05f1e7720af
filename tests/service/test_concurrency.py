"""Concurrency smoke tests and cache-consistency property tests.

The service's contract under concurrent load: answers are bit-identical to
the sequential-scan ground truth, no matter how many threads share the
service or how often the result cache is hit.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search import SearchStats
from repro.search.database import TreeDatabase
from repro.service import TreeSearchService
from repro.trees import parse_bracket
from tests.metric_reads import metric
from tests.strategies import trees as tree_strategy

THREADS = 8
ROUNDS = 5

BRACKETS = [
    "a(b,c)", "a(b,d)", "x(y)", "a(b(c),d)", "x(y,z)",
    "a(b,c,d)", "b(a)", "a(b(c,d))", "x", "a(a(a))",
]


def _dataset():
    return [parse_bracket(t) for t in BRACKETS]


class TestConcurrentQueries:
    def test_eight_threads_agree_with_sequential_ground_truth(self):
        dataset = _dataset()
        database = TreeDatabase(dataset)
        truth_db = TreeDatabase(dataset)
        queries = [parse_bracket(t) for t in BRACKETS]
        range_truth = {
            i: truth_db.sequential_range_query(q, 2)[0]
            for i, q in enumerate(queries)
        }
        # k-NN tie-breaking differs between the multi-step algorithm and the
        # brute-force scan (both are valid k-NN sets); the service must be
        # bit-identical to the deterministic filtered algorithm and
        # distance-identical to the sequential ground truth.
        knn_truth = {i: truth_db.knn(q, 3)[0] for i, q in enumerate(queries)}
        knn_distance_truth = {
            i: sorted(d for _, d in truth_db.sequential_knn(q, 3)[0])
            for i, q in enumerate(queries)
        }
        failures = []
        barrier = threading.Barrier(THREADS)

        def worker(worker_id):
            barrier.wait()  # maximise overlap
            for round_number in range(ROUNDS):
                for i, query in enumerate(queries):
                    if (worker_id + round_number + i) % 2 == 0:
                        matches, _ = service.range(query, 2)
                        if matches != range_truth[i]:
                            failures.append(("range", worker_id, i, matches))
                    else:
                        matches, _ = service.knn(query, 3)
                        if matches != knn_truth[i]:
                            failures.append(("knn", worker_id, i, matches))
                        if sorted(d for _, d in matches) != knn_distance_truth[i]:
                            failures.append(("knn-dist", worker_id, i, matches))

        with TreeSearchService(database, max_workers=4, cache_size=64) as service:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures
        # heavy repetition must actually exercise the cache
        assert metric(service, "repro_cache_hits_total") > 0
        total = THREADS * ROUNDS * len(queries)
        served = service.metrics.get("repro_queries_total").values()
        assert sum(served.values()) == total
        latency = service.metrics.get("repro_query_latency_seconds").states()
        assert sum(state.total for state in latency.values()) == total

    def test_concurrent_batches_agree_with_ground_truth(self):
        dataset = _dataset()
        database = TreeDatabase(dataset)
        queries = [parse_bracket(t) for t in BRACKETS]
        truth = [
            TreeDatabase(dataset).sequential_range_query(q, 1)[0] for q in queries
        ]
        with TreeSearchService(database, max_workers=4) as service:
            results = []

            def worker():
                answers = service.batch_range(queries, 1)
                results.append([matches for matches, _ in answers])

            threads = [threading.Thread(target=worker) for _ in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(results) == THREADS
        for answer in results:
            assert answer == truth

    def test_queries_interleaved_with_adds_stay_consistent(self):
        database = TreeDatabase(_dataset())
        query = parse_bracket("a(b,c)")
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                matches, stats = service.range(query, 1)
                # every answer must reflect a complete database state:
                # the filter and the scan saw the same number of trees
                if stats.dataset_size not in sizes_seen:
                    errors.append(stats.dataset_size)

        sizes_seen = set(range(len(_dataset()), len(_dataset()) + 21))
        with TreeSearchService(database, cache_size=8) as service:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for i in range(20):
                service.add(parse_bracket(f"z{i}(w)"))
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(database) == len(_dataset()) + 20


class TestRecordingUnderContention:
    def test_concurrent_observations_lose_no_update(self):
        """Every series stays exact with only the per-instrument locks."""
        service = TreeSearchService(TreeDatabase(_dataset()))
        stats = SearchStats(dataset_size=10, candidates=3, results=1)
        rounds = 2000
        barrier = threading.Barrier(THREADS)

        def worker():
            barrier.wait()
            for _ in range(rounds):
                service._observe("range", stats, 1e-4, cache_hit=False)

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = THREADS * rounds
        assert metric(service, "repro_queries_total", kind="range") == total
        assert metric(service, "repro_cache_misses_total") == total
        assert metric(service, "repro_candidates_examined_total") == 3 * total
        latency = service.metrics.get("repro_query_latency_seconds")
        assert latency.state(kind="range").total == total
        assert sum(latency.state(kind="range").counts) == total


class TestCachedEqualsUncached:
    @given(
        forest=st.lists(tree_strategy(max_leaves=6), min_size=2, max_size=8),
        query_index=st.integers(min_value=0, max_value=7),
        threshold=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_range_cache_transparency(self, forest, query_index, threshold):
        query = forest[query_index % len(forest)]
        cached_service = TreeSearchService(TreeDatabase(list(forest)), cache_size=64)
        uncached_service = TreeSearchService(TreeDatabase(list(forest)), cache_size=0)
        try:
            cold, _ = cached_service.range(query, threshold)
            warm, _ = cached_service.range(query, threshold)  # from cache
            plain, _ = uncached_service.range(query, threshold)
            assert cold == warm == plain
            assert metric(cached_service, "repro_cache_hits_total") == 1
        finally:
            cached_service.close()
            uncached_service.close()

    @given(
        forest=st.lists(tree_strategy(max_leaves=6), min_size=2, max_size=8),
        query_index=st.integers(min_value=0, max_value=7),
        k=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_knn_cache_transparency(self, forest, query_index, k):
        query = forest[query_index % len(forest)]
        cached_service = TreeSearchService(TreeDatabase(list(forest)), cache_size=64)
        uncached_service = TreeSearchService(TreeDatabase(list(forest)), cache_size=0)
        try:
            cold, _ = cached_service.knn(query, k)
            warm, _ = cached_service.knn(query, k)
            plain, _ = uncached_service.knn(query, k)
            assert cold == warm == plain
        finally:
            cached_service.close()
            uncached_service.close()

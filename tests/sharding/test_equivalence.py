"""Property test: sharding is answer-invisible.

For every seed, shard count, partitioner and filter sampled here, the
sharded scatter-gather service must return *bit-identical* answers —
member ids, exact distances, tie order — to the single-process path, and
the distributed k-NN must refine exactly as many candidates (the
Algorithm 2 optimality guarantee).  The same must hold after incremental
adds routed through the coordinator, where the workers' vocabularies
have diverged from the coordinator's.
"""

import heapq
import itertools
import math
import random

import pytest

from repro.datasets import generate_dblp_dataset
from repro.datasets.dblp import make_variant
from repro.datasets.synthetic import SyntheticSpec, generate_dataset
from repro.filters import DEFAULT_FILTER, FILTERS
from repro.obs.funnel import collect_funnels
from repro.search.database import TreeDatabase
from repro.search.knn import BoundStream, knn_query
from repro.search.range_query import range_query
from repro.sharding import ShardedTreeService
from repro.trees.edits import random_edit_script

SPEC = SyntheticSpec(
    fanout_mean=2.5,
    fanout_stddev=0.8,
    size_mean=12.0,
    size_stddev=3.0,
    label_count=4,
    decay=0.15,
)


def _corpus(seed, count=14):
    return generate_dataset(SPEC, count=count, seed_count=3, seed=seed)


def _reference(trees, filter_name):
    return TreeDatabase(list(trees), flt=FILTERS[filter_name]())


def _check_equivalence(service, trees, filter_name, queries):
    reference = _reference(trees, filter_name)
    for query in queries:
        for threshold in (0.0, 2.0, 5.0):
            served = service.range(query, threshold)
            expected = range_query(
                reference.trees, query, threshold,
                reference.filter, reference.counter,
            )
            assert served[0] == expected[0]
            assert served[1].candidates == expected[1].candidates
        for k in (1, 3, 6):
            served = service.knn(query, k)
            expected = knn_query(
                reference.trees, query, k, reference.filter, reference.counter
            )
            assert served[0] == expected[0]
            # optimality: identical refined-candidate count, not just answers
            assert served[1].candidates == expected[1].candidates


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "shards,partitioner", [(2, "round-robin"), (3, "size-banded")]
)
def test_sharded_answers_equal_single_process(seed, shards, partitioner):
    trees = _corpus(seed)
    queries = _corpus(seed + 100, count=3)
    with ShardedTreeService(
        trees, shards=shards, partitioner=partitioner, max_workers=2
    ) as service:
        _check_equivalence(service, trees, DEFAULT_FILTER, queries)


@pytest.mark.parametrize(
    "filter_name", sorted(set(FILTERS) - {DEFAULT_FILTER})
)
def test_every_filter_family_is_equivalent(filter_name):
    trees = _corpus(7)
    queries = _corpus(107, count=2)
    with ShardedTreeService(
        trees, shards=2, filter_name=filter_name, max_workers=2
    ) as service:
        _check_equivalence(service, trees, filter_name, queries)


@pytest.mark.parametrize("shards", [2, 3])
def test_equivalence_survives_incremental_adds(shards):
    seed = 5
    trees = _corpus(seed)
    queries = _corpus(seed + 100, count=3)
    labels = sorted(
        {str(node.label) for tree in trees for node in tree.iter_preorder()}
    )
    rng = random.Random(seed)
    with ShardedTreeService(trees, shards=shards, max_workers=2) as service:
        shadow = list(trees)
        for _ in range(4):
            mutated, _script = random_edit_script(
                rng.choice(shadow), rng.randint(1, 3), labels, rng
            )
            assert service.add(mutated) == len(shadow)
            shadow.append(mutated)
            _check_equivalence(service, shadow, DEFAULT_FILTER, queries[:2])
        assert service.generation == 4


def test_knn_refine_rounds_keep_answers_candidates_and_budgets():
    """Every ``knn_refine_upto`` round is exactly the round rule: with L
    the k-th smallest of the heap's distances and every shard's next ``k``
    bounds, it refines all unrefined rows bounded under L plus the first
    ``min(q, tied)`` rows bounded exactly L in global order, where
    ``q = k − c − b`` (c heap distances ≤ L, b rows under L), with one
    request per shard.  Answers and refined counts equal single process,
    and the budget is ``inf`` until the heap is full, then the k-th
    distance at the round's start."""
    trees = _corpus(3, count=40)
    queries = _corpus(103, count=4)
    reference = _reference(trees, DEFAULT_FILTER)
    rounds = []  # (requests, replies) of every knn_refine_upto round
    multi_round = tie_quota = 0
    with ShardedTreeService(trees, shards=2, max_workers=2) as service:
        exchange = service._exchange

        def spy(requests, kind):
            replies = exchange(requests, kind)
            if requests[0][1][0] == "knn_refine_upto":
                rounds.append((requests, replies))
            return replies

        service._exchange = spy
        by_shard = service._assignment.by_shard
        shard_of = {
            row: shard for shard, members in enumerate(by_shard) for row in members
        }
        for query in queries:
            bounds = [float(bound) for bound in reference.filter.bounds(query)]
            for k in (1, 3, 6):
                rounds.clear()
                served = service.knn(query, k)
                expected = knn_query(
                    reference.trees, query, k, reference.filter, reference.counter
                )
                assert served[0] == expected[0]
                assert served[1].candidates == expected[1].candidates

                # per shard, its unrefined (bound, global index) rows, ascending
                unrefined = [
                    sorted((bounds[row], row) for row in members)
                    for members in by_shard
                ]
                heap = []  # (−distance, −global index), the coordinator's rules
                refined = 0
                for requests, replies in rounds:
                    sent = [shard for shard, _ in requests]
                    assert len(sent) == len(set(sent))
                    limit, budget = requests[0][1][2:4]
                    assert all(
                        message[2:4] == (limit, budget) for _, message in requests
                    )
                    assert budget == (-heap[0][0] if len(heap) == k else math.inf)
                    assert limit == heapq.nsmallest(
                        k,
                        [-distance for distance, _ in heap]
                        + [bound for rows in unrefined for bound, _ in rows[:k]],
                    )[-1]
                    below = [
                        pair for rows in unrefined for pair in rows
                        if pair[0] < limit
                    ]
                    tied = sorted(
                        pair for rows in unrefined for pair in rows
                        if pair[0] == limit
                    )
                    quota = k - len(below) - sum(
                        -distance <= limit for distance, _ in heap
                    )
                    chosen = tied[:max(quota, 0)]
                    tie_quota += 0 < len(chosen) < len(tied)
                    for shard, message in requests:
                        assert message[4] == sum(
                            shard_of[row] == shard for _, row in chosen
                        )
                    rows = sorted(
                        (bound, by_shard[shard][local], distance)
                        for (shard, _), reply in zip(requests, replies)
                        for bound, local, distance in reply["refined"]
                    )
                    assert [(bound, row) for bound, row, _ in rows] == sorted(
                        below + chosen
                    )
                    for bound, row, distance in rows:
                        unrefined[shard_of[row]].remove((bound, row))
                        if len(heap) < k:
                            heapq.heappush(heap, (-distance, -row))
                        elif distance < -heap[0][0]:
                            heapq.heapreplace(heap, (-distance, -row))
                    refined += len(rows)
                assert refined == served[1].candidates
                # the rounds stop exactly where optimal stopping does
                heads = [rows[0][0] for rows in unrefined if rows]
                assert len(heap) == k
                assert not heads or min(heads) >= -heap[0][0]
                multi_round += len(rounds) > 1
    assert multi_round
    assert tie_quota


def _expected_shard_scored(reference, query, k, candidates, by_shard):
    """Rows the shards' streams bound, replayed single-process.

    Each shard streams its rows over the same per-row keys and bounds as
    the single-process filter, and pulls the rows it refines (the
    single-process refined rows in that shard: the first ``candidates``
    rows of the global ``(bound, row)`` order) plus its ``k`` rows ahead.
    """
    flt = reference.filter
    keys = flt.order_keys(flt.signature(query), reference.matrices())
    bounds = flt.bounds(query)
    order = sorted(range(len(bounds)), key=lambda row: (bounds[row], row))
    single = set(order[:candidates])
    scored = 0
    for members in by_shard:
        refined = sum(1 for row in members if row in single)
        stream = BoundStream(
            [keys[row] for row in members],
            lambda local, members=members: bounds[members[local]],
        )
        pulled = refined + min(k, len(members) - refined)
        for _ in itertools.islice(stream, pulled):
            pass
        scored += stream.scored
    return scored


def test_serving_filter_orders_lazily_on_the_shards():
    """On ``bibranch+label`` the shards stream off their matrix planes,
    label histograms included: same answers and refined counts as single
    process, and the ordering stage bounds exactly the rows the same
    streams bound single-process when pulled to the shards' depth."""
    trees = generate_dblp_dataset(80, rng=random.Random(4))
    rng = random.Random(5)
    queries = [make_variant(rng.choice(trees), rng) for _ in range(4)]
    reference = _reference(trees, "bibranch+label")
    with ShardedTreeService(
        trees, shards=2, filter_name="bibranch+label", max_workers=2
    ) as service:
        by_shard = service._assignment.by_shard
        for query in queries:
            for k in (1, 3):
                with collect_funnels() as sink:
                    expected = knn_query(
                        reference.trees, query, k, reference.filter,
                        reference.counter, matrices=reference.matrices(),
                    )
                    served = service.knn(query, k)
                single, sharded = sink.funnels
                assert served[0] == expected[0]
                assert served[1].candidates == expected[1].candidates
                assert single.stages[0].name == sharded.stages[0].name
                scored = sharded.stages[0].survivors
                assert scored == _expected_shard_scored(
                    reference, query, k, expected[1].candidates, by_shard
                )
                assert single.stages[0].survivors <= scored < len(trees)

"""Property test: sharding is answer-invisible.

For every seed, shard count, partitioner and filter sampled here, the
sharded scatter-gather service must return *bit-identical* answers —
member ids, exact distances, tie order — to the single-process path.  A
sharded range query refines exactly the single-process candidates; a
sharded k-NN refines, on every shard, exactly what the single-process
Algorithm 2 refines over that shard's rows.  The same must hold after
incremental adds routed through the coordinator, where the workers'
vocabularies have diverged from the coordinator's.
"""

import random

import pytest

from repro.datasets import generate_dblp_dataset
from repro.datasets.dblp import make_variant
from repro.datasets.synthetic import SyntheticSpec, generate_dataset
from repro.exceptions import QueryError
from repro.filters import DEFAULT_FILTER, FILTERS
from repro.obs.funnel import collect_funnels
from repro.search.database import TreeDatabase
from repro.search.knn import knn_query
from repro.search.range_query import range_query
from repro.sharding import ShardedTreeService
from repro.trees import parse_bracket
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


def _shard_replay(service, trees, filter_name, query, k):
    """Refined rows and bounded rows of ``knn_query`` run on each shard's
    rows alone, summed over the shards."""
    refined = scored = 0
    for members in service._assignment.by_shard:
        if not members:
            continue
        shard = _reference([trees[row] for row in members], filter_name)
        with collect_funnels() as sink:
            _, stats = knn_query(
                shard.trees, query, min(k, len(members)), shard.filter,
                shard.counter, matrices=shard.matrices(),
            )
        refined += stats.candidates
        scored += sink.funnels[0].stages[0].survivors
    return refined, scored


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
            # each shard refines exactly its own single-process Alg. 2 rows
            assert served[1].candidates == _shard_replay(
                service, trees, filter_name, query, k
            )[0]


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


def test_serving_filter_orders_lazily_on_the_shards():
    """On ``bibranch+label`` the shards stream off their matrix planes,
    label histograms included: same answers as single process, and each
    shard refines and bounds exactly the rows the same search refines and
    bounds over that shard's rows alone."""
    trees = generate_dblp_dataset(80, rng=random.Random(4))
    rng = random.Random(5)
    queries = [make_variant(rng.choice(trees), rng) for _ in range(4)]
    reference = _reference(trees, "bibranch+label")
    with ShardedTreeService(
        trees, shards=2, filter_name="bibranch+label", max_workers=2
    ) as service:
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
                assert single.stages[0].name == sharded.stages[0].name
                refined, scored = _shard_replay(
                    service, trees, "bibranch+label", query, k
                )
                assert served[1].candidates == refined
                assert sharded.stages[0].survivors == scored < len(trees)


@pytest.mark.parametrize(
    "brackets,layout",
    [
        (["a(b,c)", "a(b)", "x(y,z)", "a", "b(c(d))"], [5, 0]),
        (["a(b,c)", "a(b)", "x(y,z)", "a", "a(b,c,d,e,f,g,h)"], [4, 1]),
    ],
    ids=["empty-shard", "one-row-shard"],
)
def test_shards_with_fewer_than_k_rows(brackets, layout):
    """A shard with fewer than k rows answers with all of them, and a
    shard with none answers empty; k above the corpus is still refused."""
    trees = [parse_bracket(bracket) for bracket in brackets]
    reference = _reference(trees, DEFAULT_FILTER)
    with ShardedTreeService(
        trees, shards=2, partitioner="size-banded", max_workers=2
    ) as service:
        assert service._assignment.shard_sizes() == layout
        for query in trees:
            for k in (3, 5):
                served = service.knn(query, k)
                expected = knn_query(
                    reference.trees, query, k, reference.filter, reference.counter
                )
                assert served[0] == expected[0]
                assert served[1].candidates == _shard_replay(
                    service, trees, DEFAULT_FILTER, query, k
                )[0]
        with pytest.raises(QueryError, match="exceeds"):
            service.knn(trees[0], 6)

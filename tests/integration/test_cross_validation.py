"""Cross-validation fuzz: every query path must agree with every other.

For a batch of randomized (but seeded) workloads, run all implemented
query strategies — linear filter scan per filter, k-NN per filter,
pairwise join — and check they produce identical answers.  Any
soundness bug in any bound or matching routine shows up here as a
divergence.
"""

import random

import pytest

from repro.datasets import (
    SyntheticSpec,
    generate_dataset,
    generate_dblp_dataset,
)
from repro.editdist import EditDistanceCounter
from repro.filters import (
    BinaryBranchFilter,
    BranchCountFilter,
    HistogramFilter,
    MaxCompositeFilter,
    SizeDifferenceFilter,
    TraversalStringFilter,
    space_parity_histogram_filter,
)
from repro.search import (
    knn_query,
    range_query,
    sequential_knn_query,
    sequential_range_query,
    similarity_self_join,
)


def workloads():
    yield "synthetic-clustered", generate_dataset(
        SyntheticSpec(size_mean=12, size_stddev=3, label_count=5, decay=0.1),
        count=24, seed_count=4, seed=101,
    )
    yield "synthetic-scattered", generate_dataset(
        SyntheticSpec(size_mean=8, size_stddev=4, label_count=3, decay=0.5),
        count=24, seed_count=12, seed=102,
    )
    yield "dblp-like", generate_dblp_dataset(24, seed=103)


@pytest.mark.parametrize("name,trees", list(workloads()))
def test_all_query_paths_agree(name, trees):
    rng = random.Random(hash(name) & 0xFFFF)
    counter = EditDistanceCounter()
    filters = [
        BinaryBranchFilter().fit(trees),
        BranchCountFilter().fit(trees),
        HistogramFilter().fit(trees),
        space_parity_histogram_filter(trees).fit(trees),
        TraversalStringFilter().fit(trees),
        MaxCompositeFilter(
            [BinaryBranchFilter(), SizeDifferenceFilter()]
        ).fit(trees),
    ]
    queries = [trees[rng.randrange(len(trees))] for _ in range(3)]

    for query in queries:
        for threshold in (0, 2, 5):
            truth, _ = sequential_range_query(trees, query, threshold, counter)
            for flt in filters:
                answer, _ = range_query(trees, query, threshold, flt, counter)
                assert answer == truth, (name, flt.name, threshold)

        for k in (1, 4):
            truth_knn, _ = sequential_knn_query(trees, query, k, counter)
            truth_distances = sorted(d for _, d in truth_knn)
            for flt in filters:
                answer, _ = knn_query(trees, query, k, flt, counter)
                assert sorted(d for _, d in answer) == truth_distances

    for threshold in (0, 3):
        truth_join, _ = similarity_self_join(
            trees, threshold, filters[0], counter
        )
        for flt in filters[1:]:
            answer, _ = similarity_self_join(trees, threshold, flt, counter)
            assert answer == truth_join, (name, flt.name)

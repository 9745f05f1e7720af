"""Ablation: inverted-file candidate generation vs. the linear filter scan.

The paper builds the IFI (Algorithm 1) but its query algorithms still scan
every vector.  :class:`~repro.index.inverted.ExtendedInvertedFile` merges
only the postings of the query's own branches (plus the norm-sorted
prefix of branch-disjoint rows) into the exact BDist ball, and
:func:`~repro.search.range_query.range_query` runs the filter cascade over
that ball alone — this bench measures what that buys on a selective range
workload (many trees share no branch with the query) and confirms the two
strategies return identical answers.
"""

import random
import time

from repro.datasets import SyntheticSpec, generate_dataset
from repro.editdist import EditDistanceCounter
from repro.features import FeatureStore
from repro.filters import BinaryBranchFilter
from repro.index import ExtendedInvertedFile
from repro.search import range_query

from benchmarks.figure_common import current_scale, save_report


def test_ablation_index_scan(benchmark):
    scale = current_scale()
    # several independent seed families -> queries share branches with only
    # part of the collection, the regime candidate generation exploits
    spec = SyntheticSpec(fanout_mean=4, fanout_stddev=0.5,
                         size_mean=30, size_stddev=2, label_count=64,
                         decay=0.08)
    trees = generate_dataset(
        spec, count=scale.dataset_size, seed_count=30, seed=21
    )
    rng = random.Random(22)
    queries = [trees[i] for i in rng.sample(range(len(trees)), 6)]
    threshold = 3

    store = FeatureStore((2,)).fit(trees)
    flt = BinaryBranchFilter().fit_from_store(store)
    index = ExtendedInvertedFile(store)
    results = {}

    def run():
        counter = EditDistanceCounter()
        start = time.perf_counter()
        linear_answers = [
            range_query(trees, query, threshold, flt, counter)[0]
            for query in queries
        ]
        results["linear_seconds"] = time.perf_counter() - start
        reached = 0
        indexed_answers = []
        start = time.perf_counter()
        for query in queries:
            indexed_answers.append(
                range_query(
                    trees, query, threshold, flt, counter, index=index
                )[0]
            )
            reached += index.last_examined
        results["indexed_seconds"] = time.perf_counter() - start
        assert indexed_answers == linear_answers  # exactness
        results["trees_reached"] = reached / len(queries)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        "== Ablation: IFI candidate generation vs linear filter scan ==",
        f"  dataset             {len(trees):>10} trees, tau={threshold}",
        f"  trees reached/query {results['trees_reached']:>10.1f}"
        f"  (of {len(trees)})",
        f"  linear filter scan  {results['linear_seconds']:>10.3f} s",
        f"  indexed scan        {results['indexed_seconds']:>10.3f} s",
    ]
    save_report("ablation_index_scan", "\n".join(rows))
    # the index must not be slower than the linear scan by more than noise
    assert results["indexed_seconds"] <= results["linear_seconds"] * 1.5

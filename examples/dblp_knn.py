"""Bibliographic k-NN search on a DBLP-like corpus (the paper's §5.2 setup).

Generates a DBLP-like dataset, reports its structural statistics (compare
with the paper's "10.15 nodes on average, average depth 2.9"), then runs
k-NN queries with the BiBranch filter and the histogram comparator and
prints their accessed-data percentages side by side.

Run with:  python examples/dblp_knn.py [record_count]
"""

import random
import sys

from repro import TreeDatabase
from repro.bench import average_pairwise_distance, select_queries
from repro.datasets import generate_dblp_dataset
from repro.filters import BinaryBranchFilter, space_parity_histogram_filter
from repro.trees import dataset_summary, to_bracket


def main(count: int = 200) -> None:
    records = generate_dblp_dataset(count, seed=2005)
    summary = dataset_summary(records)
    print(f"DBLP-like corpus: {summary['count']} records, "
          f"avg size {summary['avg_size']:.2f} nodes, "
          f"avg height {summary['avg_height']:.2f}, "
          f"{summary['labels']} distinct labels")
    print(f"average pairwise edit distance ≈ "
          f"{average_pairwise_distance(records, sample_pairs=100):.2f} "
          f"(paper reports 5.03 on real DBLP)\n")

    # the paper's filter alone; TreeDatabase(records) would serve the
    # BiBranch + label-histogram composite
    bibranch_db = TreeDatabase(records, flt=BinaryBranchFilter())
    # the histogram comparator uses the paper's space-parity folding
    histogram_db = TreeDatabase(records, flt=space_parity_histogram_filter(records))

    queries = select_queries(records, 5, rng=random.Random(1))
    k = 5
    print(f"{k}-NN over {len(records)} records, 5 queries:\n")
    for number, query in enumerate(queries):
        neighbors, bib_stats = bibranch_db.knn(query, k)
        _, histo_stats = histogram_db.knn(query, k)
        print(f"query {number}: {to_bracket(query)[:60]}...")
        print(f"  nearest (after itself): "
              f"{[(i, f'{d:g}') for i, d in neighbors[:3]]}")
        print(f"  accessed  BiBranch {bib_stats.accessed_percentage:5.1f}%   "
              f"Histo {histo_stats.accessed_percentage:5.1f}%")
    print(f"\ntotal exact distance computations: "
          f"BiBranch={bibranch_db.distance_computations}, "
          f"Histo={histogram_db.distance_computations}, "
          f"sequential would need {len(queries) * len(records)}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)

"""Filter-and-refine similarity search framework.

Range queries, optimal multi-step k-NN (Algorithm 2), similarity joins,
sequential-scan baselines and search statistics.
"""

from repro.search.approximate import approximate_knn_query
from repro.search.database import TreeDatabase
from repro.search.io_model import DiskModel, IOEstimate
from repro.search.join import similarity_join, similarity_self_join
from repro.search.knn import knn_query
from repro.search.range_query import range_query
from repro.search.sequential import (
    distance_matrix,
    sequential_knn_query,
    sequential_range_query,
)
from repro.search.statistics import SearchStats
from repro.search.tiered_knn import tiered_knn_query

__all__ = [
    "TreeDatabase",
    "range_query",
    "knn_query",
    "tiered_knn_query",
    "approximate_knn_query",
    "sequential_range_query",
    "sequential_knn_query",
    "distance_matrix",
    "similarity_self_join",
    "similarity_join",
    "SearchStats",
    "DiskModel",
    "IOEstimate",
]

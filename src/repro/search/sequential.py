"""Sequential-scan baselines (no filtering).

The paper's CPU-time comparison line: every query computes the exact edit
distance against every database object.  These implementations are also the
ground truth the integration tests compare the filtered algorithms against.

There is deliberately no ``matrices`` parameter here: a sequential scan has
no filter stage to vectorize — every object is refined exactly — so these
baselines stay the fixed reference the vectorized cascade is ultimately
validated against.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.editdist.zhang_shasha import EditDistanceCounter
from repro.exceptions import QueryError
from repro.obs import tracing
from repro.obs.funnel import active_sink, record_funnel
from repro.search.knn import check_k
from repro.search.statistics import SearchStats
from repro.trees.node import TreeNode

__all__ = ["sequential_range_query", "sequential_knn_query", "distance_matrix"]


def sequential_range_query(
    trees: Sequence[TreeNode],
    query: TreeNode,
    threshold: float,
    counter: Optional[EditDistanceCounter] = None,
) -> Tuple[List[Tuple[int, float]], SearchStats]:
    """Range query by brute force: refine every object."""
    if threshold < 0:
        raise QueryError(f"range threshold must be >= 0, got {threshold}")
    if counter is None:
        counter = EditDistanceCounter()
    stats = SearchStats(dataset_size=len(trees), candidates=len(trees))
    start = time.perf_counter()
    with tracing.span(
        "search.sequential_range", dataset_size=len(trees), threshold=threshold
    ) as root:
        matches = []
        for index, tree in enumerate(trees):
            distance = counter.distance(query, tree)
            if distance <= threshold:
                matches.append((index, distance))
        root.set(results=len(matches))
    stats.refine_seconds = time.perf_counter() - start
    stats.results = len(matches)
    sink = active_sink()
    if sink is not None or tracing.enabled():
        record_funnel(stats, "sequential_range", threshold, [], sink)
    return matches, stats


def sequential_knn_query(
    trees: Sequence[TreeNode],
    query: TreeNode,
    k: int,
    counter: Optional[EditDistanceCounter] = None,
) -> Tuple[List[Tuple[int, float]], SearchStats]:
    """k-NN by brute force: compute all distances, keep the k smallest."""
    k = check_k(k, len(trees))
    if counter is None:
        counter = EditDistanceCounter()
    stats = SearchStats(dataset_size=len(trees), candidates=len(trees))
    start = time.perf_counter()
    with tracing.span("search.sequential_knn", dataset_size=len(trees), k=k):
        distances = [
            (counter.distance(query, tree), index)
            for index, tree in enumerate(trees)
        ]
        distances.sort()
    stats.refine_seconds = time.perf_counter() - start
    stats.results = k
    sink = active_sink()
    if sink is not None or tracing.enabled():
        record_funnel(stats, "sequential_knn", float(k), [], sink)
    return [(index, distance) for distance, index in distances[:k]], stats


def distance_matrix(
    trees: Sequence[TreeNode],
    counter: Optional[EditDistanceCounter] = None,
) -> List[List[float]]:
    """Full pairwise edit-distance matrix (used to calibrate query ranges).

    Symmetric with a zero diagonal; ``O(n²)`` exact computations — intended
    for the modest dataset sizes of the benchmark harness.
    """
    if counter is None:
        counter = EditDistanceCounter()
    size = len(trees)
    matrix = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            distance = counter.distance(trees[i], trees[j])
            matrix[i][j] = distance
            matrix[j][i] = distance
    return matrix

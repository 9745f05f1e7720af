"""Tiered k-NN: cheap bound for ordering, tight bound on demand.

Algorithm 2 computes the positional ``SearchLBound`` against *every*
database object up front.  The positional search costs several linear-time
``PosBDist`` evaluations per pair, which on small trees approaches the cost
of the exact distance itself (see ``benchmarks/results/*/fig13*``).

This variant applies the classic multi-tier refinement idea on top of the
same optimal multi-step skeleton:

1. order all objects by the *cheap* count bound ``⌈BDist/factor⌉`` (one
   linear pass per object, no binary search);
2. scan in that order with the usual optimal stopping rule — valid because
   the cheap bound is itself a lower bound;
3. before paying for an exact distance, tighten the candidate with the
   positional bound; if that already exceeds the current k-th distance the
   candidate is *skipped* (but the scan continues — skipping is per-object,
   stopping is governed by the ordering bound).

Results are exactly those of the plain algorithm (same distances; asserted
in the tests); only the work distribution changes: positional searches run
for the objects the cheap bound cannot decide, instead of for all.  Whether
that is a net win depends on how much tighter the positional bound is than
the count bound on the workload — on the paper's clustered datasets the
two are close and the trade is roughly a wash (measured in the tests), so
the plain Algorithm 2 remains the default; this variant exists for
workloads with expensive signatures and as a documented design ablation.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.core.positional import PositionalProfile, search_lower_bound
from repro.core.qlevel import qlevel_bound_factor
from repro.editdist.zhang_shasha import EditDistanceCounter
from repro.exceptions import InvalidParameterError, QueryError
from repro.features.matrix import (
    FeatureMatrices,
    branch_l1_counts,
    ceil_div,
    stable_order,
)
from repro.filters.binary_branch import BinaryBranchFilter
from repro.obs import tracing
from repro.obs.funnel import FilterFunnel, FunnelStage, active_sink
from repro.search.statistics import SearchStats
from repro.trees.node import TreeNode

if TYPE_CHECKING:  # import cycle: repro.index builds on the search layer's deps
    from repro.index.base import CandidateIndex

__all__ = ["tiered_knn_query"]


def _count_bound(query: PositionalProfile, data: PositionalProfile, factor: int) -> float:
    distance = 0
    mine, theirs = query.pre_positions, data.pre_positions
    for key, positions in mine.items():
        other = theirs.get(key)
        distance += abs(len(positions) - (0 if other is None else len(other)))
    for key, positions in theirs.items():
        if key not in mine:
            distance += len(positions)
    return -(-distance // factor)


def tiered_knn_query(
    trees: Sequence[TreeNode],
    query: TreeNode,
    k: int,
    flt: BinaryBranchFilter,
    counter: Optional[EditDistanceCounter] = None,
    *,
    matrices: Optional[FeatureMatrices] = None,
    index: Optional["CandidateIndex"] = None,
) -> Tuple[List[Tuple[int, float]], SearchStats]:
    """k-NN with count-bound ordering and lazy positional tightening.

    ``flt`` must be a fitted :class:`BinaryBranchFilter` (its positional
    profiles serve both tiers).  Returns the same answer as
    :func:`repro.search.knn.knn_query` with that filter.

    With ``matrices``, the cheap ordering tier runs as one matrix pass:
    ``_count_bound`` is exactly ``⌈L1(branch counts)/factor⌉`` (each node
    contributes one branch, and counts are the lengths of the positional
    lists), so the vectorized values — and hence the scan order, stopping
    point and refined count — are identical to the loop's.

    With ``index`` (a candidate index at ``flt.q``), the cheap tier
    consumes the index's ascending-BDist stream lazily instead
    (:class:`~repro.index.ordering.AscendingCountBounds`): the ordering
    values *are* the count bound, so the scan sequence is the reference
    one exactly and only the rows optimal stopping reaches are scored.
    An index at a different q level is ignored.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if flt.size != len(trees):
        raise QueryError(
            f"filter indexed {flt.size} trees but the database has {len(trees)}"
        )
    if k > len(trees):
        raise QueryError(f"k={k} exceeds the dataset size {len(trees)}")
    if counter is None:
        counter = EditDistanceCounter()
    factor = qlevel_bound_factor(flt.q)
    stats = SearchStats(dataset_size=len(trees))

    use_index = index is not None and index.q == flt.q
    stream = None
    sink = active_sink()
    with tracing.span(
        "search.tiered_knn", dataset_size=len(trees), k=k, q=flt.q
    ) as root:
        start = time.perf_counter()
        if use_index:
            assert index is not None
            with tracing.span(f"index.{index.kind}"):
                index.sync()
                from repro.index.ordering import AscendingCountBounds

                query_signature = flt.signature(query)
                stream = AscendingCountBounds(index, index.pack(query))
                scan: Iterable[Tuple[float, int]] = stream
        else:
            with tracing.span("filter.count-bound"):
                query_signature = flt.signature(query)
                vectorized: Optional[Sequence[float]] = None
                if matrices is not None:
                    try:
                        counts = {
                            branch: len(positions)
                            for branch, positions in (
                                query_signature.pre_positions.items()
                            )
                        }
                        vectorized = ceil_div(
                            branch_l1_counts(matrices, flt.q, counts, None),
                            factor,
                        )
                    except InvalidParameterError:
                        vectorized = None
                if vectorized is not None:
                    cheap: Sequence[float] = vectorized
                    order = stable_order(vectorized)
                else:
                    cheap = [
                        _count_bound(query_signature, flt.data_signature(row), factor)
                        for row in range(len(trees))
                    ]
                    order = sorted(
                        range(len(trees)), key=lambda row: (cheap[row], row)
                    )
                scan = ((cheap[row], row) for row in order)
        stats.filter_seconds = time.perf_counter() - start

        heap: List[Tuple[float, int]] = []  # (-distance, -index) max-heap
        refined = 0
        tight_evaluations = 0
        tight_skips = 0
        start = time.perf_counter()
        with tracing.span("search.refine") as refine_span:
            for cheap_value, row in scan:
                if len(heap) == k and cheap_value > -heap[0][0]:
                    break  # optimal stopping on the ordering bound
                if len(heap) == k:
                    tight_evaluations += 1
                    tight = search_lower_bound(
                        query_signature, flt.data_signature(row)
                    )
                    if tight > -heap[0][0]:
                        tight_skips += 1
                        continue  # skip this object; the scan goes on
                budget = -heap[0][0] if len(heap) == k else math.inf
                distance = counter.distance(query, trees[row], budget)
                refined += 1
                if len(heap) < k:
                    heapq.heappush(heap, (-distance, -row))
                elif distance < -heap[0][0]:
                    heapq.heapreplace(heap, (-distance, -row))
            refine_span.set(
                refined=refined,
                tight_evaluations=tight_evaluations,
                tight_skips=tight_skips,
            )
        stats.refine_seconds = time.perf_counter() - start
        stats.candidates = refined
        stats.results = len(heap)
        root.set(candidates=refined, results=len(heap))

    if sink is not None or tracing.enabled():
        if stream is not None:
            assert index is not None
            ordered = stream.scored
            order_stage = FunnelStage(
                f"index:{index.kind}", len(trees), ordered, stats.filter_seconds
            )
        else:
            ordered = len(trees)
            order_stage = FunnelStage(
                "order:count-bound", len(trees), ordered, stats.filter_seconds
            )
        stats.funnel = FilterFunnel(
            kind="tiered_knn",
            corpus_size=len(trees),
            stages=[
                order_stage,
                FunnelStage(
                    "tighten:positional",
                    ordered,
                    ordered - tight_skips,
                    0.0,
                ),
            ],
            refined=refined,
            results=len(heap),
            refine_seconds=stats.refine_seconds,
            parameter=float(k),
        )
        if sink is not None:
            sink.add(stats.funnel)

    neighbors = sorted(
        ((-neg_index, -neg_distance) for neg_distance, neg_index in heap),
        key=lambda pair: (pair[1], pair[0]),
    )
    return neighbors, stats

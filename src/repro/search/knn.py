"""k-nearest-neighbor queries via optimal multi-step retrieval (Alg. 2).

The Seidl–Kriegel multi-step strategy the paper adopts:

1. compute the optimistic (lower-bound) distance between the query and every
   database object;
2. process objects in ascending order of that bound, refining each with the
   exact edit distance and maintaining a max-heap of the ``k`` best;
3. stop as soon as the next object's lower bound exceeds the current ``k``-th
   distance — no unseen object can beat it, because its true distance is at
   least its bound.

The number of refined objects is provably minimal for the given bound
(Seidl & Kriegel, SIGMOD 1998), which makes the accessed-data percentage a
pure measure of the filter's tightness — exactly how the paper compares
BiBranch against histogram filtration.
"""

from __future__ import annotations

import heapq
import math
import operator
import time
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.editdist.zhang_shasha import EditDistanceCounter
from repro.exceptions import QueryError
from repro.features.matrix import FeatureMatrices, stable_order
from repro.filters.base import LowerBoundFilter
from repro.obs import tracing
from repro.obs.funnel import FilterFunnel, FunnelStage, active_sink
from repro.search.statistics import SearchStats
from repro.trees.node import TreeNode

if TYPE_CHECKING:  # import cycle: repro.index builds on the search layer's deps
    from repro.index.inverted import ExtendedInvertedFile

__all__ = ["check_k", "knn_query"]


def check_k(k: int, dataset_size: int) -> int:
    """``k`` as an ``int`` in ``[1, dataset_size]``, else :class:`QueryError`.

    A ``bool`` or anything :func:`operator.index` refuses (``2.5``,
    ``"3"``) is rejected rather than truncated or compared as a number.
    """
    if isinstance(k, bool):
        raise QueryError(f"k must be an integer, got {k!r}")
    try:
        k = operator.index(k)
    except TypeError:
        raise QueryError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if k > dataset_size:
        raise QueryError(f"k={k} exceeds the dataset size {dataset_size}")
    return k


def knn_query(
    trees: Sequence[TreeNode],
    query: TreeNode,
    k: int,
    flt: LowerBoundFilter,
    counter: Optional[EditDistanceCounter] = None,
    *,
    matrices: Optional[FeatureMatrices] = None,
    index: Optional["ExtendedInvertedFile"] = None,
) -> Tuple[List[Tuple[int, float]], SearchStats]:
    """The ``k`` database trees closest to ``query`` in edit distance.

    Returns ``(neighbors, stats)`` where ``neighbors`` is a list of
    ``(index, distance)`` sorted by ascending distance (ties broken by
    index).  Distance ties at the ``k``-th position are resolved by keeping
    the first-processed object, like the paper's Algorithm 2 (heap
    replacement only on strictly better keys at capacity).

    With ``matrices``, the ordering pass uses the filter's exact
    vectorized bounds (:meth:`LowerBoundFilter.lower_bounds_matrix`)
    when available — the values are identical to :meth:`bounds`, so the
    optimal-stopping refined-candidate count cannot drift; filters
    without an exact kernel fall back to the per-candidate loop.

    With ``index`` (an :class:`~repro.index.inverted.ExtendedInvertedFile`
    over the same corpus) and a :attr:`~LowerBoundFilter.bdist_dominant`
    filter at the index's q level, the ordering pass is replaced by a lazy
    reordering of the index's ascending-BDist stream
    (:class:`~repro.index.ordering.OrderedBoundStream`): rows are scored
    on demand and emitted in the **exact** reference ``(bound, row)``
    order, so answers and refined counts are bit-identical while the
    number of scored rows shrinks to what optimal stopping actually
    consumes.  Non-dominating filters ignore the index (full ordering
    pass) — dominance is what makes lazy emission sound.
    """
    k = check_k(k, len(trees))
    if flt.size != len(trees):
        raise QueryError(
            f"filter indexed {flt.size} trees but the database has {len(trees)}"
        )
    if counter is None:
        counter = EditDistanceCounter()
    stats = SearchStats(dataset_size=len(trees))

    use_index = (
        index is not None
        and flt.bdist_dominant
        and getattr(flt, "q", None) == index.q
    )
    stream = None
    sink = active_sink()
    with tracing.span(
        "search.knn", dataset_size=len(trees), k=k, filter=flt.name
    ) as root:
        start = time.perf_counter()
        if use_index:
            assert index is not None
            with tracing.span("index.ifi"):
                index.sync()
                from repro.index.ordering import OrderedBoundStream

                query_signature = flt.signature(query)
                stream = OrderedBoundStream(
                    index,
                    lambda row: flt.bound(
                        query_signature, flt.data_signature(row)
                    ),
                    index.pack(query),
                )
                scan: Iterable[Tuple[float, int]] = stream
        else:
            with tracing.span(f"filter.{flt.name}"):
                vectorized = None
                if matrices is not None:
                    vectorized = flt.lower_bounds_matrix(
                        flt.signature(query), matrices
                    )
                if vectorized is not None:
                    bounds: Sequence[float] = vectorized
                    order = stable_order(vectorized)
                else:
                    bounds = flt.bounds(query)
                    order = sorted(
                        range(len(trees)),
                        key=lambda row: (bounds[row], row),
                    )
                scan = ((bounds[row], row) for row in order)
        stats.filter_seconds = time.perf_counter() - start

        # max-heap of (−distance, −index) so the worst current neighbor is on top
        heap: List[Tuple[float, int]] = []
        start = time.perf_counter()
        refined = 0
        with tracing.span("search.refine") as refine_span:
            for bound_value, row in scan:
                if len(heap) == k and bound_value > -heap[0][0]:
                    break  # optimal stopping: no unseen object can improve the result
                # only a distance below the k-th can enter a full heap
                budget = -heap[0][0] if len(heap) == k else math.inf
                distance = counter.distance(query, trees[row], budget)
                refined += 1
                if len(heap) < k:
                    heapq.heappush(heap, (-distance, -row))
                elif distance < -heap[0][0]:
                    heapq.heapreplace(heap, (-distance, -row))
            refine_span.set(refined=refined, results=len(heap))
        stats.refine_seconds = time.perf_counter() - start
        stats.candidates = refined
        stats.results = len(heap)
        root.set(candidates=refined, results=len(heap))

    if sink is not None or tracing.enabled():
        # the ordering pass bounds every object but prunes none; pruning
        # happens implicitly through the optimal-stopping refinement.
        # On the index path only `stream.scored` rows were ever bounded —
        # the stage survivors record that laziness win.
        if stream is not None:
            order_stage = FunnelStage(
                "index:ifi",
                len(trees),
                stream.scored,
                stats.filter_seconds,
            )
        else:
            order_stage = FunnelStage(
                f"order:{flt.name}",
                len(trees),
                len(trees),
                stats.filter_seconds,
            )
        stats.funnel = FilterFunnel(
            kind="knn",
            corpus_size=len(trees),
            stages=[order_stage],
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

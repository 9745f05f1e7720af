"""k-nearest-neighbor queries via optimal multi-step retrieval (Alg. 2).

The Seidl–Kriegel multi-step strategy the paper adopts:

1. compute the optimistic (lower-bound) distance between the query and every
   database object;
2. process objects in ascending order of that bound, refining each with the
   exact edit distance and keeping the ``k`` best in a :class:`KnnHeap`;
3. stop as soon as the heap is full and the next object's lower bound
   reaches the current ``k``-th distance — no unseen object can beat it,
   because its true distance is at least its bound and a full heap admits
   only a strictly smaller distance.  The stop lives in the stream: once
   the heap is full, ``knn_query`` sets :attr:`BoundStream.stop` to the
   k-th distance, and the stream neither bounds a row whose key reaches it
   nor emits a row bounded at or above it.  For the same reason each
   refine asks only for a distance *below* the k-th
   (:meth:`~repro.editdist.zhang_shasha.EditDistanceCounter.distance_below`),
   which a traversal-string gate often settles without running
   Zhang–Shasha; a gated row still counts as refined.  Until the heap is
   full there is no k-th distance, and the row's bound seeds budget
   doubling instead: the gate and Touzet's k-strip run at budgets
   ``B, 2B + 1, …`` from the bound up, so the first ``k`` refines are
   cheap as well.

The number of refined objects is provably minimal for the given bound
(Seidl & Kriegel, SIGMOD 1998), which makes the accessed-data percentage a
pure measure of the filter's tightness — exactly how the paper compares
BiBranch against histogram filtration.

Step 1 need not bound every object.  Over the matrix planes,
:meth:`~repro.filters.base.LowerBoundFilter.order_keys` gives every row a
cheap key no larger than its bound (BiBranch: the §3 count bound
``⌈BDist/factor⌉``), and :class:`BoundStream` bounds rows lazily in key
order while still emitting the exact ``(bound, row)`` order of step 2.
Without planes, :func:`bound_stream` falls back to bounding every row and
sorting — the store-less path and the reference the
``search:vectorized-equivalence`` oracle compares against.

A shard worker runs the same search (:func:`knn_search`) over its own
rows, and the coordinator merges the shards' heaps through one
:class:`KnnHeap`: the answer is the first ``k`` rows by
``(distance, bound, row)``, so it is in the union of the shards' own
first ``k`` (``docs/THEORY.md`` §13).
"""

from __future__ import annotations

import heapq
import math
import operator
import time
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.editdist.zhang_shasha import EditDistanceCounter
from repro.exceptions import QueryError
from repro.features.matrix import FeatureMatrices, stable_order
from repro.filters.base import LowerBoundFilter
from repro.obs import tracing
from repro.obs.funnel import FunnelStage, active_sink, record_funnel
from repro.search.statistics import SearchStats
from repro.trees.node import TreeNode

__all__ = [
    "BoundStream",
    "KnnHeap",
    "bound_stream",
    "check_k",
    "knn_query",
    "knn_search",
]


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


class BoundStream:
    """Rows in exact ascending ``(bound, row)`` order, bounded lazily.

    ``keys`` holds one value per row with ``keys[row] ≤ bound(row)``.  The
    stream walks the rows in ``(key, row)`` order into a pending min-heap
    of ``(bound, row)`` and emits the heap head once the next key strictly
    exceeds it: every row not yet bounded then has ``bound ≥ key > head``.
    Emission order, tie-breaks on the row id included, equals
    ``sorted(rows, key=(bound, row))``; only the number of rows bounded
    shrinks.  With ``bound=None`` the keys already are the bounds.

    ``stop`` starts at ``inf`` and the consumer may only lower it — k-NN
    sets it to the k-th distance once the heap is full.  The stream bounds
    no row whose key is ``≥ stop`` and ends once its head is ``≥ stop``;
    such a row's bound is ``≥ stop`` too, so everything emitted is still
    the exact ``(bound, row)`` prefix of the rows bounded below ``stop``.

    The keys and the row set are fixed at construction, so rows appended
    to the corpus afterwards never enter an open stream.

    Attributes
    ----------
    scored:
        Rows bounded so far — the ``order:<filter>`` funnel survivors.
    stop:
        The consumer's cut-off: no row bounded ``≥ stop`` is wanted.
    """

    def __init__(
        self,
        keys: Sequence[float],
        bound: Optional[Callable[[int], float]] = None,
    ) -> None:
        self._keys = keys
        self._order = stable_order(keys)
        self._bound = bound
        self.scored = len(keys) if bound is None else 0
        self.stop = math.inf

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        keys, order, bound = self._keys, self._order, self._bound
        if bound is None:
            for row in order:
                if keys[row] >= self.stop:
                    return
                yield keys[row], row
            return
        pending: List[Tuple[float, int]] = []
        position = 0
        while True:
            # bound every row whose key could still sort at or before the
            # pending head; a strictly larger key makes the head safe.  Keys
            # ascend, so the first key at the stop ends bounding for good
            stop = self.stop
            while position < len(order) and (
                not pending or keys[order[position]] <= pending[0][0]
            ):
                row = order[position]
                if keys[row] >= stop:
                    position = len(order)
                    break
                heapq.heappush(pending, (bound(row), row))
                self.scored += 1
                position += 1
            if not pending or pending[0][0] >= stop:
                return
            yield heapq.heappop(pending)


class KnnHeap:
    """The ``k`` smallest ``(distance, bound, row)`` keys offered (Alg. 2's heap).

    Tie rule: the heap holds the ``k`` smallest keys offered to it, in
    whatever order they come, so a full heap admits a key only below its
    largest and then evicts that largest.  In the k-NN stream's ascending
    ``(bound, row)`` order a later offer sorts after every held key of the
    same distance, so a full heap admits only a strictly smaller distance
    and a tie at the k-th distance evicts the latest offer.  The held set
    does not depend on the order of the offers, so one heap fed the
    entries of several heaps holds the ``k`` smallest keys of their union
    — the sharded k-NN merge (``docs/THEORY.md`` §13).  ``kth`` is the
    k-th distance once ``k`` keys are in, ``inf`` until then.
    """

    __slots__ = ("k", "kth", "_heap")

    def __init__(self, k: int) -> None:
        self.k = k
        self.kth = math.inf
        #: negated keys, so the largest held key is on top
        self._heap: List[Tuple[float, float, int]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def offer(self, distance: float, bound: float, row: int) -> None:
        """Admit ``(distance, bound, row)`` if it is among the ``k`` smallest keys."""
        heap = self._heap
        key = (-distance, -bound, -row)
        if len(heap) < self.k:
            heapq.heappush(heap, key)
        elif key > heap[0]:
            heapq.heapreplace(heap, key)
        else:
            return
        if len(heap) == self.k:
            self.kth = -heap[0][0]

    def entries(self) -> List[Tuple[float, float, int]]:
        """The held ``(distance, bound, row)`` keys, ascending."""
        return sorted((-distance, -bound, -row) for distance, bound, row in self._heap)

    def neighbors(self) -> List[Tuple[int, float]]:
        """The held ``(row, distance)`` pairs by ascending distance, then row."""
        return sorted(
            ((-row, -distance) for distance, _bound, row in self._heap),
            key=lambda pair: (pair[1], pair[0]),
        )


def bound_stream(
    flt: LowerBoundFilter,
    query: TreeNode,
    matrices: Optional[FeatureMatrices],
) -> BoundStream:
    """The k-NN scan over every row ``flt`` indexed, in ``(bound, row)`` order.

    Lazy over the filter's :meth:`~LowerBoundFilter.order_keys` when
    ``matrices`` is given and the filter has keys there; otherwise every
    row is bounded through :meth:`~LowerBoundFilter.bounds` and sorted.
    Raises :class:`QueryError` when the planes cover a different number
    of rows than the filter indexed.
    """
    if matrices is not None:
        signature = flt.signature(query)
        keys = flt.order_keys(signature, matrices)
        if keys is not None:
            if len(keys) != flt.size:
                raise QueryError(
                    f"matrix planes cover {len(keys)} trees but the filter "
                    f"indexed {flt.size}"
                )
            data = flt.data_signature
            return BoundStream(keys, lambda row: flt.bound(signature, data(row)))
    return BoundStream(flt.bounds(query))


def knn_search(
    trees: Sequence[TreeNode],
    query: TreeNode,
    k: int,
    flt: LowerBoundFilter,
    counter: Optional[EditDistanceCounter] = None,
    *,
    matrices: Optional[FeatureMatrices] = None,
) -> Tuple[KnnHeap, SearchStats]:
    """Alg. 2 over ``trees``: the answer :class:`KnnHeap` and the stats.

    :func:`knn_query` without the final sort.  The shard worker ships the
    heap's ``(distance, bound, row)`` entries so that the coordinator can
    merge the shards' heaps exactly.

    With ``matrices`` (the planes of the same corpus), rows are bounded
    lazily off the filter's ordering keys (:func:`bound_stream`); the
    emitted order is the exact ``(bound, row)`` order either way, so
    answers and refined counts do not depend on ``matrices``.
    """
    k = check_k(k, len(trees))
    if flt.size != len(trees):
        raise QueryError(
            f"filter indexed {flt.size} trees but the database has {len(trees)}"
        )
    if counter is None:
        counter = EditDistanceCounter()
    stats = SearchStats(dataset_size=len(trees))

    sink = active_sink()
    with tracing.span(
        "search.knn", dataset_size=len(trees), k=k, filter=flt.name
    ) as root:
        start = time.perf_counter()
        with tracing.span(f"filter.{flt.name}"):
            stream = bound_stream(flt, query, matrices)
        stats.filter_seconds = time.perf_counter() - start

        heap = KnnHeap(k)
        start = time.perf_counter()
        refined = 0
        gated_before, rungs_before = counter.gated, counter.rungs
        with tracing.span("search.refine") as refine_span:
            for bound, row in stream:
                # only a distance below the k-th can enter a full heap;
                # until it is full, the row's bound seeds budget doubling
                distance = counter.distance_below(
                    query, trees[row], heap.kth, bound
                )
                heap.offer(distance, bound, row)
                refined += 1
                # optimal stopping: every unseen distance is at least its
                # bound, and a full heap admits only a strictly smaller one
                stream.stop = heap.kth
            stats.gated = counter.gated - gated_before
            stats.rungs = counter.rungs - rungs_before
            refine_span.set(
                refined=refined,
                gated=stats.gated,
                rungs=stats.rungs,
                results=len(heap),
            )
        stats.refine_seconds = time.perf_counter() - start
        stats.candidates = refined
        stats.results = len(heap)
        root.set(candidates=refined, results=len(heap))

    if sink is not None or tracing.enabled():
        # the ordering pass prunes nothing by itself; its survivors are the
        # rows it bounded, and pruning happens through optimal stopping
        stage = FunnelStage(
            f"order:{flt.name}", len(trees), stream.scored, stats.filter_seconds
        )
        record_funnel(stats, "knn", float(k), [stage], sink)
    return heap, stats


def knn_query(
    trees: Sequence[TreeNode],
    query: TreeNode,
    k: int,
    flt: LowerBoundFilter,
    counter: Optional[EditDistanceCounter] = None,
    *,
    matrices: Optional[FeatureMatrices] = None,
) -> Tuple[List[Tuple[int, float]], SearchStats]:
    """The ``k`` database trees closest to ``query`` in edit distance.

    Returns ``(neighbors, stats)`` where ``neighbors`` is a list of
    ``(index, distance)`` sorted by ascending distance (ties broken by
    index): the first ``k`` rows by ``(distance, bound, index)``, which is
    :class:`KnnHeap`'s rule.  Arguments as for :func:`knn_search`.
    """
    heap, stats = knn_search(trees, query, k, flt, counter, matrices=matrices)
    return heap.neighbors(), stats

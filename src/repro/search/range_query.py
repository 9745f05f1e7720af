"""Range queries via filter-and-refine (§4.3).

A range query returns every database tree within edit distance ``τ`` of the
query.  Filtering discards objects whose lower bound already exceeds ``τ``
(safe: the true distance can only be larger); the survivors are refined with
the exact Zhang–Shasha distance, behind the same traversal-string gate as
k-NN refines.  Completeness is guaranteed by the lower-bound property —
there are no false negatives by construction, which the integration tests
verify against a sequential scan.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.editdist.zhang_shasha import EditDistanceCounter
from repro.exceptions import QueryError
from repro.features.matrix import FeatureMatrices, as_indices
from repro.filters.base import LowerBoundFilter
from repro.obs import tracing
from repro.obs.funnel import FunnelStage, active_sink, record_funnel
from repro.search.statistics import SearchStats
from repro.trees.node import TreeNode

if TYPE_CHECKING:  # import cycle: repro.index builds on the search layer's deps
    from repro.index.inverted import ExtendedInvertedFile

__all__ = ["range_query"]


def range_query(
    trees: Sequence[TreeNode],
    query: TreeNode,
    threshold: float,
    flt: LowerBoundFilter,
    counter: Optional[EditDistanceCounter] = None,
    *,
    matrices: Optional[FeatureMatrices] = None,
    index: Optional["ExtendedInvertedFile"] = None,
) -> Tuple[List[Tuple[int, float]], SearchStats]:
    """All trees with ``EDist(query, tree) ≤ threshold``.

    Parameters
    ----------
    trees:
        The database; must be the collection ``flt`` was fitted on.
    query:
        The query tree ``Tq``.
    threshold:
        The range ``τ`` (finite, ≥ 0).  Each survivor is refined by
        :meth:`~repro.editdist.zhang_shasha.EditDistanceCounter.distance_below`
        at the limit ``⌊τ⌋ + 1``: its distance comes back exact whenever
        it is ``≤ τ``, and a row the traversal-string gate refutes skips
        Zhang–Shasha (``docs/THEORY.md`` §12).
    flt:
        A fitted lower-bound filter.
    counter:
        Optional shared :class:`EditDistanceCounter` (reuses prepared trees
        across queries and accumulates the distance-computation count).
    matrices:
        Optional corpus-level matrix planes over the same trees.  Each
        funnel stage maps the active-row set to its survivors; given
        planes, it does so with matrix kernels, and without them (the
        reference path) per candidate — same survivor set, same stage
        names, same funnel invariants either way.
    index:
        Optional :class:`~repro.index.inverted.ExtendedInvertedFile` over
        the same corpus.  When given, candidate generation starts from the exact
        BDist ball ``{row : BDist ≤ factor·τ}`` (one sublinear index
        probe, reported as a leading ``index:ifi`` funnel stage) and
        the filter cascade runs over the ball only.  Answers are
        unchanged for *any* filter: a row outside the ball has
        ``EDist > τ`` by Theorem 3.2, so restricting the cascade to the
        ball removes only rows refinement would reject — pinned by the
        ``search:index-completeness`` oracle.

    Returns
    -------
    (matches, stats):
        ``matches`` — ``(index, distance)`` pairs in index order;
        ``stats`` — filtering/refinement metrics for this query.
    """
    if not math.isfinite(threshold):
        # caught here, before τ can become a filter bound or a DP budget
        raise QueryError(f"range threshold must be finite, got {threshold}")
    if threshold < 0:
        raise QueryError(f"range threshold must be >= 0, got {threshold}")
    if flt.size != len(trees):
        raise QueryError(
            f"filter indexed {flt.size} trees but the database has {len(trees)}"
        )
    if counter is None:
        counter = EditDistanceCounter()
    stats = SearchStats(dataset_size=len(trees))

    sink = active_sink()
    observing = sink is not None or tracing.enabled()
    with tracing.span(
        "search.range", dataset_size=len(trees), threshold=threshold,
        filter=flt.name,
    ) as root:
        stages: List[FunnelStage] = []
        start = time.perf_counter()
        domain: Sequence[int] = range(len(trees))
        if index is not None:
            index.sync()
            with tracing.span(
                "index.ifi", budget=index.factor * threshold
            ) as index_span:
                stage_start = time.perf_counter()
                domain = index.range_rows(
                    index.pack(query), index.factor * threshold
                )
                stage_seconds = time.perf_counter() - stage_start
                index_span.set(
                    entered=len(trees),
                    survivors=len(domain),
                    examined=index.last_examined,
                )
            if observing:
                stages.append(
                    FunnelStage(
                        "index:ifi",
                        len(trees),
                        len(domain),
                        stage_seconds,
                    )
                )
        with tracing.span("search.filter"):
            query_signature = flt.signature(query)
            rows: Sequence[int] = domain
            for name, refute_rows in flt.funnel_components():
                if not observing:
                    rows = refute_rows(query_signature, threshold, rows, matrices)
                    continue
                with tracing.span(f"filter.{name}") as stage_span:
                    entered = len(rows)
                    stage_start = time.perf_counter()
                    rows = refute_rows(query_signature, threshold, rows, matrices)
                    stage_seconds = time.perf_counter() - stage_start
                    stages.append(
                        FunnelStage(name, entered, len(rows), stage_seconds)
                    )
                    stage_span.set(
                        entered=entered,
                        survivors=len(rows),
                        refuted=entered - len(rows),
                    )
            survivors = as_indices(rows)
        stats.filter_seconds = time.perf_counter() - start

        matches: List[Tuple[int, float]] = []
        # unit-cost distances are integers, so d ≤ τ ⟺ d < ⌊τ⌋ + 1; other
        # cost models come back exact below the limit, hence at ≤ τ
        limit = math.floor(threshold) + 1
        start = time.perf_counter()
        gated_before, rungs_before = counter.gated, counter.rungs
        with tracing.span("search.refine", candidates=len(survivors)) as refine_span:
            for row in survivors:
                distance = counter.distance_below(query, trees[row], limit)
                if distance <= threshold:
                    matches.append((row, distance))
            stats.gated = counter.gated - gated_before
            stats.rungs = counter.rungs - rungs_before
            refine_span.set(
                gated=stats.gated, rungs=stats.rungs, results=len(matches)
            )
        stats.refine_seconds = time.perf_counter() - start
        stats.candidates = len(survivors)
        stats.results = len(matches)
        root.set(candidates=len(survivors), results=len(matches))

    if observing:
        record_funnel(stats, "range", threshold, stages, sink)
    return matches, stats

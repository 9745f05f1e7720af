"""Range queries via filter-and-refine (§4.3).

A range query returns every database tree within edit distance ``τ`` of the
query.  Filtering discards objects whose lower bound already exceeds ``τ``
(safe: the true distance can only be larger); the survivors are refined with
the exact Zhang–Shasha distance.  Completeness is guaranteed by the
lower-bound property — there are no false negatives by construction, which
the integration tests verify against a sequential scan.
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
from repro.obs.funnel import FilterFunnel, FunnelStage, active_sink
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
        The range ``τ`` (finite, ≥ 0); also the refine budget — each
        candidate's distance is exact whenever it is ``≤ τ``.
    flt:
        A fitted lower-bound filter.
    counter:
        Optional shared :class:`EditDistanceCounter` (reuses prepared trees
        across queries and accumulates the distance-computation count).
    matrices:
        Optional corpus-level matrix planes over the same trees.  When
        given, the filter cascade runs vectorized (each funnel stage maps
        the active-row set to its survivors via matrix kernels) instead
        of per candidate — same survivor set, same stage names, same
        funnel invariants; the loop below stays the reference
        implementation.
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
            if matrices is not None:
                rows: Sequence[int] = domain
                if not observing:
                    for _, refute_rows in flt.matrix_funnel_components():
                        rows = refute_rows(
                            query_signature, threshold, rows, matrices
                        )
                else:
                    for name, refute_rows in flt.matrix_funnel_components():
                        with tracing.span(f"filter.{name}") as stage_span:
                            entered = len(rows)
                            stage_start = time.perf_counter()
                            rows = refute_rows(
                                query_signature, threshold, rows, matrices
                            )
                            stage_seconds = time.perf_counter() - stage_start
                            stages.append(
                                FunnelStage(
                                    name, entered, len(rows), stage_seconds
                                )
                            )
                            stage_span.set(
                                entered=entered,
                                survivors=len(rows),
                                refuted=entered - len(rows),
                            )
                survivors = as_indices(rows)
            elif not observing:
                survivors = [
                    row
                    for row in domain
                    if not flt.refutes(
                        query_signature, flt.data_signature(row), threshold
                    )
                ]
            else:
                # staged cascade: same survivor set as the one-pass
                # `refutes` (refutation is an `any` over the stages), but
                # pruning is attributed to the stage that did it
                survivors = list(domain)
                for name, refute in flt.funnel_components():
                    with tracing.span(f"filter.{name}") as stage_span:
                        entered = len(survivors)
                        stage_start = time.perf_counter()
                        survivors = [
                            index
                            for index in survivors
                            if not refute(
                                query_signature,
                                flt.data_signature(index),
                                threshold,
                            )
                        ]
                        stage_seconds = time.perf_counter() - stage_start
                        stages.append(
                            FunnelStage(name, entered, len(survivors), stage_seconds)
                        )
                        stage_span.set(
                            entered=entered,
                            survivors=len(survivors),
                            refuted=entered - len(survivors),
                        )
        stats.filter_seconds = time.perf_counter() - start

        matches: List[Tuple[int, float]] = []
        start = time.perf_counter()
        with tracing.span("search.refine", candidates=len(survivors)) as refine_span:
            for row in survivors:
                distance = counter.distance(query, trees[row], threshold)
                if distance <= threshold:
                    matches.append((row, distance))
            refine_span.set(results=len(matches))
        stats.refine_seconds = time.perf_counter() - start
        stats.candidates = len(survivors)
        stats.results = len(matches)
        root.set(candidates=len(survivors), results=len(matches))

    if observing:
        stats.funnel = FilterFunnel(
            kind="range",
            corpus_size=len(trees),
            stages=stages,
            refined=len(survivors),
            results=len(matches),
            refine_seconds=stats.refine_seconds,
            parameter=threshold,
        )
        if sink is not None:
            sink.add(stats.funnel)
    return matches, stats

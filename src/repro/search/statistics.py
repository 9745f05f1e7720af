"""Search statistics — the paper's evaluation metrics.

The dominant cost of similarity search on trees is the exact edit-distance
computation, so the paper's headline metric is the *percentage of accessed
data*::

    (|True Positive| + |False Positive|) / |Dataset| × 100%

i.e. the fraction of database objects that survive filtering and must be
refined.  CPU time for the filtering and refinement phases is tracked
separately so the "filter overhead is negligible" claim (§5.1) can be
checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.funnel import FilterFunnel

__all__ = ["SearchStats"]


@dataclass
class SearchStats:
    """Metrics of one similarity-query execution."""

    dataset_size: int = 0
    #: objects surviving the filter (= exact distance computations performed)
    candidates: int = 0
    #: objects in the final answer (true positives)
    results: int = 0
    filter_seconds: float = 0.0
    refine_seconds: float = 0.0
    #: budgeted attempts of the refine calls (see
    #: :class:`~repro.editdist.zhang_shasha.EditDistanceCounter`)
    rungs: int = 0
    #: the rungs the traversal-string gate settled without Zhang–Shasha
    gated: int = 0
    #: the query's :class:`~repro.obs.funnel.FilterFunnel`, populated when
    #: funnel collection or tracing is active (see :mod:`repro.obs.funnel`)
    funnel: "Optional[FilterFunnel]" = None

    @property
    def false_positives(self) -> int:
        """Candidates that the refinement step rejected."""
        return self.candidates - self.results

    @property
    def accessed_percentage(self) -> float:
        """The paper's ``(|TP| + |FP|) / |Dataset| × 100`` metric."""
        if self.dataset_size == 0:
            return 0.0
        return 100.0 * self.candidates / self.dataset_size

    @property
    def result_percentage(self) -> float:
        """``|results| / |Dataset| × 100`` (the plots' "Result %" series)."""
        if self.dataset_size == 0:
            return 0.0
        return 100.0 * self.results / self.dataset_size

    @property
    def total_seconds(self) -> float:
        """Filter plus refinement CPU time."""
        return self.filter_seconds + self.refine_seconds

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Accumulate another query's stats (for averaging over workloads)."""
        return SearchStats(
            dataset_size=self.dataset_size + other.dataset_size,
            candidates=self.candidates + other.candidates,
            results=self.results + other.results,
            filter_seconds=self.filter_seconds + other.filter_seconds,
            refine_seconds=self.refine_seconds + other.refine_seconds,
            rungs=self.rungs + other.rungs,
            gated=self.gated + other.gated,
        )

    def copy(self) -> "SearchStats":
        """An independent copy (cached query results hand these out)."""
        return SearchStats(
            dataset_size=self.dataset_size,
            candidates=self.candidates,
            results=self.results,
            filter_seconds=self.filter_seconds,
            refine_seconds=self.refine_seconds,
            rungs=self.rungs,
            gated=self.gated,
            funnel=self.funnel,
        )

    def to_dict(self) -> Dict[str, float]:
        """Flat dictionary for report tables and JSON export.

        The funnel record, when one was collected, rides along under the
        ``"funnel"`` key; without collection the schema is unchanged.
        """
        data = {
            "dataset_size": self.dataset_size,
            "candidates": self.candidates,
            "results": self.results,
            "accessed_pct": self.accessed_percentage,
            "result_pct": self.result_percentage,
            "filter_seconds": self.filter_seconds,
            "refine_seconds": self.refine_seconds,
            "total_seconds": self.total_seconds,
            "rungs": self.rungs,
            "gated": self.gated,
        }
        if self.funnel is not None:
            data["funnel"] = self.funnel.to_dict()
        return data

    #: Backwards-compatible alias of :meth:`to_dict`.
    as_dict = to_dict

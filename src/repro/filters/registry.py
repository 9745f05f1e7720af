"""The filter registry: every filter the serving surfaces build by name.

The CLI's ``--filter`` flags, :class:`~repro.sharding.coordinator.ShardedTreeService`
(``filter_name=``) and its shard workers all resolve names here, so a
name means the same filter everywhere.  :data:`DEFAULT_FILTER` is the
serving default, also of :class:`~repro.search.database.TreeDatabase`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.filters.base import LowerBoundFilter
from repro.filters.binary_branch import BinaryBranchFilter, BranchCountFilter
from repro.filters.composite import MaxCompositeFilter
from repro.filters.histogram import HistogramFilter, LabelHistogramFilter
from repro.filters.traversal_string import TraversalStringFilter

__all__ = ["DEFAULT_FILTER", "FILTERS", "bibranch_label_filter"]


def bibranch_label_filter() -> MaxCompositeFilter:
    """The serving filter: max of the label histogram and positional BiBranch.

    On records whose edits are mostly relabels (DBLP), the label
    histogram bound ``⌈L1/2⌉`` is often the larger one, which the branch
    bound sees only weakly; the max of two lower bounds is one too.  No
    size-difference child: SearchLBound already starts there.

    The label histogram comes first because a max does not depend on the
    order of its terms, and the label stage is the cheap one: on DBLP
    lookup queries a label histogram takes about 5 µs to build and a
    positional profile about 48 µs.  The composite computes a child's
    query signature only when something reads it, so a range query the
    label stage leaves without survivors never builds the positional
    profile (on DBLP duplicate lookups at τ = 1, 82 % of them).
    """
    return MaxCompositeFilter(
        [LabelHistogramFilter(), BinaryBranchFilter()], name="BiBranch+Label"
    )


#: name → factory of an unfitted filter
FILTERS: Dict[str, Callable[[], LowerBoundFilter[Any]]] = {
    "bibranch": BinaryBranchFilter,
    "bibranch+label": bibranch_label_filter,
    "bibranchcount": BranchCountFilter,
    "histogram": HistogramFilter,
    "traversal": TraversalStringFilter,
}

#: the serving default
DEFAULT_FILTER = "bibranch+label"

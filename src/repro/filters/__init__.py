"""Lower-bound filters for the filter-and-refine framework.

The paper's binary branch filter, the histogram filtration comparator
(Kailing et al.), the traversal-string baseline (Guha et al.), and
composition utilities, and the name registry the serving surfaces share.
"""

from repro.filters.base import LowerBoundFilter
from repro.filters.binary_branch import BinaryBranchFilter, BranchCountFilter
from repro.filters.composite import MaxCompositeFilter, SizeDifferenceFilter
from repro.filters.cost_scaled import CostScaledFilter
from repro.filters.histogram import (
    DegreeHistogramFilter,
    HeightHistogramFilter,
    HistogramFilter,
    HistogramSignature,
    LabelHistogramFilter,
    degree_histogram_bound,
    height_histogram_bound,
    label_histogram_bound,
    space_parity_histogram_filter,
)
from repro.filters.registry import DEFAULT_FILTER, FILTERS
from repro.filters.traversal_string import TraversalStringFilter, TraversalStringSignature

__all__ = [
    "LowerBoundFilter",
    "BinaryBranchFilter",
    "BranchCountFilter",
    "HistogramFilter",
    "HistogramSignature",
    "LabelHistogramFilter",
    "DegreeHistogramFilter",
    "HeightHistogramFilter",
    "label_histogram_bound",
    "space_parity_histogram_filter",
    "degree_histogram_bound",
    "height_histogram_bound",
    "TraversalStringFilter",
    "TraversalStringSignature",
    "MaxCompositeFilter",
    "CostScaledFilter",
    "SizeDifferenceFilter",
    "FILTERS",
    "DEFAULT_FILTER",
]

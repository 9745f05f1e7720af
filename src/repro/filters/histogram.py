"""Histogram filtration (Kailing et al., EDBT 2004) — the paper's comparator.

Three per-tree histograms are kept, exactly as the paper's §5 describes:
"one histogram records the distribution of heights of every node in the
tree, a second records the fanouts for each of the nodes, and a third
records the distribution of labels used".  Each yields a sound lower bound
on the *unordered* unit-cost tree edit distance, which in turn lower-bounds
the ordered edit distance (any ordered edit script is also an unordered
one); the combined filter takes the maximum.

**Label histogram** (`L1/2`): a relabel moves one unit between two bins
(L1 change 2); an insert or delete changes one bin by one (change 1).
Hence ``L1 ≤ 2k`` and ``⌈L1/2⌉ ≤ EDist``.

**Degree histogram** (`L1/3`): a relabel changes no degree.  An insert adds
one element (the new node's degree) and changes exactly one existing
element (the parent's degree): the multiset changes by one addition plus one
arbitrary move — L1 change ≤ 3.  Deletion is symmetric.  Hence
``⌈L1/3⌉ ≤ EDist``.

**Height histogram** (tolerance matching): the *height* of a node (longest
downward path) changes by **at most one** for every surviving node under a
single insert or delete, and a relabel changes none — inserting below ``u``
lengthens any root-to-leaf path under ``u`` by at most one; deleting only
splices children up, shortening paths by at most one.  After ``k ≤ l``
operations every surviving node's height moved by at most ``l``, and at
most one element is added/removed per insert/delete.  So match the two
sorted height multisets greedily with tolerance ``l``; if the number of
unmatched elements exceeds ``l``, then ``EDist > l``.  The numeric bound is
the smallest ``l`` whose deficit is ``≤ l`` (monotone → binary search),
mirroring the paper's ``SearchLBound`` construction.  This realizes the
behaviour of Kailing's folded height-histogram filter with an offline-
friendly proof.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence

from repro.core.positional import greedy_interval_matching
from repro.core.vectors import branch_vector
from repro.exceptions import InvalidParameterError
from repro.features.matrix import ceil_div, histogram_l1, keep_at_most
from repro.filters.base import LowerBoundFilter
from repro.trees.node import TreeNode

if TYPE_CHECKING:
    from repro.features.extract import TreeFeatures
    from repro.features.matrix import FeatureMatrices
    from repro.features.store import FeatureStore

__all__ = [
    "HistogramSignature",
    "HistogramFilter",
    "space_parity_histogram_filter",
    "LabelHistogramFilter",
    "DegreeHistogramFilter",
    "HeightHistogramFilter",
    "label_histogram_bound",
    "degree_histogram_bound",
    "height_histogram_bound",
]


class HistogramSignature(NamedTuple):
    """Per-tree histogram bundle."""

    labels: Dict[object, int]
    degrees: Dict[int, int]
    heights: List[int]  # sorted multiset of node heights
    size: int


def _build_signature(
    tree: TreeNode,
    label_bins: Optional[int] = None,
    degree_bins: Optional[int] = None,
    height_cap: Optional[int] = None,
) -> HistogramSignature:
    """Histograms of one tree, optionally *folded* to a fixed dimension.

    Folding (Kailing et al.'s technique for bounding histogram storage, and
    what the paper's §5 space-parity rule implies) maps labels to
    ``hash(label) % label_bins``, clamps degrees to ``degree_bins − 1`` and
    clamps heights to ``height_cap``.  Every fold merges bins, which can
    only *decrease* L1 distances and absolute value differences, so all
    three lower bounds remain sound — just (intentionally) weaker.
    """
    labels: Counter = Counter()
    degrees: Counter = Counter()
    heights: Dict[int, int] = {}
    height_list: List[int] = []
    for node in tree.iter_postorder():
        label = node.label
        if label_bins is not None:
            label = _stable_fold(label, label_bins)
        labels[label] += 1
        degree = node.degree
        if degree_bins is not None and degree >= degree_bins:
            degree = degree_bins - 1
        degrees[degree] += 1
        if node.is_leaf:
            height = 0
        else:
            height = 1 + max(heights.pop(id(child)) for child in node.children)
        heights[id(node)] = height
        if height_cap is not None and height > height_cap:
            height_list.append(height_cap)
        else:
            height_list.append(height)
    height_list.sort()
    return HistogramSignature(dict(labels), dict(degrees), height_list, len(height_list))


def _stable_fold(label: object, bins: int) -> int:
    """Process-stable label folding (builtin ``hash`` is salted per run)."""
    return zlib.crc32(repr(label).encode("utf-8")) % bins


def _fold_signature(
    features: "TreeFeatures",
    label_bins: Optional[int],
    degree_bins: Optional[int],
    height_cap: Optional[int],
) -> HistogramSignature:
    """Fold a store's raw (unfolded) histograms to a filter's parameters.

    Folding after extraction is exactly equivalent to folding during the
    traversal: every fold merges bins by summing their counts, heights stay
    sorted under the monotone ``min(·, cap)``, so the result is bit-identical
    to :func:`_build_signature` on the original tree.
    """
    if label_bins is None:
        labels = features.labels
    else:
        folded: Counter = Counter()
        for label, count in features.labels.items():
            folded[_stable_fold(label, label_bins)] += count
        labels = dict(folded)
    if degree_bins is None:
        degrees = features.degrees
    else:
        clamped: Counter = Counter()
        for degree, count in features.degrees.items():
            clamped[min(degree, degree_bins - 1)] += count
        degrees = dict(clamped)
    if height_cap is None:
        heights = features.heights
    else:
        heights = [min(height, height_cap) for height in features.heights]
    return HistogramSignature(labels, degrees, heights, features.size)


def _l1(a: Dict, b: Dict, cap: float = math.inf) -> int:
    """L1 distance of two count dicts, or, once the running sum reaches
    ``cap``, that partial sum (``≥ cap``) without walking the rest."""
    if len(a) > len(b):
        a, b = b, a
    total = 0
    for key, count in a.items():
        total += abs(count - b.get(key, 0))
        if total >= cap:
            return total
    for key, count in b.items():
        if key not in a:
            total += count
            if total >= cap:
                return total
    return total


def label_histogram_bound(a: HistogramSignature, b: HistogramSignature) -> int:
    """``⌈L1(label histograms)/2⌉ ≤ EDist``."""
    return -(-_l1(a.labels, b.labels) // 2)


def degree_histogram_bound(a: HistogramSignature, b: HistogramSignature) -> int:
    """``⌈L1(degree histograms)/3⌉ ≤ EDist``."""
    return -(-_l1(a.degrees, b.degrees) // 3)


def _height_deficit(a: HistogramSignature, b: HistogramSignature, tolerance: int) -> int:
    matched = greedy_interval_matching(a.heights, b.heights, tolerance)
    return a.size + b.size - 2 * matched


def height_histogram_bound(a: HistogramSignature, b: HistogramSignature) -> int:
    """Smallest ``l`` with height-matching deficit ``≤ l`` (see module doc)."""
    low = abs(a.size - b.size)
    if _height_deficit(a, b, low) <= low:
        return low
    high = a.size + b.size  # deficit(high) = |n1 - n2| <= high: always holds
    result = high
    low += 1
    while low <= high:
        mid = (low + high) // 2
        if _height_deficit(a, b, mid) <= mid:
            result = mid
            high = mid - 1
        else:
            low = mid + 1
    return result


class HistogramFilter(LowerBoundFilter[HistogramSignature]):
    """Combined histogram filter: max of the three individual bounds.

    Parameters
    ----------
    label_bins, degree_bins, height_cap:
        Optional folding parameters bounding each histogram's dimension
        (``None`` = exact, unbounded histograms).  The paper's experiments
        give the three histograms a fixed space budget comparable to the
        branch vectors; :func:`space_parity_histogram_filter` computes that
        configuration for a dataset.
    """

    name = "Histo"
    supports_store = True

    def __init__(
        self,
        label_bins: Optional[int] = None,
        degree_bins: Optional[int] = None,
        height_cap: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.label_bins = label_bins
        self.degree_bins = degree_bins
        self.height_cap = height_cap

    def signature(self, tree: TreeNode) -> HistogramSignature:
        return _build_signature(
            tree, self.label_bins, self.degree_bins, self.height_cap
        )

    def store_signature(self, store: "FeatureStore", index: int) -> HistogramSignature:
        return _fold_signature(
            store.features(index), self.label_bins, self.degree_bins, self.height_cap
        )

    def bound(self, query: HistogramSignature, data: HistogramSignature) -> float:
        label = label_histogram_bound(query, data)
        degree = degree_histogram_bound(query, data)
        height = height_histogram_bound(query, data)
        return max(label, degree, height)

    def refutes(
        self, query: HistogramSignature, data: HistogramSignature, threshold: float
    ) -> bool:
        """Range fast path: short-circuit the three tests at ``τ``."""
        tau = int(threshold)
        if label_histogram_bound(query, data) > threshold:
            return True
        if degree_histogram_bound(query, data) > threshold:
            return True
        return _height_deficit(query, data, tau) > tau

    def refute_rows(
        self,
        query: HistogramSignature,
        threshold: float,
        rows: Sequence[int],
        matrices: Optional["FeatureMatrices"],
    ) -> Sequence[int]:
        """Vectorized label+degree L1 stages, then the height loop.

        Only sound on *unfolded* configurations: the matrix planes hold
        raw histograms, and folding merges bins, which can only shrink
        L1 — testing unfolded values against a folded filter's loop
        would prune rows the loop keeps.  Folded filters (and stores
        adopted without histogram columns) fall back to the
        per-candidate loop.
        """
        if self.label_bins is not None or self.degree_bins is not None:
            return super().refute_rows(query, threshold, rows, matrices)
        try:
            label_l1 = histogram_l1(matrices, "labels", query.labels, rows)
        except InvalidParameterError:
            return super().refute_rows(query, threshold, rows, matrices)
        rows = keep_at_most(rows, ceil_div(label_l1, 2), threshold)
        if len(rows):
            degree_l1 = histogram_l1(matrices, "degrees", query.degrees, rows)
            rows = keep_at_most(rows, ceil_div(degree_l1, 3), threshold)
        tau = int(threshold)
        signatures = self._signatures
        return [
            index
            for index in rows
            if _height_deficit(query, signatures[index], tau) <= tau
        ]


def space_parity_histogram_filter(trees: "Sequence[TreeNode]") -> HistogramFilter:
    """A :class:`HistogramFilter` folded to the paper's space budget.

    §5: "we set the sum of dimension of the three type histogram vectors
    for one tree to be the averaged vector size plus two averaged tree
    size" — i.e. the histograms may use as much storage as one sparse
    binary branch vector plus the two positional sequences.  The budget is
    split half to the label histogram (the largest domain) and a quarter
    each to the degree and height histograms.
    """
    trees = list(trees)
    if not trees:
        return HistogramFilter()
    vector_dims = 0
    total_size = 0
    for tree in trees:
        vector_dims += branch_vector(tree).dimensions
        total_size += tree.size
    budget = (vector_dims + 2 * total_size) / len(trees)
    label_bins = max(2, int(budget / 2))
    degree_bins = max(2, int(budget / 4))
    height_cap = max(2, int(budget / 4))
    return HistogramFilter(
        label_bins=label_bins, degree_bins=degree_bins, height_cap=height_cap
    )


class _UnfoldedHistogramFilter(LowerBoundFilter[HistogramSignature]):
    """Shared plumbing of the single-histogram ablation filters."""

    supports_store = True

    #: matrix family + L1 divisor of the single histogram this ablation
    #: uses; ``None`` (the height filter — its bound is a binary search,
    #: not an L1 quotient) keeps the per-candidate defaults.
    _matrix_family: Optional[str] = None
    _matrix_divisor: int = 1

    def signature(self, tree: TreeNode) -> HistogramSignature:
        return _build_signature(tree)

    def store_signature(self, store: "FeatureStore", index: int) -> HistogramSignature:
        features = store.features(index)
        return HistogramSignature(
            features.labels, features.degrees, features.heights, features.size
        )

    def _matrix_counts(self, query: HistogramSignature) -> Dict:
        return query.labels if self._matrix_family == "labels" else query.degrees

    def order_keys(
        self, query: HistogramSignature, matrices: "FeatureMatrices"
    ) -> Optional[Sequence[float]]:
        if self._matrix_family is None:
            return None
        try:
            values = histogram_l1(
                matrices, self._matrix_family, self._matrix_counts(query), None
            )
        except InvalidParameterError:
            return None
        return ceil_div(values, self._matrix_divisor)

    def refute_rows(
        self,
        query: HistogramSignature,
        threshold: float,
        rows: Sequence[int],
        matrices: Optional["FeatureMatrices"],
    ) -> Sequence[int]:
        if self._matrix_family is None:
            return super().refute_rows(query, threshold, rows, matrices)
        try:
            values = histogram_l1(
                matrices, self._matrix_family, self._matrix_counts(query), rows
            )
        except InvalidParameterError:
            return super().refute_rows(query, threshold, rows, matrices)
        return keep_at_most(rows, ceil_div(values, self._matrix_divisor), threshold)


class LabelHistogramFilter(_UnfoldedHistogramFilter):
    """Label histogram only: the label half of the serving filter.

    Its signatures carry the label counts alone (empty degree and height
    fields), the only part :meth:`bound` reads.
    """

    name = "Histo-label"
    _matrix_family = "labels"
    _matrix_divisor = 2

    def signature(self, tree: TreeNode) -> HistogramSignature:
        labels: Dict[object, int] = {}
        size = 0
        stack = [tree]
        while stack:
            node = stack.pop()
            size += 1
            labels[node.label] = labels.get(node.label, 0) + 1
            stack.extend(node.children)
        return HistogramSignature(labels, {}, [], size)

    def store_signature(self, store: "FeatureStore", index: int) -> HistogramSignature:
        features = store.features(index)
        return HistogramSignature(features.labels, {}, [], features.size)

    def bound(self, query: HistogramSignature, data: HistogramSignature) -> float:
        return label_histogram_bound(query, data)

    def reaches(
        self, query: HistogramSignature, data: HistogramSignature, target: float
    ) -> bool:
        """``⌈L1/2⌉ ≥ target`` from a walk that stops at the cap.

        The bound is an integer, so for ``target > 0`` it reaches
        ``target`` iff it reaches ``t = ⌈target⌉``, iff ``L1 ≥ 2t − 1``
        (``docs/THEORY.md`` §14).  ``L1 ≥ |n₁ − n₂|`` settles many pairs
        in O(1); the rest walk the dicts only until the sum reaches
        ``2t − 1``.  The bound never exceeds ``max(n₁, n₂)``.
        """
        if target <= 0:
            return True
        if target > max(query.size, data.size):
            return False
        cap = 2 * math.ceil(target) - 1
        return (
            abs(query.size - data.size) >= cap
            or _l1(query.labels, data.labels, cap) >= cap
        )

    def refutes(
        self, query: HistogramSignature, data: HistogramSignature, threshold: float
    ) -> bool:
        """``⌈L1/2⌉ > τ``: an integer bound exceeds ``τ`` iff it reaches
        ``⌊τ⌋ + 1``, so the same capped walk decides it."""
        return self.reaches(query, data, math.floor(threshold) + 1)


class DegreeHistogramFilter(_UnfoldedHistogramFilter):
    """Degree histogram only (component ablation)."""

    name = "Histo-degree"
    _matrix_family = "degrees"
    _matrix_divisor = 3

    def bound(self, query: HistogramSignature, data: HistogramSignature) -> float:
        return degree_histogram_bound(query, data)


class HeightHistogramFilter(_UnfoldedHistogramFilter):
    """Height histogram only (component ablation)."""

    name = "Histo-height"

    def bound(self, query: HistogramSignature, data: HistogramSignature) -> float:
        return height_histogram_bound(query, data)

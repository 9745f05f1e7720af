"""Traversal-string filtration (Guha et al., SIGMOD 2002) — extension baseline.

An edit operation on a tree induces at most one edit operation on the
preorder label sequence (a relabel substitutes one symbol; a delete removes
one symbol, the rest keeping their relative order; an insert adds one), and
likewise on the postorder sequence.  Hence

    max( SED(pre(T1), pre(T2)), SED(post(T1), post(T2)) ) ≤ EDist(T1, T2).

The bound is tight-ish but costs ``O(|T1|·|T2|)`` per pair — the very cost
the paper's linear-time filter avoids; it is included as the "expensive
filter" reference point for the ablation benchmarks (§2.2 discusses why it
does not scale).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple

from repro.editdist.string_ed import string_edit_distance, traversal_strings_exceed
from repro.filters.base import LowerBoundFilter
from repro.trees.node import TreeNode
from repro.trees.traversal import postorder_labels, preorder_labels

if TYPE_CHECKING:
    from repro.features.store import FeatureStore

__all__ = ["TraversalStringSignature", "TraversalStringFilter"]


class TraversalStringSignature(NamedTuple):
    """Preorder and postorder label sequences of one tree."""

    pre: List
    post: List


class TraversalStringFilter(LowerBoundFilter[TraversalStringSignature]):
    """Guha-style lower bound: max of the two traversal string distances."""

    name = "TraversalSED"
    supports_store = True

    def signature(self, tree: TreeNode) -> TraversalStringSignature:
        return TraversalStringSignature(preorder_labels(tree), postorder_labels(tree))

    def store_signature(self, store: "FeatureStore", index: int) -> TraversalStringSignature:
        features = store.features(index)
        return TraversalStringSignature(features.pre_labels, features.post_labels)

    def bound(
        self, query: TraversalStringSignature, data: TraversalStringSignature
    ) -> float:
        pre = string_edit_distance(query.pre, data.pre)
        post = string_edit_distance(query.post, data.post)
        return max(pre, post)

    def refutes(
        self,
        query: TraversalStringSignature,
        data: TraversalStringSignature,
        threshold: float,
    ) -> bool:
        """Range fast path with banded (early-exit) string edit distance."""
        return traversal_strings_exceed(query, data, threshold)

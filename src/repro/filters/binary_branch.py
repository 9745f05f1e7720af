"""The paper's filter: binary branch lower bounds (denoted *BiBranch*).

Two variants:

* :class:`BinaryBranchFilter` — the full method of §4: the positional
  optimistic bound ``pr_opt`` found by ``SearchLBound`` (always at least
  ``⌈BDist/factor⌉`` and the size difference).  Signatures are positional
  profiles.
* :class:`BranchCountFilter` — the §3-only ablation: ``⌈BDist/factor⌉``
  from branch counts alone, ignoring positions.  Signatures are packed
  branch vectors (:class:`~repro.features.packed.PackedVector`), so the L1
  distance runs over sorted int arrays instead of dict unions.

Both generalize to q-level branches via the ``q`` parameter
(factor ``4(q−1)+1``) and both can derive their signatures from a shared
:class:`~repro.features.store.FeatureStore` instead of re-traversing the
corpus (``fit_from_store``).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.core.branches import iter_branches
from repro.core.positional import (
    PositionalProfile,
    positional_profile,
    positional_refutes,
    search_lower_bound,
)
from repro.core.qlevel import iter_qlevel_branches, qlevel_bound_factor
from repro.exceptions import InvalidParameterError
from repro.features.matrix import (
    branch_count_bounds,
    branch_l1_counts,
    ceil_div,
    keep_at_most,
)
from repro.features.packed import PackedVector, pack_counts
from repro.features.vocabulary import Vocabulary
from repro.filters.base import LowerBoundFilter
from repro.trees.node import TreeNode

if TYPE_CHECKING:
    from repro.features.matrix import FeatureMatrices
    from repro.features.store import FeatureStore

__all__ = ["BinaryBranchFilter", "BranchCountFilter"]


class BinaryBranchFilter(LowerBoundFilter[PositionalProfile]):
    """Positional binary branch filter (the paper's §4 algorithm).

    Parameters
    ----------
    q:
        Branch level (2 = the paper's default).
    exact_matching:
        Use the exact two-constraint matching instead of the paper's
        linear-time approximation (slower; for experiments).
    """

    supports_store = True

    def __init__(self, q: int = 2, exact_matching: bool = False) -> None:
        super().__init__()
        self.q = q
        self.factor = qlevel_bound_factor(q)
        self.exact_matching = exact_matching
        self.name = f"BiBranch({q})" if q != 2 else "BiBranch"

    def required_q_levels(self) -> Tuple[int, ...]:
        return (self.q,)

    def signature(self, tree: TreeNode) -> PositionalProfile:
        return positional_profile(tree, self.q)

    def store_signature(self, store: "FeatureStore", index: int) -> PositionalProfile:
        return store.profile(index, self.q)

    def bound(self, query: PositionalProfile, data: PositionalProfile) -> float:
        return search_lower_bound(query, data, exact=self.exact_matching)

    def refutes(
        self, query: PositionalProfile, data: PositionalProfile, threshold: float
    ) -> bool:
        """Range-query fast path (§4.3).

        For a range ``τ`` it suffices to check Proposition 4.2 at the single
        range ``pr = ⌊τ⌋``: ``PosBDist(τ) > factor·τ ⟹ EDist > τ`` — one
        linear-time distance evaluation instead of a binary search.
        """
        pr = int(threshold)  # unit-cost distances are integers
        return positional_refutes(query, data, pr, exact=self.exact_matching)

    def reaches(
        self, query: PositionalProfile, data: PositionalProfile, target: float
    ) -> bool:
        """``SearchLBound ≥ target`` with one Proposition 4.2 test, no search.

        SearchLBound is ``max(||T1|−|T2||, r)`` for ``r`` the smallest range
        whose predicate ``PosBDist(r) ≤ factor·r`` holds, and it never
        exceeds ``max(|T1|, |T2|)``.  The predicate is monotone, so for the
        integer ``t = ⌈target⌉ ≥ 1``: ``bound ≥ t`` iff the size difference
        reaches ``t`` or the predicate fails at ``t − 1``
        (``docs/THEORY.md`` §14).
        """
        if target <= 0:
            return True
        if target > max(query.tree_size, data.tree_size):
            return False
        needed = math.ceil(target)
        if abs(query.tree_size - data.tree_size) >= needed:
            return True
        return positional_refutes(query, data, needed - 1, exact=self.exact_matching)

    def _branch_l1(
        self,
        query: PositionalProfile,
        matrices: Optional["FeatureMatrices"],
        rows: Optional[Sequence[int]],
    ) -> Sequence[int]:
        """Count-vector BDist to each row off the branch plane at this q."""
        counts = {
            branch: len(positions)
            for branch, positions in query.pre_positions.items()
        }
        return branch_l1_counts(matrices, self.q, counts, rows)

    def order_keys(
        self, query: PositionalProfile, matrices: "FeatureMatrices"
    ) -> Optional[Sequence[float]]:
        """The §3 count bound ``⌈BDist/factor⌉`` per row, or ``None``.

        SearchLBound starts its search at ``max(⌈BDist/factor⌉, size
        difference)`` and only ever moves up, so the count bound never
        exceeds :meth:`bound`.
        ``None`` when the plane lacks this filter's ``q``.
        """
        try:
            return ceil_div(self._branch_l1(query, matrices, None), self.factor)
        except InvalidParameterError:
            return None

    def refute_rows(
        self,
        query: PositionalProfile,
        threshold: float,
        rows: Sequence[int],
        matrices: Optional["FeatureMatrices"],
    ) -> Sequence[int]:
        """Vectorized count-L1 prescreen, then the exact positional test.

        Soundness: ``PosBDist(pr) ≥ BDist`` for every range ``pr``
        (positions only add constraints to the matching), so a row with
        ``BDist > factor·τ`` has ``PosBDist(⌊τ⌋) ≥ BDist > factor·τ ≥
        factor·⌊τ⌋`` and is refuted by :meth:`refutes` too.  The matrix
        pass therefore prunes only loop-refuted rows; the surviving few
        get the exact per-candidate test, making the final survivor set
        identical to the pure loop.
        """
        try:
            distances = self._branch_l1(query, matrices, rows)
        except InvalidParameterError:
            return super().refute_rows(query, threshold, rows, matrices)
        candidates = keep_at_most(rows, distances, self.factor * threshold)
        signatures = self._signatures
        return [
            index
            for index in candidates
            if not self.refutes(query, signatures[index], threshold)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BinaryBranchFilter(q={self.q}, trees={self.size})"


class BranchCountFilter(LowerBoundFilter[PackedVector]):
    """Count-only binary branch filter: ``⌈BDist / (4(q−1)+1)⌉``.

    The §3 bound without the positional refinement — the natural ablation
    for measuring what positions buy (see ``benchmarks/test_ablation_*``).

    Signatures are packed vectors interned against a per-filter vocabulary
    (or, when store-backed, the corpus-wide store vocabulary).  Database
    trees intern new branches during :meth:`fit`/:meth:`add`; query
    signatures never mutate the vocabulary — branches the index has not
    seen stay keyed by raw branch in the vector's ``extra`` mapping, which
    keeps concurrent query threads race-free.
    """

    supports_store = True
    # query vectors are interned against the growing vocabulary
    signature_depends_on_index = True

    def __init__(self, q: int = 2) -> None:
        super().__init__()
        self.q = q
        self.factor = qlevel_bound_factor(q)
        self.name = f"BiBranchCount({q})" if q != 2 else "BiBranchCount"
        self._vocabulary = Vocabulary()

    def required_q_levels(self) -> Tuple[int, ...]:
        return (self.q,)

    def _counts(self, tree: TreeNode) -> "Counter[object]":
        if self.q == 2:
            return Counter(iter_branches(tree))
        return Counter(iter_qlevel_branches(tree, self.q))

    def signature(self, tree: TreeNode) -> PackedVector:
        """Query-side packed vector; leaves the vocabulary untouched."""
        return pack_counts(
            self._counts(tree), self._vocabulary, tree.size, self.q, grow=False
        )

    def _index_signature(self, tree: TreeNode) -> PackedVector:
        """Database-side packed vector; interns unseen branches."""
        return pack_counts(
            self._counts(tree), self._vocabulary, tree.size, self.q, grow=True
        )

    def _bind_store(self, store: "FeatureStore") -> None:
        self._vocabulary = store.vocabulary

    def store_signature(self, store: "FeatureStore", index: int) -> PackedVector:
        return store.packed_vector(index, self.q)

    def bound(self, query: PackedVector, data: PackedVector) -> float:
        return -(-query.l1_distance(data) // self.factor)

    def order_keys(
        self, query: PackedVector, matrices: "FeatureMatrices"
    ) -> Optional[Sequence[float]]:
        """Exact per-row ``⌈L1/factor⌉`` from the branch plane.

        L1 between count vectors is invariant under re-interning, so the
        kernel translates standalone-fitted queries through their branch
        keys and matches :meth:`bound` exactly, row for row.
        """
        try:
            return branch_count_bounds(
                matrices, self.q, query, self._vocabulary, self.factor, None
            )
        except InvalidParameterError:
            return None

    def refute_rows(
        self,
        query: PackedVector,
        threshold: float,
        rows: Sequence[int],
        matrices: Optional["FeatureMatrices"],
    ) -> Sequence[int]:
        try:
            bounds = branch_count_bounds(
                matrices, self.q, query, self._vocabulary, self.factor, rows
            )
        except InvalidParameterError:
            return super().refute_rows(query, threshold, rows, matrices)
        return keep_at_most(rows, bounds, threshold)

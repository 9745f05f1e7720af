"""Filter interface for the filter-and-refine framework.

A *filter* supplies, for every database tree, a cheap lower bound on its
edit distance to the query.  The search algorithms
(:mod:`repro.search.range_query`, :mod:`repro.search.knn`) are generic over
this interface: completeness of the query answers only requires the
lower-bound property ``bound(q, i) ≤ EDist(query, trees[i])``, which every
implementation in this package guarantees (each documents its proof).

Filters can be fitted two ways:

* **standalone** — :meth:`LowerBoundFilter.fit` traverses every tree and
  builds this filter's signatures from scratch;
* **store-backed** — :meth:`LowerBoundFilter.fit_from_store` derives the
  signatures as views over a shared
  :class:`~repro.features.store.FeatureStore`, whose one-pass extraction
  already computed every artifact the filter needs.  Filters that support
  this set :attr:`supports_store` and implement :meth:`store_signature`;
  the two paths are proven bound-identical by the property tests in
  ``tests/filters/test_store_equivalence.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Callable,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.exceptions import FilterStateError
from repro.trees.node import TreeNode

if TYPE_CHECKING:  # import cycle: features.store fits via filter signatures
    from repro.features.matrix import FeatureMatrices
    from repro.features.store import FeatureStore

__all__ = ["LowerBoundFilter", "RowStage", "Signature"]

Signature = TypeVar("Signature")

#: One range-cascade stage: ``(query_signature, τ, rows, matrices)`` to the
#: rows it cannot refute; ``matrices=None`` runs it per candidate.
RowStage = Callable[
    [Signature, float, Sequence[int], Optional["FeatureMatrices"]],
    Sequence[int],
]


class LowerBoundFilter(ABC, Generic[Signature]):
    """Abstract base class of edit-distance lower-bound filters.

    Lifecycle: construct, then :meth:`fit` (or :meth:`fit_from_store`) on
    the database trees once, then :meth:`bounds` per query and optionally
    :meth:`add` per insertion.  Calling :meth:`add` or :meth:`bounds` before
    a fit raises :class:`~repro.exceptions.FilterStateError`; to build a
    filter incrementally from nothing, start from the explicit empty fit
    ``flt.fit([])``.
    """

    #: Short identifier used in benchmark reports ("BiBranch", "Histo", …).
    name: str = "abstract"

    #: Whether this filter can derive its signatures from a FeatureStore.
    supports_store: bool = False

    #: Whether a query's :meth:`signature` depends on index state, so a
    #: signature computed earlier may differ from one computed after an
    #: :meth:`add` (BranchCount: unseen branches stay out of the vector
    #: until the index interns them).  Callers that keep query
    #: signatures across mutations (the service result cache) may reuse
    #: them only when this is false.
    signature_depends_on_index: bool = False

    def __init__(self) -> None:
        self._signatures: List[Signature] = []
        self._fitted = False

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def fit(self, trees: Sequence[TreeNode]) -> "LowerBoundFilter[Signature]":
        """Precompute signatures for the database trees; returns ``self``."""
        self._signatures = [self._index_signature(tree) for tree in trees]
        self._fitted = True
        return self

    def add(self, tree: TreeNode) -> int:
        """Append one tree's signature (dynamic insertion); returns its index.

        Signatures are independent per tree, so insertion is O(|tree|) for
        every filter in this package.  The filter must already be fitted —
        an ``add`` on a never-fitted filter would let :meth:`bounds` run
        silently against a partial index; use ``fit([])`` first to build up
        a filter from an empty collection.
        """
        if not self._fitted:
            raise FilterStateError(
                f"filter {self.name!r}: add() before fit(); "
                "call fit([]) first to start from an empty index"
            )
        self._signatures.append(self._index_signature(tree))
        return len(self._signatures) - 1

    # ------------------------------------------------------------------
    # Store-backed indexing
    # ------------------------------------------------------------------
    def required_q_levels(self) -> Tuple[int, ...]:
        """Branch levels a backing FeatureStore must extract for this filter."""
        return ()

    def store_signature(self, store: "FeatureStore", index: int) -> Signature:
        """Signature of the ``index``-th store tree, as a view over ``store``.

        Must equal (in bound terms) ``self.signature(trees[index])``; only
        meaningful when :attr:`supports_store` is true.
        """
        raise NotImplementedError(
            f"filter {self.name!r} does not support store-backed signatures"
        )

    def _bind_store(self, store: "FeatureStore") -> None:
        """Adopt store-owned shared state (vocabularies); default no-op."""

    def fit_from_store(self, store: "FeatureStore") -> "LowerBoundFilter[Signature]":
        """Derive all signatures from a fitted FeatureStore; returns ``self``."""
        self._bind_store(store)
        self._signatures = [
            self.store_signature(store, index) for index in range(len(store))
        ]
        self._fitted = True
        return self

    def add_from_store(self, store: "FeatureStore", index: int) -> int:
        """Append the signature of a tree just added to the backing store."""
        if not self._fitted:
            raise FilterStateError(
                f"filter {self.name!r}: add_from_store() before fit"
            )
        self._signatures.append(self.store_signature(store, index))
        return len(self._signatures) - 1

    @property
    def size(self) -> int:
        """Number of indexed trees."""
        return len(self._signatures)

    def data_signature(self, index: int) -> Signature:
        """Signature of the ``index``-th database tree."""
        return self._signatures[index]

    # ------------------------------------------------------------------
    # To implement
    # ------------------------------------------------------------------
    @abstractmethod
    def signature(self, tree: TreeNode) -> Signature:
        """Build the per-tree signature the bound is computed from."""

    def _index_signature(self, tree: TreeNode) -> Signature:
        """Signature used for *database-side* trees during fit/add.

        Defaults to :meth:`signature`.  Filters whose index side may mutate
        shared state (e.g. grow a vocabulary) override this, keeping the
        query-side :meth:`signature` read-only and therefore thread-safe.
        """
        return self.signature(tree)

    @abstractmethod
    def bound(self, query: Signature, data: Signature) -> float:
        """Lower bound on ``EDist`` between the signatures' trees."""

    # ------------------------------------------------------------------
    # Query-side convenience
    # ------------------------------------------------------------------
    def bounds(self, query_tree: TreeNode) -> List[float]:
        """Lower bounds between ``query_tree`` and every indexed tree."""
        if not self._fitted:
            raise FilterStateError(f"filter {self.name!r} used before fit()")
        query = self.signature(query_tree)
        return [self.bound(query, data) for data in self._signatures]

    def refutes(self, query: Signature, data: Signature, threshold: float) -> bool:
        """True when the filter *proves* ``EDist > threshold``.

        Default: compare the numeric bound.  Filters with a cheaper direct
        refutation test (e.g. a single fixed-range positional distance) may
        override this for range queries.
        """
        return self.bound(query, data) > threshold

    def reaches(self, query: Signature, data: Signature, target: float) -> bool:
        """True iff ``bound(query, data) >= target``.

        A threshold decision, not a bound search: a caller that only
        compares the bound with a target (the service's k-NN cache entries
        on ``add``) asks this instead.  Default: compare the numeric bound,
        so a filter without an override is exact by construction.
        Overrides must agree with that comparison at every target,
        fractional and non-positive ones included, and may stop as soon
        as the answer is settled (the label histogram's capped L1 walk,
        BiBranch's single Proposition 4.2 test, a composite's first child
        that reaches the target).
        """
        return self.bound(query, data) >= target

    # ------------------------------------------------------------------
    # Row-set filtering (range cascade) and k-NN ordering keys
    # ------------------------------------------------------------------
    def order_keys(
        self, query: Signature, matrices: "FeatureMatrices"
    ) -> Optional[Sequence[float]]:
        """Per-row k-NN ordering keys off the matrix planes, or ``None``.

        Each key must satisfy ``key[row] ≤ bound(query, data_signature(row))``:
        the k-NN stream (:class:`~repro.search.knn.BoundStream`) walks rows
        in ascending key order and bounds a row only when its key could
        still place it before the rows already bounded, so a key above the
        bound would reorder answers.  Default ``None``: no kernel, so k-NN
        falls back to the full ``(bound, row)`` sort over :meth:`bounds`.
        """
        return None

    def refute_rows(
        self,
        query: Signature,
        threshold: float,
        rows: Sequence[int],
        matrices: Optional["FeatureMatrices"],
    ) -> Sequence[int]:
        """Survivors of ``rows`` — exactly those :meth:`refutes` keeps.

        The range cascade shrinks the active-row set through each funnel
        stage with this method.  Overrides may prescreen with matrix
        kernels, but the contract is strict set equality with the
        per-candidate loop: ``refute_rows(q, t, rows, m) == [i for i in
        rows if not refutes(q, sig[i], t)]`` — pinned by the
        ``search:vectorized-equivalence`` oracle.  This default *is* that
        loop, so every filter is cascade-correct out of the box; it is
        also where every override lands when ``matrices`` is ``None``
        (the kernel helpers raise :class:`InvalidParameterError`).
        """
        signatures = self._signatures
        return [
            index
            for index in rows
            if not self.refutes(query, signatures[index], threshold)
        ]

    def funnel_components(self) -> List[Tuple[str, RowStage[Signature]]]:
        """Per-stage ``(name, refute_rows)`` decomposition of the cascade.

        Each stage maps the active-row set to its survivors, so funnel
        telemetry comes from ``len(rows)`` before/after.  Default: the
        filter is a single stage; composites expose one stage per
        sub-filter, so pruning is attributed to the component that did
        it.  Applying the stages in order keeps exactly the rows
        :meth:`refutes` keeps.
        """
        return [(self.name, self.refute_rows)]

    def __repr__(self) -> str:
        status = f"{self.size} trees" if self._fitted else "unfitted"
        return f"{type(self).__name__}(name={self.name!r}, {status})"

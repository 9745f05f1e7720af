"""Combining filters.

The maximum of several lower bounds is itself a lower bound, so filters
compose freely; Kailing et al. combine their three histograms this way, and
§4.3 combines the positional bound with ``BDist/5`` and the size difference.
:class:`MaxCompositeFilter` expresses the pattern generically.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

from repro.exceptions import InvalidParameterError
from repro.features.matrix import elementwise_max, keep_at_most, size_bounds
from repro.filters.base import LowerBoundFilter, RowStage
from repro.trees.node import TreeNode

if TYPE_CHECKING:
    from repro.features.matrix import FeatureMatrices
    from repro.features.store import FeatureStore

#: A composite signature: one opaque component signature per sub-filter,
#: read by position.  Indexed rows hold tuples; a query's is a
#: :class:`LazySignature`.
CompositeSignature = Sequence[Any]

__all__ = ["LazySignature", "MaxCompositeFilter", "SizeDifferenceFilter"]

#: marks a part of a :class:`LazySignature` that nothing has read yet
_MISSING = object()


class LazySignature(Sequence[Any]):
    """A composite query signature whose parts are computed on first read.

    Part ``i`` is ``filters[i].signature(tree)``, computed through the
    child's public ``signature`` the first time something reads it and
    kept from then on.  A cascade stage entered with no rows never reads
    its part, so a query an earlier stage refutes completely never pays
    for a later child's signature.  Two threads filling the same part
    both compute it and one value is kept; the values are equal (a
    child's query signature is a function of the tree and the index, and
    the index does not change under a running query), so the race is
    harmless.
    """

    __slots__ = ("_filters", "_tree", "_parts")

    def __init__(
        self, filters: Sequence[LowerBoundFilter[Any]], tree: TreeNode
    ) -> None:
        self._filters = filters
        self._tree = tree
        self._parts: List[Any] = [_MISSING] * len(filters)

    @overload
    def __getitem__(self, position: int) -> Any: ...

    @overload
    def __getitem__(self, position: slice) -> Tuple[Any, ...]: ...

    def __getitem__(self, position: Union[int, slice]) -> Any:
        if isinstance(position, slice):
            return tuple(self[index] for index in range(len(self))[position])
        part = self._parts[position]
        if part is _MISSING:
            part = self._filters[position].signature(self._tree)
            self._parts[position] = part
        return part

    def __len__(self) -> int:
        return len(self._parts)


class SizeDifferenceFilter(LowerBoundFilter[int]):
    """The trivial ``||T1| − |T2||`` bound, mostly useful inside composites."""

    name = "SizeDiff"
    supports_store = True

    def signature(self, tree: TreeNode) -> int:
        return tree.size

    def store_signature(self, store: "FeatureStore", index: int) -> int:
        return store.tree_size(index)

    def bound(self, query: int, data: int) -> float:
        return abs(query - data)

    def order_keys(
        self, query: int, matrices: "FeatureMatrices"
    ) -> Optional[Sequence[float]]:
        """The exact size difference per row, off the size column."""
        try:
            return size_bounds(matrices, query, None)
        except InvalidParameterError:
            return None

    def refute_rows(
        self,
        query: int,
        threshold: float,
        rows: Sequence[int],
        matrices: Optional["FeatureMatrices"],
    ) -> Sequence[int]:
        try:
            bounds = size_bounds(matrices, query, rows)
        except InvalidParameterError:
            return super().refute_rows(query, threshold, rows, matrices)
        return keep_at_most(rows, bounds, threshold)


class MaxCompositeFilter(LowerBoundFilter[CompositeSignature]):
    """Pointwise maximum of several lower-bound filters.

    >>> from repro.filters.histogram import LabelHistogramFilter
    >>> from repro.trees import parse_bracket
    >>> composite = MaxCompositeFilter(
    ...     [LabelHistogramFilter(), SizeDifferenceFilter()], name="demo"
    ... ).fit([parse_bracket("a(b)")])
    >>> composite.bounds(parse_bracket("a(b,c,d)"))
    [2]
    """

    def __init__(
        self,
        filters: Sequence[LowerBoundFilter[Any]],
        name: str = "Composite",
    ) -> None:
        super().__init__()
        if not filters:
            raise ValueError("composite needs at least one filter")
        self.filters: List[LowerBoundFilter[Any]] = list(filters)
        self.name = name

    @property
    def supports_store(self) -> bool:  # type: ignore[override]
        return all(child.supports_store for child in self.filters)

    @property
    def signature_depends_on_index(self) -> bool:  # type: ignore[override]
        return any(child.signature_depends_on_index for child in self.filters)

    def required_q_levels(self) -> Tuple[int, ...]:
        levels: List[int] = []
        for child in self.filters:
            levels.extend(child.required_q_levels())
        return tuple(dict.fromkeys(levels))

    def _bind_store(self, store: "FeatureStore") -> None:
        for child in self.filters:
            child._bind_store(store)

    def signature(self, tree: TreeNode) -> LazySignature:
        """The children's query signatures, each computed on first read."""
        return LazySignature(self.filters, tree)

    def _index_signature(self, tree: TreeNode) -> CompositeSignature:
        return tuple(child._index_signature(tree) for child in self.filters)

    def store_signature(self, store: "FeatureStore", index: int) -> CompositeSignature:
        return tuple(
            child.store_signature(store, index) for child in self.filters
        )

    def bound(self, query: CompositeSignature, data: CompositeSignature) -> float:
        return max(
            child.bound(query[position], data[position])
            for position, child in enumerate(self.filters)
        )

    def refutes(
        self, query: CompositeSignature, data: CompositeSignature, threshold: float
    ) -> bool:
        """Short-circuit in child order: any component refutation suffices,
        and the children after the first refuting one are never read."""
        return any(
            child.refutes(query[position], data[position], threshold)
            for position, child in enumerate(self.filters)
        )

    def reaches(
        self, query: CompositeSignature, data: CompositeSignature, target: float
    ) -> bool:
        """A max reaches ``target`` iff some child's bound does: asked in
        child order, and the children after the first that reaches it are
        never read."""
        return any(
            child.reaches(query[position], data[position], target)
            for position, child in enumerate(self.filters)
        )

    def order_keys(
        self, query: CompositeSignature, matrices: "FeatureMatrices"
    ) -> Optional[Sequence[float]]:
        """Elementwise max of the children's ordering keys.

        Children without keys are skipped; ``None`` only when no child
        has any.  Sound: each child's key is at most its bound, which is
        at most the composite bound (the max over the children).
        """
        columns = [
            column
            for column in (
                child.order_keys(query[position], matrices)
                for position, child in enumerate(self.filters)
            )
            if column is not None
        ]
        return elementwise_max(columns) if columns else None

    def _sync_child_signatures(self) -> None:
        """Mirror each child's signature components into the child.

        The composite indexes only tuples; children are never fitted on
        their own, so a child's per-row fallback (``refute_rows`` without
        a kernel, the histogram height loop) would find an empty
        signature list.  Before delegating, extend each child's list
        with its slice of the composite tuples — pure references, no
        recomputation.  Assumes children were handed over unfitted (the
        only supported construction); a child somehow longer than the
        composite is reset and rebuilt from the tuples.
        """
        for position, child in enumerate(self.filters):
            if len(child._signatures) > len(self._signatures):
                child._signatures = []
            have = len(child._signatures)
            if have < len(self._signatures):
                child._signatures.extend(
                    signature[position]
                    for signature in self._signatures[have:]
                )

    def refute_rows(
        self,
        query: CompositeSignature,
        threshold: float,
        rows: Sequence[int],
        matrices: Optional["FeatureMatrices"],
    ) -> Sequence[int]:
        """Cascade the children over a shrinking row set.

        Equivalent to the ``any``-refutation of :meth:`refutes` because
        each child's ``refute_rows`` keeps exactly its own survivors.
        """
        for _, stage in self.funnel_components():
            rows = stage(query, threshold, rows, matrices)
        return rows

    def funnel_components(self) -> List[Tuple[str, RowStage[CompositeSignature]]]:
        """One stage per sub-filter, applied as a cascade.

        Stage names are position-prefixed so two children of the same
        class stay distinguishable.  A stage entered with no rows (an
        earlier one refuted them all) returns them untouched, before it
        reads its part of the query signature, so that part is never
        computed.
        """
        components: List[Tuple[str, RowStage[CompositeSignature]]] = []
        for position, child in enumerate(self.filters):

            def refute_rows(
                query: CompositeSignature,
                threshold: float,
                rows: Sequence[int],
                matrices: Optional["FeatureMatrices"],
                _child: LowerBoundFilter[Any] = child,
                _position: int = position,
            ) -> Sequence[int]:
                if not len(rows):
                    return rows
                self._sync_child_signatures()
                return _child.refute_rows(
                    query[_position], threshold, rows, matrices
                )

            components.append((f"{position}:{child.name}", refute_rows))
        return components

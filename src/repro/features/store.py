"""FeatureStore — the per-corpus shared signature plane.

One :class:`FeatureStore` owns every derived per-tree artifact of a corpus:
positional profiles and packed branch vectors at each configured q level,
the unfolded histograms, traversal strings and sizes — all produced by the
one-pass extractor (:mod:`repro.features.extract`) and interned against a
single shared :class:`~repro.features.vocabulary.Vocabulary`.

The layers above consume it instead of re-traversing the corpus:

* filters build their signatures as *views* over the store
  (:meth:`~repro.filters.base.LowerBoundFilter.fit_from_store`),
* :class:`~repro.search.database.TreeDatabase` owns a store and extends it
  incrementally on ``add``,
* :class:`~repro.service.engine.TreeSearchService` uses the store's
  :attr:`generation` counter for selective result-cache invalidation.

The plane is derived state and is never persisted: a database loaded
from disk extracts it from its forest, one pass per tree (observable via
:attr:`extraction_passes`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.positional import PositionalProfile
from repro.exceptions import InvalidParameterError
from repro.features.extract import TreeFeatures, extract_features
from repro.features.packed import PackedVector, pack_counts
from repro.features.vocabulary import Vocabulary
from repro.obs import tracing
from repro.trees.node import TreeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.features.matrix import FeatureMatrices

__all__ = ["FeatureStore"]

#: the unfolded histogram families a store can serve as sparse columns
HISTOGRAM_FAMILIES = ("labels", "degrees")

#: one tree's sparse histogram: parallel interned dims and counts
HistogramColumns = Tuple[Sequence[int], Sequence[int]]


class FeatureStore:
    """All derived per-tree artifacts of a corpus, extracted once, shared.

    Parameters
    ----------
    q_levels:
        Branch levels to extract windows for (deduplicated; each ``>= 2``).

    Examples
    --------
    >>> from repro.trees import parse_bracket
    >>> store = FeatureStore().fit([parse_bracket("a(b,c)"),
    ...                             parse_bracket("a(b,d)")])
    >>> len(store), store.generation, store.extraction_passes
    (2, 0, 2)
    >>> store.packed_vector(0).l1_distance(store.packed_vector(1))
    4
    >>> store.add(parse_bracket("x(y)"))
    2
    >>> len(store), store.generation
    (3, 1)
    """

    def __init__(self, q_levels: Sequence[int] = (2,)) -> None:
        self.q_levels: Tuple[int, ...] = tuple(dict.fromkeys(q_levels))
        if not self.q_levels:
            raise InvalidParameterError("feature store needs at least one q level")
        self.vocabulary = Vocabulary()
        #: label and degree intern tables of the histogram matrix planes;
        #: append-only like :attr:`vocabulary`, grown as rows are synced
        self._histogram_vocabularies: Dict[str, Vocabulary] = {
            family: Vocabulary() for family in HISTOGRAM_FAMILIES
        }
        #: one entry per tree
        self._features: List[TreeFeatures] = []
        self._packed: Dict[int, List[PackedVector]] = {q: [] for q in self.q_levels}
        #: bumped once per mutation *after* the initial fit; consumers (the
        #: service result cache) key freshness decisions off this counter.
        self.generation = 0
        #: number of one-pass tree traversals performed by this store:
        #: one per fitted or added tree
        self.extraction_passes = 0
        #: lazily-built corpus-level matrix planes (vectorized kernels)
        self._matrices: Optional["FeatureMatrices"] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def fit(self, trees: Sequence[TreeNode]) -> "FeatureStore":
        """Extract all artifacts for ``trees`` (one traversal each)."""
        with tracing.span(
            "features.fit", trees=len(trees), q_levels=repr(self.q_levels)
        ):
            for tree in trees:
                self._extract(tree)
        return self

    def add(self, tree: TreeNode) -> int:
        """Incrementally extract one tree; bumps :attr:`generation`.

        Returns the new tree's index.  Packed vectors of existing trees are
        untouched — the vocabulary is append-only, so previously assigned
        dimension ids stay valid.
        """
        index = self._extract(tree)
        self.generation += 1
        return index

    def _extract(self, tree: TreeNode) -> int:
        if not tracing.enabled():
            features = extract_features(tree, self.q_levels)
        else:
            with tracing.span("features.extract") as sp:
                features = extract_features(tree, self.q_levels)
                sp.set(nodes=features.size)
        self.extraction_passes += 1
        index = len(self._features)
        self._features.append(features)
        for q in self.q_levels:
            self._packed[q].append(
                pack_counts(
                    features.branch_counts[q],
                    self.vocabulary,
                    features.size,
                    q,
                    grow=True,
                )
            )
        return index

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._features)

    def __iter__(self) -> Iterator[TreeFeatures]:
        return iter(self._features)

    def features(self, index: int) -> TreeFeatures:
        """The full artifact record of one tree."""
        return self._features[index]

    def _check_q(self, q: Optional[int]) -> int:
        if q is None:
            return self.q_levels[0]
        if q not in self.q_levels:
            raise InvalidParameterError(
                f"q={q} not extracted by this store (levels: {self.q_levels})"
            )
        return q

    def tree_size(self, index: int) -> int:
        """``|T|`` of an indexed tree."""
        return self._features[index].size

    def histogram_vocabulary(self, family: str) -> Vocabulary:
        """The intern table of one histogram family's matrix columns."""
        return self._histogram_vocabularies[family]

    def histogram_columns(self, family: str, index: int) -> HistogramColumns:
        """One tree's unfolded ``family`` histogram as ``(dims, counts)``.

        Dims are ids in :meth:`histogram_vocabulary`; an extracted tree's
        unseen keys are interned here (the table is append-only, so ids
        already handed out stay valid).
        """
        counts: Dict = getattr(self._features[index], family)
        intern = self._histogram_vocabularies[family].intern
        return [intern(key) for key in counts], list(counts.values())

    def profile(self, index: int, q: Optional[int] = None) -> PositionalProfile:
        """Positional profile of one tree at branch level ``q``."""
        return self.features(index).profiles[self._check_q(q)]

    def packed_vector(self, index: int, q: Optional[int] = None) -> PackedVector:
        """Packed branch vector of one tree at branch level ``q``."""
        return self._packed[self._check_q(q)][index]

    def packed_vectors(self, q: Optional[int] = None) -> List[PackedVector]:
        """All packed vectors at one q level (shared list — do not mutate)."""
        return self._packed[self._check_q(q)]

    def pack_query(self, tree: TreeNode, q: Optional[int] = None) -> PackedVector:
        """Pack a *query* tree against the store vocabulary without growing it.

        Unseen branches land in the vector's ``extra`` dict, so concurrent
        queries never mutate shared state.
        """
        q = self._check_q(q)
        features = extract_features(tree, (q,))
        return pack_counts(
            features.branch_counts[q],
            self.vocabulary,
            features.size,
            q,
            grow=False,
        )

    def matrices(self) -> "FeatureMatrices":
        """Corpus-level dense matrix planes over this store.

        Built lazily and cached; the returned bundle re-syncs itself
        against the store (row appends, column widening) before every
        kernel call, so it stays valid across incremental :meth:`add`.
        """
        if self._matrices is None:
            from repro.features.matrix import FeatureMatrices

            self._matrices = FeatureMatrices(self)
        return self._matrices

    def stats(self) -> Dict[str, object]:
        """Summary counters for the CLI / diagnostics."""
        return {
            "trees": len(self._features),
            "q_levels": list(self.q_levels),
            "vocabulary_size": len(self.vocabulary),
            "generation": self.generation,
            "extraction_passes": self.extraction_passes,
            "total_nodes": sum(
                self.tree_size(index) for index in range(len(self._features))
            ),
            "packed_dimensions": {
                q: sum(len(v.dims) for v in vectors)
                for q, vectors in self._packed.items()
            },
        }

    def __repr__(self) -> str:
        return (
            f"FeatureStore({len(self)} trees, q_levels={self.q_levels}, "
            f"vocabulary={len(self.vocabulary)}, generation={self.generation})"
        )

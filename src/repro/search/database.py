"""TreeDatabase — the user-facing entry point for similarity search.

Bundles a tree collection, a lower-bound filter (by default the serving
filter, the max of positional BiBranch and the label histogram), the
lazily built inverted file, and a shared edit-distance counter so
prepared trees are reused across queries.

Examples
--------
>>> from repro.trees import parse_bracket
>>> db = TreeDatabase([parse_bracket("a(b,c)"), parse_bracket("a(b,d)"),
...                    parse_bracket("x(y)")])
>>> matches, _ = db.range_query(parse_bracket("a(b,c)"), 1)
>>> [index for index, _ in matches]
[0, 1]
>>> neighbors, _ = db.knn(parse_bracket("a(b,c)"), k=1)
>>> neighbors[0]
(0, 0.0)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.editdist.costs import UNIT_COSTS, CostModel
from repro.editdist.zhang_shasha import EditDistanceCounter
from repro.exceptions import InvalidParameterError
from repro.features.store import FeatureStore
from repro.filters.base import LowerBoundFilter
from repro.filters.registry import DEFAULT_FILTER, FILTERS
from repro.search.knn import knn_query
from repro.search.range_query import range_query
from repro.search.sequential import sequential_knn_query, sequential_range_query
from repro.search.statistics import SearchStats
from repro.trees.node import TreeNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.features.matrix import FeatureMatrices
    from repro.index.inverted import ExtendedInvertedFile

__all__ = ["TreeDatabase"]


class TreeDatabase:
    """A searchable collection of rooted ordered labeled trees.

    Parameters
    ----------
    trees:
        The database content (kept by reference; do not mutate afterwards).
    flt:
        The lower-bound filter; default is the serving filter
        ``FILTERS[DEFAULT_FILTER]()`` (:mod:`repro.filters.registry`): the
        pointwise max of the paper's positional
        :class:`~repro.filters.binary_branch.BinaryBranchFilter` and the
        label histogram bound.  Pass ``BinaryBranchFilter()`` to measure
        BiBranch alone.  It is fitted here if not already fitted — from the shared feature plane
        when the filter supports it, so all signatures come out of one
        extraction pass per tree.
    costs:
        Edit-operation cost model for the refinement distance.

    The feature plane (:attr:`features`) is extracted here from ``trees``
    and nowhere else; a database loaded by
    :func:`repro.storage.load_database` is built the same way.
    """

    def __init__(
        self,
        trees: Iterable[TreeNode],
        flt: Optional[LowerBoundFilter] = None,
        costs: CostModel = UNIT_COSTS,
    ) -> None:
        self.trees: List[TreeNode] = list(trees)
        self.counter = EditDistanceCounter(costs)
        self.filter: LowerBoundFilter = (
            flt if flt is not None else FILTERS[DEFAULT_FILTER]()
        )
        self._features: Optional[FeatureStore] = None
        if self.filter.size != len(self.trees):
            self._fit_filter()
        self._mutations = 0
        self._candidate_index: Optional["ExtendedInvertedFile"] = None

    def _store_q_levels(self) -> Tuple[int, ...]:
        return self.filter.required_q_levels() or (getattr(self.filter, "q", 2),)

    def _fit_filter(self) -> None:
        if self.filter.supports_store:
            self._features = FeatureStore(self._store_q_levels()).fit(self.trees)
            self.filter.fit_from_store(self._features)
        else:
            self.filter.fit(self.trees)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, tree: TreeNode) -> int:
        """Insert one tree; returns its index.

        One extraction pass updates the feature plane (O(|tree|)), the
        filter signature is derived from it (or computed directly for
        store-less filters); a built candidate index re-syncs against the
        store on its next probe.
        """
        index = len(self.trees)
        self.trees.append(tree)
        if self._features is not None:
            self._features.add(tree)
            self.filter.add_from_store(self._features, index)
        else:
            self.filter.add(tree)
        self._mutations += 1
        return index

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.trees)

    def __getitem__(self, index: int) -> TreeNode:
        return self.trees[index]

    @property
    def features(self) -> Optional[FeatureStore]:
        """The shared feature plane, if one backs this database."""
        return self._features

    def matrices(self) -> Optional["FeatureMatrices"]:
        """Corpus-level matrix planes for vectorized candidate generation.

        ``None`` when no feature store backs this database (prefitted
        store-less filters) — callers then stay on the per-candidate
        reference path.  The bundle re-syncs itself against the store, so
        it remains valid across :meth:`add`.
        """
        if self._features is None:
            return None
        return self._features.matrices()

    @property
    def generation(self) -> int:
        """Mutation counter for cache-freshness decisions.

        Backed by the feature store's generation when one exists (so
        out-of-band ``store.add`` calls are visible too), otherwise by a
        local per-:meth:`add` counter.
        """
        if self._features is not None:
            return self._features.generation
        return self._mutations

    def candidate_index(self) -> "ExtendedInvertedFile":
        """The inverted-file candidate index (Alg. 1, built lazily).

        Requires a feature store (the index reads packed vectors from the
        plane); built once and cached.  The index stays usable across
        :meth:`add` — the query paths re-sync it against the store before
        every probe.
        """
        index = self._candidate_index
        if index is None:
            if self._features is None:
                raise InvalidParameterError(
                    "the candidate index needs a feature store; this "
                    "database was built from a prefitted store-less filter"
                )
            from repro.index.inverted import ExtendedInvertedFile

            index = self._candidate_index = ExtendedInvertedFile(
                self._features, getattr(self.filter, "q", None)
            )
        return index

    @property
    def distance_computations(self) -> int:
        """Exact edit-distance computations performed so far."""
        return self.counter.calls

    def edit_distance(self, t1: TreeNode, t2: TreeNode) -> float:
        """Exact edit distance under the database's cost model."""
        return self.counter.distance(t1, t2)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(
        self, query: TreeNode, threshold: float
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Filter-and-refine range query (see :func:`range_query`)."""
        return range_query(self.trees, query, threshold, self.filter, self.counter)

    def indexed_range_query(
        self, query: TreeNode, threshold: float
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Range query via inverted-file candidate generation (Alg. 1).

        The :meth:`candidate_index` merges only the postings of
        the query's own branches into the exact BDist ball; the filter
        cascade and refinement then run over the ball alone (see
        :func:`range_query`).  Needs a feature store, like
        :meth:`candidate_index`.
        """
        return range_query(
            self.trees, query, threshold, self.filter, self.counter,
            index=self.candidate_index(),
        )

    def knn(
        self, query: TreeNode, k: int
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Filter-and-refine k-NN query (Algorithm 2)."""
        return knn_query(self.trees, query, k, self.filter, self.counter)

    def sequential_range_query(
        self, query: TreeNode, threshold: float
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Brute-force range query (baseline / ground truth)."""
        return sequential_range_query(self.trees, query, threshold, self.counter)

    def sequential_knn(
        self, query: TreeNode, k: int
    ) -> Tuple[List[Tuple[int, float]], SearchStats]:
        """Brute-force k-NN (baseline / ground truth)."""
        return sequential_knn_query(self.trees, query, k, self.counter)

    def __repr__(self) -> str:
        return (
            f"TreeDatabase({len(self.trees)} trees, "
            f"filter={self.filter.name!r})"
        )

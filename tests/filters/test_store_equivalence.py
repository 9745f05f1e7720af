"""Store-backed filters must be bit-identical to the legacy fit path.

The tentpole guarantee of the shared feature plane: for every filter that
sets ``supports_store``, deriving signatures from a
:class:`~repro.features.store.FeatureStore` (one traversal per tree) yields
exactly the bounds — and therefore exactly the query answers — of the
legacy per-filter ``fit()``/``signature()`` path, including after
incremental insertion.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.editdist.costs import UNIT_COSTS
from repro.features import FeatureStore
from repro.filters import (
    DEFAULT_FILTER,
    FILTERS,
    BinaryBranchFilter,
    BranchCountFilter,
    CostScaledFilter,
    HistogramFilter,
    MaxCompositeFilter,
    SizeDifferenceFilter,
    TraversalStringFilter,
)
from repro.search.database import TreeDatabase
from tests.strategies import trees

FILTER_FACTORIES = [
    ("bibranch", lambda: BinaryBranchFilter()),
    ("bibranch-q3", lambda: BinaryBranchFilter(q=3)),
    ("bibranch-exact", lambda: BinaryBranchFilter(exact_matching=True)),
    ("count", lambda: BranchCountFilter()),
    ("count-q3", lambda: BranchCountFilter(q=3)),
    ("histogram", lambda: HistogramFilter()),
    ("histogram-folded", lambda: HistogramFilter(label_bins=5, degree_bins=3,
                                                 height_cap=4)),
    ("traversal", lambda: TraversalStringFilter()),
    ("size", lambda: SizeDifferenceFilter()),
    ("composite", lambda: MaxCompositeFilter(
        [BinaryBranchFilter(), HistogramFilter(), SizeDifferenceFilter()]
    )),
    ("cost-scaled", lambda: CostScaledFilter(BinaryBranchFilter(), UNIT_COSTS)),
    ("serving", lambda: FILTERS[DEFAULT_FILTER]()),
]

forests = st.lists(trees(max_leaves=6), min_size=1, max_size=6)


def _store_for(flt, forest):
    return FeatureStore(flt.required_q_levels() or (2,)).fit(forest)


@pytest.mark.parametrize(
    "make_filter", [factory for _, factory in FILTER_FACTORIES],
    ids=[name for name, _ in FILTER_FACTORIES],
)
class TestBoundEquivalence:
    @given(forest=forests, query=trees(max_leaves=6))
    @settings(max_examples=25, deadline=None)
    def test_bounds_bit_identical(self, make_filter, forest, query):
        legacy = make_filter().fit(forest)
        store_backed = make_filter()
        store_backed.fit_from_store(_store_for(store_backed, forest))
        assert store_backed.bounds(query) == legacy.bounds(query)

    @given(forest=forests, added=trees(max_leaves=6), query=trees(max_leaves=6))
    @settings(max_examples=25, deadline=None)
    def test_bounds_bit_identical_after_add(
        self, make_filter, forest, added, query
    ):
        legacy = make_filter().fit(forest)
        legacy.add(added)
        store_backed = make_filter()
        store = _store_for(store_backed, forest)
        store_backed.fit_from_store(store)
        store_backed.add_from_store(store, store.add(added))
        assert store_backed.bounds(query) == legacy.bounds(query)


class TestQueryAnswerEquivalence:
    """End-to-end: store-backed TreeDatabase answers equal the legacy ones.

    The legacy database gets a pre-fitted copy of the serving default, so
    both sides run the same filter and k-NN ties break the same way.
    """

    @given(
        forest=forests,
        query=trees(max_leaves=6),
        threshold=st.integers(0, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_range_answers_identical(self, forest, query, threshold):
        legacy_db = TreeDatabase(forest, flt=FILTERS[DEFAULT_FILTER]().fit(forest))
        store_db = TreeDatabase(forest)
        assert legacy_db.features is None and store_db.features is not None
        legacy_matches, _ = legacy_db.range_query(query, threshold)
        store_matches, _ = store_db.range_query(query, threshold)
        assert store_matches == legacy_matches

    @given(
        forest=forests,
        added=trees(max_leaves=6),
        query=trees(max_leaves=6),
        k=st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_knn_answers_identical_after_add(self, forest, added, query, k):
        k = min(k, len(forest))  # knn rejects k beyond the dataset size
        legacy_db = TreeDatabase(forest, flt=FILTERS[DEFAULT_FILTER]().fit(forest))
        store_db = TreeDatabase(forest)
        legacy_db.add(added)
        store_db.add(added)
        assert store_db.generation == 1
        legacy_neighbors, _ = legacy_db.knn(query, k)
        store_neighbors, _ = store_db.knn(query, k)
        assert store_neighbors == legacy_neighbors

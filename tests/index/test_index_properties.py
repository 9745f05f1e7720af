"""Property-based pins for the inverted-file candidate index.

Hypothesis drives random corpora (small label alphabet — maximal branch
collisions, the adversarial regime for a candidate index) at branch level
2 or 3 through three invariant classes of
:class:`~repro.index.inverted.ExtendedInvertedFile`, each pinned with
explicit examples:

* **ball exactness** — ``range_rows`` returns exactly the brute-force
  BDist ball, so index-restricted range answers equal sequential scans.
  Branch-disjoint tiny trees under a generous budget reach the ball only
  through the inverted file's norm-prefix scan;
* **incremental adds** — an index grown by ``sync`` over interleaved
  ``store.add`` calls answers identically to a fresh cold build;
* **ascending stream** — complete, keys equal the true BDist, sorted.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.features.store import FeatureStore
from repro.filters.binary_branch import BinaryBranchFilter
from repro.index import ExtendedInvertedFile
from repro.search.range_query import range_query
from repro.search.sequential import sequential_range_query
from repro.trees import parse_bracket
from tests.strategies import trees

corpora = st.lists(trees(max_leaves=6), min_size=1, max_size=48)
levels = st.sampled_from([2, 3])
#: tiny trees sharing no label, hence no branch, with the query: under a
#: generous budget they are in the ball although no posting list of the
#: query reaches them
DISJOINT = [parse_bracket(text) for text in ("a", "b(c)", "a(b)")]
DISJOINT_QUERY = parse_bracket("d(e)")


def _brute_ball(index: ExtendedInvertedFile, vector, budget: int) -> list:
    store = index._store
    return sorted(
        row
        for row in range(len(store))
        if vector.l1_distance(store.packed_vector(row, index.q)) <= budget
    )


class TestRangeRows:
    @given(
        corpora, trees(max_leaves=6), st.integers(min_value=0, max_value=30),
        levels,
    )
    @example(DISJOINT, DISJOINT_QUERY, 0, 2)
    @example(DISJOINT, DISJOINT_QUERY, 6, 2)
    @example(DISJOINT, DISJOINT_QUERY, 6, 3)
    @settings(max_examples=60, deadline=None)
    def test_ball_is_exact(self, corpus, query, budget, q):
        store = FeatureStore((q,)).fit(corpus)
        index = ExtendedInvertedFile(store, q)
        vector = index.pack(query)
        assert index.range_rows(vector, budget) == _brute_ball(
            index, vector, budget
        )

    @given(
        corpora, trees(max_leaves=6), st.floats(min_value=0, max_value=4),
        levels,
    )
    @example(DISJOINT, DISJOINT_QUERY, 0.0, 2)
    @example(DISJOINT, DISJOINT_QUERY, 4.0, 3)
    @settings(max_examples=40, deadline=None)
    def test_range_query_equals_sequential(self, corpus, query, threshold, q):
        store = FeatureStore((q,)).fit(corpus)
        flt = BinaryBranchFilter(q=q).fit_from_store(store)
        index = ExtendedInvertedFile(store, q)
        indexed, _ = range_query(corpus, query, threshold, flt, index=index)
        sequential, _ = sequential_range_query(corpus, query, threshold)
        assert indexed == sequential


class TestIncrementalAdds:
    @given(
        corpora,
        st.lists(trees(max_leaves=6), min_size=1, max_size=18),
        trees(max_leaves=6),
        st.integers(min_value=0, max_value=20),
        levels,
    )
    @example(DISJOINT, DISJOINT, DISJOINT_QUERY, 6, 3)
    @settings(max_examples=40, deadline=None)
    def test_grown_index_equals_cold_build(self, corpus, added, query, budget, q):
        store = FeatureStore((q,)).fit(corpus)
        grown = ExtendedInvertedFile(store, q)
        for position, tree in enumerate(added):
            store.add(tree)
            if position % 2 == 0:
                grown.sync()  # interleave syncs with raw store growth
        grown.sync()
        assert len(grown) == len(store)
        assert not grown.stale()

        cold = ExtendedInvertedFile(store, q)
        vector = grown.pack(query)
        assert grown.range_rows(vector, budget) == cold.range_rows(
            vector, budget
        )
        assert grown.range_rows(vector, budget) == _brute_ball(
            grown, vector, budget
        )


class TestAscendingStream:
    @given(corpora, trees(max_leaves=6), levels)
    @example(DISJOINT, DISJOINT_QUERY, 2)
    @example(DISJOINT, DISJOINT_QUERY, 3)
    @settings(max_examples=60, deadline=None)
    def test_complete_sorted_and_exact(self, corpus, query, q):
        store = FeatureStore((q,)).fit(corpus)
        index = ExtendedInvertedFile(store, q)
        vector = index.pack(query)
        emitted = list(index.ascending(vector))
        assert sorted(row for _, row in emitted) == list(range(len(corpus)))
        keys = [key for key, _ in emitted]
        assert keys == sorted(keys)
        for key, row in emitted:
            assert key == vector.l1_distance(store.packed_vector(row, index.q))

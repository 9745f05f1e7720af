"""Metamorphic pins for the extended inverted-file index.

Two relations, both straight from the Alg.-1 lower-bound arithmetic
``L1 = |Q| + |T| − 2·overlap(Q, T)``:

* **branch injection** — giving a data row more of a branch the query
  does not contain raises its norm without touching the overlap, so the
  stored lower bound must rise by exactly the injected count and can
  never decrease (trees only drift further apart by growing branches the
  query lacks);
* **insertion-order independence** — the posting lists are built in
  whatever order rows arrive, but every answer (``range_rows``,
  ``lower_bound``) must be bit-identical under any corpus permutation,
  modulo the row relabelling itself.
"""

from __future__ import annotations

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.packed import PackedVector
from repro.features.store import FeatureStore
from repro.index import ExtendedInvertedFile
from tests.strategies import trees

#: sparse synthetic branch-count rows over a 12-dim interned vocabulary
_DIMS = 12
rows = st.dictionaries(
    st.integers(min_value=0, max_value=_DIMS - 1),
    st.integers(min_value=1, max_value=4),
    max_size=6,
)


def _vector(counts: dict) -> PackedVector:
    dims = sorted(counts)
    return PackedVector(
        array("q", dims),
        array("q", [counts[dim] for dim in dims]),
        sum(counts.values()),
        2,
    )


class _PackedRows:
    """The part of a feature store the index reads, over given rows."""

    q_levels = (2,)
    generation = 0

    def __init__(self, vectors) -> None:
        self._vectors = list(vectors)

    def __len__(self) -> int:
        return len(self._vectors)

    def packed_vector(self, index: int, q: int = 2) -> PackedVector:
        assert q == 2
        return self._vectors[index]


def _store(vectors) -> _PackedRows:
    return _PackedRows(vectors)


class TestBranchInjection:
    @given(rows, rows, st.integers(min_value=1, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_bound_never_decreases(self, query_counts, row_counts, amount):
        query = _vector(query_counts)
        missing = [
            dim for dim in range(_DIMS) if dim not in query_counts
        ]
        if not missing:
            return
        injected_dim = missing[0]
        inflated = dict(row_counts)
        inflated[injected_dim] = inflated.get(injected_dim, 0) + amount

        base = ExtendedInvertedFile(_store([_vector(row_counts)]))
        grown = ExtendedInvertedFile(_store([_vector(inflated)]))
        before = base.lower_bound(query, 0)
        after = grown.lower_bound(query, 0)
        assert after >= before
        # overlap is untouched, the norm rose by exactly `amount`
        assert after == before + amount


class TestInsertionOrderIndependence:
    @given(
        st.lists(trees(max_leaves=6), min_size=2, max_size=20),
        trees(max_leaves=6),
        st.integers(min_value=0, max_value=20),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_permuted_corpus_answers_identically(
        self, corpus, query, budget, rng
    ):
        order = list(range(len(corpus)))
        rng.shuffle(order)

        original_store = FeatureStore((2,)).fit(corpus)
        original = ExtendedInvertedFile(original_store)
        permuted_store = FeatureStore((2,)).fit([corpus[i] for i in order])
        permuted = ExtendedInvertedFile(permuted_store)

        vector = original.pack(query)
        permuted_vector = permuted.pack(query)

        # range answers are the same set of trees, relabelled
        expected = sorted(
            order.index(row) for row in original.range_rows(vector, budget)
        )
        assert permuted.range_rows(permuted_vector, budget) == expected

        # per-row lower bounds ride the permutation unchanged
        for row in range(len(corpus)):
            assert original.lower_bound(vector, row) == permuted.lower_bound(
                permuted_vector, order.index(row)
            )

"""Unit and property tests for the multi-step k-NN algorithm (Algorithm 2)."""

import heapq
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import SyntheticSpec, generate_dataset
from repro.editdist.zhang_shasha import EditDistanceCounter
from repro.exceptions import QueryError
from repro.filters import (
    DEFAULT_FILTER,
    FILTERS,
    BinaryBranchFilter,
    BranchCountFilter,
    HistogramFilter,
)
from repro.obs import tracing
from repro.obs.funnel import collect_funnels
from repro.obs.tracing import Tracer
from repro.search import TreeDatabase, knn_query, sequential_knn_query
from repro.search.knn import BoundStream, KnnHeap, bound_stream
from repro.trees import parse_bracket

DATASET = [
    parse_bracket(text)
    for text in [
        "a(b,c)",
        "a(b,d)",
        "a(b(c,d),e)",
        "x(y,z)",
        "a",
        "a(b,c,d,e)",
        "q(w(e(r(t))))",
    ]
]


@pytest.fixture
def flt():
    return BinaryBranchFilter().fit(DATASET)


class TestBasics:
    def test_nearest_is_identical_tree(self, flt):
        neighbors, _ = knn_query(DATASET, parse_bracket("a(b,c)"), 1, flt)
        assert neighbors == [(0, 0.0)]

    def test_k_results_returned(self, flt):
        neighbors, _ = knn_query(DATASET, parse_bracket("a(b,c)"), 3, flt)
        assert len(neighbors) == 3
        distances = [d for _, d in neighbors]
        assert distances == sorted(distances)

    def test_k_equal_to_dataset(self, flt):
        neighbors, stats = knn_query(DATASET, parse_bracket("a"), len(DATASET), flt)
        assert len(neighbors) == len(DATASET)
        assert stats.candidates == len(DATASET)

    def test_invalid_k(self, flt):
        for k in (0, len(DATASET) + 1, 2.5, True):
            with pytest.raises(QueryError):
                knn_query(DATASET, parse_bracket("a"), k, flt)
            with pytest.raises(QueryError):
                sequential_knn_query(DATASET, parse_bracket("a"), k)

    def test_size_mismatch_rejected(self):
        flt = BinaryBranchFilter().fit(DATASET[:3])
        with pytest.raises(QueryError):
            knn_query(DATASET, parse_bracket("a"), 1, flt)

    def test_stats(self, flt):
        _, stats = knn_query(DATASET, parse_bracket("a(b,c)"), 2, flt)
        assert stats.dataset_size == len(DATASET)
        assert 2 <= stats.candidates <= len(DATASET)
        assert stats.results == 2


class TestOptimalMultiStep:
    def test_early_termination_prunes(self, flt):
        """With a query identical to one tree and k=1, refinement should
        stop well before scanning everything."""
        _, stats = knn_query(DATASET, parse_bracket("q(w(e(r(t))))"), 1, flt)
        assert stats.candidates < len(DATASET)

    def test_distance_set_matches_sequential(self, flt):
        """k-NN distances must equal the brute-force k smallest (the member
        set may differ only among equal distances)."""
        for k in range(1, len(DATASET) + 1):
            query = parse_bracket("a(b(c),d)")
            fast, _ = knn_query(DATASET, query, k, flt)
            brute, _ = sequential_knn_query(DATASET, query, k)
            assert sorted(d for _, d in fast) == sorted(d for _, d in brute)

    def test_matches_sequential_on_synthetic_data(self):
        rng = random.Random(5)
        spec = SyntheticSpec(size_mean=10, size_stddev=2, label_count=4, decay=0.15)
        dataset = generate_dataset(spec, count=15, seed_count=4, rng=rng)
        queries = rng.sample(dataset, 4)
        for filter_cls in (BinaryBranchFilter, HistogramFilter):
            flt = filter_cls().fit(dataset)
            for query in queries:
                for k in (1, 3, 5):
                    fast, _ = knn_query(dataset, query, k, flt)
                    brute, _ = sequential_knn_query(dataset, query, k)
                    assert sorted(d for _, d in fast) == sorted(
                        d for _, d in brute
                    )

    def test_results_sorted_by_distance_then_index(self, flt):
        neighbors, _ = knn_query(DATASET, parse_bracket("a(b,c)"), 4, flt)
        keys = [(d, i) for i, d in neighbors]
        assert keys == sorted(keys)


#: many rows bounded exactly at the k-th distance of ``a(b,c)``, under both
#: the histogram and the serving filter
TIED_CORPUS = [
    parse_bracket(text)
    for text in [
        "a(b,d)", "a(c,b)", "a(e,c)", "a(b,c,d)", "a(b)", "a(c,b)",
        "a(c)", "a(b,c)", "a(b,x)", "a(d,b)", "a(c,b)", "a(b,e)",
    ]
]


def _strict_stop_answer(bounds, distances, k):
    """Alg. 2 stopping only at a bound strictly above the k-th distance."""
    heap = []
    for row in sorted(range(len(bounds)), key=lambda row: (bounds[row], row)):
        if len(heap) == k and bounds[row] > -heap[0][0]:
            break
        if len(heap) < k:
            heapq.heappush(heap, (-distances[row], -row))
        elif distances[row] < -heap[0][0]:
            heapq.heapreplace(heap, (-distances[row], -row))
    return sorted(
        ((-row, -distance) for distance, row in heap),
        key=lambda pair: (pair[1], pair[0]),
    )


def _minimal_refined(bounds, distances, k):
    """Rows before the first one, in ``(bound, row)`` order, that has at
    least ``k`` earlier rows with distance at or under its bound."""
    order = sorted(range(len(bounds)), key=lambda row: (bounds[row], row))
    for position, row in enumerate(order):
        earlier = [distances[other] for other in order[:position]]
        if sum(distance <= bounds[row] for distance in earlier) >= k:
            return position
    return len(order)


class TestTiedBounds:
    @pytest.mark.parametrize("filter_name", ["histogram", DEFAULT_FILTER])
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_rows_bounded_at_the_kth_distance_are_not_refined(
        self, filter_name, k
    ):
        """A full heap admits only a strictly smaller distance, so a row
        bounded at the k-th distance cannot change the answer: the refined
        count is the minimal one, and the answer, tie members included, is
        the one a strict ``bound > k-th`` stop gives."""
        flt = FILTERS[filter_name]().fit(TIED_CORPUS)
        query = parse_bracket("a(b,c)")
        bounds = [float(bound) for bound in flt.bounds(query)]
        counter = EditDistanceCounter()
        distances = [counter.distance(query, tree) for tree in TIED_CORPUS]
        neighbors, stats = knn_query(TIED_CORPUS, query, k, flt)
        assert neighbors == _strict_stop_answer(bounds, distances, k)
        minimal = _minimal_refined(bounds, distances, k)
        assert stats.candidates == minimal
        # a strict stop refines every row bounded at or under the k-th
        # distance; rows tied with it are the difference
        kth = neighbors[-1][1]
        assert minimal < sum(bound <= kth for bound in bounds)


PLANE_CORPUS = [
    parse_bracket(text)
    for text in ["a(b,c)", "a(b,d)", "x(y)", "a(b(c),d)", "q(r,s)", "a"]
]


class TestMatrixPlanes:
    @pytest.mark.parametrize("filter_cls", [BinaryBranchFilter, BranchCountFilter])
    @pytest.mark.parametrize("plane_trees", [3, 7], ids=["short", "long"])
    def test_plane_of_another_corpus_rejected(self, filter_cls, plane_trees):
        flt = filter_cls().fit(PLANE_CORPUS)
        other = (PLANE_CORPUS + [parse_bracket("z(y)")])[-plane_trees:]
        matrices = TreeDatabase(other, flt=filter_cls()).matrices()
        for k in (1, len(PLANE_CORPUS)):
            with pytest.raises(QueryError, match="matrix planes"):
                knn_query(PLANE_CORPUS, parse_bracket("a"), k, flt, matrices=matrices)


@st.composite
def _offers(draw):
    """Distinct ``(distance, bound, row)`` keys, bounds at most distances."""
    bounds = draw(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    extras = draw(st.lists(st.integers(0, 3), min_size=30, max_size=30))
    return [
        (float(bound + extra), float(bound), row)
        for row, (bound, extra) in enumerate(zip(bounds, extras))
    ]


class TestKnnHeap:
    @given(
        distances=st.lists(st.integers(0, 6), min_size=1, max_size=30),
        gaps=st.lists(st.integers(1, 3), min_size=30, max_size=30),
        bound_gaps=st.lists(st.integers(0, 2), min_size=30, max_size=30),
        k=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_holds_the_stable_sorted_first_k(self, distances, gaps, bound_gaps, k):
        """Offered in ascending ``(bound, row)`` order, the heap keeps the
        first ``k`` offers stable-sorted by distance (a tie never displaces
        an earlier row), and ``kth`` stays ``inf`` until ``k`` rows are in."""
        rows = list(itertools.accumulate(gaps[: len(distances)]))
        bounds = list(itertools.accumulate(bound_gaps[: len(distances)]))
        heap = KnnHeap(k)
        for count, (distance, bound, row) in enumerate(
            zip(distances, bounds, rows), start=1
        ):
            heap.offer(float(distance), float(bound), row)
            assert len(heap) == min(count, k)
            offered = sorted(
                zip(distances[:count], rows[:count]), key=lambda pair: pair[0]
            )
            if count < k:
                assert heap.kth == math.inf
            else:
                assert heap.kth == offered[k - 1][0]
            expected = sorted(
                ((row, float(distance)) for distance, row in offered[:k]),
                key=lambda pair: (pair[1], pair[0]),
            )
            assert heap.neighbors() == expected
            assert [entry[0] for entry in heap.entries()] == [
                pair[1] for pair in expected
            ]

    @given(offers=_offers(), k=st.integers(1, 8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_holds_the_k_smallest_keys_in_any_order(self, offers, k, data):
        """Offered in any order, the heap holds the first ``k`` offers by
        ``(distance, bound, row)``; ``kth`` is ``inf`` until it is full."""
        shuffled = data.draw(st.permutations(offers))
        heap = KnnHeap(k)
        for count, key in enumerate(shuffled, start=1):
            heap.offer(*key)
            first = sorted(shuffled[:count])[:k]
            assert heap.entries() == first
            assert heap.kth == (first[-1][0] if count >= k else math.inf)

    @given(offers=_offers(), k=st.integers(1, 8), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_merging_the_parts_top_k_is_the_whole_top_k(self, offers, k, data):
        """Split a ``(bound, row)``-ordered offer stream into two
        order-preserving parts: one heap fed both parts' top ``k`` holds
        the whole stream's top ``k`` — the sharded k-NN merge."""
        stream = sorted(offers, key=lambda key: (key[1], key[2]))
        sides = data.draw(
            st.lists(st.booleans(), min_size=len(stream), max_size=len(stream))
        )
        whole = KnnHeap(k)
        parts = [KnnHeap(k), KnnHeap(k)]
        for key, side in zip(stream, sides):
            whole.offer(*key)
            parts[side].offer(*key)
        merged = KnnHeap(k)
        for part in parts:
            for key in part.entries():
                merged.offer(*key)
        assert merged.neighbors() == whole.neighbors()
        assert merged.entries() == whole.entries() == sorted(stream)[:k]


@st.composite
def _stream_cases(draw):
    """Bounds, keys ``≤`` bounds, and the stops a consumer lowers to."""
    bounds = draw(st.lists(st.integers(0, 12), min_size=1, max_size=30))
    keys = [bound - draw(st.integers(0, 4)) for bound in bounds]
    stops = draw(
        st.lists(st.one_of(st.none(), st.integers(0, 14)), max_size=len(bounds) + 1)
    )
    return bounds, keys, stops


class TestBoundStreamStop:
    @pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "keys-are-bounds"])
    @given(case=_stream_cases())
    @settings(max_examples=200, deadline=None)
    def test_stop_keeps_the_exact_prefix(self, lazy, case):
        """A consumer that lowers ``stop`` at will gets the exact
        ``(bound, row)`` prefix until the head reaches it; no row keyed at
        or above the stop is bounded, and no more rows are bounded than an
        unstopped stream bounds to decide one more row."""
        bounds, keys, stops = case
        if not lazy:
            keys = bounds
        late = []

        def bound(row):
            if keys[row] >= stream.stop:
                late.append(row)
            return bounds[row]

        stream = BoundStream(keys, bound if lazy else None)
        updates = iter(stops)
        emitted = []

        def lower():
            update = next(updates, None)
            if update is not None:
                stream.stop = min(stream.stop, update)

        lower()  # the consumer may lower it before the first row
        for pair in stream:
            assert pair[0] < stream.stop
            emitted.append(pair)
            lower()

        expected = sorted((bound, row) for row, bound in enumerate(bounds))
        assert emitted == expected[: len(emitted)]
        if len(emitted) < len(bounds):
            assert expected[len(emitted)][0] >= stream.stop
        assert late == []
        if lazy:
            unstopped = BoundStream(keys, lambda row: bounds[row])
            for _ in itertools.islice(unstopped, len(emitted) + 1):
                pass
            assert stream.scored <= unstopped.scored

    def test_knn_bounds_fewer_rows_with_the_same_answers(self):
        """Stopping the stream at the k-th distance shrinks the
        ``order:`` survivors below what the unstopped stream bounds for
        the same walk, with the same answers and refined rows."""
        spec = SyntheticSpec(size_mean=8, size_stddev=2, label_count=8, decay=0.1)
        corpus = generate_dataset(spec, count=300, seed=3)
        database = TreeDatabase(corpus)
        flt, matrices = database.filter, database.matrices()
        counter = EditDistanceCounter()
        fewer = 0
        for query in corpus[:6]:
            for k in (1, 3):
                with collect_funnels() as sink:
                    neighbors, stats = knn_query(
                        corpus, query, k, flt, matrices=matrices
                    )
                survivors = sink.funnels[0].stages[0].survivors
                # the unstopped walk: break at the first bound ≥ the k-th
                stream = bound_stream(flt, query, matrices)
                heap, refined = [], 0
                for bound_value, row in stream:
                    if len(heap) == k and bound_value >= -heap[0][0]:
                        break
                    distance = counter.distance(query, corpus[row])
                    refined += 1
                    if len(heap) < k:
                        heapq.heappush(heap, (-distance, -row))
                    elif distance < -heap[0][0]:
                        heapq.heapreplace(heap, (-distance, -row))
                assert stats.candidates == refined
                assert neighbors == sorted(
                    ((-row, -distance) for distance, row in heap),
                    key=lambda pair: (pair[1], pair[0]),
                )
                assert stats.candidates <= survivors <= stream.scored
                fewer += survivors < stream.scored
        assert fewer

    def test_refine_span_counts_the_gated_refines(self):
        """One ``editdist.zhang_shasha`` span per kernel run: one per rung
        the gate did not settle, plus one per unbudgeted run, and only the
        first ``k`` refines of a query (empty heap) can run unbudgeted."""
        spec = SyntheticSpec(size_mean=8, size_stddev=2, label_count=8, decay=0.1)
        corpus = generate_dataset(spec, count=120, seed=5)
        database = TreeDatabase(corpus)
        queries = corpus[:6]
        tracer = tracing.set_tracer(Tracer())
        try:
            candidates = sum(
                knn_query(
                    corpus, query, 5, database.filter,
                    matrices=database.matrices(),
                )[1].candidates
                for query in queries
            )
        finally:
            tracing.set_tracer(None)
        spans = tracer.finished_spans()
        refines = [span for span in spans if span.name == "search.refine"]
        refined = sum(span.attributes["refined"] for span in refines)
        gated = sum(span.attributes["gated"] for span in refines)
        rungs = sum(span.attributes["rungs"] for span in refines)
        budgets = [
            span.attributes["budget"]
            for span in spans
            if span.name == "editdist.zhang_shasha"
        ]
        unbudgeted = budgets.count(None)
        assert refined == candidates
        assert 0 < gated < rungs
        assert len(budgets) - unbudgeted == rungs - gated
        assert unbudgeted <= 5 * len(queries)
        # every refine is settled by a rung or by the unbudgeted run
        assert rungs + unbudgeted >= refined

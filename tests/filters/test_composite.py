"""Unit tests for filter composition."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.editdist import tree_edit_distance
from repro.filters import (
    BinaryBranchFilter,
    HistogramFilter,
    LabelHistogramFilter,
    MaxCompositeFilter,
    SizeDifferenceFilter,
    TraversalStringFilter,
)
from repro.filters.registry import bibranch_label_filter
from repro.search.database import TreeDatabase
from repro.search.range_query import range_query
from repro.service import TreeSearchService
from repro.trees import parse_bracket
from tests.strategies import tree_pairs, trees


class TestSizeDifferenceFilter:
    def test_bound(self):
        flt = SizeDifferenceFilter()
        assert flt.bound(flt.signature(parse_bracket("a")), 4) == 3

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_sound(self, pair):
        flt = SizeDifferenceFilter()
        sig_a, sig_b = flt.signature(pair[0]), flt.signature(pair[1])
        assert flt.bound(sig_a, sig_b) <= tree_edit_distance(*pair)


class TestMaxComposite:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MaxCompositeFilter([])

    def test_name(self):
        flt = MaxCompositeFilter([SizeDifferenceFilter()], name="combo")
        assert flt.name == "combo"

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_bound_is_max_of_components(self, pair):
        components = [HistogramFilter(), SizeDifferenceFilter()]
        composite = MaxCompositeFilter(components)
        sig = composite.signature(pair[0]), composite.signature(pair[1])
        expected = max(
            child.bound(child.signature(pair[0]), child.signature(pair[1]))
            for child in components
        )
        assert composite.bound(*sig) == expected

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_sound(self, pair):
        composite = MaxCompositeFilter(
            [HistogramFilter(), BinaryBranchFilter(), SizeDifferenceFilter()]
        )
        sig = composite.signature(pair[0]), composite.signature(pair[1])
        assert composite.bound(*sig) <= tree_edit_distance(*pair)

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_refutation_sound(self, pair):
        composite = MaxCompositeFilter(
            [HistogramFilter(), TraversalStringFilter()]
        )
        sig = composite.signature(pair[0]), composite.signature(pair[1])
        distance = tree_edit_distance(*pair)
        for threshold in range(4):
            if composite.refutes(*sig, threshold):
                assert distance > threshold

    def test_fit_and_query(self):
        dataset = [parse_bracket("a(b,c)"), parse_bracket("x(y)")]
        composite = MaxCompositeFilter(
            [HistogramFilter(), SizeDifferenceFilter()]
        ).fit(dataset)
        bounds = composite.bounds(parse_bracket("a(b,c)"))
        assert bounds[0] == 0
        assert bounds[1] >= 2


@pytest.fixture
def profiled(monkeypatch):
    """Count the query positional profiles BinaryBranchFilter computes."""
    calls = []
    original = BinaryBranchFilter.signature

    def counted(self, tree):
        calls.append(tree)
        return original(self, tree)

    monkeypatch.setattr(BinaryBranchFilter, "signature", counted)
    return calls


class TestLazySignature:
    CORPUS = ["a(b,c)", "a(b,d)", "a(c(d),b)", "b(a)"]

    def test_serving_filter_runs_the_label_stage_first(self):
        flt = bibranch_label_filter()
        assert flt.name == "BiBranch+Label"
        assert [name for name, _ in flt.funnel_components()] == [
            "0:Histo-label",
            "1:BiBranch",
        ]

    def test_range_refuted_by_labels_computes_no_profile(self, profiled):
        """Every row's label histogram is ≥ 3 relabels away, so the label
        stage leaves the BiBranch stage no rows and no profile is built,
        on the matrix planes and on the per-candidate path alike."""
        database = TreeDatabase([parse_bracket(text) for text in self.CORPUS])
        query = parse_bracket("x(y,z,w)")
        for matrices in (database.matrices(), None):
            matches, stats = range_query(
                database.trees, query, 1.0, database.filter,
                matrices=matrices,
            )
            assert matches == [] and stats.candidates == 0
        assert profiled == []

    def test_range_with_label_survivors_computes_one_profile(self, profiled):
        database = TreeDatabase([parse_bracket(text) for text in self.CORPUS])
        query = parse_bracket("a(b,c)")
        matches, _ = range_query(
            database.trees, query, 1.0, database.filter,
            matrices=database.matrices(),
        )
        assert (0, 0.0) in matches
        assert profiled == [query]

    def test_service_range_and_add_skip_the_profile(self, profiled):
        """Served through the service: the query and the invalidation pass
        of a later add whose tree the label stage refutes."""
        service = TreeSearchService(
            TreeDatabase([parse_bracket(text) for text in self.CORPUS])
        )
        query = parse_bracket("x(y,z,w)")
        assert service.range(query, 1.0)[0] == []
        service.add(parse_bracket("a(b,c,d)"))
        assert service.range(query, 1.0)[0] == []  # retained: a cache hit
        assert profiled == []

    def test_parts_are_read_once_and_kept(self, profiled):
        flt = bibranch_label_filter().fit(
            [parse_bracket(text) for text in self.CORPUS]
        )
        profiled.clear()  # the fit profiled the corpus
        query = parse_bracket("a(b,c)")
        signature = flt.signature(query)
        assert len(signature) == 2 and profiled == []
        profile = signature[1]
        assert profiled == [query]
        parts = signature[:]
        assert parts[0] == LabelHistogramFilter().signature(query)
        assert parts[1] is profile
        assert profiled == [query]

    def test_knn_reads_both_parts(self, profiled):
        database = TreeDatabase([parse_bracket(text) for text in self.CORPUS])
        service = TreeSearchService(database)
        query = parse_bracket("x(y,z,w)")
        assert len(service.knn(query, 2)[0]) == 2
        assert profiled == [query]

    def test_threads_filling_one_signature_agree(self):
        """Threads racing to fill the same parts all read values whose
        bounds equal an eager signature's."""
        corpus = [parse_bracket(text) for text in self.CORPUS]
        flt = bibranch_label_filter().fit(corpus)
        eager = bibranch_label_filter().fit(corpus)
        queries = [parse_bracket(text) for text in ("a(b,c)", "b(a,d)", "x(y)")]
        expected = [eager.bounds(query) for query in queries]
        shared = [flt.signature(query) for query in queries for _ in range(50)]
        failures = []

        def worker():
            for index, signature in enumerate(shared):
                bounds = [
                    flt.bound(signature, flt.data_signature(row))
                    for row in range(len(corpus))
                ]
                if bounds != expected[index // 50]:
                    failures.append((index, bounds))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def _orders():
    return [
        MaxCompositeFilter([LabelHistogramFilter(), BinaryBranchFilter()]),
        MaxCompositeFilter([BinaryBranchFilter(), LabelHistogramFilter()]),
    ]


class TestChildOrder:
    @given(
        forest=st.lists(trees(max_leaves=6), min_size=1, max_size=8),
        query=trees(max_leaves=6),
        threshold=st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_both_orders_agree_with_the_per_row_any_refutation(
        self, forest, query, threshold
    ):
        """Survivors, ``refutes`` and ``bound`` do not depend on the child
        order, with or without matrix planes, and the survivors are the
        rows no child refutes on its own."""
        rows = list(range(len(forest)))
        expected = [
            row
            for row in rows
            if not any(
                child.refutes(
                    child.signature(query), child.signature(forest[row]),
                    threshold,
                )
                for child in (LabelHistogramFilter(), BinaryBranchFilter())
            )
        ]
        for flt in _orders():
            database = TreeDatabase(list(forest), flt=flt)
            for matrices in (database.matrices(), None):
                assert (
                    list(flt.refute_rows(
                        flt.signature(query), threshold, rows, matrices
                    ))
                    == expected
                )
            refuting = [
                row
                for row in rows
                if flt.refutes(
                    flt.signature(query), flt.data_signature(row), threshold
                )
            ]
            assert refuting == [row for row in rows if row not in expected]
        label_first, bibranch_first = _orders()
        label_first.fit(list(forest))
        bibranch_first.fit(list(forest))
        assert label_first.bounds(query) == bibranch_first.bounds(query)

"""Unit tests for the TreeDatabase facade."""

import math

import pytest

from repro import TreeDatabase
from repro.exceptions import InvalidParameterError, QueryError
from repro.filters import HistogramFilter
from repro.trees import parse_bracket

TREES = [parse_bracket(t) for t in ["a(b,c)", "a(b,d)", "x(y)", "a(b(c,d))"]]


class TestConstruction:
    def test_default_filter_is_bibranch(self):
        db = TreeDatabase(TREES)
        assert db.filter.name == "BiBranch"
        assert db.filter.size == len(TREES)

    def test_custom_filter(self):
        db = TreeDatabase(TREES, flt=HistogramFilter())
        assert db.filter.name == "Histo"

    def test_prefitted_filter_not_refitted(self):
        flt = HistogramFilter().fit(TREES)
        signatures_before = list(flt._signatures)
        TreeDatabase(TREES, flt=flt)
        assert flt._signatures == signatures_before

    def test_len_and_getitem(self):
        db = TreeDatabase(TREES)
        assert len(db) == 4
        assert db[2] == parse_bracket("x(y)")

    def test_repr(self):
        assert "TreeDatabase" in repr(TreeDatabase(TREES))


class TestQueries:
    def test_range(self):
        db = TreeDatabase(TREES)
        matches, _ = db.range_query(parse_bracket("a(b,c)"), 1)
        assert [i for i, _ in matches] == [0, 1]

    def test_knn(self):
        db = TreeDatabase(TREES)
        neighbors, _ = db.knn(parse_bracket("a(b,c)"), 2)
        assert neighbors[0] == (0, 0.0)

    def test_sequential_variants_agree(self):
        db = TreeDatabase(TREES)
        query = parse_bracket("a(b)")
        fast, _ = db.range_query(query, 2)
        brute, _ = db.sequential_range_query(query, 2)
        assert fast == brute
        fast_knn, _ = db.knn(query, 2)
        brute_knn, _ = db.sequential_knn(query, 2)
        assert sorted(d for _, d in fast_knn) == sorted(d for _, d in brute_knn)

    def test_distance_computations_tracked(self):
        db = TreeDatabase(TREES)
        assert db.distance_computations == 0
        db.range_query(parse_bracket("a(b,c)"), 1)
        first = db.distance_computations
        assert first >= 1
        db.knn(parse_bracket("a(b,c)"), 1)
        assert db.distance_computations > first

    def test_edit_distance_helper(self):
        db = TreeDatabase(TREES)
        assert db.edit_distance(TREES[0], TREES[1]) == 1.0

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        for method in ("range_query", "indexed_range_query"):
            db = TreeDatabase(TREES)
            with pytest.raises(QueryError, match="finite"):
                getattr(db, method)(parse_bracket("a(b,c)"), threshold)
            assert db.distance_computations == 0


class TestInvertedIndex:
    def test_lazy_build(self):
        db = TreeDatabase(TREES)
        assert db._candidate_index is None
        index = db.candidate_index()
        assert len(index) == len(TREES)
        assert db.candidate_index() is index  # cached
        db.indexed_range_query(parse_bracket("a"), 1)
        assert db.candidate_index() is index

    def test_index_uses_filter_level(self):
        from repro.filters import BinaryBranchFilter

        db = TreeDatabase(TREES, flt=BinaryBranchFilter(q=3))
        assert db.candidate_index().q == 3


class TestIndexedQueries:
    def test_indexed_range_matches_linear(self):
        db = TreeDatabase(TREES)
        query = parse_bracket("a(b,c)")
        for threshold in (0, 1, 3):
            indexed, _ = db.indexed_range_query(query, threshold)
            linear, _ = db.range_query(query, threshold)
            assert indexed == linear

    def test_storeless_database_rejected(self):
        db = TreeDatabase(TREES, flt=HistogramFilter().fit(TREES))
        assert db.features is None  # prefitted: nothing built a store
        with pytest.raises(InvalidParameterError, match="feature store"):
            db.indexed_range_query(parse_bracket("a"), 1)
        assert db.distance_computations == 0


class TestDynamicInsertion:
    def test_add_returns_index_and_grows(self):
        db = TreeDatabase(TREES)
        index = db.add(parse_bracket("new(tree)"))
        assert index == len(TREES)
        assert len(db) == len(TREES) + 1

    def test_added_tree_found_by_queries(self):
        db = TreeDatabase(TREES)
        tree = parse_bracket("fresh(node,here)")
        index = db.add(tree)
        matches, _ = db.range_query(parse_bracket("fresh(node,here)"), 0)
        assert matches == [(index, 0.0)]
        neighbors, _ = db.knn(parse_bracket("fresh(node,here)"), 1)
        assert neighbors == [(index, 0.0)]

    def test_add_extends_built_index(self):
        db = TreeDatabase(TREES)
        index = db.candidate_index()
        db.add(parse_bracket("brand(new)"))
        assert index.stale()
        matches, _ = db.indexed_range_query(parse_bracket("brand(new)"), 0)
        assert matches == [(len(TREES), 0.0)]
        assert len(index) == len(TREES) + 1
        assert not index.stale()

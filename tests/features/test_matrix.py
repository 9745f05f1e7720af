"""Tests for the corpus-level matrix planes (repro.features.matrix).

The load-bearing property: for every filter family, ``refute_rows``
keeps exactly the rows the per-candidate loop keeps — with the planes
and without them, on random corpora, including after incremental adds —
and the exact ``order_keys`` kernels return exactly ``bounds``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.matrix import FeatureMatrices, MatrixPlane
from repro.features.store import FeatureStore
from repro.filters.binary_branch import BinaryBranchFilter, BranchCountFilter
from repro.filters.composite import MaxCompositeFilter, SizeDifferenceFilter
from repro.filters.histogram import (
    DegreeHistogramFilter,
    HistogramFilter,
    LabelHistogramFilter,
)
from repro.trees.parse import parse_bracket

from tests.strategies import trees

FAMILIES = [
    ("bibranch", BinaryBranchFilter),
    ("bibranchcount", BranchCountFilter),
    ("histogram", HistogramFilter),
    (
        "histogram-folded",
        lambda: HistogramFilter(label_bins=3, degree_bins=3, height_cap=3),
    ),
    ("histo-label", LabelHistogramFilter),
    ("histo-degree", DegreeHistogramFilter),
    ("sizediff", SizeDifferenceFilter),
    (
        "composite",
        lambda: MaxCompositeFilter(
            [BranchCountFilter(), SizeDifferenceFilter(), HistogramFilter()]
        ),
    ),
]


def _loop_survivors(flt, query_signature, threshold, count):
    return [
        index
        for index in range(count)
        if not flt.refutes(query_signature, flt.data_signature(index), threshold)
    ]


# ----------------------------------------------------------------------
# MatrixPlane unit behavior
# ----------------------------------------------------------------------
class TestMatrixPlane:
    def test_append_grows_both_axes(self):
        plane = MatrixPlane("t")
        for row in range(20):
            plane.append([row], [row + 1])
        assert plane.rows == 20
        assert plane.width == 20
        assert plane.matrix[7, 7] == 8
        assert plane.matrix[7, 3] == 0
        assert plane.row_totals[7] == 8

    def test_append_unsorted_dims(self):
        plane = MatrixPlane("t")
        plane.append([5, 1, 9], [2, 3, 4])
        assert plane.width == 10
        assert plane.matrix[0, 9] == 4
        assert plane.row_totals[0] == 9

    def test_widen_exposes_zero_columns(self):
        plane = MatrixPlane("t")
        plane.append([0], [7])
        plane.ensure_width(100)
        assert plane.width == 100
        assert plane.matrix.shape == (1, 100)
        assert plane.matrix[0, 99] == 0

    def test_explicit_total_overrides_sum(self):
        plane = MatrixPlane("t")
        plane.append([0, 1], [1, 1], total=5)
        assert plane.row_totals[0] == 5

    def test_l1_matches_dict_l1(self):
        plane = MatrixPlane("t")
        rows = [{0: 2, 3: 1}, {1: 4}, {0: 1, 1: 1, 2: 1}]
        for counts in rows:
            plane.append(list(counts), list(counts.values()))
        query = {0: 1, 2: 2, 7: 3}  # dim 7 is outside the plane

        def dict_l1(a, b):
            keys = set(a) | set(b)
            return sum(abs(a.get(k, 0) - b.get(k, 0)) for k in keys)

        dims = np.array([0, 2], dtype=np.int64)
        counts = np.array([1, 2], dtype=np.int64)
        got = plane.l1(dims, counts, total=6)
        expected = [dict_l1(query, row) for row in rows]
        assert list(got) == expected
        # row-subset gather agrees with the full pass
        got_subset = plane.l1(dims, counts, total=6, rows=[2, 0])
        assert list(got_subset) == [expected[2], expected[0]]


# ----------------------------------------------------------------------
# Survivor-set equivalence: matrix cascade == per-candidate loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,factory", FAMILIES)
@settings(max_examples=25, deadline=None)
@given(
    corpus=st.lists(trees(max_leaves=6), min_size=3, max_size=8),
    added=st.lists(trees(max_leaves=6), min_size=0, max_size=3),
    query=trees(max_leaves=6),
    threshold=st.sampled_from([0.0, 1.0, 2.0, 4.0]),
    planes=st.booleans(),
)
def test_refute_rows_equals_loop(
    label, factory, corpus, added, query, threshold, planes
):
    flt = factory().fit(corpus)
    store = FeatureStore(flt.required_q_levels() or (2,)).fit(corpus)
    matrices = store.matrices() if planes else None
    for phase_trees in ([], added):
        for tree in phase_trees:
            flt.add(tree)
            store.add(tree)
        count = flt.size
        query_signature = flt.signature(query)
        expected = _loop_survivors(flt, query_signature, threshold, count)
        got = list(
            flt.refute_rows(query_signature, threshold, range(count), matrices)
        )
        assert [int(i) for i in got] == expected, (
            f"{label}: matrix survivors diverge at τ={threshold}"
        )


@pytest.mark.parametrize(
    "label,factory",
    [
        ("bibranchcount", BranchCountFilter),
        ("sizediff", SizeDifferenceFilter),
        ("histo-label", LabelHistogramFilter),
        ("histo-degree", DegreeHistogramFilter),
        (
            "composite",
            lambda: MaxCompositeFilter(
                [BranchCountFilter(), SizeDifferenceFilter()]
            ),
        ),
    ],
)
@settings(max_examples=25, deadline=None)
@given(
    corpus=st.lists(trees(max_leaves=6), min_size=3, max_size=8),
    query=trees(max_leaves=6),
)
def test_lower_bounds_matrix_exact(label, factory, corpus, query):
    """These families' ``order_keys`` are exact: ``bounds``, to the last bit."""
    flt = factory().fit(corpus)
    store = FeatureStore(flt.required_q_levels() or (2,)).fit(corpus)
    matrices = store.matrices()
    query_signature = flt.signature(query)
    vectorized = flt.order_keys(query_signature, matrices)
    assert vectorized is not None, f"{label}: kernel unexpectedly unavailable"
    assert [float(v) for v in vectorized] == [
        float(b) for b in flt.bounds(query)
    ]


def test_folded_histogram_falls_back_to_loop():
    corpus = [parse_bracket(b) for b in ["a(b,c)", "a(b(c,d))", "e"]]
    flt = HistogramFilter(label_bins=2, degree_bins=2, height_cap=2).fit(corpus)
    store = FeatureStore((2,)).fit(corpus)
    query = parse_bracket("a(b)")
    signature = flt.signature(query)
    expected = _loop_survivors(flt, signature, 1.0, 3)
    for matrices in (store.matrices(), None):
        assert list(flt.refute_rows(signature, 1.0, range(3), matrices)) == expected
    assert flt.order_keys(signature, store.matrices()) is None


def test_standalone_filter_translates_vocabulary():
    """A filter fitted outside the store still gets loop-identical values."""
    corpus = [parse_bracket(b) for b in ["a(b,c)", "x(y)", "a(b(c))", "d"]]
    flt = BranchCountFilter().fit(corpus)  # own vocabulary
    store = FeatureStore((2,)).fit(list(reversed(corpus)))  # different ids
    matrices = store.matrices()
    query = parse_bracket("a(b,z)")
    signature = flt.signature(query)
    vectorized = flt.order_keys(signature, matrices)
    # the store indexes the corpus reversed, so compare per-tree by content
    reference = BranchCountFilter().fit(list(reversed(corpus)))
    assert [float(v) for v in vectorized] == [
        float(b) for b in reference.bounds(query)
    ]


# ----------------------------------------------------------------------
# FeatureMatrices sync + stats
# ----------------------------------------------------------------------
def test_matrices_sync_after_add():
    store = FeatureStore((2,)).fit([parse_bracket("a(b)"), parse_bracket("c")])
    matrices = store.matrices()
    assert matrices.branch_plane(2).rows == 2
    store.add(parse_bracket("a(b,c)"))
    assert matrices.branch_plane(2).rows == 3
    assert len(matrices.size_column()) == 3
    assert int(matrices.size_column()[2]) == 3


def test_reading_one_plane_syncs_every_built_plane(monkeypatch):
    """The planes grow together, branch planes first, even when a cascade
    reads the label plane first."""
    store = FeatureStore((2,)).fit([parse_bracket("a(b)"), parse_bracket("c")])
    matrices = store.matrices()
    branch = matrices.branch_plane(2)
    labels = matrices.histogram_plane("labels")
    grown = []
    extend = MatrixPlane.extend

    def recording(plane, dims, counts, totals=None):
        if len(dims):
            grown.append(plane.kind)
        extend(plane, dims, counts, totals)

    monkeypatch.setattr(MatrixPlane, "extend", recording)
    store.add(parse_bracket("x(y(z),w)"))
    assert matrices.histogram_plane("labels") is labels
    assert grown == ["branch-q2", "histogram-labels"]
    assert (branch.rows, labels.rows) == (3, 3)
    assert branch.width == len(store.vocabulary)
    assert labels.width == len(store.histogram_vocabulary("labels"))

def test_stats_reports_every_family():
    store = FeatureStore((2,)).fit(
        [parse_bracket("a(b,c)"), parse_bracket("a(b(d))")]
    )
    stats = store.matrices().stats()
    assert set(stats) == {
        "branch-q2", "histogram-labels", "histogram-degrees", "sizes"
    }
    for kind, shape in stats.items():
        assert shape["rows"] == 2
        assert shape["dtype"] == ("int64" if kind == "sizes" else "int32")
        assert shape["bytes"] > 0


# ----------------------------------------------------------------------
# Bulk sync: one scatter per sync equals row-by-row construction
# ----------------------------------------------------------------------
def _dense(rows, width):
    """Row-by-row reference: a python loop over the sparse rows."""
    expected = np.zeros((len(rows), width), dtype=np.int64)
    for position, (dims, counts) in enumerate(rows):
        for dim, count in zip(dims, counts):
            expected[position, dim] = count
    return expected


@settings(max_examples=25, deadline=None)
@given(
    corpus=st.lists(trees(max_leaves=6), min_size=1, max_size=6),
    batches=st.lists(
        st.lists(trees(max_leaves=6), min_size=1, max_size=3), max_size=3
    ),
)
def test_bulk_planes_equal_per_row_planes(corpus, batches):
    store = FeatureStore((2,)).fit(corpus)
    matrices = store.matrices()
    for batch in [[]] + batches:
        for tree in batch:
            store.add(tree)
        branch = matrices.branch_plane(2)
        vectors = store.packed_vectors(2)
        rows = [(vector.dims, vector.counts) for vector in vectors]
        assert branch.matrix.dtype == np.int32
        assert np.array_equal(branch.matrix, _dense(rows, branch.width))
        assert list(branch.row_totals) == [vector.total for vector in vectors]
        for family in ("labels", "degrees"):
            plane = matrices.histogram_plane(family)
            rows = [
                store.histogram_columns(family, index)
                for index in range(len(store))
            ]
            assert plane.matrix.dtype == np.int32
            assert plane.width == len(store.histogram_vocabulary(family))
            assert np.array_equal(plane.matrix, _dense(rows, plane.width))
            assert list(plane.row_totals) == [sum(counts) for _, counts in rows]

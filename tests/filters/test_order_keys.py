"""k-NN ordering keys never exceed bounds: ``order_keys[row] ≤ bound(q, row)``.

The lazy k-NN stream (:class:`~repro.search.knn.BoundStream`) bounds a
row only once its key could still place it before the rows already
bounded; a key above the bound would reorder answers.  Checked for every
registry filter and for composites with a keyless child, on a standalone
fitted filter against a separately fitted store (the oracle setup), after
incremental adds too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import FeatureStore
from repro.filters import (
    DEFAULT_FILTER,
    FILTERS,
    BranchCountFilter,
    HeightHistogramFilter,
    HistogramFilter,
    LabelHistogramFilter,
    MaxCompositeFilter,
)
from repro.trees import parse_bracket
from tests.strategies import trees

FAMILIES = sorted(FILTERS.items()) + [
    (
        "composite-keyless-child",
        lambda: MaxCompositeFilter([LabelHistogramFilter(), HistogramFilter()]),
    ),
    (
        "composite-count-height",
        lambda: MaxCompositeFilter(
            [HeightHistogramFilter(), BranchCountFilter()]
        ),
    ),
    (
        "composite-all-keyless",
        lambda: MaxCompositeFilter([HeightHistogramFilter(), HistogramFilter()]),
    ),
]


def _fitted(factory, forest):
    flt = factory().fit(forest)
    store = FeatureStore(flt.required_q_levels() or (2,)).fit(forest)
    return flt, store


@pytest.mark.parametrize(
    "factory", [factory for _, factory in FAMILIES],
    ids=[name for name, _ in FAMILIES],
)
@given(
    forest=st.lists(trees(max_leaves=6), min_size=1, max_size=6),
    added=st.lists(trees(max_leaves=6), max_size=2),
    query=trees(max_leaves=6),
)
@settings(max_examples=25, deadline=None)
def test_order_keys_never_exceed_bounds(factory, forest, added, query):
    flt, store = _fitted(factory, forest)
    for tree in added:
        flt.add(tree)
        store.add(tree)
    signature = flt.signature(query)
    keys = flt.order_keys(signature, store.matrices())
    if keys is None:
        return  # no keys: k-NN falls back to the full (bound, row) sort
    bounds = flt.bounds(query)
    assert len(keys) == len(bounds)
    assert all(key <= bound for key, bound in zip(keys, bounds))


def test_composites_skip_keyless_children():
    forest = [parse_bracket(text) for text in ["a(b,c)", "x(y(z))", "a(b(c))"]]
    query = parse_bracket("a(b,d)")
    label_keys = LabelHistogramFilter().fit(forest)
    _, store = _fitted(LabelHistogramFilter, forest)
    expected = label_keys.order_keys(label_keys.signature(query), store.matrices())
    for children, want in (
        ([LabelHistogramFilter, HistogramFilter], list(expected)),
        ([HeightHistogramFilter, HistogramFilter], None),
    ):
        flt, store = _fitted(
            lambda: MaxCompositeFilter([child() for child in children]), forest
        )
        keys = flt.order_keys(flt.signature(query), store.matrices())
        assert (keys if keys is None else list(keys)) == want


def test_serving_filter_orders_off_the_planes():
    forest = [parse_bracket(text) for text in ["a(b,c)", "x(y(z))", "a(b(c))"]]
    flt, store = _fitted(FILTERS[DEFAULT_FILTER], forest)
    assert flt.order_keys(flt.signature(forest[0]), store.matrices()) is not None

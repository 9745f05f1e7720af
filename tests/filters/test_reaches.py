"""``LowerBoundFilter.reaches(q, d, t)`` decides exactly ``bound(q, d) >= t``.

The overrides (label histogram, BiBranch, composite) settle the question
without computing the bound; these tests pin them to the plain comparison
at integer, fractional, zero, negative and out-of-range targets.  A
fractional target is where a careless cap goes wrong: ``⌈L1/2⌉ ≥ 0.5``
needs ``L1 ≥ 1``, not ``L1 ≥ 2·0.5 − 1 = 0``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_dblp_dataset
from repro.editdist import weighted_costs
from repro.filters import (
    FILTERS,
    BinaryBranchFilter,
    CostScaledFilter,
    LabelHistogramFilter,
)
from repro.filters.registry import bibranch_label_filter
from repro.trees import parse_bracket
from tests.strategies import tree_pairs

FACTORIES = dict(FILTERS)
FACTORIES.update(
    {
        "bibranch-q3": lambda: BinaryBranchFilter(q=3),
        "bibranch-exact": lambda: BinaryBranchFilter(exact_matching=True),
        "label": LabelHistogramFilter,
        "costscaled": lambda: CostScaledFilter(
            bibranch_label_filter(), weighted_costs(2.0, 3.0, 1.5)
        ),
        "costscaled-tenth": lambda: CostScaledFilter(
            BinaryBranchFilter(), weighted_costs(0.1, 0.1, 0.1)
        ),
    }
)

DBLP = generate_dblp_dataset(16, seed=7)


def _targets(bound, size):
    """Targets around 0, 1, 2, the bound and the larger tree size."""
    fixed = {-2, -1, -0.5, 0, 0.0, 0.5, 1, 1.5, 2, 2.5, math.inf}
    around = {
        anchor + offset
        for anchor in (bound, size)
        for offset in (-1, -0.5, 0, 0.5, 1)
    }
    return fixed | around


def _check(factory, query_tree, data_tree):
    flt = factory().fit([data_tree])
    query = flt.signature(query_tree)
    data = flt.data_signature(0)
    bound = flt.bound(query, data)
    size = max(query_tree.size, data_tree.size)
    for target in _targets(bound, size):
        fresh = flt.signature(query_tree)  # an unread lazy signature too
        for signature in (query, fresh):
            assert flt.reaches(signature, data, target) == (bound >= target), (
                flt.name,
                bound,
                target,
            )


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestReachesEqualsBound:
    @given(tree_pairs(max_leaves=8))
    @settings(max_examples=30, deadline=None)
    def test_synthetic_pairs(self, name, pair):
        _check(FACTORIES[name], *pair)

    def test_dblp_pairs(self, name):
        for query_tree in DBLP:
            for data_tree in DBLP:
                _check(FACTORIES[name], query_tree, data_tree)


class TestLabelRefutes:
    """The label filter's ``refutes(τ)`` runs the same capped walk."""

    @given(
        tree_pairs(max_leaves=8),
        st.sampled_from([-1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2, 2.5, 3, 4.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_bound_above_threshold(self, pair, threshold):
        flt = LabelHistogramFilter().fit([pair[1]])
        query = flt.signature(pair[0])
        data = flt.data_signature(0)
        expected = flt.bound(query, data) > threshold
        assert flt.refutes(query, data, threshold) == expected

    def test_fractional_target_needs_a_positive_distance(self):
        flt = LabelHistogramFilter().fit([parse_bracket("a(b)")])
        query = flt.signature(parse_bracket("a(b)"))
        data = flt.data_signature(0)
        assert flt.bound(query, data) == 0
        assert not flt.reaches(query, data, 0.5)
        assert not flt.refutes(query, data, 0)
        assert flt.refutes(query, data, -0.5)


class TestCompositeReadsLazily:
    def test_label_settled_pair_builds_no_positional_profile(self, monkeypatch):
        flt = bibranch_label_filter().fit([parse_bracket("x(y(z),w,v)")])
        calls = []
        original = BinaryBranchFilter.signature

        def counting(self, tree):
            calls.append(tree)
            return original(self, tree)

        monkeypatch.setattr(BinaryBranchFilter, "signature", counting)
        query = flt.signature(parse_bracket("a(b,c)"))
        # labels differ everywhere: L1 = 7, so the label bound is 4
        assert flt.reaches(query, flt.data_signature(0), 4)
        assert calls == []
        assert not flt.reaches(query, flt.data_signature(0), 5)
        assert len(calls) == 1  # the label part could not settle it

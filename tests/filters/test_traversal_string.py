"""Unit and property tests for the Guha-style traversal-string filter."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.editdist import tree_edit_distance
from repro.filters import TraversalStringFilter
from repro.trees import parse_bracket
from tests.strategies import tree_pairs


class TestBound:
    def test_identical(self):
        flt = TraversalStringFilter()
        tree = parse_bracket("a(b(c),d)")
        assert flt.bound(flt.signature(tree), flt.signature(tree.clone())) == 0

    def test_uses_both_traversals(self):
        # a(b,c) vs a(c,b): preorder abc/acb (distance 2) — the bound sees it
        flt = TraversalStringFilter()
        sig_a = flt.signature(parse_bracket("a(b,c)"))
        sig_b = flt.signature(parse_bracket("a(c,b)"))
        assert flt.bound(sig_a, sig_b) == 2

    @given(tree_pairs())
    @settings(max_examples=80, deadline=None)
    def test_sound(self, pair):
        flt = TraversalStringFilter()
        sig_a, sig_b = flt.signature(pair[0]), flt.signature(pair[1])
        assert flt.bound(sig_a, sig_b) <= tree_edit_distance(*pair)

    @given(tree_pairs(), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_refutation_sound(self, pair, threshold):
        flt = TraversalStringFilter()
        sig_a, sig_b = flt.signature(pair[0]), flt.signature(pair[1])
        if flt.refutes(sig_a, sig_b, threshold):
            assert tree_edit_distance(*pair) > threshold

    @given(tree_pairs(), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_refutation_agrees_with_bound(self, pair, threshold):
        flt = TraversalStringFilter()
        sig_a, sig_b = flt.signature(pair[0]), flt.signature(pair[1])
        assert flt.refutes(sig_a, sig_b, threshold) == (
            flt.bound(sig_a, sig_b) > threshold
        )

    @pytest.mark.parametrize("threshold", [math.inf, -0.5, 1.5])
    def test_refutes_at_fractional_and_unbounded_thresholds(self, threshold):
        """``refutes`` is ``bound > τ`` for every real τ: ``inf`` refutes
        nothing, a negative τ refutes everything (TED ≥ 0 > τ), and a
        fractional τ rounds down."""
        flt = TraversalStringFilter()
        for left, right in [
            ("a(b,c)", "a(b,c)"),
            ("a(b)", "a(c)"),
            ("a(b,c)", "a(c,b)"),
            ("a(b(c),d)", "x"),
        ]:
            sig_a = flt.signature(parse_bracket(left))
            sig_b = flt.signature(parse_bracket(right))
            assert flt.refutes(sig_a, sig_b, threshold) == (
                flt.bound(sig_a, sig_b) > threshold
            )

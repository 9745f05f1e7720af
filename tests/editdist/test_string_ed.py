"""Unit and property tests for string edit distance."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.editdist import string_edit_distance, string_edit_distance_bounded

short_strings = st.text(alphabet="abc", max_size=12)


class TestKnownValues:
    def test_classic(self):
        assert string_edit_distance("kitten", "sitting") == 3

    def test_identical(self):
        assert string_edit_distance("abc", "abc") == 0

    def test_empty_vs_nonempty(self):
        assert string_edit_distance("", "abc") == 3
        assert string_edit_distance("abc", "") == 3

    def test_both_empty(self):
        assert string_edit_distance("", "") == 0

    def test_works_on_lists(self):
        assert string_edit_distance(["x", "y"], ["x", "z"]) == 1

    def test_substitution_costs_one(self):
        assert string_edit_distance("abc", "axc") == 1


class TestProperties:
    @given(short_strings, short_strings)
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, a, b):
        assert string_edit_distance(a, b) == string_edit_distance(b, a)

    @given(short_strings, short_strings, short_strings)
    @settings(max_examples=60, deadline=None)
    def test_triangle(self, a, b, c):
        dab = string_edit_distance(a, b)
        dbc = string_edit_distance(b, c)
        dac = string_edit_distance(a, c)
        assert dac <= dab + dbc

    @given(short_strings, short_strings)
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_lengths(self, a, b):
        distance = string_edit_distance(a, b)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))


class TestBoundedVariant:
    def test_within_bound_returns_distance(self):
        assert string_edit_distance_bounded("kitten", "sitting", 3) == 3
        assert string_edit_distance_bounded("kitten", "sitting", 10) == 3

    def test_exceeding_bound_returns_none(self):
        assert string_edit_distance_bounded("kitten", "sitting", 2) is None

    def test_length_pruning(self):
        assert string_edit_distance_bounded("a", "aaaaaaa", 3) is None

    def test_zero_bound(self):
        assert string_edit_distance_bounded("abc", "abc", 0) == 0
        assert string_edit_distance_bounded("abc", "abd", 0) is None

    def test_negative_bound(self):
        assert string_edit_distance_bounded("a", "a", -1) is None

    def test_empty_strings(self):
        assert string_edit_distance_bounded("", "", 0) == 0
        assert string_edit_distance_bounded("", "ab", 1) is None
        assert string_edit_distance_bounded("", "ab", 2) == 2

    @given(short_strings, short_strings, st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    # a shared prefix and suffix that overlap in the shorter sequence
    @example("aa", "aaa", 1)
    @example("aba", "aa", 1)
    @example("abcab", "ab", 3)
    def test_agrees_with_unbounded(self, a, b, bound):
        exact = string_edit_distance(a, b)
        bounded = string_edit_distance_bounded(a, b, bound)
        if exact <= bound:
            assert bounded == exact
        else:
            assert bounded is None

    @given(
        st.lists(st.integers(0, 6), max_size=150),
        st.lists(st.integers(0, 6), max_size=150),
    )
    @settings(max_examples=60, deadline=None)
    def test_long_sequences_agree_with_the_dp(self, a, b):
        """Bit vectors wider than a machine word: still the DP's distance."""
        assert string_edit_distance_bounded(a, b, 150) == string_edit_distance(a, b)

"""Unit and property tests for the positional binary branch distance (§4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    branch_distance,
    qlevel_bound_factor,
    exact_position_matching,
    greedy_interval_matching,
    positional_branch_distance,
    positional_profile,
    search_lower_bound,
)
from repro.core.positional import positional_refutes
from repro.editdist import tree_edit_distance
from repro.trees import parse_bracket
from tests.strategies import tree_pairs

T1 = "a(b(c,d),b(c,d),e)"
T2 = "a(b(c,d,b(e)),c,d,e)"

sorted_ints = st.lists(st.integers(0, 30), max_size=8).map(sorted)


class TestGreedyMatching:
    def test_exact_positions(self):
        assert greedy_interval_matching([1, 2, 3], [1, 2, 3], 0) == 3

    def test_no_overlap(self):
        assert greedy_interval_matching([1, 2], [10, 20], 2) == 0

    def test_partial(self):
        assert greedy_interval_matching([1, 10], [9, 11], 1) == 1

    def test_empty(self):
        assert greedy_interval_matching([], [1, 2], 5) == 0

    @given(sorted_ints, sorted_ints, st.integers(0, 10))
    @settings(max_examples=150, deadline=None)
    def test_greedy_is_optimal_in_one_dimension(self, a, b, pr):
        """The two-pointer greedy equals the exact maximum matching."""
        pairs_a = [(x, 0) for x in a]  # collapse to 1D: post always matches
        pairs_b = [(x, 0) for x in b]
        exact = exact_position_matching(pairs_a, pairs_b, pr)
        # exact matching with post constraint |0-0| <= pr is 1D on pre
        assert greedy_interval_matching(a, b, pr) == exact

    @given(sorted_ints, sorted_ints, st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_pr(self, a, b, pr):
        assert greedy_interval_matching(a, b, pr) <= greedy_interval_matching(
            a, b, pr + 1
        )

    @given(sorted_ints, sorted_ints, st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_min_size(self, a, b, pr):
        assert greedy_interval_matching(a, b, pr) <= min(len(a), len(b))


class TestExactMatching:
    def test_two_constraints_bite(self):
        # pre positions match within 1, but post positions are far apart
        pairs_a = [(1, 1)]
        pairs_b = [(1, 10)]
        assert exact_position_matching(pairs_a, pairs_b, 1) == 0

    def test_augmenting_path_needed(self):
        # a1 can match b1 or b2; a2 only b1 -> optimal assigns a1->b2
        pairs_a = [(1, 1), (2, 2)]
        pairs_b = [(2, 2), (0, 0)]
        assert exact_position_matching(pairs_a, pairs_b, 2) == 2

    @given(
        st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=6),
        st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=6),
        st.integers(0, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_never_exceeds_greedy_min(self, pairs_a, pairs_b, pr):
        """The paper's approximation over-matches, never under-matches."""
        pre_a = sorted(p for p, _ in pairs_a)
        pre_b = sorted(p for p, _ in pairs_b)
        post_a = sorted(q for _, q in pairs_a)
        post_b = sorted(q for _, q in pairs_b)
        approx = min(
            greedy_interval_matching(pre_a, pre_b, pr),
            greedy_interval_matching(post_a, post_b, pr),
        )
        assert exact_position_matching(pairs_a, pairs_b, pr) <= approx


class TestPosBDist:
    def test_zero_for_identical_trees(self):
        t = parse_bracket(T1)
        assert positional_branch_distance(t, parse_bracket(T1), 0) == 0

    def test_paper_walkthrough_pr1(self):
        """§4.2: with pr=1, (c(ε,d),3,1) of T1 maps only to (c(ε,d),3,1) of
        T2; (c,6,4) and (c,7,6) cannot match; (e,8,7) matches (e,9,8)."""
        t1, t2 = parse_bracket(T1), parse_bracket(T2)
        # c(ε,d) occurs at (3,1),(6,4) in T1 and (3,1),(7,6) in T2: with
        # pr=1 only one pair matches; e(ε,ε) at (8,7) in T1 and (6,3),(9,8)
        # in T2: one match.  Mismatched counts contribute the rest.
        pos = positional_branch_distance(t1, t2, 1)
        plain = branch_distance(t1, t2)
        assert pos >= plain
        # contributions: a(b,ε) matches; c: 2+2-2*1=2 (vs 0 unrestricted);
        # e: 1+2-2*1 = 1; plus the 6 branches unique to one tree = 6 + 1
        assert pos == 9 + 2  # two extra over plain BDist

    def test_decreases_with_pr(self):
        t1, t2 = parse_bracket(T1), parse_bracket(T2)
        values = [positional_branch_distance(t1, t2, pr) for pr in range(0, 10)]
        assert values == sorted(values, reverse=True)

    def test_equals_bdist_at_large_pr(self):
        t1, t2 = parse_bracket(T1), parse_bracket(T2)
        assert positional_branch_distance(t1, t2, 100) == branch_distance(t1, t2)

    def test_profile_arguments(self):
        p1 = positional_profile(parse_bracket(T1))
        p2 = positional_profile(parse_bracket(T2))
        assert positional_branch_distance(p1, p2, 1) == positional_branch_distance(
            parse_bracket(T1), parse_bracket(T2), 1
        )

    def test_level_mismatch_rejected(self):
        p2 = positional_profile(parse_bracket("a(b)"), q=2)
        p3 = positional_profile(parse_bracket("a(b)"), q=3)
        with pytest.raises(ValueError):
            positional_branch_distance(p2, p3, 1)
        with pytest.raises(ValueError):
            search_lower_bound(p2, p3)
        with pytest.raises(ValueError):
            positional_refutes(p2, p3, 1)

    @given(tree_pairs(), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_proposition_4_2(self, pair, threshold):
        """PosBDist(T1, T2, l) > 5l  =>  EDist(T1, T2) > l."""
        t1, t2 = pair
        if positional_branch_distance(t1, t2, threshold) > 5 * threshold:
            assert tree_edit_distance(t1, t2) > threshold

    @given(tree_pairs(), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_proposition_4_2_exact_matching(self, pair, threshold):
        t1, t2 = pair
        if (
            positional_branch_distance(t1, t2, threshold, exact=True)
            > 5 * threshold
        ):
            assert tree_edit_distance(t1, t2) > threshold

    @given(tree_pairs(), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_exact_matching_gives_tighter_distance(self, pair, pr):
        t1, t2 = pair
        approx = positional_branch_distance(t1, t2, pr)
        exact = positional_branch_distance(t1, t2, pr, exact=True)
        assert exact >= approx  # fewer matches -> larger distance


class TestPositionalRefutes:
    """The capped Proposition 4.2 test stops early but decides exactly
    what the full distance decides."""

    @given(tree_pairs(), st.integers(-1, 8), st.sampled_from([2, 3]))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_uncapped_distance(self, pair, pr, q):
        t1, t2 = pair
        p1, p2 = positional_profile(t1, q), positional_profile(t2, q)
        factor = qlevel_bound_factor(q)
        expected = positional_branch_distance(p1, p2, pr) > factor * pr
        assert positional_refutes(p1, p2, pr) == expected

    @given(tree_pairs(max_leaves=5), st.integers(-1, 6))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_uncapped_distance_exact_matching(self, pair, pr):
        t1, t2 = pair
        p1, p2 = positional_profile(t1), positional_profile(t2)
        expected = positional_branch_distance(p1, p2, pr, exact=True) > 5 * pr
        assert positional_refutes(p1, p2, pr, exact=True) == expected


def smallest_satisfying_range(t1, t2, q=2, exact=False):
    """SearchLBound's definition, by linear scan: the smallest ``pr`` in
    ``[||T1|−|T2||, max(|T1|,|T2|)]`` with ``PosBDist(pr) ≤ factor·pr``."""
    factor = qlevel_bound_factor(q)
    high = max(t1.size, t2.size)
    for pr in range(abs(t1.size - t2.size), high + 1):
        if positional_branch_distance(t1, t2, pr, q=q, exact=exact) <= factor * pr:
            return pr
    return high


class TestSearchLowerBound:
    def test_zero_for_identical(self):
        assert search_lower_bound(parse_bracket(T1), parse_bracket(T1)) == 0

    def test_paper_pair(self):
        t1, t2 = parse_bracket(T1), parse_bracket(T2)
        bound = search_lower_bound(t1, t2)
        assert 1 <= bound <= tree_edit_distance(t1, t2)

    @given(tree_pairs())
    @settings(max_examples=100, deadline=None)
    def test_sound(self, pair):
        t1, t2 = pair
        assert search_lower_bound(t1, t2) <= tree_edit_distance(t1, t2)

    @given(tree_pairs())
    @settings(max_examples=60, deadline=None)
    def test_sound_with_exact_matching(self, pair):
        t1, t2 = pair
        assert search_lower_bound(t1, t2, exact=True) <= tree_edit_distance(t1, t2)

    @given(tree_pairs())
    @settings(max_examples=60, deadline=None)
    def test_exact_at_least_as_tight(self, pair):
        t1, t2 = pair
        assert search_lower_bound(t1, t2, exact=True) >= search_lower_bound(t1, t2)

    @given(tree_pairs(max_leaves=8), st.sampled_from([3, 4]))
    @settings(max_examples=50, deadline=None)
    def test_sound_for_higher_levels(self, pair, q):
        t1, t2 = pair
        assert search_lower_bound(t1, t2, q=q) <= tree_edit_distance(t1, t2)

    @given(tree_pairs(), st.sampled_from([2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_seeded_search_equals_the_definition(self, pair, q):
        """Starting at the count bound and galloping changes no value."""
        t1, t2 = pair
        assert search_lower_bound(t1, t2, q=q) == smallest_satisfying_range(t1, t2, q)

    @given(tree_pairs(max_leaves=5))
    @settings(max_examples=60, deadline=None)
    def test_seeded_search_equals_the_definition_exact_matching(self, pair):
        t1, t2 = pair
        assert search_lower_bound(t1, t2, exact=True) == smallest_satisfying_range(
            t1, t2, exact=True
        )

    @given(tree_pairs())
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, pair):
        t1, t2 = pair
        assert search_lower_bound(t1, t2) == search_lower_bound(t2, t1)

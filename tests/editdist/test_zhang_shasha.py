"""Unit and property tests for the Zhang–Shasha edit distance."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.editdist import (
    EditDistanceCounter,
    memoized_edit_distance,
    naive_upper_bound,
    prepare_tree,
    size_lower_bound,
    tree_edit_distance,
    weighted_costs,
)
from repro.exceptions import InvalidParameterError
from repro.obs import tracing
from repro.obs.tracing import Tracer
from repro.trees import parse_bracket, random_edit_script
from tests.strategies import tree_pairs, trees

LABELS = ["a", "b", "c"]

#: budgets the kernel must honour: integral, fractional and unbounded
BUDGETS = st.one_of(
    st.integers(0, 9), st.floats(0, 9, allow_nan=False), st.just(math.inf)
)


def ted(a, b):
    return tree_edit_distance(parse_bracket(a), parse_bracket(b))


def assert_within_budget(t1, t2, budget, reference):
    """The budget contract: exact when ``reference ≤ budget``, else above."""
    value = tree_edit_distance(t1, t2, budget=budget)
    if reference <= budget:
        assert value == reference
    else:
        assert value > budget


class TestKnownDistances:
    def test_identical(self):
        assert ted("a(b(c,d),e)", "a(b(c,d),e)") == 0

    def test_single_relabel(self):
        assert ted("a(b,c)", "a(b,x)") == 1

    def test_root_relabel(self):
        assert ted("a(b,c)", "x(b,c)") == 1

    def test_single_leaf_delete(self):
        assert ted("a(b,c)", "a(b)") == 1

    def test_inner_delete_splices(self):
        # deleting b lifts c and d
        assert ted("a(b(c,d),e)", "a(c,d,e)") == 1

    def test_leaves_vs_chain(self):
        # a(b,c) -> a(b(c)) : one delete + one insert (move c under b)
        assert ted("a(b,c)", "a(b(c))") == 2

    def test_completely_disjoint(self):
        assert ted("a", "x(y,z)") == 3  # relabel the root + two inserts

    def test_paper_figure_1_pair(self):
        # Figure 1's trees: delete the second b, insert a b under the first
        # b, insert an e below it — three operations, and no cheaper script
        # exists (confirmed by the independent memoized oracle)
        t1 = "a(b(c,d),b(c,d),e)"
        t2 = "a(b(c,d,b(e)),c,d,e)"
        assert ted(t1, t2) == 3

    def test_sibling_order_matters(self):
        assert ted("a(b,c)", "a(c,b)") == 2

    def test_single_nodes(self):
        assert ted("a", "a") == 0
        assert ted("a", "b") == 1


class TestAgainstOracle:
    """Cross-check the keyroot DP against the memoized forest DP."""

    @given(tree_pairs(max_leaves=7), BUDGETS)
    @settings(max_examples=80, deadline=None)
    def test_matches_memoized_dp(self, pair, budget):
        t1, t2 = pair
        reference = memoized_edit_distance(t1, t2)
        assert tree_edit_distance(t1, t2) == reference
        assert_within_budget(t1, t2, budget, reference)

    @given(tree_pairs(max_leaves=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_memoized_dp_weighted(self, pair):
        t1, t2 = pair
        costs = weighted_costs(delete_cost=1.5, insert_cost=2.0, relabel_cost=0.7)
        fast = tree_edit_distance(t1, t2, costs)
        oracle = memoized_edit_distance(t1, t2, costs)
        assert fast == pytest.approx(oracle)


class TestBudget:
    """Fixed cases that drive each branch of the budgeted kernel."""

    STAR = "r(a,b,c,d,e,f,g)"
    DBLP = "record(author(x),title(y),year(z),venue(w),pages(v))"

    @staticmethod
    def sweep(left, right):
        t1, t2 = parse_bracket(left), parse_bracket(right)
        reference = memoized_edit_distance(t1, t2)
        for budget in (0, 0.5, 1, 1.5, 2, 3, 5, 8, reference - 1, reference,
                       reference + 1, math.inf):
            assert_within_budget(t1, t2, budget, reference)
        return reference

    def test_star_trees_leaf_keyroots_only(self):
        # every keyroot but the root is a leaf: the closed form fills them
        prepared = prepare_tree(parse_bracket(self.STAR))
        leaves = [x for x in prepared.keyroots if prepared.lml[x] == x]
        assert len(leaves) == len(prepared.keyroots) - 1
        assert self.sweep(self.STAR, "r(a,x,c,d,e,g)") == 2
        assert self.sweep(self.STAR, "q(g,f,e,d,c,b,a)") == 7

    def test_chains_have_no_leaf_keyroots(self):
        prepared = prepare_tree(parse_bracket("a(b(c(d(e(f)))))"))
        assert prepared.keyroots == [prepared.size - 1]
        assert self.sweep("a(b(c(d(e(f)))))", "a(b(x(d(e(f)))))") == 1
        assert self.sweep("a(b(c(d(e(f)))))", "a(c(d(f)))") == 2

    def test_dblp_records_have_no_leaf_keyroots(self):
        prepared = prepare_tree(parse_bracket(self.DBLP))
        assert all(prepared.lml[x] != x for x in prepared.keyroots)
        assert self.sweep(
            self.DBLP, "record(author(x),title(q),year(z),venue(w),pages(v))"
        ) == 1
        assert self.sweep(self.DBLP, "record(author(x),year(z),title(y))") == 6

    def test_single_nodes(self):
        assert self.sweep("a", "a") == 0
        assert self.sweep("a", "b") == 1
        assert self.sweep("a", "x(y,a)") == 2
        assert self.sweep("x(y,a)", "b") == 3

    def test_size_gap_exits_above_the_budget(self):
        small, large = parse_bracket("a"), parse_bracket("a(b,c,d,e)")
        # |n − m| = 4 > 3 already decides it, whatever the labels
        assert tree_edit_distance(small, large, budget=3) > 3
        assert tree_edit_distance(small, large, budget=4) == 4

    def test_fractional_budget_acts_as_its_floor(self):
        t1, t2 = parse_bracket("a(b,c)"), parse_bracket("a(d,e)")
        assert tree_edit_distance(t1, t2, budget=2.5) == 2
        assert tree_edit_distance(t1, t2, budget=1.5) > 1.5
        assert tree_edit_distance(t1, t2, budget=0.5) > 0.5

    def test_negative_budget_is_exceeded(self):
        t = parse_bracket("a(b)")
        assert tree_edit_distance(t, t.clone(), budget=-1) > -1

    def test_nan_budget_rejected(self):
        t = parse_bracket("a(b)")
        with pytest.raises(InvalidParameterError):
            tree_edit_distance(t, t, budget=math.nan)

    def test_general_costs_ignore_the_budget(self):
        costs = weighted_costs(delete_cost=1.5, insert_cost=2.0, relabel_cost=0.7)
        t1, t2 = parse_bracket("a(b,c)"), parse_bracket("x(y)")
        full = tree_edit_distance(t1, t2, costs)
        assert tree_edit_distance(t1, t2, costs, budget=0) == full


class TestMetricProperties:
    @given(trees())
    @settings(max_examples=40, deadline=None)
    def test_identity(self, tree):
        assert tree_edit_distance(tree, tree.clone()) == 0

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, pair):
        t1, t2 = pair
        assert tree_edit_distance(t1, t2) == tree_edit_distance(t2, t1)

    @given(tree_pairs(max_leaves=6), trees(max_leaves=6))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, pair, t3):
        t1, t2 = pair
        d12 = tree_edit_distance(t1, t2)
        d23 = tree_edit_distance(t2, t3)
        d13 = tree_edit_distance(t1, t3)
        assert d13 <= d12 + d23

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_positive_for_different_trees(self, pair):
        t1, t2 = pair
        if t1 != t2:
            assert tree_edit_distance(t1, t2) >= 1

    @given(tree_pairs())
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_envelopes(self, pair):
        t1, t2 = pair
        distance = tree_edit_distance(t1, t2)
        assert distance >= size_lower_bound(t1, t2)
        assert distance <= naive_upper_bound(t1, t2)


class TestEditScriptConsistency:
    @given(trees(), st.integers(0, 5), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_k_operations_give_distance_at_most_k(self, tree, k, seed):
        mutated, script = random_edit_script(tree, k, LABELS, random.Random(seed))
        assert tree_edit_distance(tree, mutated) <= k


class TestPreparedTrees:
    def test_prepared_reuse_gives_same_result(self):
        t1 = parse_bracket("a(b(c,d),e)")
        t2 = parse_bracket("a(b(c),e,d)")
        prepared1, prepared2 = prepare_tree(t1), prepare_tree(t2)
        assert tree_edit_distance(prepared1, prepared2) == tree_edit_distance(t1, t2)

    def test_keyroots_include_root(self):
        prepared = prepare_tree(parse_bracket("a(b(c,d),e)"))
        assert prepared.size - 1 in prepared.keyroots

    def test_keyroot_count_equals_distinct_left_paths(self):
        # a(b(c,d),e): left paths start at leaves c, d, e; keyroots are the
        # highest node of each: a (via c), d, e -> 3 keyroots
        prepared = prepare_tree(parse_bracket("a(b(c,d),e)"))
        assert len(prepared.keyroots) == 3


class TestCounter:
    def test_counts_calls(self):
        counter = EditDistanceCounter()
        t1, t2 = parse_bracket("a(b)"), parse_bracket("a(c)")
        counter.distance(t1, t2)
        counter.distance(t1, t2)
        assert counter.calls == 2

    def test_budget_reaches_the_kernel(self):
        counter = EditDistanceCounter()
        t1, t2 = parse_bracket("a(b,c)"), parse_bracket("x(y,z)")
        assert counter.distance(t1, t2) == 3
        assert counter.distance(t1, t2, 1) > 1
        assert counter.calls == 2

    def test_span_records_budget_band_and_dp_pairs(self):
        tracer = tracing.set_tracer(Tracer())
        try:
            counter = EditDistanceCounter()
            t1 = parse_bracket("a(b(c,d),e(f,g),h(i))")
            t2 = parse_bracket("a(b(c,d),e(f),h(i,j))")
            counter.distance(t1, t2)
            counter.distance(t1, t2, 1)
        finally:
            tracing.set_tracer(None)
        full, banded = [s.attributes for s in tracer.finished_spans()]
        assert full["budget"] is None and full["banded"] is False
        assert full["distance"] == 2
        assert banded["budget"] == 1 and banded["banded"] is True
        assert banded["distance"] > 1
        # the strip skips far-apart keyroot pairs the full DP runs
        assert 0 < banded["dp_pairs"] < full["dp_pairs"]

    def test_reset(self):
        counter = EditDistanceCounter()
        counter.distance(parse_bracket("a"), parse_bracket("b"))
        counter.distance_below(parse_bracket("a"), parse_bracket("b(c)"), 1)
        counter.distance_below(parse_bracket("a(b,c)"), parse_bracket("a(c,b)"), math.inf)
        assert counter.rungs > 0
        counter.reset()
        assert (counter.calls, counter.gated, counter.rungs) == (0, 0, 0)

    def test_gated_call_counts_once_and_runs_no_dp(self):
        tracer = tracing.set_tracer(Tracer())
        try:
            counter = EditDistanceCounter()
            # preorder abc vs acb: SED 2 > budget 0 = ceil(1) − 1
            t1, t2 = parse_bracket("a(b,c)"), parse_bracket("a(c,b)")
            assert counter.distance_below(t1, t2, 1) >= 1
            assert (counter.calls, counter.gated) == (1, 1)
            assert tracer.finished_spans() == []
            # under the gate the kernel runs, exact below the limit
            assert counter.distance_below(t1, t2, 3) == 2
            assert (counter.calls, counter.gated) == (2, 1)
        finally:
            tracing.set_tracer(None)
        (span,) = tracer.finished_spans()
        assert span.name == "editdist.zhang_shasha"
        assert span.attributes["budget"] == 2  # ceil(3) − 1

    @given(tree_pairs(), BUDGETS)
    @settings(max_examples=150, deadline=None)
    def test_distance_below_contract(self, pair, limit):
        """Exact when the distance is ``< limit``, otherwise ``≥ limit``."""
        reference = memoized_edit_distance(*pair)
        value = EditDistanceCounter().distance_below(*pair, limit)
        if reference < limit:
            assert value == reference
        else:
            assert value >= limit

    @given(tree_pairs(), st.floats(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_doubling_is_exact_from_any_valid_bound(self, pair, fraction):
        """``limit = inf``: the exact distance from every bound ``b ∈ [0, d]``,
        one call per request however many rungs it takes."""
        reference = tree_edit_distance(*pair)
        counter = EditDistanceCounter()
        for bound in {0.0, fraction * reference, max(reference - 1, 0), reference}:
            calls = counter.calls
            assert counter.distance_below(*pair, math.inf, bound) == reference
            assert counter.calls == calls + 1

    def test_doubling_climbs_budget_rungs_then_runs_unbudgeted(self):
        """From bound 0 on a far pair: rungs at 1, 3, 7, … while the k-strip
        pays, each gated or one budgeted kernel span, then one full run."""
        t1 = parse_bracket("a(b(c,d,e),f(g,h),i(j,k,l),m(n,o),p(q,r),s(t,u),v)")
        t2 = parse_bracket("z(y(x,w),v(u,t,s),r(q,p),o(n,m,l),k(j),i(h,g),f,e)")
        n, m = t1.size, t2.size
        tracer = tracing.set_tracer(Tracer())
        try:
            counter = EditDistanceCounter()
            value = counter.distance_below(t1, t2, math.inf, 0)
        finally:
            tracing.set_tracer(None)
        assert value == tree_edit_distance(t1, t2) > 7
        budgets = [1, 3, 7]  # 3·15 ≥ min(n, m) = 22 stops the ladder
        assert (n, m) == (22, 22)
        assert (counter.calls, counter.rungs) == (1, len(budgets))
        spans = [s.attributes["budget"] for s in tracer.finished_spans()]
        assert spans[-1] is None  # the unbudgeted run decides
        assert len(spans) - 1 == counter.rungs - counter.gated
        assert spans[:-1] == sorted(set(spans[:-1]) & set(budgets))

    def test_distance_below_other_costs_keeps_the_kernel_budget(self):
        costs = weighted_costs(2.0, 3.0, 1.5)
        counter = EditDistanceCounter(costs)
        t1, t2 = parse_bracket("a(b,c)"), parse_bracket("a(c,b)")
        full = tree_edit_distance(t1, t2, costs)
        for limit in (0.5, full, full + 0.5, math.inf):
            value = counter.distance_below(t1, t2, limit)
            assert value == full if full < limit else value >= limit
        assert counter.gated == 0

    def test_preparation_cached_by_identity(self):
        counter = EditDistanceCounter()
        tree = parse_bracket("a(b)")
        assert counter.prepared(tree) is counter.prepared(tree)


class TestPreparedTreeCache:
    def test_holds_tree_reference_so_ids_cannot_recycle(self):
        from repro.editdist import PreparedTreeCache

        cache = PreparedTreeCache(maxsize=8)
        tree = parse_bracket("a(b,c)")
        cache.get(tree)
        entry_tree, _ = cache._entries[id(tree)]
        assert entry_tree is tree  # strong ref pins the id while cached

    def test_identity_mismatch_reprepares(self):
        from repro.editdist import PreparedTreeCache

        cache = PreparedTreeCache(maxsize=8)
        t1 = parse_bracket("a(b)")
        prepared1 = cache.get(t1)
        # simulate an id collision: poison the slot with a different tree
        t2 = parse_bracket("x(y,z)")
        cache._entries[id(t1)] = (t2, cache.get(t2))
        reprepared = cache.get(t1)
        assert reprepared is not prepared1
        assert reprepared.labels == prepared1.labels

    def test_bounded_lru_eviction(self):
        from repro.editdist import PreparedTreeCache

        cache = PreparedTreeCache(maxsize=3)
        kept = [parse_bracket(f"a(b{i})") for i in range(5)]
        for tree in kept:
            cache.get(tree)
        assert len(cache) == 3
        # the oldest two were evicted; the newest three are present
        assert id(kept[0]) not in cache._entries
        assert id(kept[4]) in cache._entries

    def test_get_after_eviction_still_correct(self):
        from repro.editdist import PreparedTreeCache

        cache = PreparedTreeCache(maxsize=1)
        t1, t2 = parse_bracket("a(b,c)"), parse_bracket("a(b,d)")
        prepared = cache.get(t1)
        cache.get(t2)  # evicts t1
        again = cache.get(t1)
        assert again.labels == prepared.labels

    def test_rejects_nonpositive_maxsize(self):
        from repro.editdist import PreparedTreeCache

        with pytest.raises(ValueError):
            PreparedTreeCache(maxsize=0)

    def test_counters_can_share_a_cache(self):
        from repro.editdist import PreparedTreeCache

        shared = PreparedTreeCache()
        c1 = EditDistanceCounter(cache=shared)
        c2 = EditDistanceCounter(cache=shared)
        tree = parse_bracket("a(b(c),d)")
        assert c1.prepared(tree) is c2.prepared(tree)
        c1.distance(tree, parse_bracket("a"))
        assert c1.calls == 1 and c2.calls == 0  # call counts stay private

    def test_counter_cache_is_bounded(self):
        counter = EditDistanceCounter(cache_size=2)
        for i in range(10):
            counter.prepared(parse_bracket(f"a(b{i})"))
        assert len(counter.cache) == 2

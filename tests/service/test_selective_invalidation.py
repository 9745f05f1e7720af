"""Selective result-cache invalidation on TreeSearchService.add().

The service keeps a cached answer across an insertion only when the
database's lower-bound filter *proves* the new tree cannot appear in it;
these tests pin both directions (retention serves hits, eviction recomputes)
and the overall soundness property: every answer served after any sequence
of adds equals a freshly computed one.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.filters.binary_branch as binary_branch_module
from repro.datasets import generate_dblp_dataset
from repro.datasets.dblp import make_variant
from repro.filters import (
    BranchCountFilter,
    LabelHistogramFilter,
    MaxCompositeFilter,
)
from repro.filters.composite import LazySignature
from repro.filters.registry import bibranch_label_filter
from repro.search.database import TreeDatabase
from repro.service import TreeSearchService
from repro.trees import parse_bracket
from tests.metric_reads import metric
from tests.strategies import trees


def _service(texts, **options):
    database = TreeDatabase([parse_bracket(text) for text in texts])
    return TreeSearchService(database, **options)


class TestSelectiveInvalidation:
    def test_unaffected_range_entry_is_retained(self):
        service = _service(["a(b,c)", "a(b,d)"])
        query = parse_bracket("a(b,c)")
        first, _ = service.range(query, 1)
        # far from the query: the BiBranch bound provably exceeds 1
        service.add(parse_bracket("z(w(v,u),t(s,r),p,o,n)"))
        second, _ = service.range(query, 1)
        assert second == first
        assert metric(service, "repro_cache_hits_total") == 1
        assert metric(service, "repro_cache_entries_retained_total") == 1
        assert metric(service, "repro_cache_entries_evicted_total") == 0

    def test_affected_range_entry_is_evicted_and_recomputed(self):
        service = _service(["a(b,c)", "x(y)"])
        query = parse_bracket("a(b,c)")
        service.range(query, 1)
        index = service.add(parse_bracket("a(b,c)"))  # exact duplicate
        matches, _ = service.range(query, 1)
        assert (index, 0.0) in matches
        assert metric(service, "repro_cache_hits_total") == 0
        assert metric(service, "repro_cache_entries_evicted_total") == 1

    def test_full_knn_entry_with_distant_add_is_retained(self):
        service = _service(["a(b,c)", "a(b,d)", "x(y)"])
        query = parse_bracket("a(b,c)")
        first, _ = service.knn(query, 2)
        service.add(parse_bracket("z(w(v,u),t(s,r),p,o,n)"))
        second, _ = service.knn(query, 2)
        assert second == first
        assert metric(service, "repro_cache_hits_total") == 1

    def test_knn_entry_improved_by_add_is_evicted(self):
        """A new tree closer than the k-th neighbor must enter the answer."""
        service = _service(["a(b,c)", "zz(ww,vv,uu,tt)"])
        query = parse_bracket("a(b,c)")
        first, _ = service.knn(query, 2)
        assert first[-1][1] > 1  # the 2nd neighbor is far from the query
        index = service.add(parse_bracket("a(e,c)"))  # closer than that
        second, _ = service.knn(query, 2)
        # the entry could not be proven safe
        assert metric(service, "repro_cache_hits_total") == 0
        assert {i for i, _ in second} == {0, index}

    def test_knn_entry_with_close_add_is_evicted(self):
        service = _service(["a(b,c)", "z(w(v,u),t(s,r),p)"])
        query = parse_bracket("a(b,c)")
        service.knn(query, 2)
        index = service.add(parse_bracket("a(b,c)"))
        neighbors, _ = service.knn(query, 2)
        assert {i for i, _ in neighbors} == {0, index}

    def test_full_knn_entry_with_add_bounded_at_kth_is_retained(self):
        """A new tree bounded exactly at the cached k-th distance sorts
        after every old row with that bound, and a fresh run stops at it
        unrefined: the entry stays and equals a cold answer, refined count
        included."""
        service = _service(["a(b,c)", "a(b,d)", "x(y)"])
        query = parse_bracket("a(b,c)")
        first, _ = service.knn(query, 2)
        added = parse_bracket("a(b,e)")
        flt = service.database.filter
        kth = first[-1][1]
        assert flt.bound(flt.signature(query), flt.signature(added)) == kth
        service.add(added)
        second, stats = service.knn(query, 2)
        assert metric(service, "repro_cache_entries_retained_total") == 1
        assert metric(service, "repro_cache_hits_total") == 1
        cold_answer, cold_stats = TreeDatabase(
            list(service.database.trees)
        ).knn(query, 2)
        assert second == first == cold_answer
        assert stats.candidates == cold_stats.candidates

    def test_invalidation_metrics_accumulate(self):
        service = _service(["a(b,c)", "x(y)"])
        service.range(parse_bracket("a(b,c)"), 1)
        service.range(parse_bracket("x(y)"), 0)
        service.add(parse_bracket("z(w(v,u),t(s,r),p,o,n)"))
        assert metric(service, "repro_invalidations_total") == 1
        assert metric(service, "repro_cache_entries_retained_total") == 2
        assert metric(service, "repro_cache_entries_evicted_total") == 0

    def test_out_of_band_mutation_forces_miss(self):
        """Generation stamps catch database.add() calls bypassing the service."""
        service = _service(["a(b,c)", "x(y)"])
        query = parse_bracket("a(b,c)")
        service.range(query, 1)
        index = service.database.add(parse_bracket("a(b,c)"))  # bypass
        matches, _ = service.range(query, 1)
        assert (index, 0.0) in matches
        assert metric(service, "repro_cache_hits_total") == 0

    def test_retained_entries_equal_cold_queries_after_add(self):
        """Every entry surviving an add answers exactly like a cold database."""
        service = _service(["a(b,c)", "a(b,d)", "x(y)", "a(b(c),d)"])
        for kind, text, parameter in [
            ("range", "a(b,c)", 1.0),
            ("range", "x(y)", 0.0),
            ("knn", "a(b,d)", 2),
        ]:
            query = parse_bracket(text)
            if kind == "range":
                service.range(query, parameter)
            else:
                service.knn(query, parameter)
        service.add(parse_bracket("z(w(v,u),t(s,r),p,o,n)"))
        assert metric(service, "repro_cache_entries_retained_total") > 0
        cold = TreeDatabase(list(service.database.trees))
        for (kind, bracket, parameter), entry in service._cache._entries.items():
            # surviving entries are re-stamped to the current generation …
            assert entry.generation == service.database.generation
            query = parse_bracket(bracket)
            expected = (
                cold.range_query(query, parameter)[0]
                if kind == "range"
                else cold.knn(query, int(parameter))[0]
            )
            # … and their payload equals a from-scratch computation
            assert entry.answer[0] == expected

    def test_branch_count_entries_see_branches_interned_by_adds(self):
        """BranchCount query vectors depend on the vocabulary, so cached
        entries must not reuse a query signature memoized before an add
        interned the query's unseen branches: its ``extra`` mass would
        overestimate the bound and keep a stale entry."""
        database = TreeDatabase(
            [parse_bracket(text) for text in ["a(c,d,e)", "x(y(z),w)", "p(q,r)"]],
            flt=BranchCountFilter(),
        )
        service = TreeSearchService(database)
        query = parse_bracket("a(b(c,d),e)")
        assert database.filter.signature(query).extra  # unseen branches
        service.range(query, 1)
        service.knn(query, 1)
        # a distant add keeps both entries (and lets a memo form) …
        service.add(parse_bracket("z(w(v,u),t(s,r),p,o,n)"))
        assert metric(service, "repro_cache_entries_retained_total") == 2
        # … then an add interns the query's branches and answers both
        index = service.add(parse_bracket("a(b(c,d),e)"))
        cold = TreeDatabase(list(service.database.trees), flt=BranchCountFilter())
        for (kind, bracket, parameter), entry in service._cache._entries.items():
            cached = parse_bracket(bracket)
            expected = (
                cold.range_query(cached, parameter)[0]
                if kind == "range"
                else cold.knn(cached, int(parameter))[0]
            )
            assert entry.answer[0] == expected
        assert (index, 0.0) in service.range(query, 1)[0]
        assert service.knn(query, 1)[0] == [(index, 0.0)]

    def test_generation_mismatch_is_a_miss_never_a_stale_hit(self):
        """A mis-stamped entry must be dropped, not served."""
        service = _service(["a(b,c)", "x(y)"])
        query = parse_bracket("a(b,c)")
        first, _ = service.range(query, 1)
        for entry in service._cache._entries.values():
            entry.generation -= 1
            entry.answer[0].append(("poison", -1.0))  # detectable if served
        matches, _ = service.range(query, 1)
        assert matches == first
        assert ("poison", -1.0) not in matches
        assert metric(service, "repro_cache_hits_total") == 0

    @given(
        forest=st.lists(trees(max_leaves=5), min_size=1, max_size=4),
        additions=st.lists(trees(max_leaves=5), min_size=1, max_size=3),
        query=trees(max_leaves=5),
        threshold=st.integers(0, 3),
        k=st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_served_answers_always_fresh(
        self, forest, additions, query, threshold, k
    ):
        """Soundness: cached-or-not, answers equal a freshly built database's."""
        k = min(k, len(forest))  # knn rejects k beyond the dataset size
        service = TreeSearchService(TreeDatabase(list(forest)))
        service.range(query, threshold)
        service.knn(query, k)
        for added in additions:
            service.add(added)
            oracle = TreeDatabase(service.database.trees)
            range_answer, _ = service.range(query, threshold)
            knn_answer, _ = service.knn(query, k)
            assert range_answer == oracle.range_query(query, threshold)[0]
            assert knn_answer == oracle.knn(query, k)[0]


def _label_count_filter():
    return MaxCompositeFilter([LabelHistogramFilter(), BranchCountFilter()])


class TestLazySignatureMemo:
    """A composite memoizes a query signature whose parts fill on first
    read; invalidation must decide exactly as with a fresh signature."""

    @pytest.mark.parametrize("factory", [bibranch_label_filter, _label_count_filter])
    @given(
        forest=st.lists(trees(max_leaves=5), min_size=2, max_size=5),
        queries=st.lists(trees(max_leaves=5), min_size=1, max_size=3),
        additions=st.lists(trees(max_leaves=5), min_size=1, max_size=4),
        threshold=st.integers(0, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_memo_retains_and_evicts_like_a_fresh_signature(
        self, factory, forest, queries, additions, threshold
    ):
        memo = TreeSearchService(TreeDatabase(list(forest), flt=factory()))
        fresh = TreeSearchService(TreeDatabase(list(forest), flt=factory()))
        for service in (memo, fresh):
            for query in queries:
                service.range(query, threshold)
                service.knn(query, 2)
        depends = memo.database.filter.signature_depends_on_index
        for added in additions:
            for entry in fresh._cache._entries.values():
                entry.signature = None  # every add recomputes from scratch
            memo.add(added)
            fresh.add(added)
            assert list(memo._cache._entries) == list(fresh._cache._entries)
            for name in (
                "repro_cache_entries_retained_total",
                "repro_cache_entries_evicted_total",
            ):
                assert metric(memo, name) == metric(fresh, name)
            for entry in memo._cache._entries.values():
                if depends:  # recomputed on every add, never frozen
                    assert entry.signature is None
                else:
                    assert isinstance(entry.signature, LazySignature)
        cold = TreeDatabase(list(memo.database.trees), flt=factory())
        for (kind, bracket, parameter), entry in memo._cache._entries.items():
            query = parse_bracket(bracket)
            expected = (
                cold.range_query(query, parameter)[0]
                if kind == "range"
                else cold.knn(query, int(parameter))[0]
            )
            assert entry.answer[0] == expected

    def test_branch_count_part_is_recomputed_after_an_add(self):
        """The label-first composite over BranchCount must see branches an
        add interned, as the bare BranchCount filter does above."""
        database = TreeDatabase(
            [parse_bracket(text) for text in ["a(c,d,e)", "x(y(z),w)", "p(q,r)"]],
            flt=_label_count_filter(),
        )
        service = TreeSearchService(database)
        query = parse_bracket("a(b(c,d),e)")
        service.range(query, 1)
        service.knn(query, 1)
        service.add(parse_bracket("a(b(c,e),d)"))  # same labels, new branches
        index = service.add(parse_bracket("a(b(c,d),e)"))
        assert (index, 0.0) in service.range(query, 1)[0]
        assert service.knn(query, 1)[0] == [(index, 0.0)]


def _reference_keep(flt, new_signature, key, entry):
    """Keep predicate comparing the whole bound with the k-th distance."""
    kind, _, parameter = key
    query = flt.signature(entry.query)
    if kind == "range":
        return flt.refutes(query, new_signature, parameter)
    matches = entry.answer[0]
    if len(matches) < int(parameter):
        return False
    return flt.bound(query, new_signature) >= matches[-1][1]


class TestInvalidationWork:
    """A full k-NN entry survives an ``add`` iff ``bound ≥ kth``, decided
    through ``flt.reaches``: the label histogram's capped walk first, then
    at most one Proposition 4.2 test, never a SearchLBound."""

    @pytest.fixture
    def lbound_calls(self, monkeypatch):
        calls = []
        original = binary_branch_module.search_lower_bound

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(binary_branch_module, "search_lower_bound", counting)
        return calls

    @staticmethod
    def _replay(corpus, additions, seed, lbound_calls):
        """Reads then one add, per addition; checks every keep decision
        against :func:`_reference_keep`.  Returns the per-kind
        ``(kind, kept)`` tallies, the SearchLBound calls made inside
        ``add``, and how many full k-NN entries the label bound alone
        left below their k-th distance."""
        rng = random.Random(seed)
        service = TreeSearchService(TreeDatabase(list(corpus)))
        flt = service.database.filter
        label = flt.filters[0]
        assert isinstance(label, LabelHistogramFilter)
        tallies = Counter()
        add_calls = 0
        label_unsettled = 0
        for added in additions:
            for query in rng.sample(corpus, 3):
                service.range(query, 1)
                service.knn(query, 3)
            before = dict(service._cache._entries)
            calls = len(lbound_calls)
            index = service.add(added)
            add_calls += len(lbound_calls) - calls
            new = flt.data_signature(index)
            kept = set(service._cache._entries)
            for key, entry in before.items():
                assert (key in kept) == _reference_keep(flt, new, key, entry), key
                tallies[key[0], key in kept] += 1
                matches = entry.answer[0]
                if key[0] == "knn" and len(matches) == int(key[2]):
                    query = flt.signature(entry.query)
                    if label.bound(query[0], new[0]) < matches[-1][1]:
                        label_unsettled += 1
        return tallies, add_calls, label_unsettled

    def test_label_settled_adds_run_no_search_lower_bound(self, lbound_calls):
        corpus = generate_dblp_dataset(80, seed=3)
        additions = generate_dblp_dataset(12, seed=4)
        tallies, add_calls, label_unsettled = self._replay(
            corpus, additions, 0, lbound_calls
        )
        assert label_unsettled == 0  # every k-NN entry is label-settled
        assert tallies["knn", True] > 0
        assert add_calls == 0

    def test_near_duplicate_adds_keep_what_the_bound_keeps(self, lbound_calls):
        """Near-duplicates of cached queries leave the label bound below
        many k-th distances; BiBranch's single test decides those, and
        every decision still equals the whole-bound comparison."""
        corpus = generate_dblp_dataset(60, seed=5)
        rng = random.Random(6)
        additions = [make_variant(rng.choice(corpus), rng) for _ in range(12)]
        tallies, add_calls, label_unsettled = self._replay(
            corpus, additions, 1, lbound_calls
        )
        assert label_unsettled > 0
        for kind in ("range", "knn"):
            assert tallies[kind, True] > 0 and tallies[kind, False] > 0, tallies
        assert add_calls == 0

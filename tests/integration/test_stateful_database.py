"""Stateful model test of TreeDatabase.

A hypothesis state machine drives a TreeDatabase through interleaved
insertions and queries, cross-checking every answer against a brute-force
model (a plain list + Zhang–Shasha).  This is the strongest end-to-end
invariant in the suite: no sequence of operations may ever make a filtered
query diverge from the ground truth.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import TreeDatabase
from repro.editdist import tree_edit_distance
from repro.trees import parse_bracket
from tests.strategies import trees

SEED_TREES = [parse_bracket(t) for t in ["a(b,c)", "a(b)", "x(y,z)"]]


class DatabaseMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.model = [tree.clone() for tree in SEED_TREES]
        self.db = TreeDatabase([tree.clone() for tree in SEED_TREES])

    @rule(tree=trees(max_leaves=5))
    def insert(self, tree):
        index = self.db.add(tree.clone())
        self.model.append(tree.clone())
        assert index == len(self.model) - 1

    @rule(query=trees(max_leaves=5), threshold=st.integers(0, 5))
    def range_query(self, query, threshold):
        fast, stats = self.db.range_query(query, threshold)
        expected = [
            (i, tree_edit_distance(query, tree))
            for i, tree in enumerate(self.model)
            if tree_edit_distance(query, tree) <= threshold
        ]
        assert fast == expected
        assert stats.dataset_size == len(self.model)

    @rule(query=trees(max_leaves=5), threshold=st.integers(0, 4))
    def indexed_range_query(self, query, threshold):
        fast, _ = self.db.indexed_range_query(query, threshold)
        expected = [
            (i, tree_edit_distance(query, tree))
            for i, tree in enumerate(self.model)
            if tree_edit_distance(query, tree) <= threshold
        ]
        assert fast == expected
        # the inverted file re-synced over every add since it was built
        assert len(self.db.candidate_index()) == len(self.model)

    @rule(query=trees(max_leaves=5), data=st.data())
    def knn(self, query, data):
        k = data.draw(st.integers(1, len(self.model)))
        fast, _ = self.db.knn(query, k)
        brute = sorted(
            tree_edit_distance(query, tree) for tree in self.model
        )[:k]
        assert sorted(distance for _, distance in fast) == brute

    @invariant()
    def sizes_agree(self):
        if hasattr(self, "db"):
            assert len(self.db) == len(self.model)
            assert self.db.filter.size == len(self.model)


TestDatabaseStateMachine = DatabaseMachine.TestCase
TestDatabaseStateMachine.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)

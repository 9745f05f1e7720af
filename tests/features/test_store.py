"""FeatureStore: one-pass extraction must equal the per-artifact builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import branch_vector, positional_profile
from repro.exceptions import InvalidParameterError
from repro.features import FeatureStore, extract_features
from repro.trees import parse_bracket
from tests.strategies import trees

FOREST = [
    "a(b(c,d),b(c,d),e)",
    "a(b(c,d,b(e)),c,d,e)",
    "x(y(z),y(z))",
    "a",
]


def _forest():
    return [parse_bracket(text) for text in FOREST]


class TestExtractFeatures:
    @given(trees(max_leaves=10), st.sampled_from([2, 3, 4]))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_equals_per_artifact_builders(self, tree, q):
        features = extract_features(tree, (q,))
        assert features.size == tree.size
        assert features.branch_counts[q] == branch_vector(tree, q=q).counts
        oracle = positional_profile(tree, q=q)
        profile = features.profiles[q]
        assert profile.pre_positions == oracle.pre_positions
        assert profile.post_positions == oracle.post_positions
        assert profile.pairs == oracle.pairs

    def test_traversal_and_histogram_artifacts(self):
        tree = parse_bracket("a(b(c),d)")
        features = extract_features(tree)
        assert features.pre_labels == ["a", "b", "c", "d"]
        assert features.post_labels == ["c", "b", "d", "a"]
        assert features.labels == {"a": 1, "b": 1, "c": 1, "d": 1}
        assert features.degrees == {2: 1, 1: 1, 0: 2}
        assert features.heights == sorted(features.heights)
        assert features.leaf_count == 2

    def test_rejects_bad_q_levels(self):
        tree = parse_bracket("a")
        with pytest.raises(InvalidParameterError):
            extract_features(tree, (1,))
        with pytest.raises(InvalidParameterError):
            extract_features(tree, ())


class TestFeatureStore:
    def test_fit_counts_one_pass_per_tree(self):
        store = FeatureStore().fit(_forest())
        assert len(store) == len(FOREST)
        assert store.extraction_passes == len(FOREST)
        assert store.generation == 0

    def test_add_bumps_generation(self):
        store = FeatureStore().fit(_forest())
        index = store.add(parse_bracket("q(r)"))
        assert index == len(FOREST)
        assert store.generation == 1
        assert store.extraction_passes == len(FOREST) + 1

    def test_profiles_match_oracle(self):
        store = FeatureStore(q_levels=(2, 3)).fit(_forest())
        for index, tree in enumerate(_forest()):
            for q in (2, 3):
                oracle = positional_profile(tree, q=q)
                profile = store.profile(index, q)
                assert profile.pre_positions == oracle.pre_positions
                assert profile.post_positions == oracle.post_positions

    def test_packed_vectors_share_one_vocabulary(self):
        store = FeatureStore().fit(_forest())
        for index, tree in enumerate(_forest()):
            packed = store.packed_vector(index)
            assert packed.to_branch_vector(store.vocabulary).counts == (
                branch_vector(tree).counts
            )
            assert not packed.extra  # index side is always fully interned

    def test_pack_query_is_read_only(self):
        store = FeatureStore().fit(_forest())
        vocabulary_size = len(store.vocabulary)
        packed = store.pack_query(parse_bracket("unseen(label)"))
        assert len(store.vocabulary) == vocabulary_size
        assert packed.extra

    def test_unknown_q_level_raises(self):
        store = FeatureStore().fit(_forest())
        with pytest.raises(InvalidParameterError):
            store.profile(0, q=5)
        with pytest.raises(InvalidParameterError):
            FeatureStore(q_levels=())

    def test_stats_keys(self):
        store = FeatureStore().fit(_forest())
        stats = store.stats()
        assert stats["trees"] == len(FOREST)
        assert stats["extraction_passes"] == len(FOREST)
        assert stats["vocabulary_size"] == len(store.vocabulary)

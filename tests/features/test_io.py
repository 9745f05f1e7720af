"""Feature-plane persistence: lossless round trip, zero re-extraction."""

import pytest

from repro.exceptions import TreeParseError
from repro.features import FeatureStore, load_feature_plane, save_feature_plane
from repro.trees import TreeNode, parse_bracket

FOREST = [
    "a(b(c,d),b(c,d),e)",
    "a(b(c,d,b(e)),c,d,e)",
    "x(y(z),y(z))",
    "a",
]
#: every non-string label tag; ``True`` must come back a bool, not an int
TYPED_FOREST = [TreeNode(1, [TreeNode(2.5), TreeNode(None), TreeNode(True)])]


@pytest.fixture
def store():
    return FeatureStore(q_levels=(2, 3)).fit(
        [parse_bracket(text) for text in FOREST]
    )


class TestFeaturePlaneRoundTrip:
    def test_loaded_store_performs_no_extraction(self, store, tmp_path):
        path = tmp_path / "plane.json"
        save_feature_plane(store, path)
        loaded = load_feature_plane(path)
        assert loaded.extraction_passes == 0

    def test_round_trip_is_lossless(self, store, tmp_path):
        typed = FeatureStore(q_levels=(2, 3)).fit(TYPED_FOREST)
        for fitted in (store, typed):
            self._assert_round_trip(fitted, tmp_path / "plane.json")

    @staticmethod
    def _assert_round_trip(store, path):
        save_feature_plane(store, path)
        loaded = load_feature_plane(path)
        assert loaded.q_levels == store.q_levels
        assert loaded.generation == store.generation
        assert list(loaded.vocabulary) == list(store.vocabulary)
        for index in range(len(store)):
            original, restored = store.features(index), loaded.features(index)
            assert restored.size == original.size
            assert restored.labels == original.labels
            assert restored.degrees == original.degrees
            assert restored.heights == original.heights
            assert restored.pre_labels == original.pre_labels
            assert restored.post_labels == original.post_labels
            assert [type(label) for label in restored.pre_labels] == [
                type(label) for label in original.pre_labels
            ]
            assert restored.leaf_count == original.leaf_count
            for q in store.q_levels:
                assert loaded.packed_vector(index, q) == store.packed_vector(index, q)
                assert restored.profiles[q].pre_positions == original.profiles[q].pre_positions
                assert restored.profiles[q].post_positions == original.profiles[q].post_positions
                assert restored.profiles[q].pairs == original.profiles[q].pairs

    def test_generation_survives_round_trip(self, store, tmp_path):
        store.add(parse_bracket("q(r,s)"))
        path = tmp_path / "plane.json"
        save_feature_plane(store, path)
        loaded = load_feature_plane(path)
        assert loaded.generation == 1
        assert len(loaded) == len(store)

    def test_loaded_store_accepts_incremental_add(self, store, tmp_path):
        path = tmp_path / "plane.json"
        save_feature_plane(store, path)
        loaded = load_feature_plane(path)
        index = loaded.add(parse_bracket("new(tree)"))
        assert index == len(FOREST)
        assert loaded.extraction_passes == 1  # only the new tree was walked
        assert loaded.packed_vector(index).tree_size == 2

    def test_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "bogus.json"
        for document in (
            '{"format": "something-else"}',
            '{"format": "repro-features", "version": 99}',
        ):
            path.write_text(document)
            with pytest.raises(TreeParseError):
                load_feature_plane(path)

    def test_rejects_unserializable_labels(self, tmp_path):
        store = FeatureStore(q_levels=(2,)).fit([TreeNode((1, 2))])
        with pytest.raises(TreeParseError, match="tuple"):
            save_feature_plane(store, tmp_path / "bad.json")

"""Shared-memory feature planes: publish/attach, zero-copy, lifecycle."""

import pytest

from repro.exceptions import InvalidParameterError, SharedPlaneClosedError
from repro.features.store import FeatureStore
from repro.sharding.plane import SharedFeaturePlane
from repro.trees import parse_bracket

BRACKETS = [
    "a(b,c)",
    "a(b,d)",
    "x(y(z),w)",
    "a(b(c,d),e(f))",
    "a",
]


@pytest.fixture
def trees():
    return [parse_bracket(b) for b in BRACKETS]


@pytest.fixture
def store(trees):
    return FeatureStore((2, 3)).fit(trees)


class TestPublishAttach:
    def test_roundtrip_is_exact(self, store):
        with SharedFeaturePlane.publish(store) as plane:
            for q in (2, 3):
                originals = [
                    store.packed_vector(i, q) for i in range(len(store))
                ]
                for original, borrowed in zip(originals, plane.vectors(q)):
                    assert list(borrowed.dims) == list(original.dims)
                    assert list(borrowed.counts) == list(original.counts)
                    assert borrowed.tree_size == original.tree_size
                    assert borrowed == original

    def test_subset_publication(self, store):
        with SharedFeaturePlane.publish(store, indices=[1, 3]) as plane:
            assert len(plane) == 2
            borrowed = plane.vectors(2)
            assert borrowed[0] == store.packed_vector(1, 2)
            assert borrowed[1] == store.packed_vector(3, 2)

    def test_vectors_are_zero_copy(self, store):
        # the borrowed columns must be views over the segment, not copies
        with SharedFeaturePlane.publish(store) as plane:
            for vector in plane.vectors(2):
                assert isinstance(vector.dims, memoryview)
                assert isinstance(vector.counts, memoryview)
                assert vector.owner is plane

    def test_attached_store_distances_match(self, store, trees):
        query = parse_bracket("a(b,q)")
        plane = SharedFeaturePlane.publish(store)
        attached = SharedFeaturePlane.attach(plane.handle)
        try:
            mirror = attached.store(store.vocabulary)
            for q in (2, 3):
                packed_query = store.pack_query(query, q)
                for i in range(len(store)):
                    assert mirror.packed_vector(i, q).l1_distance(
                        packed_query
                    ) == store.packed_vector(i, q).l1_distance(packed_query)
        finally:
            attached.close()
            plane.close()

    def test_attached_histogram_planes_match(self, store, trees):
        """Label and degree histograms cross the segment, interned against
        the publishing store's tables: an attached packed-only store serves
        the same histogram L1 as the full store, also after a local add."""
        indices = [1, 3, 4]
        queries = {"labels": {"a": 1, "b": 2, "q": 1}, "degrees": {0: 3, 2: 1}}
        plane = SharedFeaturePlane.publish(store, indices)
        attached = SharedFeaturePlane.attach(plane.handle)
        tables = {
            family: store.histogram_vocabulary(family)
            for family in ("labels", "degrees")
        }
        try:
            mirror = attached.store(store.vocabulary, tables)
            mirror.add(parse_bracket("z(a,b)"))
            reference = FeatureStore((2, 3)).fit(
                [trees[i] for i in indices] + [parse_bracket("z(a,b)")]
            )
            for family, counts in queries.items():
                got = mirror.matrices().histogram_l1(family, counts)
                expected = reference.matrices().histogram_l1(family, counts)
                assert list(got) == list(expected)
            assert mirror.matrices().stats()["histogram-labels"]["rows"] == 4
        finally:
            attached.close()
            plane.close()

    def test_histograms_refused_after_close(self, store):
        plane = SharedFeaturePlane.publish(store)
        attached = SharedFeaturePlane.attach(plane.handle)
        columns = attached.histogram_columns("labels")
        attached.close()
        plane.close()
        with pytest.raises(ValueError):
            bytes(columns[0][0])
        with pytest.raises(InvalidParameterError, match="closed"):
            attached.histogram_columns("labels")

    def test_rejects_query_side_vectors(self, store):
        # out-of-vocabulary branches have no slot in the segment layout
        unseen = store.pack_query(parse_bracket("zzz(qqq)"), 2)
        assert unseen.extra

        class _QueryStore:
            q_levels = (2,)

            def __len__(self):
                return 1

            def tree_size(self, index):
                return unseen.tree_size

            def packed_vector(self, index, q):
                return unseen

        with pytest.raises(InvalidParameterError, match="out-of-vocabulary"):
            SharedFeaturePlane.publish(_QueryStore())

    def test_unknown_q_level(self, store):
        with SharedFeaturePlane.publish(store) as plane:
            with pytest.raises(InvalidParameterError, match="no q=7 column"):
                plane.vectors(7)


class TestLifecycle:
    def test_use_after_close_raises(self, store):
        plane = SharedFeaturePlane.publish(store)
        vectors = plane.vectors(2)
        other = vectors[1]
        plane.close()
        with pytest.raises(SharedPlaneClosedError):
            vectors[0].l1_distance(other)
        with pytest.raises(SharedPlaneClosedError):
            vectors[0] == other  # noqa: B015 — the comparison must raise

    def test_close_is_idempotent(self, store):
        plane = SharedFeaturePlane.publish(store)
        plane.close()
        plane.close()
        assert plane.closed

    def test_owner_unlinks_segment(self, store):
        plane = SharedFeaturePlane.publish(store)
        handle = plane.handle
        plane.close()
        with pytest.raises(FileNotFoundError):
            SharedFeaturePlane.attach(handle)

    def test_reader_close_keeps_segment(self, store):
        plane = SharedFeaturePlane.publish(store)
        try:
            reader = SharedFeaturePlane.attach(plane.handle)
            assert not reader.owner
            reader.close()
            # the segment must survive a reader detach: attach again
            again = SharedFeaturePlane.attach(plane.handle)
            again.close()
        finally:
            plane.close()

    def test_vectors_refused_after_close(self, store):
        plane = SharedFeaturePlane.publish(store)
        plane.close()
        with pytest.raises(InvalidParameterError, match="closed"):
            plane.vectors(2)

"""Unit tests for search statistics."""

from repro.search import SearchStats


class TestSearchStats:
    def test_accessed_percentage(self):
        stats = SearchStats(dataset_size=200, candidates=10, results=4)
        assert stats.accessed_percentage == 5.0
        assert stats.result_percentage == 2.0
        assert stats.false_positives == 6

    def test_empty_dataset(self):
        stats = SearchStats()
        assert stats.accessed_percentage == 0.0
        assert stats.result_percentage == 0.0

    def test_total_seconds(self):
        stats = SearchStats(filter_seconds=0.25, refine_seconds=0.5)
        assert stats.total_seconds == 0.75

    def test_merge(self):
        a = SearchStats(dataset_size=10, candidates=2, results=1,
                        filter_seconds=0.1, refine_seconds=0.2)
        b = SearchStats(dataset_size=10, candidates=4, results=2,
                        filter_seconds=0.3, refine_seconds=0.4)
        merged = a.merge(b)
        assert merged.dataset_size == 20
        assert merged.candidates == 6
        assert merged.results == 3
        assert merged.filter_seconds == 0.4

    def test_refine_counts_ride_along(self):
        a = SearchStats(candidates=4, rungs=5, gated=2)
        b = SearchStats(candidates=3, rungs=3, gated=1)
        merged = a.merge(b)
        assert (merged.rungs, merged.gated) == (8, 3)
        assert (a.copy().rungs, a.copy().gated) == (5, 2)
        assert {"rungs": 5, "gated": 2}.items() <= a.to_dict().items()

    def test_as_dict(self):
        stats = SearchStats(dataset_size=100, candidates=5, results=5)
        data = stats.as_dict()
        assert data["accessed_pct"] == 5.0
        assert data["results"] == 5
        assert "total_seconds" in data

    def test_to_dict_is_json_serialisable(self):
        import json

        stats = SearchStats(dataset_size=100, candidates=5, results=5,
                            filter_seconds=0.1, refine_seconds=0.2)
        data = stats.to_dict()
        assert data == stats.as_dict()  # alias stays in sync
        assert json.loads(json.dumps(data)) == data

    def test_copy_is_independent(self):
        stats = SearchStats(dataset_size=10, candidates=3, results=1)
        duplicate = stats.copy()
        assert duplicate == stats
        duplicate.candidates = 99
        assert stats.candidates == 3

"""Unit tests for dataset persistence."""

import pytest

from repro.exceptions import TreeParseError
from repro.storage import load_forest, load_xml_directory, save_forest
from repro.trees import parse_bracket


class TestForestFiles:
    def test_round_trip(self, tmp_path):
        trees = [parse_bracket(t) for t in ["a(b,c)", "x", 'q("we ird")']]
        path = tmp_path / "data.trees"
        assert save_forest(trees, path) == 3
        assert load_forest(path) == trees

    def test_header_written_and_ignored(self, tmp_path):
        path = tmp_path / "data.trees"
        save_forest([parse_bracket("a")], path, header="line one\nline two")
        content = path.read_text()
        assert content.startswith("# line one\n# line two\n")
        assert load_forest(path) == [parse_bracket("a")]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "data.trees"
        path.write_text("\n\na(b)\n\n# comment\nc\n")
        assert [t.label for t in load_forest(path)] == ["a", "c"]

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.trees"
        path.write_text("a(b)\na(b\n")
        with pytest.raises(TreeParseError, match=":2"):
            load_forest(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trees"
        path.write_text("")
        assert load_forest(path) == []

    def test_large_round_trip(self, tmp_path):
        from repro.datasets import SyntheticSpec, generate_dataset

        trees = generate_dataset(
            SyntheticSpec(size_mean=15, size_stddev=2), count=50, seed=3
        )
        path = tmp_path / "big.trees"
        save_forest(trees, path)
        assert load_forest(path) == trees


class TestXmlDirectory:
    def test_loads_sorted(self, tmp_path):
        (tmp_path / "b.xml").write_text("<b/>")
        (tmp_path / "a.xml").write_text("<a><x/></a>")
        trees = load_xml_directory(tmp_path)
        assert [t.label for t in trees] == ["a", "b"]

    def test_pattern_filter(self, tmp_path):
        (tmp_path / "a.xml").write_text("<a/>")
        (tmp_path / "ignore.txt").write_text("not xml")
        assert len(load_xml_directory(tmp_path)) == 1

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_xml_directory(tmp_path / "nope")

    def test_options_forwarded(self, tmp_path):
        (tmp_path / "a.xml").write_text('<a k="v">text</a>')
        (plain,) = load_xml_directory(
            tmp_path, include_attributes=False, include_text=False
        )
        assert plain.is_leaf


class TestSaveLoadDatabase:
    FOREST = ["a(b(c,d),b(c,d),e)", "a(b(c,d,b(e)),c,d,e)", "x(y(z),y(z))"]

    def _database(self):
        from repro.search.database import TreeDatabase

        return TreeDatabase([parse_bracket(text) for text in self.FOREST])

    def test_round_trip_extracts_once_per_tree(self, tmp_path):
        from repro.storage import load_database, save_database

        path = tmp_path / "db.trees"
        assert save_database(self._database(), path) == len(self.FOREST)
        assert [entry.name for entry in tmp_path.iterdir()] == ["db.trees"]
        loaded = load_database(path)
        assert len(loaded) == len(self.FOREST)
        assert loaded.features is not None
        assert loaded.features.extraction_passes == len(self.FOREST)
        assert loaded.filter.size == len(self.FOREST)

    def test_loaded_database_answers_match(self, tmp_path):
        from repro.storage import load_database, save_database

        original = self._database()
        path = tmp_path / "db.trees"
        save_database(original, path)
        loaded = load_database(path)
        query = parse_bracket(self.FOREST[0])
        assert loaded.range_query(query, 2)[0] == original.range_query(query, 2)[0]
        assert loaded.knn(query, 2)[0] == original.knn(query, 2)[0]

    def test_loaded_database_supports_add(self, tmp_path):
        from repro.storage import load_database, save_database

        path = tmp_path / "db.trees"
        save_database(self._database(), path)
        loaded = load_database(path)
        index = loaded.add(parse_bracket("q(r,s)"))
        assert loaded.features.extraction_passes == len(self.FOREST) + 1
        assert (index, 0.0) in loaded.range_query(parse_bracket("q(r,s)"), 0)[0]

    def test_missing_sidecar_falls_back_to_fresh_fit(self, tmp_path):
        from repro.storage import load_database

        path = tmp_path / "plain.trees"
        save_forest([parse_bracket(text) for text in self.FOREST], path)
        loaded = load_database(path)
        assert loaded.features is not None
        assert loaded.features.extraction_passes == len(self.FOREST)

    def test_garbage_features_json_is_never_read(self, tmp_path):
        """A ``<forest>.features.json`` next to the forest is ignored:
        no warning, and the answers are a fresh database's."""
        import warnings

        from repro.storage import load_database, save_database

        original = self._database()
        path = tmp_path / "db.trees"
        save_database(original, path)
        (tmp_path / "db.trees.features.json").write_text("{ not json at all")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_database(path)
        assert loaded.features.extraction_passes == len(self.FOREST)
        for text in self.FOREST:
            query = parse_bracket(text)
            assert loaded.range_query(query, 2)[0] == original.range_query(query, 2)[0]
            assert loaded.knn(query, 2)[0] == original.knn(query, 2)[0]

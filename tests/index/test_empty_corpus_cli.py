"""Empty-corpus sweep over the reporting CLI surface.

An empty ``.trees`` file is a legal corpus: every read-only command must
report zeros (exit 0) rather than raising, and only ``search`` — which
has nothing meaningful to answer — may refuse, with a clear message and
exit 1.  This pins the degenerate end of the corpus-size axis so sidecar
and index plumbing can assume "no rows" is always representable.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.storage import save_forest


@pytest.fixture
def empty_dataset(tmp_path):
    path = tmp_path / "empty.trees"
    save_forest([], path)
    return str(path)


@pytest.fixture
def empty_plane(tmp_path, empty_dataset, capsys):
    plane = str(tmp_path / "empty.plane.json")
    assert main(["features", "build", empty_dataset, "--out", plane]) == 0
    capsys.readouterr()  # discard build chatter
    return plane


class TestStatsCommands:
    def test_stats_reports_zero_trees(self, empty_dataset, capsys):
        assert main(["stats", empty_dataset]) == 0
        assert "count: 0" in capsys.readouterr().out

    def test_stats_avg_distance_is_zero(self, empty_dataset, capsys):
        assert main(["stats", empty_dataset, "--avg-distance"]) == 0
        assert "0.000" in capsys.readouterr().out

    def test_features_stats_all_zero(self, empty_plane, capsys):
        assert main(["features", "stats", empty_plane]) == 0
        out = capsys.readouterr().out
        assert "trees: 0" in out
        assert "vocabulary_size: 0" in out
        assert "total_nodes: 0" in out
        for line in out.splitlines():
            if line.startswith("matrix."):
                assert "rows=0" in line and "bytes=0" in line


class TestIndexCommands:
    def test_index_stats(self, empty_plane, capsys):
        assert main(["index", "stats", empty_plane]) == 0
        assert "rows: 0" in capsys.readouterr().out


class TestSearchRefuses:
    @pytest.mark.parametrize("source", ["auto", "vectorized", "ifi"])
    def test_search_reports_empty_dataset(self, empty_dataset, source, capsys):
        code = main(
            [
                "search", empty_dataset, "--query", "a(b,c)", "--range", "1",
                "--candidate-source", source,
            ]
        )
        assert code == 1
        assert "dataset is empty" in capsys.readouterr().err

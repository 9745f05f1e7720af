"""Failure paths of the persisted matrix sidecar.

The dense ``<plane>.matrices.npz`` follows the strict-accelerator
contract: a corrupt, stale, or mismatched file is *ignored* (one warning
+ one ``repro_sidecar_fallback_total`` increment), the planes are rebuilt
lazily, and answers are identical to a cold build.  Never fatal.
"""

from __future__ import annotations

import pytest

from repro.features.io import (
    load_feature_plane,
    matrix_sidecar_path,
    save_feature_plane,
)
from repro.features.store import FeatureStore
from repro.filters.binary_branch import BinaryBranchFilter
from repro.obs.metrics import get_registry
from repro.search.range_query import range_query
from repro.trees import parse_bracket

_BRACKETS = ["a(b,c)", "a(b,d)", "a(b(c),d)", "x(y,z)", "x(y)", "a(b,c)"]


def _fallbacks(sidecar: str, reason: str) -> float:
    counter = get_registry().counter(
        "repro_sidecar_fallback_total",
        "sidecar files ignored (corrupt/stale/version) in favour of rebuild",
        ("sidecar", "reason"),
    )
    return counter.value(sidecar=sidecar, reason=reason)


@pytest.fixture
def corpus():
    return [parse_bracket(bracket) for bracket in _BRACKETS]


class TestMatrixSidecar:
    def test_corrupt_npz_falls_back(self, tmp_path, corpus):
        path = str(tmp_path / "plane.json")
        store = FeatureStore((2,)).fit(corpus)
        save_feature_plane(store, path)
        clean = load_feature_plane(path)
        clean_answer = self._query(clean, corpus)

        with open(matrix_sidecar_path(path), "wb") as handle:
            handle.write(b"this is not a zip archive")
        before = _fallbacks("matrices", "corrupt")
        with pytest.warns(UserWarning, match="corrupt matrix sidecar"):
            damaged = load_feature_plane(path)
        assert _fallbacks("matrices", "corrupt") == before + 1
        # lazy rebuild: the planes come back from the restored features
        assert self._query(damaged, corpus) == clean_answer

    def test_stale_npz_falls_back(self, tmp_path, corpus):
        path = str(tmp_path / "plane.json")
        store = FeatureStore((2,)).fit(corpus)
        save_feature_plane(store, path)
        store.add(parse_bracket("q(r,s)"))
        from repro.features.io import save_matrix_sidecar

        save_matrix_sidecar(store, path)  # now ahead of the JSON plane
        before = _fallbacks("matrices", "stale")
        restored = load_feature_plane(path)
        assert _fallbacks("matrices", "stale") == before + 1
        assert self._query(restored, corpus) is not None

    @staticmethod
    def _query(store, corpus):
        flt = BinaryBranchFilter().fit_from_store(store)
        matches, stats = range_query(
            corpus, parse_bracket("a(b,c)"), 2.0, flt,
            matrices=store.matrices(),
        )
        return matches, stats.candidates


class TestFallbackExposition:
    def test_matrix_label_in_prometheus_text(self, tmp_path, corpus):
        """A matrix-sidecar fallback reports through the unified counter:
        the Prometheus exposition carries a ``repro_sidecar_fallback_total``
        series for ``sidecar="matrices"``."""
        path = str(tmp_path / "plane.json")
        store = FeatureStore((2,)).fit(corpus)
        save_feature_plane(store, path)
        with open(matrix_sidecar_path(path), "wb") as handle:
            handle.write(b"this is not a zip archive")

        with pytest.warns(UserWarning, match="corrupt matrix sidecar"):
            load_feature_plane(path)

        fallback_lines = [
            line
            for line in get_registry().prometheus_text().splitlines()
            if line.startswith("repro_sidecar_fallback_total{")
        ]
        assert any('sidecar="matrices"' in line for line in fallback_lines)

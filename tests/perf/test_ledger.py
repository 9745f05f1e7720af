"""The perf ledger: records, persistence, and the noise-aware comparator."""

from __future__ import annotations

import copy
import json

import pytest

from repro.perf.ledger import (
    LEDGER_FORMAT,
    LEDGER_VERSION,
    TIME_FLOOR_SECONDS,
    compare_records,
    format_comparison,
    load_record,
    machine_info,
    make_record,
    save_record,
)

_CORPUS = {"kind": "synthetic", "count": 60, "seed": 0}

_SUITES = {
    "serve_throughput": {
        "queries": 10,
        "wall_seconds": 1.0,
        "throughput_qps": 10.0,
        "latency": {"p50_seconds": 0.08, "p95_seconds": 0.2},
        "cost": {"range": {"refined": 12, "speedup_vs_unfiltered": 8.0}},
    },
    "index_candidates": {
        "corpus_rows": 60,
        "ifi": {"examined_rows": 120, "examined_fraction": 0.2, "refined": 9},
    },
}


def _record(label="BENCH_A"):
    return make_record(label, _CORPUS, copy.deepcopy(_SUITES))


class TestRecords:
    def test_schema_stamp(self):
        record = _record()
        assert record["format"] == LEDGER_FORMAT
        assert record["version"] == LEDGER_VERSION
        assert record["corpus"] == _CORPUS
        assert record["machine"]["python"] == machine_info()["python"]

    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_A.json")
        save_record(_record(), path)
        assert load_record(path)["suites"] == _SUITES

    def test_load_rejects_junk(self, tmp_path):
        path = str(tmp_path / "junk.json")
        with open(path, "w") as handle:
            handle.write("{ not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_record(path)

    def test_load_rejects_foreign_format(self, tmp_path):
        path = str(tmp_path / "foreign.json")
        with open(path, "w") as handle:
            json.dump({"format": "someone-else", "version": 1}, handle)
        with pytest.raises(ValueError, match="ledger record"):
            load_record(path)

    def test_load_rejects_future_version(self, tmp_path):
        record = _record()
        record["version"] = LEDGER_VERSION + 1
        path = str(tmp_path / "future.json")
        with open(path, "w") as handle:
            json.dump(record, handle)
        with pytest.raises(ValueError, match="version"):
            load_record(path)


class TestComparator:
    def test_self_compare_is_clean(self):
        comparison = compare_records(_record(), _record("BENCH_B"))
        assert comparison.ok
        assert comparison.regressions == []

    def test_time_regression_beyond_noise(self):
        current = _record("BENCH_B")
        current["suites"]["serve_throughput"]["wall_seconds"] = 2.0
        comparison = compare_records(_record(), current, noise=0.5)
        assert not comparison.ok
        metrics = [entry.metric for entry in comparison.regressions]
        assert metrics == ["serve_throughput.wall_seconds"]
        assert comparison.regressions[0].kind == "time"

    def test_time_drift_within_noise_is_ok(self):
        current = _record("BENCH_B")
        current["suites"]["serve_throughput"]["wall_seconds"] = 1.4
        assert compare_records(_record(), current, noise=0.5).ok

    def test_time_drift_under_absolute_floor_is_ok(self):
        baseline = _record()
        baseline["suites"]["serve_throughput"]["wall_seconds"] = 0.0001
        current = _record("BENCH_B")
        # 10x relative blow-up, but far below the absolute floor
        current["suites"]["serve_throughput"]["wall_seconds"] = 0.001
        assert 0.001 - 0.0001 < TIME_FLOOR_SECONDS
        assert compare_records(baseline, current, noise=0.5).ok

    def test_time_improvement_reported_not_gated(self):
        current = _record("BENCH_B")
        current["suites"]["serve_throughput"]["wall_seconds"] = 0.3
        comparison = compare_records(_record(), current, noise=0.5)
        assert comparison.ok
        assert [entry.metric for entry in comparison.improvements] == [
            "serve_throughput.wall_seconds"
        ]

    def test_rate_regression_is_lower(self):
        current = _record("BENCH_B")
        current["suites"]["serve_throughput"]["throughput_qps"] = 4.0
        comparison = compare_records(_record(), current, noise=0.5)
        assert not comparison.ok
        assert comparison.regressions[0].kind == "rate"

    def test_count_drift_is_regression_in_either_direction(self):
        for delta in (-2, +2):
            current = _record("BENCH_B")
            current["suites"]["index_candidates"]["ifi"]["refined"] += delta
            comparison = compare_records(_record(), current)
            assert not comparison.ok, f"delta {delta} must gate"
            assert comparison.regressions[0].kind == "count"

    def test_count_noise_tolerance(self):
        current = _record("BENCH_B")
        current["suites"]["index_candidates"]["ifi"]["refined"] = 10
        assert not compare_records(_record(), current).ok
        assert compare_records(_record(), current, count_noise=0.2).ok

    def test_ratio_drift_is_regression(self):
        current = _record("BENCH_B")
        current["suites"]["index_candidates"]["ifi"]["examined_fraction"] = 0.35
        comparison = compare_records(_record(), current)
        assert not comparison.ok
        assert comparison.regressions[0].kind == "ratio"

    def test_missing_metric_is_regression(self):
        current = _record("BENCH_B")
        del current["suites"]["serve_throughput"]["latency"]["p95_seconds"]
        comparison = compare_records(_record(), current)
        assert not comparison.ok
        assert comparison.regressions[0].status == "regression"
        assert comparison.regressions[0].current is None

    def test_new_metric_is_ok(self):
        current = _record("BENCH_B")
        current["suites"]["serve_throughput"]["latency"]["p99_seconds"] = 0.3
        comparison = compare_records(_record(), current)
        assert comparison.ok
        assert any(entry.status == "new" for entry in comparison.entries)

    def test_corpus_mismatch_refused(self):
        current = _record("BENCH_B")
        current["corpus"] = {"kind": "synthetic", "count": 999, "seed": 0}
        with pytest.raises(ValueError, match="corpus"):
            compare_records(_record(), current)
        assert compare_records(
            _record(), current, allow_corpus_mismatch=True
        ).ok

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            compare_records(_record(), _record(), noise=-0.1)


class TestFormatting:
    def test_regressions_always_shown(self):
        current = _record("BENCH_B")
        current["suites"]["serve_throughput"]["wall_seconds"] = 9.0
        comparison = compare_records(_record(), current)
        text = format_comparison(comparison)
        assert "REGRESSION" in text
        assert "serve_throughput.wall_seconds" in text
        assert "1 regression(s)" in text

    def test_verbose_shows_ok_entries(self):
        comparison = compare_records(_record(), _record("BENCH_B"))
        assert "OK" not in format_comparison(comparison)
        assert "OK" in format_comparison(comparison, verbose=True)

    def test_to_dict_gate_fields(self):
        document = compare_records(_record(), _record("BENCH_B")).to_dict()
        assert document["ok"] is True
        assert document["regressions"] == 0
        assert {"metric", "kind", "baseline", "current", "status"} <= set(
            document["entries"][0]
        )

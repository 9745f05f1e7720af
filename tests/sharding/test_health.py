"""Shard health telemetry: snapshots, gauges, imbalance warnings."""

from __future__ import annotations

import pytest

from repro.sharding import ShardedTreeService
from repro.sharding.coordinator import (
    _LOAD_IMBALANCE_RATIO,
    _TREE_IMBALANCE_RATIO,
)
from repro.trees import parse_bracket

BRACKETS = [
    "a(b,c)",
    "a(b,d)",
    "x(y(z),w)",
    "a(b(c,d),e(f))",
    "a(b,c,d)",
    "x(y,w)",
]

_SNAPSHOT_KEYS = {
    "shard",
    "trees",
    "filter",
    "uptime_seconds",
    "rss_bytes",
    "requests",
    "requests_total",
    "stage_seconds",
    "distance_computations",
    "gated_distances",
    "distance_rungs",
}


@pytest.fixture
def trees():
    return [parse_bracket(b) for b in BRACKETS]


@pytest.fixture
def service(trees):
    with ShardedTreeService(trees, shards=2, max_workers=2) as service:
        yield service


class TestHealthSnapshot:
    def test_snapshot_shape(self, service, trees):
        service.range(trees[0], 1.0)
        health = service.health()
        assert set(health) == {"shards", "warnings"}
        assert len(health["shards"]) == 2
        for snapshot in health["shards"]:
            assert _SNAPSHOT_KEYS <= set(snapshot)
            assert snapshot["uptime_seconds"] > 0
            assert snapshot["requests_total"] >= 1
            assert set(snapshot["stage_seconds"]) == {"filter", "refine"}

    def test_stage_seconds_accumulate(self, service, trees):
        service.range(trees[0], 2.0)
        service.knn(trees[0], 2)
        totals = [
            sum(snapshot["stage_seconds"].values())
            for snapshot in service.health()["shards"]
        ]
        assert all(total > 0 for total in totals)

    def test_requests_counted_per_op(self, service, trees):
        service.range(trees[0], 1.0)
        health = service.health()
        ops = set()
        for snapshot in health["shards"]:
            ops.update(snapshot["requests"])
        assert "range" in ops

    def test_health_after_close_raises(self, trees):
        service = ShardedTreeService(trees, shards=2)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.health()


class TestHealthGauges:
    def test_gauges_land_in_registry(self, service, trees):
        service.range(trees[0], 1.0)
        service.health()
        text = service.metrics.prometheus_text()
        for name in (
            "repro_shard_trees",
            "repro_shard_uptime_seconds",
            "repro_shard_rss_bytes",
            "repro_shard_requests_total",
            "repro_shard_stage_seconds",
        ):
            assert f'{name}{{shard="0"' in text or f"{name}{{" in text, name
        assert 'repro_shard_trees{shard="0"}' in text
        assert 'repro_shard_trees{shard="1"}' in text
        assert 'stage="filter"' in text and 'stage="refine"' in text

    def test_load_gauges_registered_on_rpc_path(self, service, trees):
        service.range(trees[0], 1.0)
        text = service.metrics.prometheus_text()
        # queue depth / in-flight return to zero once the query completes
        assert 'repro_shard_queue_depth{shard="0"} 0.0' in text
        assert 'repro_shard_inflight_requests{shard="0"} 0.0' in text


class TestImbalanceWarnings:
    def test_balanced_corpus_has_no_warnings(self, service, trees):
        service.range(trees[0], 1.0)
        assert service.health()["warnings"] == []

    def test_tree_skew_warns_and_counts(self, trees):
        with ShardedTreeService(trees, shards=2) as service:
            # pile inserts onto whatever shard the partitioner picks next,
            # then force skew by adding many trees round-robin is balanced,
            # so instead drop the threshold's worth directly: 6 trees split
            # 3/3 is balanced; add 6 more where round-robin keeps balance —
            # so simulate skew through the published snapshots instead
            health = service.health()
            snapshots = health["shards"]
            snapshots[0]["trees"] = 10
            snapshots[1]["trees"] = 1
            warnings = service._publish_health(snapshots)
            assert any("tree placement skew" in warning for warning in warnings)
            counter = service.metrics.counter(
                "repro_shard_imbalance_warnings_total",
                "health() snapshots that flagged a shard imbalance.",
                ("dimension",),
            )
            assert counter.value(dimension="trees") >= 1
            assert 10 > 1 * _TREE_IMBALANCE_RATIO  # the configured threshold

    def test_busy_skew_warns(self, service):
        snapshots = service.health()["shards"]
        snapshots[0]["stage_seconds"] = {"filter": 1.0, "refine": 1.0}
        snapshots[1]["stage_seconds"] = {"filter": 0.0, "refine": 0.001}
        warnings = service._publish_health(snapshots)
        assert any("busy-time skew" in warning for warning in warnings)
        assert 2.0 > 0.001 * _LOAD_IMBALANCE_RATIO

    def test_tiny_busy_times_never_warn(self, service):
        snapshots = service.health()["shards"]
        # heavy relative skew, but under the absolute floor
        snapshots[0]["stage_seconds"] = {"filter": 0.010, "refine": 0.0}
        snapshots[1]["stage_seconds"] = {"filter": 0.0001, "refine": 0.0}
        assert service._publish_health(snapshots) == []

"""The serving instrument inventory and its count-valued samples, pinned.

Both serving tiers record into one ``MetricsRegistry``.  Dashboards and
scrapers read it by instrument name, so the names, types, help strings,
label sets and registration order (the Prometheus text order) are a
contract.  So are the counts a fixed seeded workload produces; only
timing-valued samples (phase seconds, histogram sums and buckets, the
shard gauges) may vary from run to run.
"""

import pytest

from repro.datasets import SyntheticSpec, generate_dataset
from repro.search.database import TreeDatabase
from repro.service import TreeSearchService, WorkloadSpec, generate_workload, replay
from repro.sharding import ShardedTreeService
from repro.trees import parse_bracket

#: (name, type, help, labels) of every instrument a TreeSearchService
#: registers, in registration order.
SERVICE_INSTRUMENTS = [
    ("repro_queries_total", "counter", "Queries served, by kind.", ["kind"]),
    ("repro_cache_hits_total", "counter", "Result-cache hits.", []),
    ("repro_cache_misses_total", "counter", "Result-cache misses.", []),
    ("repro_batches_total", "counter", "Batch submissions.", []),
    (
        "repro_dataset_objects_considered_total",
        "counter",
        "Database objects scanned by the filter step.",
        [],
    ),
    (
        "repro_candidates_examined_total",
        "counter",
        "Filter survivors refined with the exact edit distance.",
        [],
    ),
    ("repro_results_returned_total", "counter", "Objects in final answers.", []),
    (
        "repro_phase_seconds_total",
        "counter",
        "CPU seconds per query phase, by phase and query kind.",
        ["phase", "kind"],
    ),
    (
        "repro_invalidations_total",
        "counter",
        "Cache invalidation passes (mutations).",
        [],
    ),
    (
        "repro_cache_entries_retained_total",
        "counter",
        "Cache entries proven valid across a mutation.",
        [],
    ),
    (
        "repro_cache_entries_evicted_total",
        "counter",
        "Cache entries dropped by a mutation.",
        [],
    ),
    (
        "repro_query_latency_seconds",
        "histogram",
        "End-to-end query latency.",
        ["kind"],
    ),
]

#: What a ShardedTreeService adds at construction ...
SHARD_INSTRUMENTS = [
    (
        "repro_shard_latency_seconds",
        "histogram",
        "Coordinator-observed per-shard round-trip latency.",
        ["shard", "kind"],
    ),
    (
        "repro_shard_queue_depth",
        "gauge",
        "Coordinator threads waiting for a worker's pipe lock.",
        ["shard"],
    ),
    (
        "repro_shard_inflight_requests",
        "gauge",
        "Requests currently on the wire to a worker.",
        ["shard"],
    ),
    (
        "repro_shard_imbalance_warnings_total",
        "counter",
        "health() snapshots that flagged a shard imbalance.",
        ["dimension"],
    ),
]

#: ... and what its first health() snapshot adds.
HEALTH_INSTRUMENTS = [
    (
        "repro_shard_stage_seconds",
        "gauge",
        "Cumulative busy seconds per pipeline stage on the shard.",
        ["shard", "stage"],
    ),
    ("repro_shard_trees", "gauge", "Trees resident on the shard.", ["shard"]),
    (
        "repro_shard_uptime_seconds",
        "gauge",
        "Seconds since the shard worker started.",
        ["shard"],
    ),
    (
        "repro_shard_rss_bytes",
        "gauge",
        "Peak resident set size of the shard worker process.",
        ["shard"],
    ),
    (
        "repro_shard_requests_total",
        "gauge",
        "Requests the shard worker has served.",
        ["shard"],
    ),
    (
        "repro_shard_distance_computations",
        "gauge",
        "Exact tree-edit distances the shard has computed.",
        ["shard"],
    ),
]

#: Count-valued samples after :func:`_drive`: counter values, and each
#: latency histogram's ``count`` per label set.
SERVICE_COUNTS = {
    "repro_queries_total": {"knn": 35.0, "range": 28.0},
    "repro_cache_hits_total": 48.0,
    "repro_cache_misses_total": 15.0,
    "repro_batches_total": 1.0,
    "repro_dataset_objects_considered_total": 601.0,
    "repro_candidates_examined_total": 116.0,
    "repro_results_returned_total": 49.0,
    "repro_invalidations_total": 1.0,
    "repro_cache_entries_retained_total": 13.0,
    "repro_cache_entries_evicted_total": 1.0,
    "repro_query_latency_seconds": {"knn": 35, "range": 28},
}

SHARDED_COUNTS = {
    "repro_queries_total": {"knn": 35.0, "range": 28.0},
    "repro_cache_hits_total": 0.0,
    "repro_cache_misses_total": 63.0,
    "repro_batches_total": 1.0,
    "repro_dataset_objects_considered_total": 2550.0,
    "repro_candidates_examined_total": 528.0,
    "repro_results_returned_total": 217.0,
    "repro_invalidations_total": 1.0,
    "repro_cache_entries_retained_total": 0.0,
    "repro_cache_entries_evicted_total": 0.0,
    "repro_query_latency_seconds": {"knn": 35, "range": 28},
    "repro_shard_latency_seconds": {
        "0,add": 1,
        "0,control": 2,
        "0,knn": 35,
        "0,range": 28,
        "1,control": 2,
        "1,knn": 35,
        "1,range": 28,
    },
}

SPEC = SyntheticSpec(
    fanout_mean=3, fanout_stddev=0.5, size_mean=10, size_stddev=2,
    label_count=6, decay=0.1,
)


@pytest.fixture(scope="module")
def trees():
    return generate_dataset(SPEC, count=40, seed=5)


def _drive(service, trees):
    """Replay a seeded workload, batch, add one tree, replay again."""
    workload = generate_workload(
        trees, WorkloadSpec(queries=30, repeat_fraction=0.5, seed=3)
    )
    replay(service, workload)
    service.batch(workload[:3])
    service.add(parse_bracket("l0(l1,l2(l3))"))
    replay(service, workload)


def _inventory(registry):
    return [
        (instrument.name, instrument.kind, instrument.help,
         list(instrument.labelnames))
        for instrument in registry.instruments()
    ]


def _counts(registry, names):
    snapshot = registry.snapshot()
    counts = {}
    for name in names:
        entry = snapshot[name]
        if entry["type"] == "histogram":
            counts[name] = {
                labels: state["count"] for labels, state in entry["value"].items()
            }
        else:
            counts[name] = entry["value"]
    return counts


def test_single_process_inventory_and_counts(trees):
    with TreeSearchService(TreeDatabase(list(trees))) as service:
        assert _inventory(service.metrics) == SERVICE_INSTRUMENTS
        _drive(service, trees)
        assert _inventory(service.metrics) == SERVICE_INSTRUMENTS
        assert _counts(service.metrics, SERVICE_COUNTS) == SERVICE_COUNTS


def test_sharded_inventory_and_counts(trees):
    with ShardedTreeService(list(trees), shards=2, max_workers=2) as service:
        constructed = SERVICE_INSTRUMENTS + SHARD_INSTRUMENTS
        assert _inventory(service.metrics) == constructed
        _drive(service, trees)
        service.health()
        assert _inventory(service.metrics) == constructed + HEALTH_INSTRUMENTS
        # imbalance warnings are left out: the busy-time skew is timing
        assert _counts(service.metrics, SHARDED_COUNTS) == SHARDED_COUNTS

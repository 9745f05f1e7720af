"""Serving-layer throughput: the caching/batching win on repeated traffic.

Not a paper figure — a harness entry for the `repro.service` subsystem.
A repeated-query workload (the regime real serving traffic lives in) is
replayed twice against the same dataset:

* **cold**: every query served one at a time on a cache-disabled service —
  the sum of these wall-clocks is what naive single-shot serving costs;
* **served**: the same stream through a cached `TreeSearchService` with
  concurrent clients.

The assertions encode the subsystem's reason to exist: the cache must
actually hit, answers must be identical, and the served wall-clock must
beat the sum of the cold single-query wall-clocks.
"""


from benchmarks.figure_common import current_scale, save_report
from repro.datasets import SyntheticSpec, generate_dataset
from repro.search.database import TreeDatabase
from repro.service import (
    TreeSearchService,
    WorkloadSpec,
    format_report,
    generate_workload,
    replay,
)

SPEC = SyntheticSpec(
    fanout_mean=4, fanout_stddev=0.5, size_mean=20, size_stddev=2,
    label_count=8, decay=0.05,
)


def test_service_throughput(benchmark):
    scale = current_scale()
    dataset_size = max(60, scale.dataset_size // 2)
    trees = generate_dataset(SPEC, count=dataset_size, seed=11)
    workload = generate_workload(
        trees,
        WorkloadSpec(
            queries=max(30, scale.query_count * 5),
            range_fraction=0.5,
            threshold=3.0,
            k=3,
            repeat_fraction=0.6,
            seed=7,
        ),
    )

    # cold baseline: no result cache, one query at a time
    with TreeSearchService(TreeDatabase(list(trees)), cache_size=0) as cold:
        cold_answers, cold_report = replay(cold, workload, clients=1)
    cold_total = cold_report.total_latency_seconds

    def run():
        with TreeSearchService(
            TreeDatabase(list(trees)), max_workers=4, cache_size=1024
        ) as service:
            return replay(service, workload, clients=4)

    served_answers, served_report = benchmark.pedantic(run, rounds=1, iterations=1)

    snapshot = served_report.metrics
    save_report("service_throughput", "\n".join([
        "Serving-layer throughput (repeated-query workload)",
        "",
        "cold (uncached, serial):",
        format_report(cold_report),
        "",
        "served (cached, concurrent):",
        format_report(served_report),
        "",
        f"speedup vs cold sum-of-latencies: "
        f"{cold_total / max(served_report.wall_seconds, 1e-9):.1f}x",
    ]))

    # identical answers, not merely similar ones
    assert served_answers == cold_answers
    # the cache must be exercised by a repeated-query workload ...
    assert snapshot["repro_cache_hits_total"]["value"] > 0
    # ... and batched+cached serving must beat the sum of cold wall-clocks
    assert served_report.wall_seconds < cold_total
    # the registry snapshot carries the phase seconds and latency histograms
    phases = snapshot["repro_phase_seconds_total"]["value"]
    assert all(seconds >= 0.0 for seconds in phases.values())
    assert sum(
        seconds for series, seconds in phases.items() if series.startswith("refine")
    ) > 0.0
    latency = snapshot["repro_query_latency_seconds"]["value"]
    for kind_histogram in latency.values():
        assert kind_histogram["p50_seconds"] <= kind_histogram["p99_seconds"]


def test_sharded_service_throughput(benchmark):
    """Shard-parallel scatter-gather vs the single-process service.

    A fresh-query workload (no repeats — the multi-shard path has no
    result cache, so repeats would only flatter the baseline) is replayed
    at shards ∈ {1, 2, 4}.  Answers must be bit-identical at every shard
    count; the ≥2× shards=4 speedup is asserted only when the host
    actually exposes ≥4 CPUs (a single-core container can't parallelise).
    """
    import os

    from repro.sharding import ShardedTreeService

    scale = current_scale()
    dataset_size = max(60, scale.dataset_size // 2)
    trees = generate_dataset(SPEC, count=dataset_size, seed=11)
    workload = generate_workload(
        trees,
        WorkloadSpec(
            queries=max(24, scale.query_count * 4),
            range_fraction=0.5,
            threshold=3.0,
            k=3,
            repeat_fraction=0.0,
            seed=13,
        ),
    )

    def run_at(shards):
        if shards == 1:
            # the one-process baseline, uncached like the sharded runs
            service = TreeSearchService(
                TreeDatabase(trees), max_workers=4, cache_size=0
            )
        else:
            service = ShardedTreeService(trees, shards=shards, max_workers=4)
        with service:
            return replay(service, workload, clients=4)

    answers = {}
    reports = {}
    for shards in (1, 2):
        answers[shards], reports[shards] = run_at(shards)
    answers[4], reports[4] = benchmark.pedantic(
        lambda: run_at(4), rounds=1, iterations=1
    )

    lines = [
        "Shard-parallel serving throughput (fresh-query workload)",
        "",
        f"dataset: {dataset_size} trees · "
        f"{len(workload)} queries · 4 client threads",
        "",
    ]
    base = reports[1].wall_seconds
    for shards in (1, 2, 4):
        report = reports[shards]
        lines.append(
            f"shards={shards}:  wall {report.wall_seconds:.4f} s · "
            f"{report.throughput_qps:.1f} queries/s · "
            f"speedup {base / max(report.wall_seconds, 1e-9):.2f}x"
        )
    save_report("service_sharding", "\n".join(lines))

    # sharding must be invisible in the answers, at every layout
    assert answers[2] == answers[1]
    assert answers[4] == answers[1]
    # the scaling claim needs actual cores to stand on
    if len(os.sched_getaffinity(0)) >= 4:
        assert reports[4].wall_seconds * 2.0 <= base

"""Deterministic synthetic query traffic: generation and replay.

Serving-layer changes (cache sizing, pool width, filter choice) need a
repeatable workload to be comparable across runs.  This module provides

* :func:`generate_workload` — a seeded generator producing a mixed
  range/k-NN query stream over a dataset, with a configurable *repetition*
  fraction (real query traffic is heavily repetitive, which is exactly what
  a result cache exploits);
* :func:`replay` — a driver that fires the stream at any
  :class:`~repro.service.engine.QueryService` (single-process or sharded)
  either serially or from concurrent client threads, timing every query,
  and reports throughput, exact latency percentiles, and the snapshot of
  the service's metrics registry.

Everything is deterministic given the spec's ``seed`` (the concurrent
replay's *interleaving* is scheduler-dependent, but the query stream and
the answers are not).
"""

from __future__ import annotations

import contextvars
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError
from repro.service.engine import QueryRequest, QueryService
from repro.trees.node import TreeNode

__all__ = [
    "WorkloadSpec",
    "WorkloadReport",
    "generate_workload",
    "replay",
    "format_report",
    "percentile",
]


def percentile(samples: Sequence[float], p: float) -> float:
    """Exact nearest-rank percentile of a sample list.

    The smallest sample with at least ``p`` percent of the samples at or
    below it.  ``p`` is in ``[0, 100]``; an empty sample list yields
    ``0.0``.  The rank is ``ceil(p * n / 100)``, dividing last: for an
    integer ``p`` the product ``p * n`` is exact, whereas ``p / 100 * n``
    can land a hair above an integer and ceil one rank too far.

    >>> percentile([1, 2, 3, 4], 50)
    2
    >>> percentile(range(1, 101), 90)
    90
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a synthetic query stream.

    ``repeat_fraction`` of the queries re-issue an earlier query verbatim
    (uniformly over history); the rest draw a fresh query tree from the
    dataset.  ``range_fraction`` of the fresh queries are range queries with
    ``threshold``; the others are k-NN with ``k``.
    """

    queries: int = 100
    range_fraction: float = 0.5
    threshold: float = 2.0
    k: int = 3
    repeat_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise QueryError(f"workload needs >= 1 queries, got {self.queries}")
        for name in ("range_fraction", "repeat_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise QueryError(f"{name} must be in [0, 1], got {value}")


def generate_workload(
    trees: Sequence[TreeNode], spec: WorkloadSpec
) -> List[QueryRequest]:
    """Deterministic query stream over ``trees`` (same spec ⇒ same stream)."""
    if not trees:
        raise QueryError("cannot generate a workload over an empty dataset")
    rng = random.Random(spec.seed)
    stream: List[QueryRequest] = []
    for _ in range(spec.queries):
        if stream and rng.random() < spec.repeat_fraction:
            stream.append(stream[rng.randrange(len(stream))])
            continue
        query = trees[rng.randrange(len(trees))]
        if rng.random() < spec.range_fraction:
            stream.append(QueryRequest("range", query, threshold=spec.threshold))
        else:
            k = min(spec.k, len(trees))
            stream.append(QueryRequest("knn", query, k=k))
    return stream


@dataclass
class WorkloadReport:
    """What one replay measured.

    ``metrics`` is the service registry's
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` at the end of the
    replay, keyed by instrument name.
    """

    mode: str
    queries: int
    clients: int
    wall_seconds: float
    latencies: List[float] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput_qps(self) -> float:
        """Queries completed per wall-clock second."""
        return self.queries / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def total_latency_seconds(self) -> float:
        """Sum of per-query latencies (= serial wall-clock equivalent)."""
        return sum(self.latencies)

    def latency_percentile(self, p: float) -> float:
        """Exact ``p``-th percentile over the recorded per-query latencies."""
        return percentile(self.latencies, p)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (latency list reduced to percentiles)."""
        return {
            "mode": self.mode,
            "queries": self.queries,
            "clients": self.clients,
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "latency": {
                "mean_seconds": (
                    self.total_latency_seconds / len(self.latencies)
                    if self.latencies
                    else 0.0
                ),
                "p50_seconds": self.latency_percentile(50),
                "p90_seconds": self.latency_percentile(90),
                "p99_seconds": self.latency_percentile(99),
                "max_seconds": max(self.latencies) if self.latencies else 0.0,
            },
            "metrics": self.metrics,
        }


def replay(
    service: QueryService,
    workload: Sequence[QueryRequest],
    clients: int = 1,
) -> Tuple[List[List[Tuple[int, float]]], WorkloadReport]:
    """Fire ``workload`` at ``service`` and measure it.

    ``service`` is either serving tier — a
    :class:`~repro.service.engine.TreeSearchService` or a
    :class:`~repro.sharding.ShardedTreeService`.  ``clients=1`` replays
    serially on the calling thread; ``clients>1`` simulates that many
    concurrent clients draining a shared queue.  Every
    query's latency is measured around the service call itself, so the
    report's percentiles are exact.  Returns the per-query match lists (in
    workload order — the replay is answer-deterministic regardless of
    interleaving) and the :class:`WorkloadReport`.
    """
    if clients < 1:
        raise QueryError(f"clients must be >= 1, got {clients}")
    answers: List[Optional[List[Tuple[int, float]]]] = [None] * len(workload)
    latencies: List[float] = [0.0] * len(workload)

    def serve_one(position: int) -> None:
        begin = time.perf_counter()
        matches, _ = service.execute(workload[position])
        latencies[position] = time.perf_counter() - begin
        answers[position] = matches

    start = time.perf_counter()
    if clients == 1:
        for position in range(len(workload)):
            serve_one(position)
    else:
        # copy the caller's context per query so an active funnel sink or
        # span survives the hop into the client threads (one copy per
        # query — a single Context cannot be entered concurrently)
        contexts = [contextvars.copy_context() for _ in workload]
        with ThreadPoolExecutor(
            max_workers=clients, thread_name_prefix="repro-client"
        ) as pool:
            # list() propagates the first worker exception, if any
            list(
                pool.map(
                    lambda position: contexts[position].run(serve_one, position),
                    range(len(workload)),
                )
            )
    wall = time.perf_counter() - start
    report = WorkloadReport(
        mode="serial" if clients == 1 else f"concurrent×{clients}",
        queries=len(workload),
        clients=clients,
        wall_seconds=wall,
        latencies=latencies,
        metrics=service.metrics.snapshot(),
    )
    return [matches if matches is not None else [] for matches in answers], report


def format_report(report: WorkloadReport) -> str:
    """Human-readable multi-line summary of one replay."""
    summary = report.to_dict()
    latency = summary["latency"]
    metrics = report.metrics
    lines = [
        f"mode:            {report.mode}",
        f"queries:         {report.queries}",
        f"wall seconds:    {report.wall_seconds:.4f}",
        f"throughput:      {report.throughput_qps:.1f} queries/s",
        (
            "latency:         "
            f"p50 {latency['p50_seconds'] * 1000:.2f} ms · "
            f"p90 {latency['p90_seconds'] * 1000:.2f} ms · "
            f"p99 {latency['p99_seconds'] * 1000:.2f} ms · "
            f"max {latency['max_seconds'] * 1000:.2f} ms"
        ),
    ]
    if "repro_cache_hits_total" in metrics:
        hits = int(metrics["repro_cache_hits_total"]["value"])
        misses = int(metrics["repro_cache_misses_total"]["value"])
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        lines.append(
            f"result cache:    {hits} hits / {misses} misses "
            f"(hit rate {hit_rate:.1%})"
        )
    if "repro_phase_seconds_total" in metrics:
        # series keys are "phase,kind", as the registry snapshot labels them
        phases = metrics["repro_phase_seconds_total"]["value"]
        lines.append(
            "cpu seconds:     "
            + " · ".join(
                f"{series.replace(',', ' ')} {seconds:.4f}"
                for series, seconds in phases.items()
            )
        )
    return "\n".join(lines)

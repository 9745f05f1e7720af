"""The declared perf-ledger benchmark suite (``repro bench run``).

Three legs, each measuring one of the system's load-bearing claims over
a pinned synthetic corpus:

* ``serve_throughput`` — a deterministic workload replayed serially
  through :class:`~repro.service.engine.TreeSearchService` on the serving
  default filter (cache off, no repeats, so every candidate count is a
  pure function of corpus and seed): throughput, exact latency
  percentiles, and the per-kind cascade cost report (refined and gated
  counts, actual seconds, measured speedup vs unfiltered);
* ``vectorized_filters`` — the same range-query stream answered by the
  per-candidate loop and by the matrix-plane cascade; records both
  filter-stage timings and the (identical) refined counts, on the pure
  BiBranch filter;
* ``index_candidates`` — the same stream again through the ``ifi``
  inverted file; records the rows it examined (the sublinearity claim)
  and the refined count.

Counts and fractions in the emitted suites are deterministic given
``(corpus, seed)``; times are machine-dependent and gated with the
comparator's noise threshold (:mod:`repro.perf.ledger`).  Every timed
region starts right after a full garbage collection, so where a cyclic
collection lands depends on the region's own allocations, not on how
many objects happened to be imported or built before it.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Sequence

from repro.filters.binary_branch import BinaryBranchFilter
from repro.obs.funnel import collect_funnels
from repro.search.database import TreeDatabase
from repro.search.range_query import range_query
from repro.service.engine import TreeSearchService
from repro.service.workload import (
    WorkloadSpec,
    generate_workload,
    percentile,
    replay,
)
from repro.trees.node import TreeNode

__all__ = ["SUITE_NAMES", "run_bench_suite"]

#: the declared suite: every leg a record must contain
SUITE_NAMES = ("serve_throughput", "vectorized_filters", "index_candidates")

def _select_queries(
    trees: Sequence[TreeNode], count: int, seed: int
) -> List[TreeNode]:
    rng = random.Random(seed)
    return [trees[rng.randrange(len(trees))] for _ in range(count)]


def _serve_throughput(
    trees: Sequence[TreeNode],
    queries: int,
    threshold: float,
    k: int,
    seed: int,
) -> Dict[str, object]:
    spec = WorkloadSpec(
        queries=queries,
        range_fraction=0.5,
        threshold=threshold,
        k=min(k, len(trees)),
        repeat_fraction=0.0,  # no repeats + no cache: counts stay exact
        seed=seed,
    )
    workload = generate_workload(trees, spec)
    database = TreeDatabase(list(trees))
    gc.collect()
    with collect_funnels() as sink:
        with TreeSearchService(database, cache_size=0) as service:
            _, report = replay(service, workload, clients=1)
    leg: Dict[str, object] = {
        "queries": report.queries,
        "wall_seconds": report.wall_seconds,
        "throughput_qps": report.throughput_qps,
        "latency": {
            "p50_seconds": percentile(report.latencies, 50),
            "p95_seconds": percentile(report.latencies, 95),
            "p99_seconds": percentile(report.latencies, 99),
        },
    }
    costs: Dict[str, object] = {}
    for kind, cost in sink.aggregate().cost_report().items():
        costs[kind] = {
            "refined": cost.refined,
            "gated": cost.gated,
            "results": cost.results,
            "filter_seconds": cost.filter_seconds,
            "refine_seconds": cost.refine_seconds,
            "speedup_vs_unfiltered": cost.speedup_vs_unfiltered,
        }
    leg["cost"] = costs
    return leg


def _vectorized_filters(
    trees: Sequence[TreeNode],
    queries: int,
    threshold: float,
    seed: int,
) -> Dict[str, object]:
    stream = _select_queries(trees, queries, seed)
    database = TreeDatabase(list(trees), flt=BinaryBranchFilter())
    flt, counter = database.filter, database.counter
    matrices = database.matrices()

    def _filter_seconds(use_matrices) -> Dict[str, float]:
        filter_seconds = 0.0
        refined = 0
        results = 0
        gc.collect()
        started = time.perf_counter()
        for query in stream:
            matches, stats = range_query(
                trees, query, threshold, flt, counter, matrices=use_matrices
            )
            filter_seconds += stats.filter_seconds
            refined += stats.candidates
            results += len(matches)
        return {
            "filter_seconds": filter_seconds,
            "total_seconds": time.perf_counter() - started,
            "refined": refined,
            "results": results,
        }

    return {
        "queries": queries,
        "loop": _filter_seconds(None),
        "vectorized": _filter_seconds(matrices),
    }


def _index_candidates(
    trees: Sequence[TreeNode],
    queries: int,
    threshold: float,
    seed: int,
) -> Dict[str, object]:
    stream = _select_queries(trees, queries, seed)
    database = TreeDatabase(list(trees), flt=BinaryBranchFilter())
    flt, counter = database.filter, database.counter
    index = database.candidate_index()
    # a full-scan source examines the corpus size per query; the index
    # reports what each probe actually touched
    examined = 0
    refined = 0
    gc.collect()
    started = time.perf_counter()
    for query in stream:
        _, stats = range_query(trees, query, threshold, flt, counter, index=index)
        examined += index.last_examined
        refined += stats.candidates
    total = len(trees) * queries
    return {
        "queries": queries,
        "corpus_rows": len(trees),
        "ifi": {
            "examined_rows": examined,
            "examined_fraction": examined / total if total else 0.0,
            "refined": refined,
            "total_seconds": time.perf_counter() - started,
        },
    }


def run_bench_suite(
    trees: Sequence[TreeNode],
    queries: int = 40,
    threshold: float = 1.5,
    k: int = 3,
    seed: int = 0,
) -> Dict[str, Dict[str, object]]:
    """Execute every declared leg; returns the record's ``suites`` dict."""
    if not trees:
        raise ValueError("cannot benchmark an empty corpus")
    if queries < 1:
        raise ValueError(f"need >= 1 queries, got {queries}")
    return {
        "serve_throughput": _serve_throughput(trees, queries, threshold, k, seed),
        "vectorized_filters": _vectorized_filters(trees, queries, threshold, seed),
        "index_candidates": _index_candidates(trees, queries, threshold, seed),
    }

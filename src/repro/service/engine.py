"""`TreeSearchService` — a thread-safe query-serving layer over TreeDatabase.

The library's query functions are single-shot: one caller, one query, one
`SearchStats`.  A serving deployment needs more:

* **concurrency** — many clients issue queries against one shared database;
  queries must not observe a half-applied ``add``;
* **result caching** — real traffic repeats queries, and the refinement step
  (pure-Python Zhang–Shasha) is expensive enough that a bounded LRU of
  answers keyed by the *canonical bracket form* of the query plus the query
  kind and parameters pays for itself immediately;
* **shared preparation** — every in-flight query reuses one bounded
  :class:`~repro.editdist.zhang_shasha.PreparedTreeCache`, so database trees
  are postorder-flattened once, not once per thread;
* **batching** — ``batch_range`` / ``batch_knn`` fan a list of queries out
  over a ``ThreadPoolExecutor``;
* **observability** — every query is recorded into the service's
  :class:`~repro.obs.metrics.MetricsRegistry` (``service.metrics``).

Consistency model: mutations are exclusive — they wait for in-flight
queries to drain, and queries started after the mutation see the new tree.
The result cache is invalidated **selectively** on
:meth:`TreeSearchService.add`: the database's lower-bound filter already
proves, for each cached answer, whether the newly inserted tree could
possibly appear in it (range: the bound between the cached query and the
new tree exceeds the threshold; k-NN: the result is full and the bound
reaches the current k-th distance).  Provably unaffected entries
are retained, everything else is evicted; entries are additionally stamped
with the database's :attr:`~repro.search.database.TreeDatabase.generation`
counter, so answers cached against a database state the service did not
itself produce (e.g. an out-of-band ``database.add``) are discarded on
lookup.  Answers are therefore always consistent with *some* complete
database state, never a torn one.

Examples
--------
>>> from repro.trees import parse_bracket
>>> from repro.search.database import TreeDatabase
>>> db = TreeDatabase([parse_bracket("a(b,c)"), parse_bracket("a(b,d)"),
...                    parse_bracket("x(y)")])
>>> service = TreeSearchService(db)
>>> matches, _ = service.range(parse_bracket("a(b,c)"), 1)
>>> [index for index, _ in matches]
[0, 1]
>>> matches, _ = service.range(parse_bracket("a(b,c)"), 1)  # cache hit
>>> service.metrics.get("repro_cache_hits_total").value()
1.0
"""

from __future__ import annotations

import abc
import contextvars
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.editdist.zhang_shasha import EditDistanceCounter, PreparedTreeCache
from repro.exceptions import InvalidParameterError, QueryError
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.search.database import TreeDatabase
from repro.search.knn import check_k, knn_query
from repro.search.range_query import range_query
from repro.search.statistics import SearchStats
from repro.trees.node import TreeNode
from repro.trees.parse import to_bracket

__all__ = ["QueryRequest", "QueryService", "TreeSearchService"]

#: A query's answer: ``(matches, stats)`` exactly as the library returns it.
QueryAnswer = Tuple[List[Tuple[int, float]], SearchStats]

#: Bound on the prepared-tree cache of the service and of every shard
#: worker: at least the corpus plus the distinct-query working set, so
#: refinement never re-flattens a database tree.
PREPARED_CACHE_SIZE = 8192

#: Cache keys: (kind, canonical bracket of the query tree, parameter).
CacheKey = Tuple[str, str, float]

_Service = TypeVar("_Service", bound="QueryService")


@dataclass(frozen=True)
class QueryRequest:
    """One query of a (possibly mixed-kind) batch or workload.

    ``kind`` is ``"range"`` (uses ``threshold``) or ``"knn"`` (uses ``k``).
    """

    kind: str
    query: TreeNode
    threshold: float = 0.0
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("range", "knn"):
            raise QueryError(f"unknown query kind {self.kind!r}")


class _ReadWriteLock:
    """Many concurrent readers or one exclusive writer (writer-preferring)."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._condition.wait()
            self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._condition:
            self._writer = False
            self._condition.notify_all()


@dataclass
class _CacheEntry:
    """One cached answer plus what the invalidation pruner needs.

    ``query`` is the original query tree; ``generation`` is the database
    generation the answer was computed at.  ``signature`` memoizes the
    query's filter signature, computed the first time an :meth:`add`
    needs it (a composite's parts fill as later adds read them) — unless
    the filter's ``signature_depends_on_index``: a
    signature frozen then could under-count overlap with branches
    interned later, which would overestimate the bound and unsoundly
    retain the entry, so those filters recompute it on every add.
    """

    answer: QueryAnswer
    query: TreeNode
    generation: int
    signature: Any = None


class _ResultCache:
    """Bounded LRU of query answers; ``maxsize=0`` disables caching."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 0:
            raise InvalidParameterError(f"cache size must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, _CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey, generation: int) -> Optional[QueryAnswer]:
        """Answer for ``key`` if cached *at the given generation*.

        A generation mismatch means the database mutated without this cache
        being pruned (an out-of-band mutation); the stale entry is dropped.
        """
        if self.maxsize == 0:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry.generation != generation:
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return entry.answer

    def put(self, key: CacheKey, entry: _CacheEntry) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def prune(
        self,
        keep: Callable[[CacheKey, _CacheEntry], bool],
        generation: int,
    ) -> Tuple[int, int]:
        """Drop entries not proven valid; returns ``(retained, evicted)``.

        Retained entries are re-stamped with the new ``generation`` (the
        proof extends their validity to the mutated database state).
        """
        with self._lock:
            evicted = 0
            for key in list(self._entries):
                entry = self._entries[key]
                if keep(key, entry):
                    entry.generation = generation
                else:
                    del self._entries[key]
                    evicted += 1
            return len(self._entries), evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class QueryService(abc.ABC):
    """The request surface both serving tiers share.

    A subclass implements :meth:`execute`; this base owns everything else
    a caller sees.  :meth:`close` shuts the lazily started batch pool
    down, after which a batch of two or more requests raises.

    Parameters
    ----------
    max_workers:
        Thread-pool width for :meth:`batch`, :meth:`batch_range` and
        :meth:`batch_knn`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to record
        into — :func:`~repro.obs.metrics.get_registry` exposes the service
        on the process-wide registry, and services sharing one registry
        sum into one set of series.  A private registry is created by
        default.

    Work (objects, candidates, results, phase seconds) is counted on
    cache misses only, so a computation is counted once however often
    its answer is served; latency is recorded for every query.
    """

    def __init__(self, max_workers: int, metrics: Optional[MetricsRegistry]) -> None:
        if max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        r = self.metrics
        self._queries = r.counter(
            "repro_queries_total", "Queries served, by kind.", ("kind",)
        )
        self._cache_hits = r.counter("repro_cache_hits_total", "Result-cache hits.")
        self._cache_misses = r.counter(
            "repro_cache_misses_total", "Result-cache misses."
        )
        self._batches = r.counter("repro_batches_total", "Batch submissions.")
        self._objects = r.counter(
            "repro_dataset_objects_considered_total",
            "Database objects scanned by the filter step.",
        )
        self._candidates = r.counter(
            "repro_candidates_examined_total",
            "Filter survivors refined with the exact edit distance.",
        )
        self._results = r.counter(
            "repro_results_returned_total", "Objects in final answers."
        )
        self._phase_seconds = r.counter(
            "repro_phase_seconds_total",
            "CPU seconds per query phase, by phase and query kind.",
            ("phase", "kind"),
        )
        self._invalidations = r.counter(
            "repro_invalidations_total", "Cache invalidation passes (mutations)."
        )
        self._entries_retained = r.counter(
            "repro_cache_entries_retained_total",
            "Cache entries proven valid across a mutation.",
        )
        self._entries_evicted = r.counter(
            "repro_cache_entries_evicted_total",
            "Cache entries dropped by a mutation.",
        )
        self._latency = r.histogram(
            "repro_query_latency_seconds", "End-to-end query latency.", ("kind",)
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False

    @abc.abstractmethod
    def execute(self, request: QueryRequest) -> QueryAnswer:
        """Serve one :class:`QueryRequest` of either kind."""

    def _observe(
        self, kind: str, stats: SearchStats, latency: float, cache_hit: bool
    ) -> None:
        """Record one served query; a hit's ``stats`` describe the
        original computation, so only its latency is new work."""
        self._queries.inc(kind=kind)
        if cache_hit:
            self._cache_hits.inc()
        else:
            self._cache_misses.inc()
            self._objects.inc(stats.dataset_size)
            self._candidates.inc(stats.candidates)
            self._results.inc(stats.results)
            self._phase_seconds.inc(stats.filter_seconds, phase="filter", kind=kind)
            self._phase_seconds.inc(stats.refine_seconds, phase="refine", kind=kind)
        self._latency.observe(latency, kind=kind)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the batch pool (idempotent)."""
        self._closed = True
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self: _Service) -> _Service:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _pool(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("service is closed")
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-service",
                )
            return self._executor

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range(self, query: TreeNode, threshold: float) -> QueryAnswer:
        """Filter-and-refine range query."""
        return self.execute(QueryRequest("range", query, threshold=threshold))

    def knn(self, query: TreeNode, k: int) -> QueryAnswer:
        """Optimal multi-step k-NN query (paper Alg. 2)."""
        return self.execute(QueryRequest("knn", query, k=k))

    def batch(self, requests: Sequence[QueryRequest]) -> List[QueryAnswer]:
        """Serve a mixed-kind batch concurrently; answers in input order."""
        self._batches.inc()
        if not requests:
            return []
        if len(requests) == 1:
            return [self.execute(requests[0])]
        # ThreadPoolExecutor workers do not inherit the caller's context, so
        # an active span (or funnel sink) would be invisible to them; give
        # each request a copy of the submitting thread's context.  One copy
        # per request — a single Context cannot be entered concurrently.
        contexts = [contextvars.copy_context() for _ in requests]
        return list(
            self._pool().map(
                lambda pair: pair[0].run(self.execute, pair[1]),
                zip(contexts, requests),
            )
        )

    def batch_range(
        self, queries: Sequence[TreeNode], threshold: float
    ) -> List[QueryAnswer]:
        """Range queries fanned out over the batch pool (input order)."""
        return self.batch(
            [QueryRequest("range", query, threshold=threshold) for query in queries]
        )

    def batch_knn(self, queries: Sequence[TreeNode], k: int) -> List[QueryAnswer]:
        """k-NN queries fanned out over the batch pool (input order)."""
        return self.batch([QueryRequest("knn", query, k=k) for query in queries])


class TreeSearchService(QueryService):
    """A concurrent, cached, observable facade over :class:`TreeDatabase`.

    Parameters
    ----------
    database:
        The wrapped database.  The service assumes exclusive write access:
        mutate it only through :meth:`add`.
    cache_size:
        Bound on the LRU result cache (number of distinct query answers);
        ``0`` disables result caching entirely.
    max_workers, metrics:
        As for :class:`QueryService`.

    Queries run over the database's matrix planes when it has a feature
    store, and per candidate otherwise; answers and refined counts are
    the same either way (pinned by the ``search:vectorized-equivalence``
    oracle).  :meth:`execute` keeps serving after :meth:`close`, which
    only stops the batch pool.
    """

    def __init__(
        self,
        database: TreeDatabase,
        max_workers: int = 4,
        cache_size: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(max_workers, metrics)
        self.database = database
        self._matrices = database.matrices()
        self._cache = _ResultCache(cache_size)
        self._prepared = PreparedTreeCache(PREPARED_CACHE_SIZE)
        self._rwlock = _ReadWriteLock()

    def __len__(self) -> int:
        return len(self.database)

    def __repr__(self) -> str:
        return (
            f"TreeSearchService({len(self.database)} trees, "
            f"cache={len(self._cache)}/{self._cache.maxsize}, "
            f"workers={self.max_workers})"
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, tree: TreeNode) -> int:
        """Insert one tree; returns its index.

        Exclusive: waits for in-flight queries to drain, then appends and
        **selectively** invalidates the result cache.  A cached answer is
        retained when the database's lower-bound filter proves the new tree
        cannot appear in it — for a range query, the bound between the
        cached query and the new tree exceeds the threshold; for a k-NN
        query, the cached result already has ``k`` members and the bound
        reaches the current k-th distance (a fresh run then stops at the
        new tree, whose index is the largest, without refining it: same
        answer, same refined count).  Everything else is
        evicted.  The prepared-tree cache is kept — preparation depends
        only on the tree object, not on database membership.
        """
        with tracing.span("service.add") as add_span:
            self._rwlock.acquire_write()
            try:
                index = self.database.add(tree)
                with tracing.span("service.invalidate") as inv_span:
                    retained, evicted = self._cache.prune(
                        self._entry_survives_add(index), self.database.generation
                    )
                    inv_span.set(retained=retained, evicted=evicted)
            finally:
                self._rwlock.release_write()
            add_span.set(index=index, retained=retained, evicted=evicted)
        self._invalidations.inc()
        self._entries_retained.inc(retained)
        self._entries_evicted.inc(evicted)
        return index

    def _entry_survives_add(
        self, index: int
    ) -> Callable[[CacheKey, _CacheEntry], bool]:
        """Build the keep-predicate for :meth:`add` of tree ``index``.

        A range entry stays when ``flt.refutes`` proves the new tree is
        beyond its threshold; a full k-NN entry stays when
        ``flt.reaches(query, new, kth)``, which is exactly ``bound ≥ kth``
        but decided without computing the bound where the filter can
        (the label histogram's capped walk settles most entries, and
        BiBranch needs one Proposition 4.2 test instead of SearchLBound).

        The cached query's signature is memoized on its entry, or, when
        the filter's signatures depend on index state, recomputed against
        the *current* filter state (vocabularies may have grown since the
        answer was cached), so every bound below is a true edit-distance
        lower bound.
        """
        flt = self.database.filter
        new_signature = flt.data_signature(index)
        memoize = not flt.signature_depends_on_index

        def keep(key: CacheKey, entry: _CacheEntry) -> bool:
            kind, _, parameter = key
            query_signature = entry.signature
            if query_signature is None or not memoize:
                query_signature = flt.signature(entry.query)
                if memoize:
                    entry.signature = query_signature
            if kind == "range":
                return flt.refutes(query_signature, new_signature, parameter)
            matches = entry.answer[0]
            if len(matches) < int(parameter):
                return False  # the new tree completes an under-full answer
            kth_distance = matches[-1][1]
            return flt.reaches(query_signature, new_signature, kth_distance)

        return keep

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _cache_key(self, request: QueryRequest) -> CacheKey:
        parameter = (
            float(request.threshold) if request.kind == "range" else float(request.k)
        )
        return (request.kind, to_bracket(request.query), parameter)

    def execute(self, request: QueryRequest) -> QueryAnswer:
        """Serve one :class:`QueryRequest` of either kind (cached,
        thread-safe)."""
        with tracing.span("service.serve", kind=request.kind) as serve_span:
            start = time.perf_counter()
            if request.kind == "knn":
                # before the cache: k=True must not hit the k=1 entry
                check_k(request.k, len(self.database))
            key = self._cache_key(request)
            cached = self._cache.get(key, self.database.generation)
            if cached is not None:
                matches, stats = cached
                serve_span.set(
                    cache_hit=True, candidates=stats.candidates, results=stats.results
                )
                self._observe(
                    request.kind, stats, time.perf_counter() - start, cache_hit=True
                )
                return list(matches), stats.copy()
            # Per-query counter so `calls` is race-free; preparation is shared.
            counter = EditDistanceCounter(
                self.database.counter.costs, cache=self._prepared
            )
            self._rwlock.acquire_read()
            try:
                if request.kind == "range":
                    matches, stats = range_query(
                        self.database.trees,
                        request.query,
                        request.threshold,
                        self.database.filter,
                        counter,
                        matrices=self._matrices,
                    )
                else:
                    matches, stats = knn_query(
                        self.database.trees,
                        request.query,
                        request.k,
                        self.database.filter,
                        counter,
                        matrices=self._matrices,
                    )
                generation = self.database.generation
            finally:
                self._rwlock.release_read()
            self._cache.put(
                key,
                _CacheEntry((list(matches), stats.copy()), request.query, generation),
            )
            serve_span.set(
                cache_hit=False, candidates=stats.candidates, results=stats.results
            )
            self._observe(
                request.kind, stats, time.perf_counter() - start, cache_hit=False
            )
            return matches, stats

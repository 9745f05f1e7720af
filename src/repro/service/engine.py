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
* **observability** — every query is folded into a
  :class:`~repro.service.metrics.ServiceMetrics`.

Consistency model: mutations are exclusive — they wait for in-flight
queries to drain, and queries started after the mutation see the new tree.
The result cache is invalidated **selectively** on
:meth:`TreeSearchService.add`: the database's lower-bound filter already
proves, for each cached answer, whether the newly inserted tree could
possibly appear in it (range: the bound between the cached query and the
new tree exceeds the threshold; k-NN: the result is full and the bound
strictly exceeds the current k-th distance).  Provably unaffected entries
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
>>> service.metrics.snapshot()["cache"]["hits"]
1
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.editdist.zhang_shasha import EditDistanceCounter, PreparedTreeCache
from repro.exceptions import InvalidParameterError, QueryError
from repro.obs import tracing
from repro.search.database import TreeDatabase
from repro.search.knn import check_k, knn_query
from repro.search.range_query import range_query
from repro.search.statistics import SearchStats
from repro.service.metrics import ServiceMetrics
from repro.trees.node import TreeNode
from repro.trees.parse import to_bracket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.inverted import ExtendedInvertedFile

__all__ = ["QueryRequest", "TreeSearchService"]

#: A query's answer: ``(matches, stats)`` exactly as the library returns it.
QueryAnswer = Tuple[List[Tuple[int, float]], SearchStats]

#: Cache keys: (kind, canonical bracket of the query tree, parameter).
CacheKey = Tuple[str, str, float]


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

    ``query`` is the original query tree (so its filter signature can be
    recomputed against the *current* state — a signature frozen at caching
    time could under-count overlap with branches interned later, which
    would overestimate the bound and unsoundly retain the entry);
    ``generation`` is the database generation the answer was computed at.
    """

    answer: QueryAnswer
    query: TreeNode
    generation: int


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


class TreeSearchService:
    """A concurrent, cached, observable facade over :class:`TreeDatabase`.

    Parameters
    ----------
    database:
        The wrapped database.  The service assumes exclusive write access:
        mutate it only through :meth:`add`.
    max_workers:
        Thread-pool width for :meth:`batch`, :meth:`batch_range` and
        :meth:`batch_knn`.
    cache_size:
        Bound on the LRU result cache (number of distinct query answers);
        ``0`` disables result caching entirely.
    prepared_cache_size:
        Bound on the shared prepared-tree cache.  Size it to at least the
        database size plus the expected distinct-query working set so
        refinement never re-flattens a database tree.
    metrics:
        Optional externally owned :class:`ServiceMetrics` (e.g. one shared
        by several services); a private instance is created by default.
    candidate_source:
        How the filter stage generates candidates: ``"vectorized"`` —
        corpus-level matrix kernels (requires a feature-store-backed
        database, raises otherwise); ``"ifi"`` — sublinear candidate
        generation through the :mod:`repro.index` extended inverted file
        (requires a feature store too), with the vectorized cascade
        running over the index's candidate ball; ``"auto"`` (default) —
        vectorized when the database has a feature store, the
        per-candidate path otherwise.  Answers are
        bit-identical across all sources and refined counts never exceed
        the vectorized path's (pinned by the
        ``search:vectorized-equivalence`` and
        ``search:index-completeness`` oracles).
    """

    def __init__(
        self,
        database: TreeDatabase,
        max_workers: int = 4,
        cache_size: int = 1024,
        prepared_cache_size: int = 8192,
        metrics: Optional[ServiceMetrics] = None,
        candidate_source: str = "auto",
    ) -> None:
        if max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        from repro.index import CANDIDATE_SOURCES

        if candidate_source not in CANDIDATE_SOURCES:
            raise InvalidParameterError(
                f"candidate_source must be one of {CANDIDATE_SOURCES}, "
                f"got {candidate_source!r}"
            )
        self.database = database
        self.candidate_source = candidate_source
        self._index: Optional["ExtendedInvertedFile"] = None
        self._matrices = database.matrices()
        if self._matrices is None and candidate_source != "auto":
            raise InvalidParameterError(
                f"candidate_source={candidate_source!r} requires a "
                "database backed by a feature store (store-less "
                "prefitted filters have no matrix planes)"
            )
        if candidate_source == "ifi":
            # built eagerly so the first query does not pay for it
            # inside the read lock; queries re-sync as needed
            self._index = database.candidate_index()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.max_workers = max_workers
        self._cache = _ResultCache(cache_size)
        self._prepared = PreparedTreeCache(prepared_cache_size)
        self._rwlock = _ReadWriteLock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        self._closed = True
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "TreeSearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.database)

    def __repr__(self) -> str:
        return (
            f"TreeSearchService({len(self.database)} trees, "
            f"cache={len(self._cache)}/{self._cache.maxsize}, "
            f"workers={self.max_workers})"
        )

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
        strictly exceeds the current k-th distance (the new tree is then
        provably farther than every cached neighbor).  Everything else is
        evicted.  The prepared-tree cache is kept — preparation depends
        only on the tree object, not on database membership.
        """
        with tracing.span("service.add") as add_span:
            self._rwlock.acquire_write()
            try:
                index = self.database.add(tree)
                if self._index is not None:
                    # extend the candidate index while writes are exclusive,
                    # so queries never pay the sync inside the read section
                    self._index.sync()
                with tracing.span("service.invalidate") as inv_span:
                    retained, evicted = self._cache.prune(
                        self._entry_survives_add(index), self.database.generation
                    )
                    inv_span.set(retained=retained, evicted=evicted)
            finally:
                self._rwlock.release_write()
            add_span.set(index=index, retained=retained, evicted=evicted)
        self.metrics.observe_invalidation(retained=retained, evicted=evicted)
        return index

    def _entry_survives_add(
        self, index: int
    ) -> Callable[[CacheKey, _CacheEntry], bool]:
        """Build the keep-predicate for :meth:`add` of tree ``index``.

        The cached query's signature is recomputed against the *current*
        filter state (vocabularies may have grown since the answer was
        cached), so every bound below is a true edit-distance lower bound.
        """
        flt = self.database.filter
        new_signature = flt.data_signature(index)

        def keep(key: CacheKey, entry: _CacheEntry) -> bool:
            kind, _, parameter = key
            query_signature = flt.signature(entry.query)
            if kind == "range":
                return flt.refutes(query_signature, new_signature, parameter)
            matches = entry.answer[0]
            if len(matches) < int(parameter):
                return False  # the new tree completes an under-full answer
            kth_distance = matches[-1][1]
            return flt.bound(query_signature, new_signature) > kth_distance

        return keep

    # ------------------------------------------------------------------
    # Single queries
    # ------------------------------------------------------------------
    def range(self, query: TreeNode, threshold: float) -> QueryAnswer:
        """Filter-and-refine range query (cached, thread-safe)."""
        return self._serve(QueryRequest("range", query, threshold=threshold))

    def knn(self, query: TreeNode, k: int) -> QueryAnswer:
        """Filter-and-refine k-NN query (cached, thread-safe)."""
        return self._serve(QueryRequest("knn", query, k=k))

    def execute(self, request: QueryRequest) -> QueryAnswer:
        """Serve one :class:`QueryRequest` of either kind."""
        return self._serve(request)

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------
    def batch(self, requests: Sequence[QueryRequest]) -> List[QueryAnswer]:
        """Serve a mixed-kind batch concurrently; answers in input order."""
        self.metrics.observe_batch()
        if not requests:
            return []
        if len(requests) == 1:
            return [self._serve(requests[0])]
        # ThreadPoolExecutor workers do not inherit the caller's context, so
        # an active span (or funnel sink) would be invisible to them; give
        # each request a copy of the submitting thread's context.  One copy
        # per request — a single Context cannot be entered concurrently.
        contexts = [contextvars.copy_context() for _ in requests]
        return list(
            self._pool().map(
                lambda pair: pair[0].run(self._serve, pair[1]),
                zip(contexts, requests),
            )
        )

    def batch_range(
        self, queries: Sequence[TreeNode], threshold: float
    ) -> List[QueryAnswer]:
        """Range queries fanned out over the worker pool (input order)."""
        return self.batch(
            [QueryRequest("range", query, threshold=threshold) for query in queries]
        )

    def batch_knn(self, queries: Sequence[TreeNode], k: int) -> List[QueryAnswer]:
        """k-NN queries fanned out over the worker pool (input order)."""
        return self.batch([QueryRequest("knn", query, k=k) for query in queries])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cache_key(self, request: QueryRequest) -> CacheKey:
        parameter = (
            float(request.threshold) if request.kind == "range" else float(request.k)
        )
        return (request.kind, to_bracket(request.query), parameter)

    def _serve(self, request: QueryRequest) -> QueryAnswer:
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
                self.metrics.observe_query(
                    request.kind, stats, time.perf_counter() - start, cache_hit=True
                )
                return list(matches), stats.copy()
            # Per-query counter so `calls` is race-free; preparation is shared.
            counter = EditDistanceCounter(
                self.database.counter.costs, cache=self._prepared
            )
            if self._index is not None and self._index.stale():
                # out-of-band database/store mutation: catch the index up
                # under the write lock before queries race over it
                self._rwlock.acquire_write()
                try:
                    self._index.sync()
                finally:
                    self._rwlock.release_write()
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
                        index=self._index,
                    )
                else:
                    matches, stats = knn_query(
                        self.database.trees,
                        request.query,
                        request.k,
                        self.database.filter,
                        counter,
                        matrices=self._matrices,
                        index=self._index,
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
            self.metrics.observe_query(
                request.kind, stats, time.perf_counter() - start, cache_hit=False
            )
            return matches, stats

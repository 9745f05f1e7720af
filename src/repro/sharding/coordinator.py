"""ShardedTreeService — scatter-gather serving over worker processes.

The coordinator partitions the corpus (:mod:`repro.sharding.partition`),
publishes each shard's packed feature columns into a shared-memory plane
(:mod:`repro.sharding.plane`), forks one persistent worker process per
shard (:mod:`repro.sharding.worker`), and serves:

* **range queries** shard-parallel: every worker filters and refines its
  partition concurrently; the coordinator concatenates the matches in
  global index order.  Correct because every filter's signature is
  per-tree and every bound is pairwise — no corpus-global state — so a
  shard refutes exactly the candidates the single-process filter refutes.
* **k-NN queries** via a distributed version of the optimal multi-step
  algorithm (paper Alg. 2): each worker sorts its lower bounds once and
  streams an ascending ``(bound, local_index)`` frontier; the coordinator
  k-way-merges the frontiers keyed by ``(bound, global_index)`` — exactly
  the single-process refinement order — refining one candidate at a time
  and stopping when the result heap is full and the next frontier bound
  strictly exceeds the k-th distance.  Same refinement set, same answers,
  same tie-handling; the ``shard:knn-optimality`` oracle enforces it.

``shards=1`` skips all of this and delegates to the battle-tested
single-process :class:`~repro.service.engine.TreeSearchService` (with its
result cache).  With ``shards > 1`` there is no cross-process result
cache — every query is counted as a miss, mirroring the single-process
``cache_size=0`` semantics.

Mutations (:meth:`ShardedTreeService.add`) route the new tree to its
shard under the writer side of a read/write lock, so queries never see a
torn insert.  Shutdown is triple-redundant: an explicit :meth:`close`, a
``weakref.finalize`` on the coordinator, and the interpreter's atexit
hook all funnel into one idempotent backend teardown that stops the
workers and unlinks every shared-memory segment.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
import math
import multiprocessing
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import InvalidParameterError, QueryError, ShardError
from repro.features.store import FeatureStore
from repro.index import CANDIDATE_SOURCES
from repro.obs import tracing
from repro.obs.funnel import FilterFunnel, FunnelStage, active_sink
from repro.search.database import TreeDatabase
from repro.search.knn import check_k
from repro.search.statistics import SearchStats
from repro.service.engine import (
    QueryRequest,
    TreeSearchService,
    _ReadWriteLock,
)
from repro.service.metrics import ServiceMetrics
from repro.sharding.partition import (
    Partitioner,
    ShardAssignment,
    make_partitioner,
)
from repro.sharding.plane import SharedFeaturePlane
from repro.sharding.worker import FILTER_FACTORIES, run_worker
from repro.trees.node import TreeNode
from repro.trees.parse import to_bracket

__all__ = ["ShardedTreeService", "encode_query"]

#: A query's answer, matching the single-process service exactly.
QueryAnswer = Tuple[List[Tuple[int, float]], SearchStats]


def encode_query(request: QueryRequest) -> Tuple[str, str, float]:
    """The picklable wire form of a query: ``(kind, bracket, parameter)``.

    Pure function of the request — no tree objects, no closures, no
    references into coordinator state — which is what keeps the scatter
    hot path free of deep-recursive :class:`TreeNode` pickling (the
    zero-copy property the benchmark asserts).
    """
    parameter = (
        float(request.threshold) if request.kind == "range" else float(request.k)
    )
    return (request.kind, to_bracket(request.query), parameter)


class _ShardClient:
    """Coordinator-side endpoint of one worker: process + pipe + lock.

    The lock serialises the request/response exchange per worker (the
    pipe is a stream; interleaved writers would corrupt framing).  The
    precomputed ``label`` keeps the per-shard metric label a bounded
    constant, never built on the hot path.
    """

    __slots__ = ("shard", "process", "conn", "lock", "label")

    def __init__(self, shard: int, process, conn) -> None:
        self.shard = shard
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.label = str(shard)


#: (metric name, worker health-reply key, help) for the scalar health gauges
_HEALTH_GAUGES = (
    ("repro_shard_trees", "trees", "Trees resident on the shard."),
    (
        "repro_shard_uptime_seconds",
        "uptime_seconds",
        "Seconds since the shard worker started.",
    ),
    (
        "repro_shard_rss_bytes",
        "rss_bytes",
        "Peak resident set size of the shard worker process.",
    ),
    (
        "repro_shard_requests_total",
        "requests_total",
        "Requests the shard worker has served.",
    ),
    (
        "repro_shard_open_cursors",
        "open_cursors",
        "k-NN frontier cursors currently open on the shard.",
    ),
    (
        "repro_shard_distance_computations",
        "distance_computations",
        "Exact tree-edit distances the shard has computed.",
    ),
)

#: trees max/min ratio beyond which health() flags a placement imbalance
_TREE_IMBALANCE_RATIO = 1.5
#: busy-seconds max/min ratio beyond which health() flags a load imbalance
_LOAD_IMBALANCE_RATIO = 4.0
#: ignore load skew until the busiest shard has at least this much work
_LOAD_IMBALANCE_FLOOR_SECONDS = 0.05


def _shutdown_backends(
    clients: List[_ShardClient], planes: List[SharedFeaturePlane]
) -> None:
    """Stop every worker and unlink every segment (idempotent, self-free).

    Module-level on purpose: it is the target of a ``weakref.finalize``
    on the service, so it must not capture the service itself.  Runs at
    explicit ``close()``, at garbage collection of the service, or at
    interpreter exit — whichever comes first; the later ones no-op.
    """
    for client in clients:
        try:
            with client.lock:
                # holding client.lock across the pipe round-trip is the
                # design: the lock exists to serialize request/response
                # framing on this connection (see _call); RL009 rightly
                # flags the shape, and we accept it per-connection
                # repro-lint: disable=RL009
                client.conn.send(("shutdown",))
                # repro-lint: disable=RL009
                client.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass  # worker already gone; join/terminate below still runs
        try:
            client.conn.close()
        except OSError:
            pass
    for client in clients:
        client.process.join(timeout=5)
        if client.process.is_alive():
            client.process.terminate()
            client.process.join(timeout=1)
    for plane in planes:
        plane.close()


class _Frontier:
    """One shard's ascending ``(bound, local)`` stream, chunk-buffered."""

    __slots__ = ("entries", "cursor", "fetched", "total")

    def __init__(self, entries: List[Tuple[float, int]], total: int) -> None:
        self.entries = entries
        self.cursor = 0
        self.fetched = len(entries)
        self.total = total


class ShardedTreeService:
    """Shard-parallel tree similarity serving, answer-identical to one shard.

    Parameters
    ----------
    trees:
        The corpus.  Trees are shipped to the workers in bracket form at
        startup; afterwards the coordinator only keeps the partition map.
    shards:
        Number of worker processes.  ``1`` delegates every call to a
        single-process :class:`TreeSearchService` — same API, plus its
        result cache.
    filter_name:
        Key into :data:`repro.sharding.worker.FILTER_FACTORIES`
        (``"bibranch"``, ``"bibranchcount"``, ``"histogram"``,
        ``"traversal"``); every shard fits the same filter type.
    partitioner:
        A :class:`~repro.sharding.partition.Partitioner` instance or a
        registry name (``"round-robin"``, ``"size-banded"``).
    max_workers:
        Thread-pool width for :meth:`batch` fan-out (coordinator-side).
    cache_size:
        Result-cache bound — only meaningful for the ``shards=1``
        delegate; the multi-shard path serves uncached.
    prepared_cache_size:
        Per-worker prepared-tree cache bound.
    metrics:
        Optional externally owned :class:`ServiceMetrics`.
    health_interval:
        Seconds between background :meth:`health` polls (a daemon thread
        ships queue depth, in-flight queries, per-stage seconds, RSS and
        uptime from every worker into the metrics registry).  ``0.0``
        (the default) disables the poller; :meth:`health` can always be
        called explicitly.
    candidate_source:
        Forwarded to every worker (and to the ``shards=1`` delegate):
        ``"vectorized"``/``"auto"`` run each shard's filter cascade over
        the matrix planes it scatters zero-copy out of its shared-memory
        columns;
        ``"ifi"`` additionally builds a shard-local
        :mod:`repro.index` inverted file over the attached store, so
        range scatters prune branch-disjoint rows before the cascade and
        k-NN frontiers stream lazily off the index.  Answers and
        refined-candidate counts are identical across all sources.
    """

    def __init__(
        self,
        trees: Sequence[TreeNode],
        shards: int = 1,
        filter_name: str = "bibranch",
        partitioner: Union[str, Partitioner] = "round-robin",
        max_workers: int = 4,
        cache_size: int = 1024,
        prepared_cache_size: int = 8192,
        metrics: Optional[ServiceMetrics] = None,
        candidate_source: str = "auto",
        health_interval: float = 0.0,
    ) -> None:
        if shards < 1:
            raise InvalidParameterError(f"need >= 1 shards, got {shards}")
        if health_interval < 0:
            raise InvalidParameterError(
                f"health_interval must be >= 0, got {health_interval}"
            )
        if filter_name not in FILTER_FACTORIES:
            raise InvalidParameterError(
                f"unknown filter {filter_name!r} "
                f"(choose from {sorted(FILTER_FACTORIES)})"
            )
        if candidate_source not in CANDIDATE_SOURCES:
            raise InvalidParameterError(
                f"candidate_source must be one of {CANDIDATE_SOURCES}, "
                f"got {candidate_source!r}"
            )
        self.shards = shards
        self.filter_name = filter_name
        self.candidate_source = candidate_source
        self._closed = False
        self._delegate: Optional[TreeSearchService] = None

        self._started_monotonic = time.monotonic()
        factory = FILTER_FACTORIES[filter_name]
        probe = factory()
        trees = list(trees)
        if shards == 1:
            database = TreeDatabase(trees, flt=factory())
            self._delegate = TreeSearchService(
                database,
                max_workers=max_workers,
                cache_size=cache_size,
                prepared_cache_size=prepared_cache_size,
                metrics=metrics,
                candidate_source=candidate_source,
            )
            self.metrics = self._delegate.metrics
            return

        if isinstance(partitioner, str):
            partitioner = make_partitioner(partitioner, shards)
        elif partitioner.shards != shards:
            raise InvalidParameterError(
                f"partitioner is configured for {partitioner.shards} shards, "
                f"service has {shards}"
            )
        self._partitioner = partitioner
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._shard_latency = self.metrics.registry.histogram(
            "repro_shard_latency_seconds",
            "Coordinator-observed per-shard round-trip latency.",
            ("shard", "kind"),
        )
        #: live per-shard load gauges, maintained around every RPC:
        #: queue depth counts callers waiting on the per-worker pipe lock,
        #: in-flight counts exchanges currently on the wire
        self._queue_depth = self.metrics.registry.gauge(
            "repro_shard_queue_depth",
            "Coordinator threads waiting for a worker's pipe lock.",
            ("shard",),
        )
        self._inflight = self.metrics.registry.gauge(
            "repro_shard_inflight_requests",
            "Requests currently on the wire to a worker.",
            ("shard",),
        )
        self._imbalance_warnings = self.metrics.registry.counter(
            "repro_shard_imbalance_warnings_total",
            "health() snapshots that flagged a shard imbalance.",
            ("dimension",),
        )
        #: funnel stage name of the distributed k-NN ordering pass; matches
        #: the single-process ``order:<filter>`` stage for oracle parity.
        #: On the ``ifi`` source with a BDist-dominant filter the workers
        #: use the lazy frontier, so the stage mirrors the single-process
        #: ``index:ifi`` stage (survivors = frontier rows materialized).
        self._index_knn = candidate_source == "ifi" and probe.bdist_dominant
        if self._index_knn:
            self._order_stage = "index:ifi"
        else:
            self._order_stage = f"order:{probe.name}"

        assignment = ShardAssignment(shards)
        for index, tree in enumerate(trees):
            assignment.append(partitioner.assign(index, tree))
        self._assignment = assignment

        q_levels = probe.required_q_levels() or (getattr(probe, "q", 2),)
        store = FeatureStore(q_levels).fit(trees)

        context = multiprocessing.get_context("fork")
        clients: List[_ShardClient] = []
        planes: List[SharedFeaturePlane] = []
        try:
            for shard in range(shards):
                members = assignment.by_shard[shard]
                plane = SharedFeaturePlane.publish(store, members)
                planes.append(plane)
                parent_conn, child_conn = context.Pipe()
                payload = {
                    "shard": shard,
                    "brackets": [to_bracket(trees[g]) for g in members],
                    "filter": filter_name,
                    "plane": plane.handle,
                    "vocabulary": store.vocabulary,
                    "prepared_cache_size": prepared_cache_size,
                    "candidate_source": candidate_source,
                }
                process = context.Process(
                    target=run_worker,
                    args=(child_conn, payload),
                    daemon=True,
                    name=f"repro-shard-{shard}",
                )
                process.start()
                child_conn.close()
                clients.append(_ShardClient(shard, process, parent_conn))
            self._clients = clients
            for shard in range(shards):
                self._call(shard, ("ping",), "control")
        except BaseException:  # repro-lint: disable=RL008 -- cleanup-and-reraise: started workers and shm segments must not leak when construction fails
            _shutdown_backends(clients, planes)
            raise
        self._planes = planes
        self._finalizer = weakref.finalize(
            self, _shutdown_backends, clients, planes
        )
        self._rwlock = _ReadWriteLock()
        self._mutations = 0
        self._qids = itertools.count()
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="repro-scatter"
        )
        self._batch_pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-shard-batch"
        )
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        if health_interval > 0:
            self._health_thread = threading.Thread(
                target=self._health_loop,
                args=(health_interval,),
                name="repro-shard-health",
                daemon=True,
            )
            self._health_thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, unlink segments, shut down pools (idempotent)."""
        if self._delegate is not None:
            self._delegate.close()
            return
        self._closed = True
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5)
        self._scatter_pool.shutdown(wait=True)
        self._batch_pool.shutdown(wait=True)
        self._finalizer()  # runs _shutdown_backends at most once

    def __enter__(self) -> "ShardedTreeService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        if self._delegate is not None:
            return len(self._delegate)
        return len(self._assignment)

    @property
    def generation(self) -> int:
        """Mutation counter (parity with the single-process service)."""
        if self._delegate is not None:
            return self._delegate.database.generation
        return self._mutations

    def __repr__(self) -> str:
        if self._delegate is not None:
            return f"ShardedTreeService(1 shard → {self._delegate!r})"
        return (
            f"ShardedTreeService({len(self)} trees, {self.shards} shards, "
            f"filter={self.filter_name!r}, "
            f"partitioner={self._partitioner.name!r})"
        )

    # ------------------------------------------------------------------
    # Worker RPC
    # ------------------------------------------------------------------
    def _call(self, shard: int, message: tuple, kind: str):
        """One request/response exchange with a worker (serialised)."""
        client = self._clients[shard]
        start = time.perf_counter()
        # queue depth counts callers parked on the pipe lock; in-flight
        # counts exchanges on the wire.  Both are gauges so a health
        # snapshot taken from another thread sees live load, not history.
        self._queue_depth.inc(shard=client.label)
        with client.lock:
            self._queue_depth.dec(shard=client.label)
            self._inflight.inc(shard=client.label)
            try:
                # the lock IS the framing protocol: one request and its
                # response must be adjacent on the pipe, so holding
                # client.lock across this round-trip is the point, not an
                # accident.  RL009 flags the shape correctly; we accept
                # the stall domain (one connection) by design.
                # repro-lint: disable=RL009
                client.conn.send(message)
                # repro-lint: disable=RL009
                reply = client.conn.recv()
            except (BrokenPipeError, EOFError, OSError) as error:
                raise ShardError(
                    f"shard {shard} worker is gone "
                    f"({type(error).__name__}: {error})"
                ) from error
            finally:
                self._inflight.dec(shard=client.label)
        self._shard_latency.observe(
            time.perf_counter() - start, shard=client.label, kind=kind
        )
        status = reply[0]
        if status == "error":
            raise ShardError(f"shard {shard} {reply[1]}: {reply[2]}")
        return reply[1]

    def _scatter(self, message: tuple, kind: str) -> List[dict]:
        """Send one message to every shard concurrently; gather in order."""
        futures = [
            self._scatter_pool.submit(self._call, shard, message, kind)
            for shard in range(self.shards)
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range(self, query: TreeNode, threshold: float) -> QueryAnswer:
        """Shard-parallel filter-and-refine range query."""
        return self.execute(QueryRequest("range", query, threshold=threshold))

    def knn(self, query: TreeNode, k: int) -> QueryAnswer:
        """Distributed optimal multi-step k-NN query."""
        return self.execute(QueryRequest("knn", query, k=k))

    def execute(self, request: QueryRequest) -> QueryAnswer:
        """Serve one :class:`QueryRequest` of either kind."""
        if self._delegate is not None:
            return self._delegate.execute(request)
        if self._closed:
            raise RuntimeError("service is closed")
        if request.kind == "range":
            return self._range(request.query, request.threshold)
        return self._knn(request.query, request.k)

    def _range(self, query: TreeNode, threshold: float) -> QueryAnswer:
        if not math.isfinite(threshold):
            raise QueryError(f"range threshold must be finite, got {threshold}")
        if threshold < 0:
            raise QueryError(f"range threshold must be >= 0, got {threshold}")
        bracket = to_bracket(query)
        sink = active_sink()
        want_funnel = sink is not None or tracing.enabled()
        start = time.perf_counter()
        self._rwlock.acquire_read()
        try:
            replies = self._scatter(
                ("range", bracket, threshold, want_funnel), "range"
            )
        finally:
            self._rwlock.release_read()

        matches: List[Tuple[int, float]] = []
        for shard, reply in enumerate(replies):
            members = self._assignment.by_shard[shard]
            for local, distance in reply["matches"]:
                matches.append((members[local], distance))
        matches.sort(key=lambda pair: pair[0])

        stats = SearchStats(
            dataset_size=len(self),
            candidates=sum(reply["candidates"] for reply in replies),
            results=len(matches),
            filter_seconds=sum(reply["filter_seconds"] for reply in replies),
            refine_seconds=sum(reply["refine_seconds"] for reply in replies),
        )
        if want_funnel:
            stats.funnel = self._merge_range_funnels(replies, threshold, stats)
            if sink is not None:
                sink.add(stats.funnel)
        self.metrics.observe_query(
            "range", stats, time.perf_counter() - start, cache_hit=False
        )
        return matches, stats

    def _merge_range_funnels(
        self, replies: List[dict], threshold: float, stats: SearchStats
    ) -> FilterFunnel:
        """Stage-wise sum of the per-shard funnels (stages line up: every
        worker runs the same filter cascade over its partition)."""
        merged: List[FunnelStage] = []
        for reply in replies:
            for position, (name, entered, survivors, seconds) in enumerate(
                reply["stages"]
            ):
                if position == len(merged):
                    merged.append(FunnelStage(name, 0, 0, 0.0))
                stage = merged[position]
                stage.entered += entered
                stage.survivors += survivors
                stage.seconds += seconds
        return FilterFunnel(
            kind="range",
            corpus_size=stats.dataset_size,
            stages=merged,
            refined=stats.candidates,
            results=stats.results,
            refine_seconds=stats.refine_seconds,
            parameter=threshold,
        )

    def _knn(self, query: TreeNode, k: int) -> QueryAnswer:
        total = len(self)
        k = check_k(k, total)
        bracket = to_bracket(query)
        sink = active_sink()
        qid = next(self._qids)
        start = time.perf_counter()
        self._rwlock.acquire_read()
        try:
            begins = self._scatter(("knn_begin", qid, bracket), "knn")
            filter_seconds = sum(reply["filter_seconds"] for reply in begins)
            frontiers = [
                _Frontier(reply["chunk"], reply["total"]) for reply in begins
            ]

            # k-way merge keyed (bound, global index): pops reproduce the
            # single-process `sorted(..., key=(bounds[i], i))` order exactly
            frontier_heap: List[Tuple[float, int, int, int]] = []
            for shard in range(self.shards):
                self._push_next(frontier_heap, frontiers, qid, shard)

            heap: List[Tuple[float, int]] = []  # (−distance, −global index)
            refined = 0
            refine_start = time.perf_counter()
            while frontier_heap:
                bound, global_index, shard, local = heapq.heappop(frontier_heap)
                if len(heap) == k and bound > -heap[0][0]:
                    break  # optimal stopping, globally: no shard can improve
                # the merge heap's k-th distance bounds what can still enter
                budget = -heap[0][0] if len(heap) == k else math.inf
                reply = self._call(
                    shard, ("knn_refine", qid, local, budget), "knn"
                )
                distance = reply["distance"]
                refined += 1
                if len(heap) < k:
                    heapq.heappush(heap, (-distance, -global_index))
                elif distance < -heap[0][0]:
                    heapq.heapreplace(heap, (-distance, -global_index))
                self._push_next(frontier_heap, frontiers, qid, shard)
            refine_seconds = time.perf_counter() - refine_start

            for shard in range(self.shards):
                self._call(shard, ("knn_end", qid), "knn")
        finally:
            self._rwlock.release_read()

        stats = SearchStats(
            dataset_size=total,
            candidates=refined,
            results=len(heap),
            filter_seconds=filter_seconds,
            refine_seconds=refine_seconds,
        )
        if sink is not None or tracing.enabled():
            if self._index_knn:
                # lazy frontiers: only the rows the global merge actually
                # pulled were ever materialized/scored on the workers
                ordered = sum(frontier.fetched for frontier in frontiers)
            else:
                ordered = total
            stats.funnel = FilterFunnel(
                kind="knn",
                corpus_size=total,
                stages=[
                    FunnelStage(self._order_stage, total, ordered, filter_seconds)
                ],
                refined=refined,
                results=len(heap),
                refine_seconds=refine_seconds,
                parameter=float(k),
            )
            if sink is not None:
                sink.add(stats.funnel)

        neighbors = sorted(
            ((-neg_index, -neg_distance) for neg_distance, neg_index in heap),
            key=lambda pair: (pair[1], pair[0]),
        )
        self.metrics.observe_query(
            "knn", stats, time.perf_counter() - start, cache_hit=False
        )
        return neighbors, stats

    def _push_next(
        self,
        frontier_heap: List[Tuple[float, int, int, int]],
        frontiers: List[_Frontier],
        qid: int,
        shard: int,
    ) -> None:
        """Advance one shard's frontier cursor onto the merge heap."""
        frontier = frontiers[shard]
        if frontier.cursor >= len(frontier.entries):
            if frontier.fetched >= frontier.total:
                return  # shard exhausted
            reply = self._call(shard, ("knn_more", qid, frontier.fetched), "knn")
            frontier.entries = reply["chunk"]
            frontier.cursor = 0
            frontier.fetched += len(frontier.entries)
            if not frontier.entries:
                return
        bound, local = frontier.entries[frontier.cursor]
        frontier.cursor += 1
        heapq.heappush(
            frontier_heap,
            (bound, self._assignment.by_shard[shard][local], shard, local),
        )

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------
    def batch(self, requests: Sequence[QueryRequest]) -> List[QueryAnswer]:
        """Serve a mixed-kind batch concurrently; answers in input order.

        Runs on a pool distinct from the scatter pool — batch tasks submit
        scatter work, and a shared pool would deadlock once every thread
        held a batch task waiting for a scatter slot.
        """
        if self._delegate is not None:
            return self._delegate.batch(requests)
        self.metrics.observe_batch()
        if not requests:
            return []
        if len(requests) == 1:
            return [self.execute(requests[0])]
        contexts = [contextvars.copy_context() for _ in requests]
        return list(
            self._batch_pool.map(
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

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, tree: TreeNode) -> int:
        """Insert one tree; returns its global index.

        Exclusive with queries (writer lock), so a scatter never observes
        a shard mid-insert.  The partitioner decides the owning shard from
        the same ``(global index, tree)`` inputs the initial layout used,
        keeping the placement reproducible.
        """
        if self._delegate is not None:
            return self._delegate.add(tree)
        if self._closed:
            raise RuntimeError("service is closed")
        self._rwlock.acquire_write()
        try:
            global_index = len(self._assignment)
            shard = self._partitioner.assign(global_index, tree)
            self._assignment.append(shard)
            self._call(shard, ("add", to_bracket(tree)), "add")
            self._mutations += 1
        finally:
            self._rwlock.release_write()
        # no cross-process result cache at shards > 1: the invalidation
        # pass is counted for metric parity, with nothing to retain/evict
        self.metrics.observe_invalidation(retained=0, evicted=0)
        return global_index

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def shard_info(self) -> List[Dict[str, object]]:
        """Per-worker counters (tree counts, distance computations)."""
        if self._delegate is not None:
            database = self._delegate.database
            return [
                {
                    "shard": 0,
                    "trees": len(database),
                    "filter": database.filter.name,
                    "distance_computations": database.counter.calls,
                }
            ]
        return list(self._scatter(("info",), "control"))

    def health(self) -> Dict[str, object]:
        """One shard-health snapshot: poll every worker, publish the gauges.

        Returns ``{"shards": [...], "warnings": [...]}`` where each shard
        entry is the worker's health reply (tree count, uptime, peak RSS,
        request counts, per-stage busy seconds, open k-NN cursors,
        distance computations).  Every scalar also lands in the metrics
        registry as a ``repro_shard_*`` gauge labelled by shard, and the
        per-stage seconds as ``repro_shard_stage_seconds{shard,stage}``,
        so ``repro metrics dump`` and the Prometheus exposition see the
        same numbers.  Imbalance warnings (tree placement skew, busy-time
        skew) are returned as strings and counted on
        ``repro_shard_imbalance_warnings_total{dimension}``.
        """
        if self._delegate is not None:
            database = self._delegate.database
            from repro.perf.resources import rss_bytes  # local: perf builds on obs

            # the engine runs a fresh per-query counter (race-free `calls`),
            # so the database counter stays 0 — the metrics count of
            # refined candidates is the accurate equivalent, and the phase
            # seconds are the same per-stage seconds the workers report
            served = self.metrics.snapshot()
            seconds = served["seconds"]
            snapshot: Dict[str, object] = {
                "shard": 0,
                "trees": len(database),
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "rss_bytes": rss_bytes(),
                "requests": served["queries_by_kind"],
                "requests_total": served["queries_served"],
                "stage_seconds": {
                    "filter": seconds["filter"],
                    "refine": seconds["refine"],
                },
                "open_cursors": 0,
                "distance_computations": served["work"]["candidates_examined"],
            }
            self._publish_health([snapshot])
            return {"shards": [snapshot], "warnings": []}
        if self._closed:
            raise RuntimeError("service is closed")
        shards = list(self._scatter(("health",), "control"))
        warnings = self._publish_health(shards)
        return {"shards": shards, "warnings": warnings}

    def _publish_health(self, shards: List[Dict[str, object]]) -> List[str]:
        """Set the per-shard gauges and derive imbalance warnings.

        Gauges are fetched get-or-create from the registry (not cached on
        the service) so the ``shards=1`` delegate path — which skips the
        multi-shard constructor — publishes identically.
        """
        registry = self.metrics.registry
        stage_gauge = registry.gauge(
            "repro_shard_stage_seconds",
            "Cumulative busy seconds per pipeline stage on the shard.",
            ("shard", "stage"),
        )
        for snapshot in shards:
            label = str(snapshot["shard"])
            for name, key, help_text in _HEALTH_GAUGES:
                gauge = registry.gauge(name, help_text, ("shard",))
                gauge.set(float(snapshot[key]), shard=label)
            for stage, seconds in snapshot["stage_seconds"].items():
                stage_gauge.set(float(seconds), shard=label, stage=stage)

        warnings: List[str] = []
        if len(shards) < 2:
            return warnings
        imbalance = registry.counter(
            "repro_shard_imbalance_warnings_total",
            "health() snapshots that flagged a shard imbalance.",
            ("dimension",),
        )
        trees = [int(snapshot["trees"]) for snapshot in shards]
        if max(trees) > max(min(trees), 1) * _TREE_IMBALANCE_RATIO:
            warnings.append(
                f"tree placement skew: {min(trees)}..{max(trees)} trees per "
                f"shard exceeds the {_TREE_IMBALANCE_RATIO:g}x balance ratio"
            )
            imbalance.inc(dimension="trees")
        busy = [
            sum(snapshot["stage_seconds"].values()) for snapshot in shards
        ]
        busiest = max(busy)
        if (
            busiest > _LOAD_IMBALANCE_FLOOR_SECONDS
            and busiest > max(min(busy), 1e-9) * _LOAD_IMBALANCE_RATIO
        ):
            warnings.append(
                f"busy-time skew: {min(busy):.3f}s..{busiest:.3f}s per shard "
                f"exceeds the {_LOAD_IMBALANCE_RATIO:g}x balance ratio"
            )
            imbalance.inc(dimension="busy_seconds")
        return warnings

    def _health_loop(self, interval: float) -> None:
        """Daemon poller: one :meth:`health` snapshot per interval."""
        while not self._health_stop.wait(interval):
            try:
                self.health()
            except (RuntimeError, ShardError, OSError):
                break  # racing shutdown — the poller just stops

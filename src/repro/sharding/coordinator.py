"""ShardedTreeService — scatter-gather serving over worker processes.

The coordinator partitions the corpus (:mod:`repro.sharding.partition`),
forks one persistent worker process per shard
(:mod:`repro.sharding.worker`) with that shard's trees in bracket form,
and serves:

* **range queries** shard-parallel: every worker filters and refines its
  partition concurrently; the coordinator concatenates the matches in
  global index order.  Correct because every filter's signature is
  per-tree and every bound is pairwise — no corpus-global state — so a
  shard refutes exactly the candidates the single-process filter refutes.
  The workers index their own rows in parallel; the coordinator extracts
  no features and keeps only the partition map.
* **k-NN queries** as one local optimal multi-step search (paper Alg. 2)
  per shard: every worker runs the single-process
  :func:`~repro.search.knn.knn_search` over its own rows and replies with
  its heap's ``(distance, bound, local_index)`` entries, and the
  coordinator offers them, mapped to global indices, to one
  :class:`~repro.search.knn.KnnHeap`.  The heap keeps the ``k`` smallest
  ``(distance, bound, index)`` keys in any offer order, the single-process
  answer is the first ``k`` rows by that key, and a shard's local order
  preserves the global order, so every answer row is in its own shard's
  first ``k`` and the merge is exact, tie members included
  (``docs/THEORY.md`` §13).  Each shard refines exactly what the
  single-process search refines over that shard's rows; the
  ``shard:knn-optimality`` oracle enforces both.

It needs at least two shards; one process is the single-process
:class:`~repro.service.engine.TreeSearchService`.  Both serve through the
request surface of :class:`~repro.service.engine.QueryService`
(``range``, ``knn``, ``batch``…); this module holds only what is
shard-specific.  There is no
cross-process result cache — every query is counted as a miss, mirroring
the single-process ``cache_size=0`` semantics.

Mutations (:meth:`ShardedTreeService.add`) route the new tree to its
shard under the writer side of a read/write lock, so queries never see a
torn insert.  Shutdown is triple-redundant: an explicit :meth:`close`, a
``weakref.finalize`` on the coordinator, and the interpreter's atexit
hook all funnel into one idempotent backend teardown that stops the
workers.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import InvalidParameterError, QueryError, ShardError
from repro.filters.registry import DEFAULT_FILTER, FILTERS
from repro.obs import tracing
from repro.obs.funnel import FunnelStage, active_sink, record_funnel
from repro.obs.metrics import MetricsRegistry
from repro.search.knn import KnnHeap, check_k
from repro.search.statistics import SearchStats
from repro.service.engine import (
    QueryAnswer,
    QueryRequest,
    QueryService,
    _ReadWriteLock,
)
from repro.sharding.partition import (
    Partitioner,
    ShardAssignment,
    make_partitioner,
)
from repro.sharding.worker import run_worker
from repro.trees.node import TreeNode
from repro.trees.parse import to_bracket

__all__ = ["ShardedTreeService"]


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


def _shutdown_backends(clients: List[_ShardClient]) -> None:
    """Stop every worker (idempotent, self-free).

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


def _merge_stages(replies: List[dict]) -> List[FunnelStage]:
    """Stage-wise sum of the per-shard range funnels (stages line up: every
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
    return merged


class ShardedTreeService(QueryService):
    """Shard-parallel tree similarity serving, answer-identical to one shard.

    Parameters
    ----------
    trees:
        The corpus.  Trees are shipped to the workers in bracket form at
        startup; afterwards the coordinator only keeps the partition map.
    shards:
        Number of worker processes, at least 2 (serve one partition with
        the single-process
        :class:`~repro.service.engine.TreeSearchService`).
    filter_name:
        Key into :data:`repro.filters.FILTERS` (default
        :data:`~repro.filters.DEFAULT_FILTER`, ``"bibranch+label"``);
        every shard fits the same filter.
    partitioner:
        A :class:`~repro.sharding.partition.Partitioner` instance or a
        registry name (``"round-robin"``, ``"size-banded"``).
    max_workers, metrics:
        As for :class:`~repro.service.engine.QueryService`.

    Every shard indexes its own rows as a
    :class:`~repro.search.database.TreeDatabase` and filters over that
    database's matrix planes, falling back per stage to the per-candidate
    loop where a filter has no kernel.  After :meth:`close` every query
    raises :class:`RuntimeError`.
    """

    def __init__(
        self,
        trees: Sequence[TreeNode],
        shards: int = 2,
        filter_name: str = DEFAULT_FILTER,
        partitioner: Union[str, Partitioner] = "round-robin",
        max_workers: int = 4,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if shards < 2:
            raise InvalidParameterError(
                f"need >= 2 shards, got {shards}; serve one partition with "
                "TreeSearchService"
            )
        super().__init__(max_workers, metrics)
        if filter_name not in FILTERS:
            raise InvalidParameterError(
                f"unknown filter {filter_name!r} "
                f"(choose from {sorted(FILTERS)})"
            )
        self.shards = shards
        self.filter_name = filter_name
        trees = list(trees)

        if isinstance(partitioner, str):
            partitioner = make_partitioner(partitioner, shards)
        elif partitioner.shards != shards:
            raise InvalidParameterError(
                f"partitioner is configured for {partitioner.shards} shards, "
                f"service has {shards}"
            )
        self._partitioner = partitioner
        self._shard_latency = self.metrics.histogram(
            "repro_shard_latency_seconds",
            "Coordinator-observed per-shard round-trip latency.",
            ("shard", "kind"),
        )
        #: live per-shard load gauges, maintained around every RPC:
        #: queue depth counts callers waiting on the per-worker pipe lock,
        #: in-flight counts exchanges currently on the wire
        self._queue_depth = self.metrics.gauge(
            "repro_shard_queue_depth",
            "Coordinator threads waiting for a worker's pipe lock.",
            ("shard",),
        )
        self._inflight = self.metrics.gauge(
            "repro_shard_inflight_requests",
            "Requests currently on the wire to a worker.",
            ("shard",),
        )
        self._imbalance_warnings = self.metrics.counter(
            "repro_shard_imbalance_warnings_total",
            "health() snapshots that flagged a shard imbalance.",
            ("dimension",),
        )
        assignment = ShardAssignment(shards)
        for index, tree in enumerate(trees):
            assignment.append(partitioner.assign(index, tree))
        self._assignment = assignment

        context = multiprocessing.get_context("fork")
        clients: List[_ShardClient] = []
        try:
            for shard in range(shards):
                members = assignment.by_shard[shard]
                parent_conn, child_conn = context.Pipe()
                payload = {
                    "shard": shard,
                    "brackets": [to_bracket(trees[g]) for g in members],
                    "filter": filter_name,
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
        except BaseException:  # repro-lint: disable=RL008 -- cleanup-and-reraise: started workers must not leak when construction fails
            _shutdown_backends(clients)
            raise
        self._finalizer = weakref.finalize(self, _shutdown_backends, clients)
        self._rwlock = _ReadWriteLock()
        self._mutations = 0
        # not the batch pool: batch tasks submit scatter work, and a shared
        # pool would deadlock once every thread held a batch task waiting
        # for a scatter slot
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="repro-scatter"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down both pools and stop the workers (idempotent)."""
        super().close()
        self._scatter_pool.shutdown(wait=True)
        self._finalizer()  # runs _shutdown_backends at most once

    def __len__(self) -> int:
        return len(self._assignment)

    @property
    def generation(self) -> int:
        """Mutation counter (parity with the single-process service)."""
        return self._mutations

    def __repr__(self) -> str:
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
        """Send one message to every shard concurrently; gather in order.

        Waits for every exchange before raising the first failure, so no
        request is still queued for a shard when the caller returns.
        """
        futures = [
            self._scatter_pool.submit(self._call, shard, message, kind)
            for shard in range(self.shards)
        ]
        wait(futures)
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def execute(self, request: QueryRequest) -> QueryAnswer:
        """Serve one :class:`QueryRequest`: a shard-parallel range query or
        one local k-NN search per shard, merged exactly."""
        if self._closed:
            raise RuntimeError("service is closed")
        sink = active_sink()
        want_funnel = sink is not None or tracing.enabled()
        start = time.perf_counter()
        if request.kind == "range":
            threshold = request.threshold
            if not math.isfinite(threshold):
                raise QueryError(
                    f"range threshold must be finite, got {threshold}"
                )
            if threshold < 0:
                raise QueryError(f"range threshold must be >= 0, got {threshold}")
            replies = self._gather(
                ("range", to_bracket(request.query), threshold, want_funnel)
            )
            answer = self._merge_range(replies)
            parameter = threshold
        else:
            k = check_k(request.k, len(self))
            replies = self._gather(
                ("knn", to_bracket(request.query), k, want_funnel)
            )
            answer = self._merge_knn(replies, k)
            parameter = float(k)

        stats = SearchStats(
            dataset_size=len(self),
            candidates=sum(reply["candidates"] for reply in replies),
            results=len(answer),
            filter_seconds=sum(reply["filter_seconds"] for reply in replies),
            refine_seconds=sum(reply["refine_seconds"] for reply in replies),
            rungs=sum(reply["rungs"] for reply in replies),
            gated=sum(reply["gated"] for reply in replies),
        )
        if want_funnel:
            stages = _merge_stages(replies)
            record_funnel(stats, request.kind, parameter, stages, sink)
        self._observe(
            request.kind, stats, time.perf_counter() - start, cache_hit=False
        )
        return answer, stats

    def _gather(self, message: tuple) -> List[dict]:
        """Scatter one query under the reader lock, so no add interleaves."""
        self._rwlock.acquire_read()
        try:
            return self._scatter(message, message[0])
        finally:
            self._rwlock.release_read()

    def _merge_range(self, replies: List[dict]) -> List[Tuple[int, float]]:
        """Every shard's matches at their global indices, in index order."""
        matches: List[Tuple[int, float]] = []
        for members, reply in zip(self._assignment.by_shard, replies):
            matches.extend(
                (members[local], distance) for local, distance in reply["matches"]
            )
        matches.sort(key=lambda pair: pair[0])
        return matches

    def _merge_knn(self, replies: List[dict], k: int) -> List[Tuple[int, float]]:
        """The first ``k`` of every shard's entries by
        ``(distance, bound, global index)`` — the single-process answer."""
        heap = KnnHeap(k)
        for members, reply in zip(self._assignment.by_shard, replies):
            for distance, bound, local in reply["neighbors"]:
                heap.offer(distance, bound, members[local])
        return heap.neighbors()

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
        self._invalidations.inc()
        return global_index

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """One shard-health snapshot: poll every worker, publish the gauges.

        Returns ``{"shards": [...], "warnings": [...]}`` where each shard
        entry is the worker's health reply (tree count, filter name,
        uptime, peak RSS, request counts, per-stage busy seconds, distance
        computations and how many of them the traversal-string gate
        settled).  Every scalar also lands in the metrics
        registry as a ``repro_shard_*`` gauge labelled by shard, and the
        per-stage seconds as ``repro_shard_stage_seconds{shard,stage}``,
        so ``repro metrics dump`` and the Prometheus exposition see the
        same numbers.  Imbalance warnings (tree placement skew, busy-time
        skew) are returned as strings and counted on
        ``repro_shard_imbalance_warnings_total{dimension}``.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        shards = list(self._scatter(("health",), "control"))
        warnings = self._publish_health(shards)
        return {"shards": shards, "warnings": warnings}

    def _publish_health(self, shards: List[Dict[str, object]]) -> List[str]:
        """Set the per-shard gauges and derive imbalance warnings."""
        registry = self.metrics
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
        imbalance = self._imbalance_warnings
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

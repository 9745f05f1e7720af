"""Shard worker process: one corpus partition served over a pipe.

Each worker owns one shard end-to-end — the shard's trees (shipped as
bracket strings; the recursive ``TreeNode`` objects never cross a pipe),
a packed-only :class:`~repro.features.store.FeatureStore` attached
zero-copy over the coordinator's shared-memory plane, a locally fitted
lower-bound filter, and a persistent
:class:`~repro.editdist.zhang_shasha.EditDistanceCounter` whose
prepared-tree cache survives across queries.

The protocol is a strict request/response loop over a
``multiprocessing.Pipe`` connection: the coordinator serialises access per
worker, so the worker is single-threaded and lock-free.  Requests are
tuples ``(op, *operands)``; replies are ``("ok", result)`` or
``("error", exception_type, message)``.  Ops:

=================  =====================================================
``ping``           liveness / shard summary
``range``          one complete range query over the shard
``knn_begin``      compute + sort this shard's lower bounds, stream the
                   first frontier chunk of ``(bound, local_index)`` pairs
``knn_more``       next frontier chunk for an open k-NN cursor
``knn_refine``     edit distance to one local tree, exact up to the
                   caller's budget (the coordinator's current k-th
                   distance, or ``inf`` while its heap is not full)
``knn_end``        drop a k-NN cursor
``add``            insert one tree (bracket form) into the shard
``info``           counters for diagnostics
``health``         health telemetry: per-op request counts, cumulative
                   per-stage seconds, open cursors, RSS, uptime
``shutdown``       acknowledge and exit the loop
=================  =====================================================

k-NN is split into begin/more/refine because Algorithm 2's optimal
stopping is a *global* decision: the coordinator merges every shard's
ascending frontier and asks for exact distances one candidate at a time,
so the distributed query refines exactly the candidates the
single-process run refines (see ``docs/SHARDING.md``).
"""

from __future__ import annotations

import time
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.editdist.costs import UNIT_COSTS
from repro.editdist.zhang_shasha import EditDistanceCounter, PreparedTreeCache
from repro.exceptions import InvalidParameterError, ShardError
from repro.filters.base import LowerBoundFilter
from repro.filters.binary_branch import BinaryBranchFilter, BranchCountFilter
from repro.filters.histogram import HistogramFilter
from repro.filters.traversal_string import TraversalStringFilter
from repro.obs.funnel import collect_funnels
from repro.search.database import TreeDatabase
from repro.search.range_query import range_query
from repro.sharding.plane import PlaneHandle, SharedFeaturePlane
from repro.trees.parse import parse_bracket

__all__ = ["FILTER_FACTORIES", "FRONTIER_CHUNK", "run_worker"]

#: Filter constructors a worker can instantiate by name (CLI spellings).
FILTER_FACTORIES: Dict[str, Type[LowerBoundFilter]] = {
    "bibranch": BinaryBranchFilter,
    "bibranchcount": BranchCountFilter,
    "histogram": HistogramFilter,
    "traversal": TraversalStringFilter,
}

#: ``(bound, local_index)`` pairs per k-NN frontier message.  Chunking
#: bounds the per-message payload while keeping the common case (the
#: merge stops early) to a single round trip per shard.
FRONTIER_CHUNK = 64

#: Ops the request loop will dispatch; anything else is a protocol error.
_OPS = frozenset(
    {"ping", "range", "knn_begin", "knn_more", "knn_refine", "knn_end",
     "add", "info", "health"}
)


class _KnnCursor:
    """Ascending ``(bound, local)`` frontier for one open k-NN query.

    The eager path materializes the whole shard's frontier at
    ``knn_begin``.  The index path instead holds the lazy
    :class:`~repro.index.ordering.OrderedBoundStream` iterator and only
    extends the materialized prefix when the coordinator's global merge
    actually asks for a deeper window — values and order are the exact
    reference frontier either way, so the coordinator cannot tell the
    two apart (and the refined-candidate counts stay bit-identical).
    """

    def __init__(
        self,
        query: Any,
        pairs: List[Tuple[float, int]],
        stream: Optional[Any] = None,
    ) -> None:
        self.query = query
        self._pairs = pairs
        self._stream = stream

    def window(self, start: int, size: int) -> List[Tuple[float, int]]:
        while self._stream is not None and len(self._pairs) < start + size:
            head = next(self._stream, None)
            if head is None:
                self._stream = None
            else:
                self._pairs.append((float(head[0]), head[1]))
        return self._pairs[start : start + size]

    def drain(self) -> None:
        """Materialize the rest of the frontier (pre-mutation snapshot)."""
        if self._stream is not None:
            self._pairs.extend(
                (float(bound), local) for bound, local in self._stream
            )
            self._stream = None


class _ShardState:
    """Everything one worker process holds between requests."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.shard: int = payload["shard"]
        trees = [parse_bracket(bracket) for bracket in payload["brackets"]]
        handle: PlaneHandle = payload["plane"]
        self.plane = SharedFeaturePlane.attach(handle)
        store = self.plane.store(payload["vocabulary"])
        flt = self._fit_filter(payload["filter"], store, trees)
        self.db = TreeDatabase(trees, flt=flt, feature_store=store)
        #: corpus-level matrix planes over the attached store.  The dense
        #: rows are scattered zero-copy out of the shared-memory columns
        #: (np.frombuffer over the borrowed memoryviews — no intermediate
        #: python lists); filters whose kernels need artifacts the plane
        #: does not carry (histograms) fall back per stage to the loop.
        self.matrices = store.matrices()
        #: shard-local inverted file (ifi source); built over the attached
        #: store, so its BDist vectors are the coordinator's rows
        source = payload.get("candidate_source", "auto")
        self.index = self.db.candidate_index() if source == "ifi" else None
        self.counter = EditDistanceCounter(
            UNIT_COSTS,
            cache=PreparedTreeCache(payload.get("prepared_cache_size", 4096)),
        )
        #: open k-NN cursors: qid -> ascending (bound, local) frontier
        self._knn: Dict[int, _KnnCursor] = {}
        #: health telemetry, all cumulative since worker start
        self.started = time.monotonic()
        self.requests: Dict[str, int] = {}
        self.stage_seconds: Dict[str, float] = {"filter": 0.0, "refine": 0.0}

    @staticmethod
    def _fit_filter(
        name: str, store: Any, trees: List[Any]
    ) -> LowerBoundFilter:
        """Fit the shard filter, zero-copy from the plane when possible.

        Filters whose signatures are packed vectors (BiBranchCount) fit
        straight off the attached store — no tree traversal at all, and
        the store's vocabulary (the coordinator's) keeps query-side
        interning identical across shards.  Filters needing artifacts the
        plane does not carry (positional profiles, histograms) fall back
        to a local fit over the shard's trees; their signatures are
        per-tree, so the bounds still match the single-process filter.
        """
        factory = FILTER_FACTORIES[name]
        flt = factory()
        if flt.supports_store:
            try:
                return flt.fit_from_store(store)
            except InvalidParameterError:
                flt = factory()  # discard the partially fitted instance
        return flt.fit(trees)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return {"shard": self.shard, "trees": len(self.db)}

    def range(
        self, bracket: str, threshold: float, want_funnel: bool
    ) -> Dict[str, Any]:
        query = parse_bracket(bracket)
        stages: Optional[List[Tuple[str, int, int, float]]] = None
        if want_funnel:
            with collect_funnels() as sink:
                matches, stats = range_query(
                    self.db.trees, query, threshold, self.db.filter,
                    self.counter, matrices=self.matrices, index=self.index,
                )
            funnel = sink.funnels[0]
            stages = [
                (stage.name, stage.entered, stage.survivors, stage.seconds)
                for stage in funnel.stages
            ]
        else:
            matches, stats = range_query(
                self.db.trees, query, threshold, self.db.filter,
                self.counter, matrices=self.matrices, index=self.index,
            )
        self.stage_seconds["filter"] += stats.filter_seconds
        self.stage_seconds["refine"] += stats.refine_seconds
        return {
            "matches": matches,
            "candidates": stats.candidates,
            "results": stats.results,
            "filter_seconds": stats.filter_seconds,
            "refine_seconds": stats.refine_seconds,
            "stages": stages,
        }

    def knn_begin(self, qid: int, bracket: str) -> Dict[str, Any]:
        query = parse_bracket(bracket)
        start = time.perf_counter()
        flt = self.db.filter
        use_index = (
            self.index is not None
            and flt.bdist_dominant
            and getattr(flt, "q", None) == self.index.q
        )
        if use_index:
            assert self.index is not None
            self.index.sync()
            from repro.index.ordering import OrderedBoundStream

            query_signature = flt.signature(query)
            stream = OrderedBoundStream(
                self.index,
                lambda row: flt.bound(query_signature, flt.data_signature(row)),
                self.index.pack(query),
            )
            self._knn[qid] = _KnnCursor(query, [], iter(stream))
        else:
            bounds: Optional[List[float]] = None
            if self.matrices is not None:
                # exact vectorized bounds only — the coordinator's global
                # optimal-stopping merge compares these values across
                # shards, so an approximation would change refined counts
                vectorized = flt.lower_bounds_matrix(
                    flt.signature(query), self.matrices
                )
                if vectorized is not None:
                    bounds = [float(value) for value in vectorized]
            if bounds is None:
                bounds = flt.bounds(query)
            order = sorted(
                range(len(bounds)), key=lambda index: (bounds[index], index)
            )
            self._knn[qid] = _KnnCursor(
                query, [(float(bounds[local]), local) for local in order]
            )
        filter_seconds = time.perf_counter() - start
        self.stage_seconds["filter"] += filter_seconds
        return {
            "filter_seconds": filter_seconds,
            "total": len(self.db),
            "chunk": self._chunk(qid, 0),
        }

    def knn_more(self, qid: int, start: int) -> Dict[str, Any]:
        return {"chunk": self._chunk(qid, start)}

    def _chunk(self, qid: int, start: int) -> List[Tuple[float, int]]:
        return self._cursor(qid).window(start, FRONTIER_CHUNK)

    def knn_refine(self, qid: int, local: int, budget: float) -> Dict[str, Any]:
        query = self._cursor(qid).query
        start = time.perf_counter()
        distance = self.counter.distance(query, self.db.trees[local], budget)
        self.stage_seconds["refine"] += time.perf_counter() - start
        return {"distance": distance}

    def knn_end(self, qid: int) -> None:
        self._knn.pop(qid, None)

    def _cursor(self, qid: int) -> _KnnCursor:
        try:
            return self._knn[qid]
        except KeyError:
            raise ShardError(
                f"shard {self.shard}: no open k-NN cursor {qid}"
            ) from None

    def add(self, bracket: str) -> Dict[str, Any]:
        # open lazy cursors iterate over the candidate index; snapshot
        # them before the mutation so they keep their begin-time frontier
        # (matching the eager path's materialize-at-begin semantics)
        for cursor in self._knn.values():
            cursor.drain()
        local = self.db.add(parse_bracket(bracket))
        return {"local": local, "trees": len(self.db)}

    def info(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "trees": len(self.db),
            "filter": self.db.filter.name,
            "distance_computations": self.counter.calls,
            "open_cursors": len(self._knn),
        }

    def note_request(self, op: str) -> None:
        """Count one dispatched request (op names are the bounded _OPS set)."""
        self.requests[op] = self.requests.get(op, 0) + 1

    def health(self) -> Dict[str, Any]:
        """Everything the coordinator's health snapshot needs, one reply.

        All values are cumulative since worker start (the coordinator
        turns them into gauges); RSS comes from ``getrusage`` so the
        probe costs no /proc reads on the serving process.
        """
        from repro.perf.resources import rss_bytes

        return {
            "shard": self.shard,
            "trees": len(self.db),
            "uptime_seconds": time.monotonic() - self.started,
            "rss_bytes": rss_bytes(),
            "requests": dict(self.requests),
            "requests_total": sum(self.requests.values()),
            "stage_seconds": dict(self.stage_seconds),
            "open_cursors": len(self._knn),
            "distance_computations": self.counter.calls,
        }

    def close(self) -> None:
        self._knn.clear()
        self.plane.close()


def run_worker(conn: Connection, payload: Dict[str, Any]) -> None:
    """Process entry point: serve the shard until ``shutdown`` or EOF.

    Every per-request failure is reported back to the coordinator as an
    ``("error", type, message)`` reply — the worker must survive a bad
    query to keep serving the shard, and the coordinator re-raises the
    error in the caller's process, so nothing is swallowed.
    """
    state = _ShardState(payload)
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break  # coordinator went away; exit quietly
            op = message[0]
            if op == "shutdown":
                conn.send(("ok", None))
                break
            try:
                if op not in _OPS:
                    raise ShardError(f"unknown shard op {op!r}")
                state.note_request(op)
                result = getattr(state, op)(*message[1:])
            except Exception as error:  # repro-lint: disable=RL008 -- protocol boundary: the failure is shipped to the coordinator and re-raised there
                conn.send(("error", type(error).__name__, str(error)))
            else:
                conn.send(("ok", result))
    finally:
        state.close()
        conn.close()

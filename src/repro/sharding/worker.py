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

=====================  =================================================
``ping``               liveness / shard summary
``range``              one complete range query over the shard
``knn_begin``          open this shard's lazy ``(bound, local_index)``
                       stream (:func:`~repro.search.knn.bound_stream`)
                       and send its first ``k`` ``(bound, local)`` pairs
``knn_refine_upto``    refine every unrefined stream row whose bound is
                       below the round limit, then the next ``ties`` rows
                       bounded exactly at it, exact below the caller's
                       budget; reply with ``(bound, local, distance)``
                       triples and the next ``k`` ``(bound, local)`` pairs
``knn_end``            drop a k-NN cursor; reply with the rows it bounded
``add``                insert one tree (bracket form) into the shard
``health``             diagnostics: tree count, filter, per-op request
                       counts, cumulative per-stage seconds, open cursors,
                       distance computations (gated ones too), RSS, uptime
``shutdown``           acknowledge and exit the loop
=====================  =================================================

k-NN is split into begin/refine rounds because Algorithm 2's optimal
stopping is a *global* decision: the coordinator derives each round's
limit and per-shard tie quota from its heap and every shard's next ``k``
pairs, so a round refines only rows the single-process run refines too,
and the distributed query refines exactly the single-process candidates
(see ``docs/SHARDING.md``).
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from multiprocessing.connection import Connection
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.editdist.costs import UNIT_COSTS
from repro.editdist.zhang_shasha import EditDistanceCounter, PreparedTreeCache
from repro.exceptions import InvalidParameterError, ShardError
from repro.filters.base import LowerBoundFilter
from repro.filters.registry import FILTERS
from repro.obs.funnel import collect_funnels
from repro.search.database import TreeDatabase
from repro.search.knn import BoundStream, bound_stream
from repro.search.range_query import range_query
from repro.service.engine import PREPARED_CACHE_SIZE
from repro.sharding.plane import PlaneHandle, SharedFeaturePlane
from repro.trees.parse import parse_bracket

__all__ = ["run_worker"]

#: Ops the request loop will dispatch; anything else is a protocol error.
_OPS = frozenset(
    {"ping", "range", "knn_begin", "knn_refine_upto", "knn_end",
     "add", "health"}
)


class _KnnCursor:
    """One open k-NN query: the shard's stream, bounded ``k`` rows ahead.

    The stream is the shard's :class:`~repro.search.knn.BoundStream`,
    materialized only as deep as the coordinator's rounds ask.  Its keys
    and rows are fixed at ``knn_begin``, so a later ``add`` to the shard
    cannot move an open stream.
    """

    def __init__(self, query: Any, stream: BoundStream, k: int) -> None:
        self.query = query
        self.stream = stream
        self.k = k
        self._rows = iter(stream)
        #: the unrefined rows already pulled, in stream order
        self._ahead: Deque[Tuple[float, int]] = deque()

    def _pull(self) -> bool:
        pair = next(self._rows, None)
        if pair is None:
            return False
        self._ahead.append((float(pair[0]), pair[1]))
        return True

    def frontier(self) -> List[Tuple[float, int]]:
        """The next ``k`` unrefined ``(bound, local)`` pairs (fewer at the end)."""
        while len(self._ahead) < self.k and self._pull():
            pass
        return list(self._ahead)

    def take_round(self, limit: float, ties: int) -> Iterator[Tuple[float, int]]:
        """Consume every unrefined row with bound < ``limit``, then the
        next ``ties`` rows bounded exactly ``limit``, in stream order."""
        while self._ahead or self._pull():
            bound = self._ahead[0][0]
            if bound == limit:
                if ties == 0:
                    return
                ties -= 1
            elif bound > limit:
                return
            yield self._ahead.popleft()


class _ShardState:
    """Everything one worker process holds between requests."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.shard: int = payload["shard"]
        trees = [parse_bracket(bracket) for bracket in payload["brackets"]]
        handle: PlaneHandle = payload["plane"]
        self.plane = SharedFeaturePlane.attach(handle)
        store = self.plane.store(
            payload["vocabulary"], payload["histogram_vocabularies"]
        )
        flt = self._fit_filter(payload["filter"], store, trees)
        self.db = TreeDatabase(trees, flt=flt, feature_store=store)
        #: corpus-level matrix planes over the attached store: branch and
        #: label/degree histogram rows are scattered zero-copy out of the
        #: shared-memory columns (np.frombuffer over the borrowed
        #: memoryviews — no intermediate python lists)
        self.matrices = store.matrices()
        self.counter = EditDistanceCounter(
            UNIT_COSTS, cache=PreparedTreeCache(PREPARED_CACHE_SIZE)
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
        plane does not carry (positional profiles, histogram signatures)
        fall back to a local fit over the shard's trees; their signatures
        are per-tree, so the bounds still match the single-process filter.
        """
        factory = FILTERS[name]
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
        with collect_funnels() if want_funnel else nullcontext() as sink:
            matches, stats = range_query(
                self.db.trees, query, threshold, self.db.filter,
                self.counter, matrices=self.matrices,
            )
        stages: Optional[List[Tuple[str, int, int, float]]] = None
        if sink is not None:
            stages = [
                (stage.name, stage.entered, stage.survivors, stage.seconds)
                for stage in sink.funnels[0].stages
            ]
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

    def knn_begin(self, qid: int, bracket: str, k: int) -> Dict[str, Any]:
        query = parse_bracket(bracket)
        start = time.perf_counter()
        cursor = _KnnCursor(
            query, bound_stream(self.db.filter, query, self.matrices), k
        )
        self._knn[qid] = cursor
        frontier = cursor.frontier()
        filter_seconds = time.perf_counter() - start
        self.stage_seconds["filter"] += filter_seconds
        return {"filter_seconds": filter_seconds, "frontier": frontier}

    def knn_refine_upto(
        self, qid: int, limit: float, budget: float, ties: int
    ) -> Dict[str, Any]:
        cursor = self._cursor(qid)
        query, trees = cursor.query, self.db.trees
        start = time.perf_counter()
        refined = [
            (bound, local, self.counter.distance_below(query, trees[local], budget))
            for bound, local in cursor.take_round(limit, ties)
        ]
        middle = time.perf_counter()
        frontier = cursor.frontier()
        self.stage_seconds["refine"] += middle - start
        self.stage_seconds["filter"] += time.perf_counter() - middle
        return {"refined": refined, "frontier": frontier}

    def knn_end(self, qid: int) -> Dict[str, Any]:
        cursor = self._knn.pop(qid, None)
        return {"scored": cursor.stream.scored if cursor is not None else 0}

    def _cursor(self, qid: int) -> _KnnCursor:
        try:
            return self._knn[qid]
        except KeyError:
            raise ShardError(
                f"shard {self.shard}: no open k-NN cursor {qid}"
            ) from None

    def add(self, bracket: str) -> Dict[str, Any]:
        local = self.db.add(parse_bracket(bracket))
        return {"local": local, "trees": len(self.db)}

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
            "filter": self.db.filter.name,
            "uptime_seconds": time.monotonic() - self.started,
            "rss_bytes": rss_bytes(),
            "requests": dict(self.requests),
            "requests_total": sum(self.requests.values()),
            "stage_seconds": dict(self.stage_seconds),
            "open_cursors": len(self._knn),
            "distance_computations": self.counter.calls,
            "gated_distances": self.counter.gated,
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

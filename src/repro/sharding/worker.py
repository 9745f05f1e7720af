"""Shard worker process: one corpus partition served over a pipe.

Each worker owns one shard end-to-end — the shard's trees (shipped as
bracket strings; the recursive ``TreeNode`` objects never cross a pipe),
indexed by a :class:`~repro.search.database.TreeDatabase` exactly as the
single-process service indexes its corpus (one extraction pass over the
shard's own rows into its :class:`~repro.features.store.FeatureStore`,
the filter fitted from that store), and a persistent
:class:`~repro.editdist.zhang_shasha.EditDistanceCounter` whose
prepared-tree cache survives across queries.  Every filter bound is per
pair, so a shard needs nothing corpus-wide.

The protocol is a strict request/response loop over a
``multiprocessing.Pipe`` connection: the coordinator serialises access per
worker, so the worker is single-threaded and lock-free.  Requests are
tuples ``(op, *operands)``; replies are ``("ok", result)`` or
``("error", exception_type, message)``.  Ops:

=====================  =================================================
``ping``               liveness / shard summary
``range``              one complete range query over the shard
``knn``                one complete k-NN query over the shard
                       (:func:`~repro.search.knn.knn_search`); replies
                       with its heap's ``(distance, bound, local)``
                       entries
``add``                insert one tree (bracket form) into the shard
``health``             diagnostics: tree count, filter, per-op request
                       counts, cumulative per-stage seconds, distance
                       computations (gated ones too), budgeted
                       rungs, RSS, uptime
``shutdown``           acknowledge and exit the loop
=====================  =================================================

Every query op is stateless: the worker keeps nothing between requests
but its corpus, so a request can be repeated and a failed one leaves
nothing behind.  A k-NN shard runs the single-process Algorithm 2 over
its own rows, and the coordinator merges the shards' entries exactly
(see ``docs/THEORY.md`` §13).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from multiprocessing.connection import Connection
from typing import Any, Dict, Optional

from repro.editdist.costs import UNIT_COSTS
from repro.editdist.zhang_shasha import EditDistanceCounter, PreparedTreeCache
from repro.exceptions import ShardError
from repro.filters.registry import FILTERS
from repro.obs.funnel import FunnelSink, collect_funnels
from repro.search.database import TreeDatabase
from repro.search.knn import knn_search
from repro.search.range_query import range_query
from repro.search.statistics import SearchStats
from repro.service.engine import PREPARED_CACHE_SIZE
from repro.trees.parse import parse_bracket

__all__ = ["run_worker"]

#: Ops the request loop will dispatch; anything else is a protocol error.
_OPS = frozenset({"ping", "range", "knn", "add", "health"})


class _ShardState:
    """Everything one worker process holds between requests."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.shard: int = payload["shard"]
        trees = [parse_bracket(bracket) for bracket in payload["brackets"]]
        self.db = TreeDatabase(trees, flt=FILTERS[payload["filter"]]())
        self.matrices = self.db.matrices()
        self.counter = EditDistanceCounter(
            UNIT_COSTS, cache=PreparedTreeCache(PREPARED_CACHE_SIZE)
        )
        #: health telemetry, all cumulative since worker start
        self.started = time.monotonic()
        self.requests: Dict[str, int] = {}
        self.stage_seconds: Dict[str, float] = {"filter": 0.0, "refine": 0.0}

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
        return self._reply(stats, sink, matches=matches)

    def knn(self, bracket: str, k: int, want_funnel: bool) -> Dict[str, Any]:
        # a shard with fewer than k rows answers with all of them, and an
        # empty shard with none
        k = min(k, len(self.db))
        if k == 0:
            return self._reply(SearchStats(), None, neighbors=[], stages=[])
        query = parse_bracket(bracket)
        with collect_funnels() if want_funnel else nullcontext() as sink:
            heap, stats = knn_search(
                self.db.trees, query, k, self.db.filter,
                self.counter, matrices=self.matrices,
            )
        neighbors = [
            (distance, float(bound), local)
            for distance, bound, local in heap.entries()
        ]
        return self._reply(stats, sink, neighbors=neighbors)

    def _reply(
        self, stats: SearchStats, sink: Optional[FunnelSink], **answer: Any
    ) -> Dict[str, Any]:
        """A query reply: ``answer``, the stats and the funnel's stages."""
        self.stage_seconds["filter"] += stats.filter_seconds
        self.stage_seconds["refine"] += stats.refine_seconds
        reply: Dict[str, Any] = {
            "candidates": stats.candidates,
            "filter_seconds": stats.filter_seconds,
            "refine_seconds": stats.refine_seconds,
            "rungs": stats.rungs,
            "gated": stats.gated,
            "stages": None,
        }
        if sink is not None:
            reply["stages"] = [
                (stage.name, stage.entered, stage.survivors, stage.seconds)
                for stage in sink.funnels[0].stages
            ]
        reply.update(answer)
        return reply

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
            "distance_computations": self.counter.calls,
            "gated_distances": self.counter.gated,
            "distance_rungs": self.counter.rungs,
        }


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
        conn.close()

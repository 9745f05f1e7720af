"""Outside-in layer tracing for the traced benchmark run.

The benchmark wraps the public entry point of each layer, from its own
files, for the length of one traced run, and restores every wrapped
attribute afterwards.  Spans stay in memory as ``[name, start, end, parent,
op, extra]`` lists.  A span opened on a thread that has none open (a shard
scatter thread) is parented to the client thread's innermost span, so a
range scatter's RPCs nest under the coordinator call that waits for them.

Layers are named after the modules whose entry points they wrap:

==========  ==========================================================
``service``  ``TreeSearchService.execute`` and ``.add``
``trees``    ``to_bracket`` (result-cache key, shard wire encoding)
``search``   ``range_query``/``knn_query`` as the service calls them,
             ``TreeDatabase.add``
``filters``  ``signature`` of every ``LowerBoundFilter`` subclass
``index``    ``range_rows`` of every ``CandidateIndex`` subclass
``editdist`` ``EditDistanceCounter.distance``, ``prepare_tree``
``features`` ``FeatureStore.fit`` and ``.add``
``sharding`` ``ShardedTreeService.execute`` (the coordinator) and the
             coordinator's ``Connection.send``/``recv``
==========  ==========================================================
"""

from __future__ import annotations

import sys
import threading
import time
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import TreeDatabase, TreeSearchService, to_bracket
from repro.editdist.zhang_shasha import EditDistanceCounter, prepare_tree
from repro.features.store import FeatureStore
from repro.filters.base import LowerBoundFilter
from repro.index.base import CandidateIndex
from repro.search.knn import knn_query
from repro.search.range_query import range_query
from repro.sharding import ShardedTreeService

__all__ = ["PER_LAYER", "Tracer", "layer_metrics", "span_table", "wrap_targets"]

#: Per-layer metrics of a traced run: (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("service.self_s", "s"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.invalidate_s", "s"),
    ("trees.to_bracket_calls", "count"),
    ("trees.to_bracket_s", "s"),
    ("search.filter_s", "s"),
    ("search.refine_s", "s"),
    ("search.candidates", "count"),
    ("search.precision", "ratio"),
    ("search.add_s", "s"),
    ("filters.signature_s", "s"),
    ("filters.survivor_ratio", "ratio"),
    ("index.probes", "count"),
    ("index.examined_rows", "count"),
    ("editdist.calls", "count"),
    ("editdist.busy_s", "s"),
    ("editdist.cells", "count"),
    ("editdist.prepare_calls", "count"),
    ("editdist.prepare_s", "s"),
    ("features.add_s", "s"),
    ("features.fit_s", "s"),
    ("sharding.rpc_calls", "count"),
    ("sharding.rpc_per_query", "ratio"),
    ("sharding.worker_busy_s", "s"),
    ("sharding.rpc_wait_s", "s"),
    ("sharding.coordinator_self_s", "s"),
    ("sharding.worker_busy_skew", "ratio"),
    ("trace.op_wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

#: Shard worker ops that are not client traffic (health polls, pings).
_CONTROL_OPS = ("health", "ping", "info")

Span = List[Any]


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _function_owners(function: Callable) -> List[Tuple[Any, str]]:
    """Every loaded ``repro`` module that binds ``function`` by its name."""
    name = function.__name__
    return [
        (module, name)
        for module_name, module in sorted(sys.modules.items())
        if module_name.split(".")[0] == "repro"
        and getattr(module, name, None) is function
    ]


def _cells(span: Span, args: tuple, result: Any) -> None:
    counter, t1, t2 = args[0], args[1], args[2]
    span[5] = counter.prepared(t1).size * counter.prepared(t2).size


def _examined(span: Span, args: tuple, result: Any) -> None:
    span[5] = args[0].last_examined


def wrap_targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, after-hook)`` for every wrapped entry."""
    targets: List[Tuple[Any, str, str, Optional[Callable]]] = [
        (TreeSearchService, "execute", "service.execute", None),
        (TreeSearchService, "add", "service.add", None),
        (ShardedTreeService, "execute", "sharding.coordinator", None),
        (TreeDatabase, "add", "search.add", None),
        (FeatureStore, "fit", "features.fit", None),
        (FeatureStore, "add", "features.add", None),
        (EditDistanceCounter, "distance", "editdist.distance", _cells),
        (Connection, "send", "sharding.send", None),
        (Connection, "recv", "sharding.recv", None),
    ]
    for function, span_name in (
        (to_bracket, "trees.to_bracket"),
        (prepare_tree, "editdist.prepare"),
        (range_query, "search.range"),
        (knn_query, "search.knn"),
    ):
        targets += [
            (owner, attr, span_name, None) for owner, attr in _function_owners(function)
        ]
    targets += [
        (cls, "signature", "filters.signature", None)
        for cls in _subclasses(LowerBoundFilter)
        if "signature" in vars(cls)
    ]
    targets += [
        (cls, "range_rows", "index.range_rows", _examined)
        for cls in _subclasses(CandidateIndex)
        if "range_rows" in vars(cls)
    ]
    return targets


class Tracer:
    """In-memory span recorder that wraps layer entry points while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: op id stamped on new spans: an int inside an op, "setup" during
        #: traced set-up, ``None`` otherwise (health polls, checks)
        self.op: Any = None
        self._local = threading.local()
        self._client: Optional[List[Span]] = None
        #: (owner, attribute, had its own attribute, original value)
        self.patches: List[Tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._client:
            parent = self._client[-1]
        else:
            parent = None
        span = [name, time.perf_counter(), 0.0, parent, self.op, 0]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def begin_op(self, op_id: int, kind: str) -> Span:
        """Open an op's root span on the (single) client thread."""
        self.op = op_id
        span = self.begin(f"op.{kind}")
        self._client = self._stack()
        return span

    def end_op(self, span: Span) -> None:
        self.end(span)
        self._client = None
        self.op = None

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target in :func:`wrap_targets` (idempotent per target)."""
        for owner, attr, name, after in wrap_targets():
            if any(o is owner and a == attr for o, a, _, _ in self.patches):
                continue
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self.patches.append((owner, attr, own, original))
            setattr(owner, attr, self._wrapper(original, name, after))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self.patches:
            owner, attr, own, original = self.patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrapper(
        self, original: Callable, name: str, after: Optional[Callable]
    ) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(span, args, result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span (keyed by ``id``): duration minus child coverage."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            clipped = (max(span[1], parent[1]), min(span[2], parent[2]))
            if clipped[1] > clipped[0]:
                children.setdefault(id(parent), []).append(clipped)
    return {
        id(span): (span[2] - span[1]) - _covered(children.get(id(span), []))
        for span in spans
    }


def span_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` (outermost spans only) and ``self_s``."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0}
        )
        row["calls"] += 1
        row["self_s"] += own[id(span)]
        row["extra"] += span[5]
        if span[3] is None or span[3][0] != span[0]:
            row["total_s"] += span[2] - span[1]
    return table


def _delta(before: List[dict], after: List[dict]) -> Tuple[int, int, List[float]]:
    """Client RPCs, distance computations and per-worker busy seconds between
    two ``health()`` snapshots."""
    rpcs = distances = 0
    busy: List[float] = []
    for old, new in zip(before, after):
        rpcs += new["requests_total"] - old["requests_total"]
        rpcs -= sum(
            new["requests"].get(op, 0) - old["requests"].get(op, 0)
            for op in _CONTROL_OPS
        )
        distances += new["distance_computations"] - old["distance_computations"]
        busy.append(
            sum(new["stage_seconds"].values()) - sum(old["stage_seconds"].values())
        )
    return rpcs, distances, busy


def layer_metrics(
    spans: List[Span],
    op_stats: Dict[int, Any],
    health: Tuple[List[dict], List[dict]],
    plain_wall: float,
) -> Dict[str, float]:
    """The :data:`PER_LAYER` values of one traced run.

    ``op_stats`` maps op id to the ``SearchStats`` a read returned;
    ``health`` holds the shard workers' snapshots before and after the ops
    (empty lists for a single-process service); ``plain_wall`` is the
    untraced op wall time of the same ops, for the overhead ratio.
    """
    op_spans = [span for span in spans if isinstance(span[4], int)]
    table = span_table(op_spans)
    setup = span_table([span for span in spans if span[4] == "setup"])

    def row(name: str, key: str, source=table) -> float:
        return source.get(name, {}).get(key, 0)

    own = self_times(op_spans)
    roots = [span for span in op_spans if span[3] is None]
    kinds = {span[4]: span[0] for span in roots}
    reads = [span[4] for span in roots if span[0] != "op.add"]
    entered = {
        span[4]
        for span in op_spans
        if span[0] in ("search.range", "search.knn", "sharding.send")
    }
    missed = [op for op in reads if op in entered and op in op_stats]
    candidates = sum(op_stats[op].candidates for op in missed)
    results = sum(op_stats[op].results for op in missed)
    ranges = [op for op in missed if kinds[op] == "op.range"]
    range_rows = sum(op_stats[op].dataset_size for op in ranges)
    op_wall = sum(span[2] - span[1] for span in roots)
    unattributed = sum(own[id(span)] for span in roots)

    rpcs, worker_distances, busy = _delta(*health)
    worker_busy = sum(busy)
    rpc_time = row("sharding.send", "total_s") + row("sharding.recv", "total_s")
    values = {
        "service.self_s": row("service.execute", "self_s"),
        "service.cache_hit_ratio": (len(reads) - len(missed)) / len(reads)
        if reads
        else 0.0,
        "service.invalidate_s": row("service.add", "total_s")
        - row("search.add", "total_s"),
        "trees.to_bracket_calls": row("trees.to_bracket", "calls"),
        "trees.to_bracket_s": row("trees.to_bracket", "total_s"),
        "search.filter_s": sum(op_stats[op].filter_seconds for op in missed),
        "search.refine_s": sum(op_stats[op].refine_seconds for op in missed),
        "search.candidates": candidates,
        "search.precision": results / candidates if candidates else 0.0,
        "search.add_s": row("search.add", "total_s"),
        "filters.signature_s": row("filters.signature", "total_s"),
        "filters.survivor_ratio": sum(op_stats[op].candidates for op in ranges)
        / range_rows
        if range_rows
        else 0.0,
        "index.probes": row("index.range_rows", "calls"),
        "index.examined_rows": row("index.range_rows", "extra"),
        "editdist.calls": row("editdist.distance", "calls") + worker_distances,
        "editdist.busy_s": row("editdist.distance", "total_s"),
        "editdist.cells": row("editdist.distance", "extra"),
        "editdist.prepare_calls": row("editdist.prepare", "calls"),
        "editdist.prepare_s": row("editdist.prepare", "total_s"),
        "features.add_s": row("features.add", "total_s"),
        "features.fit_s": row("features.fit", "total_s", setup),
        "sharding.rpc_calls": rpcs,
        "sharding.rpc_per_query": rpcs / len(reads) if busy and reads else 0.0,
        "sharding.worker_busy_s": worker_busy,
        "sharding.rpc_wait_s": rpc_time - worker_busy if busy else 0.0,
        "sharding.coordinator_self_s": row("sharding.coordinator", "self_s"),
        "sharding.worker_busy_skew": max(busy) / min(busy)
        if len(busy) > 1 and min(busy) > 0
        else 0.0,
        "trace.op_wall_s": op_wall,
        "trace.unattributed_s": unattributed,
        "trace.coverage": 1.0 - unattributed / op_wall if op_wall else 0.0,
        "trace.overhead_ratio": op_wall / plain_wall if plain_wall else 0.0,
    }
    return {name: values[name] for name, _ in PER_LAYER}

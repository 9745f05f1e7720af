"""Runs one workload: set-up, the closed loop, the answer check, the metrics.

One client thread drives the service through its public API, sending each
op only after the previous one returned (a closed loop, no think time).
End-to-end metrics come from an untraced run; :func:`run_traced` gives the
per-layer numbers of the same ops.

Times are reported at the reference machine's speed.  The machine this
runs on is shared: a fixed loop of pure-Python work ran up to 1.6x slower
for a minute or more at a time, which moved whole runs by as much.  So the
client times a fixed slice of such work between ops, every
:data:`SLICE_EVERY_S` of op time, and scales each op's time by
:data:`REFERENCE_SLICE_S` over the mean of the slices around it.  Under a
competing load that spread ten runs' op time by 9 %, the scaled op time
spread by 1.3 %.  The raw times and the speed factor are recorded too.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy

from benchmarks.e2e.tracer import Tracer, layer_metrics, span_table
from benchmarks.e2e.workloads import MIN_OPS, Inputs, Op, Workload, build_inputs
from repro import TreeDatabase, TreeSearchService
from repro.search import sequential_knn_query, sequential_range_query
from repro.sharding import ShardedTreeService
from repro.trees.node import TreeNode

__all__ = [
    "END_TO_END",
    "SETUP_REPEATS",
    "check",
    "open_service",
    "percentile",
    "run_traced",
    "run_untraced",
    "stop_helper_processes",
]

#: End-to-end metrics of an untraced run: (name, unit).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("rss_peak_mb", "MB"),
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Samples that must lie beyond a reported percentile.
BEYOND = 10

#: Op time between two calibration slices.
SLICE_EVERY_S = 0.25

#: Time of one calibration slice on the reference machine (2-core x86-64,
#: Python 3.11.7) when nothing else loads it.
REFERENCE_SLICE_S = 0.00235

ServiceFactory = Callable[[Workload, List[TreeNode]], Any]


#: Points of the grid on which :func:`percentile` integrates its weights.
WEIGHT_GRID = 200001


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis ``q``-quantile, refused with fewer than ten samples
    beyond the nearest rank.

    A weighted mean of the order statistics, the ``i``-th of ``n`` weighted
    by the mass a Beta((n+1)q, (n+1)(1-q)) law puts on ``((i-1)/n, i/n]``.
    Where the samples are sparse, as in the tail of 100 k-NN latencies that
    lie 10-20 % apart near the 90th, the nearest rank jumps between
    neighbours with the machine's per-op noise; this estimate moves smoothly
    (a p90 spread of 10 % between runs fell to 2 %).

    >>> round(percentile(range(100), 0.9), 6)
    89.5
    """
    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(ordered)
    if n - max(1, math.ceil(q * n)) < BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has fewer than "
            f"{BEYOND} samples beyond it"
        )
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = numpy.linspace(0.0, 1.0, WEIGHT_GRID)[1:-1]
    log_density = (a - 1) * numpy.log(grid) + (b - 1) * numpy.log1p(-grid)
    density = numpy.exp(log_density - log_density.max())
    cdf = numpy.concatenate(([0.0], numpy.cumsum(density[1:] + density[:-1])))
    cdf /= cdf[-1]
    weights = numpy.diff(numpy.interp(numpy.arange(n + 1) / n, grid, cdf))
    return float(weights @ ordered)


def calibration_slice() -> float:
    """Seconds one fixed slice of pure-Python work takes now.

    Dict updates and integer arithmetic, like the interpreter work the
    program does; no program code, so no change to the program moves it.
    """
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i % 7
    return time.perf_counter() - start


def open_service(workload: Workload, corpus: List[TreeNode]) -> Any:
    """The program under test, in its default configuration."""
    if workload.shards > 1:
        return ShardedTreeService(corpus, shards=workload.shards)
    return TreeSearchService(TreeDatabase(corpus))


def stop_helper_processes() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The sharded service's shared-memory planes start that tracker, a process
    of its own that otherwise outlives this one.  Call it once every service
    is closed: a shard worker still alive would hold the tracker open.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):  # Python 3.11.7 and later
        tracker._stop()
        return
    with tracker._lock:  # what _stop does
        if tracker._fd is not None:
            os.close(tracker._fd)  # the tracker ends when this pipe closes
            tracker._fd = None
            os.waitpid(tracker._pid, 0)
            tracker._pid = None


def serve(service: Any, op: Op) -> Any:
    if op.request is None:
        return service.add(op.tree)
    return service.execute(op.request)


def canonical(op: Op, answer: Any) -> str:
    """An answer in comparable form: exact range matches, the k-NN distance
    profile (index ties may legitimately differ), the index of an add."""
    if op.request is None:
        return f"add {answer}"
    matches = answer[0]
    if op.kind == "range":
        return f"range {[(index, distance) for index, distance in matches]}"
    return f"knn {sorted(distance for _, distance in matches)}"


def set_up(
    workload: Workload, inputs: Inputs, make_service: ServiceFactory
) -> Tuple[Any, float, float]:
    """Build the service and serve the warm-up queries.

    Returns the service, the time taken and the mean calibration slice
    around it.
    """
    before = calibration_slice()
    start = time.perf_counter()
    service = make_service(workload, inputs.corpus)
    try:
        for op in inputs.warmup:
            serve(service, op)
    except BaseException:
        service.close()
        raise
    took = time.perf_counter() - start
    return service, took, (before + calibration_slice()) / 2


@dataclass
class Played:
    """What a pass of the closed loop observed.

    ``latencies`` are raw seconds per op kind, ``scaled`` the same at the
    reference speed.
    """

    latencies: Dict[str, List[float]] = field(default_factory=dict)
    scaled: Dict[str, List[float]] = field(default_factory=dict)
    answers: Any = field(default_factory=hashlib.sha256)
    stats: Dict[int, Any] = field(default_factory=dict)
    added: List[TreeNode] = field(default_factory=list)
    checks: Dict[str, Op] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    slices: List[float] = field(default_factory=list)
    attempted: int = 0
    wall: float = 0.0


def play(
    service: Any,
    stream: Iterable[Op],
    seconds: float,
    min_ops: int = MIN_OPS,
    tracer: Optional[Tracer] = None,
) -> Played:
    """Serve the stream's ops, stopping early once ``seconds`` of op time and
    ``min_ops`` ops are done.

    Only the ``serve`` call is timed: making the next op is the client's own
    work.  A raising op is a failed op; the loop goes on.
    """
    played = Played()
    timed: List[Tuple[str, float, int]] = []  # kind, seconds, slice before it
    for index, op in enumerate(stream):
        if played.attempted >= min_ops and played.wall >= seconds:
            break
        if played.wall >= SLICE_EVERY_S * len(played.slices):
            played.slices.append(calibration_slice())
        played.attempted += 1
        if op.request is not None:
            played.checks.setdefault(op.kind, op)
        root = tracer.begin_op(index, op.kind) if tracer is not None else None
        start = time.perf_counter()
        try:
            answer = serve(service, op)
        except Exception:  # a failed op is counted and reported, not fatal
            played.errors.append(traceback.format_exc())
            continue
        finally:
            elapsed = time.perf_counter() - start
            played.wall += elapsed
            if root is not None:
                tracer.end_op(root)
        timed.append((op.kind, elapsed, len(played.slices) - 1))
        if op.request is None:
            played.added.append(op.tree)
        else:
            played.stats[index] = answer[1]
        played.answers.update(canonical(op, answer).encode() + b"\n")
    played.slices.append(calibration_slice())
    for kind, elapsed, mark in timed:
        around = (played.slices[mark] + played.slices[mark + 1]) / 2
        played.latencies.setdefault(kind, []).append(elapsed)
        played.scaled.setdefault(kind, []).append(elapsed * REFERENCE_SLICE_S / around)
    return played


def check(service: Any, corpus: List[TreeNode], checks: Dict[str, Op]) -> List[str]:
    """Serve the first op of each read kind again and compare its answer with
    the sequential scan over ``corpus``; returns one problem per failed op."""
    problems = []
    for kind, op in sorted(checks.items()):
        try:
            matches = service.execute(op.request)[0]
        except Exception:  # reported as a failed op
            problems.append(f"{kind} check raised:\n{traceback.format_exc()}")
            continue
        if kind == "range":
            expected = sequential_range_query(corpus, op.tree, op.request.threshold)[0]
            same = list(matches) == list(expected)
        else:
            expected = sequential_knn_query(corpus, op.tree, op.request.k)[0]
            same = sorted(d for _, d in matches) == sorted(d for _, d in expected)
        if not same:
            problems.append(
                f"{kind} answer differs from the sequential scan: "
                f"{list(matches)} != {list(expected)}"
            )
    return problems


def _health(service: Any, workload: Workload) -> List[dict]:
    return service.health()["shards"] if workload.shards > 1 else []


def _peak_rss_mb(service: Any, workload: Workload) -> float:
    """Peak RSS of this process plus, when sharded, of every shard worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    workers = sum(shard["rss_bytes"] for shard in _health(service, workload))
    return (own + workers) / 2**20


def machine() -> Dict[str, Any]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 0
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _record(
    workload: Workload,
    seed: int,
    inputs: Inputs,
    played: Played,
    errors: List[str],
    problems: List[str],
) -> Dict[str, Any]:
    failed = len(errors) + len(problems)
    return {
        "workload": workload.name,
        "seed": seed,
        "input_digest": inputs.digest,
        "answer_digest": played.answers.hexdigest(),
        "attempted": played.attempted,
        "failed": failed,
        "correct": failed == 0,
        "problems": errors[:3] + problems,
        "machine": machine(),
    }


def _latency_summary(latencies: List[float]) -> Dict[str, Any]:
    summary: Dict[str, Any] = {"samples": len(latencies)}
    for name, q in (("p50_ms", 0.5), ("p90_ms", 0.9), ("p99_ms", 0.99)):
        try:
            summary[name] = percentile(latencies, q) * 1000
        except ValueError:
            pass  # too few samples for this percentile
    return summary


def run_untraced(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    make_service: ServiceFactory = open_service,
) -> Dict[str, Any]:
    """One end-to-end run: ``SETUP_REPEATS`` set-ups, the ops, the check."""
    inputs = build_inputs(workload, seed)
    setups: List[Tuple[float, float]] = []  # (seconds, scaled seconds)
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
            service = None
            gc.collect()  # free the previous service before building the next
        service, took, slice_s = set_up(workload, inputs, make_service)
        setups.append((took, took * REFERENCE_SLICE_S / slice_s))
    try:
        gc.collect()
        played = play(service, inputs.stream, seconds)
        rss_mb = _peak_rss_mb(service, workload)
        problems = check(service, inputs.corpus + played.added, played.checks)
    finally:
        service.close()

    def figures(latencies: Dict[str, List[float]], setup: float) -> Dict[str, float]:
        pooled = [x for kind in sorted(latencies) for x in latencies[kind]]
        return {
            "setup_s": setup,
            "throughput_ops_s": len(pooled) / sum(pooled),
            "latency_p50_ms": percentile(pooled, 0.5) * 1000,
            "latency_p90_ms": percentile(pooled, 0.9) * 1000,
            "rss_peak_mb": rss_mb,
        }

    raw = figures(played.latencies, statistics.median(took for took, _ in setups))
    scaled = figures(played.scaled, statistics.median(s for _, s in setups))
    pooled = sum(map(len, played.latencies.values()))
    samples = dict.fromkeys(raw, pooled)
    samples.update(setup_s=len(setups), rss_peak_mb=1)
    record = _record(workload, seed, inputs, played, played.errors, problems)
    record.update(
        trace=0,
        seconds=seconds,
        op_wall_s=played.wall,
        speed=statistics.mean(played.slices) / REFERENCE_SLICE_S,
        metrics={
            name: {
                "value": scaled[name],
                "unit": unit,
                "samples": samples[name],
                "raw": raw[name],
            }
            for name, unit in END_TO_END
        },
        kinds={
            kind: _latency_summary(latencies)
            for kind, latencies in sorted(played.scaled.items())
        },
    )
    return record


def run_traced(
    workload: Workload,
    seed: int,
    *,
    make_service: ServiceFactory = open_service,
) -> Tuple[Dict[str, Any], List[dict]]:
    """Per-layer numbers over all of the workload's ops.

    The ops run twice on fresh services: untraced, for the overhead ratio's
    base and as the answer reference, then traced.  Single-process set-up is
    traced too (``features.fit_s``); a sharded service is wrapped only after
    its workers forked, and worker-side numbers come from ``health()``.
    Returns the run record and the spans as dicts.
    """
    inputs = build_inputs(workload, seed)
    service, _, _ = set_up(workload, inputs, make_service)
    try:
        plain = play(service, inputs.stream, math.inf, workload.ops)
    finally:
        service.close()
    service = None
    gc.collect()

    inputs = build_inputs(workload, seed)
    tracer = Tracer()
    sharded = workload.shards > 1
    try:
        if not sharded:
            tracer.install()
            tracer.op = "setup"
        service, _, _ = set_up(workload, inputs, make_service)
        tracer.op = None
        try:
            if sharded:
                tracer.install()
            before = _health(service, workload)
            traced = play(service, inputs.stream, math.inf, workload.ops, tracer)
            after = _health(service, workload)
            tracer.restore()
            problems = check(service, inputs.corpus + traced.added, traced.checks)
        finally:
            service.close()
    finally:
        tracer.restore()
    if traced.answers.digest() != plain.answers.digest():
        problems.append("traced answers differ from the untraced pass")
    record = _record(
        workload, seed, inputs, traced, plain.errors + traced.errors, problems
    )
    # the untraced op time at the traced pass's machine speed
    plain_wall = (
        plain.wall * statistics.mean(traced.slices) / statistics.mean(plain.slices)
    )
    record.update(
        trace=1,
        per_layer=layer_metrics(
            tracer.spans, traced.stats, (before, after), plain_wall
        ),
        spans=span_table(tracer.spans),
    )
    return record, _span_dicts(tracer.spans)


def _span_dicts(spans: List[list]) -> List[dict]:
    ids = {id(span): number for number, span in enumerate(spans)}
    return [
        {
            "id": ids[id(span)],
            "name": span[0],
            "start": span[1],
            "end": span[2],
            "parent": ids[id(span[3])] if span[3] is not None else None,
            "op": span[4],
        }
        for span in spans
    ]

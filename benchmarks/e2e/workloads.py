"""Seeded inputs of the end-to-end benchmark: corpora and op streams.

The program under test receives only what this module builds: trees for the
corpus and for ``add``, and :class:`~repro.service.QueryRequest` objects.

Each workload is a fixed corpus and a fixed multiset of ops, both generated
from a constant seed; ``--seed`` only shuffles the multiset.  k-NN cost is
heavy-tailed: one query's cost varies 10x with the edits that made it, and
drawing the queries themselves from ``--seed`` moved a run's throughput by
up to 46 % between seeds.  A fixed multiset makes every run do the same work
(in ``mixed_rw_dblp``, up to which repeats the adds invalidate), so the
run-to-run spread is mostly the machine's.

Queries are fresh objects, parsed from their bracket form when they are
sent, and no query's bracket is a corpus tree's or an earlier query's,
except the deliberate repeats of ``mixed_rw_dblp``.  An identity-keyed cache
therefore cannot show a gain that real traffic would not get.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import parse_bracket, to_bracket
from repro.datasets import (
    generate_dataset,
    generate_dblp_dataset,
    generate_dblp_record,
    mutate_tree,
    parse_spec,
)
from repro.datasets.dblp import make_variant
from repro.service import QueryRequest
from repro.trees.node import TreeNode

__all__ = [
    "MIN_OPS",
    "WORKLOADS",
    "Inputs",
    "Op",
    "Workload",
    "build_inputs",
]

#: Seed of every corpus and op multiset; ``--seed`` only orders the ops.
POOL_SEED = 0

#: Seed of the two warm-up queries, which no op repeats by content.
WARMUP_SEED = -1

#: §5 default shape (fanout, labels, decay) at 30 nodes instead of 50: at 50
#: nodes one k-NN costs ~300 ms here, too few for a p90 in one run.
SYNTHETIC_SPEC = parse_spec("N{4,0.5}N{30,2}L8D0.05")

#: Per-node mutation probability of a synthetic query (the corpus decay).
QUERY_DECAY = 0.05

#: Ops every run executes whatever ``--seconds`` says: enough samples for a
#: p90 with ten beyond it.
MIN_OPS = 100

#: Redraws allowed before a query generator is declared unable to produce
#: a fresh tree; far above what any workload needs.
MAX_REDRAWS = 1000


@dataclass(frozen=True)
class Workload:
    """One traffic mix over one corpus (why each exists: BENCHMARK.json).

    ``ops`` is the size of the op multiset, chosen so that a run takes 10 to
    14 seconds of op time on a 2-core x86-64 machine with Python 3.11.
    """

    name: str
    corpus: str
    corpus_size: int
    ops: int
    shards: int = 1
    threshold: float = 1.0
    k: int = 5


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("knn_synthetic", "synthetic", 1000, ops=100),
        Workload("range_dblp_lookup", "dblp", 5000, ops=30000, threshold=1.0),
        Workload("mixed_rw_dblp", "dblp", 2000, ops=700, threshold=2.0),
        Workload("sharded_dblp", "dblp", 2000, ops=600, shards=2, threshold=2.0),
    )
}


#: An op before it is sent: ``(kind, bracket)``.
Entry = Tuple[str, str]


@dataclass(frozen=True)
class Op:
    """One client operation: a read (``range``/``knn``) or an ``add``."""

    kind: str
    tree: TreeNode
    request: Optional[QueryRequest] = None

    @classmethod
    def parse(cls, entry: Entry, workload: Workload) -> "Op":
        """The op of ``entry``, its tree parsed afresh."""
        kind, bracket = entry
        tree = parse_bracket(bracket)
        if kind == "range":
            request = QueryRequest(kind, tree, threshold=workload.threshold)
        elif kind == "knn":
            request = QueryRequest(kind, tree, k=workload.k)
        else:
            return cls(kind, tree)
        return cls(kind, tree, request)


@dataclass
class Inputs:
    """A workload's corpus, warm-up queries and op stream for one seed.

    ``digest`` covers the corpus and the ops in order.
    """

    corpus: List[TreeNode]
    warmup: List[Op]
    stream: Iterator[Op]
    digest: str


def _digest(lines: Sequence[str]) -> str:
    """SHA-256 over newline-terminated lines, as hex."""
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """The fixed corpus and op multiset, the multiset ordered by ``seed``."""
    rng = random.Random(POOL_SEED)
    if workload.corpus == "synthetic":
        corpus = generate_dataset(SYNTHETIC_SPEC, workload.corpus_size, rng=rng)
    else:
        corpus = generate_dblp_dataset(workload.corpus_size, rng=rng)
    brackets = [to_bracket(tree) for tree in corpus]
    fresh = _Fresh(set(brackets))
    warmup_rng = random.Random(WARMUP_SEED)
    warmup = [
        (kind, fresh(lambda: _near(workload, corpus[0], warmup_rng)))
        for kind in ("range", "knn")
    ]
    entries = _POOLS[workload.name](workload, corpus, rng, fresh)
    random.Random(seed).shuffle(entries)
    return Inputs(
        corpus=corpus,
        warmup=[Op.parse(entry, workload) for entry in warmup],
        # parsed only when sent: a fresh object per op, repeats included
        stream=(Op.parse(entry, workload) for entry in entries),
        digest=_digest(brackets + [f"{kind} {bracket}" for kind, bracket in entries]),
    )


class _Fresh:
    """Draws trees until one is new (neither a corpus tree nor drawn before);
    returns its bracket form."""

    def __init__(self, seen: Set[str]) -> None:
        self.seen = seen

    def __call__(self, draw: Callable[[], TreeNode]) -> str:
        for _ in range(MAX_REDRAWS):
            bracket = to_bracket(draw())
            if bracket not in self.seen:
                self.seen.add(bracket)
                return bracket
        raise RuntimeError(f"no fresh tree after {MAX_REDRAWS} draws")


def _near(workload: Workload, source: TreeNode, rng: random.Random) -> TreeNode:
    """A small perturbation of ``source``, in the corpus's own edit model."""
    if workload.corpus == "synthetic":
        return mutate_tree(source, QUERY_DECAY, SYNTHETIC_SPEC.labels, rng)
    return make_variant(source, rng)


def _reads(kind, count, workload, corpus, rng, fresh) -> List[Entry]:
    """``count`` fresh reads, each near a random corpus tree."""
    entries = []
    for _ in range(count):
        source = rng.choice(corpus)
        entries.append((kind, fresh(lambda: _near(workload, source, rng))))
    return entries


def _knn_pool(workload, corpus, rng, fresh) -> List[Entry]:
    return _reads("knn", workload.ops, workload, corpus, rng, fresh)


def _lookup_pool(workload, corpus, rng, fresh) -> List[Entry]:
    # duplicate checks: nine in ten are new records, one a near-duplicate
    duplicates = workload.ops // 10
    entries = _reads("range", duplicates, workload, corpus, rng, fresh)
    for _ in range(workload.ops - duplicates):
        entries.append(("range", fresh(lambda: generate_dblp_record(rng))))
    return entries


def _mixed_pool(workload, corpus, rng, fresh) -> List[Entry]:
    # per 20 ops: 2 range and 2 k-NN reads, each sent twice (the first copy
    # in the shuffled order is the original, the second a repeat that only a
    # content-keyed cache can answer), and 12 adds of near-duplicates, which
    # run the result cache's invalidation pass.  Hits and range misses are
    # then ~26 % of the ops and adds the next 60 %, so the pooled p50 falls
    # mid-adds and the p90 low among the k-NN misses, below the jump from
    # ~40 ms to ~100 ms in their latencies
    twentieth = workload.ops // 20
    entries = 2 * _reads("range", 2 * twentieth, workload, corpus, rng, fresh)
    entries += 2 * _reads("knn", 2 * twentieth, workload, corpus, rng, fresh)
    entries += _reads("add", workload.ops - len(entries), workload, corpus, rng, fresh)
    return entries


def _sharded_pool(workload, corpus, rng, fresh) -> List[Entry]:
    # five range per k-NN: range is ~30x cheaper, so the pooled p50 falls
    # among range latencies and the p90 near the k-NN median, below the jump
    # from ~40 ms to ~100 ms in k-NN latencies
    knn = workload.ops // 6
    return _reads("range", workload.ops - knn, workload, corpus, rng, fresh) + _reads(
        "knn", knn, workload, corpus, rng, fresh
    )


_POOLS = {
    "knn_synthetic": _knn_pool,
    "range_dblp_lookup": _lookup_pool,
    "mixed_rw_dblp": _mixed_pool,
    "sharded_dblp": _sharded_pool,
}

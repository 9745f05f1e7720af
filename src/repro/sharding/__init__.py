"""repro.sharding — shard-parallel scatter-gather serving.

The corpus is partitioned into N shards (:mod:`repro.sharding.partition`),
each hosted by a persistent worker process
(:mod:`repro.sharding.worker`) that indexes its own rows the way
:class:`~repro.search.database.TreeDatabase` does, and the
:class:`~repro.sharding.coordinator.ShardedTreeService` scatters range
queries shard-parallel and runs k-NN as one optimal multi-step search
per shard whose heaps it merges exactly — answer-identical to the
single-process path (see ``docs/THEORY.md`` §13 for the argument and the
``service:shard-equivalence`` oracle for the enforcement).
"""

from repro.sharding.coordinator import ShardedTreeService
from repro.sharding.partition import (
    PARTITIONERS,
    Partitioner,
    RoundRobinPartitioner,
    ShardAssignment,
    SizeBandedPartitioner,
    make_partitioner,
)

__all__ = [
    "ShardedTreeService",
    "PARTITIONERS",
    "Partitioner",
    "RoundRobinPartitioner",
    "SizeBandedPartitioner",
    "ShardAssignment",
    "make_partitioner",
]

"""Corpus partitioners and the global ↔ shard-local index bookkeeping.

A partitioner decides which shard owns a tree; the decision may use the
tree's global index (round-robin) or its structure (size-banded).  Both
built-ins are deterministic functions of ``(index, tree)``, which is what
makes sharded answers reproducible: the same corpus in the same order
always lands in the same layout.

The :class:`ShardAssignment` records the layout both ways — global index →
``(shard, local)`` and shard → ascending global indices.  Appending only
ever extends the maps, mirroring the append-only semantics of
:meth:`repro.search.database.TreeDatabase.add`, and within each shard the
local order preserves the ascending global order.  That monotonicity is
what makes the coordinator's k-NN merge exact: a shard's first ``k`` rows
by ``(distance, bound, local)`` are its first ``k`` by
``(distance, bound, global index)`` (``docs/THEORY.md`` §13).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Tuple

from repro.exceptions import InvalidParameterError
from repro.trees.node import TreeNode

__all__ = [
    "Partitioner",
    "RoundRobinPartitioner",
    "SizeBandedPartitioner",
    "ShardAssignment",
    "PARTITIONERS",
    "make_partitioner",
]


class Partitioner(ABC):
    """Deterministic tree → shard placement policy."""

    #: registry key / display name ("round-robin", "size-banded", …)
    name: str = "abstract"

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise InvalidParameterError(f"need >= 1 shards, got {shards}")
        self.shards = shards

    @abstractmethod
    def assign(self, index: int, tree: TreeNode) -> int:
        """Shard id in ``[0, shards)`` for the tree at global ``index``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shards={self.shards})"


class RoundRobinPartitioner(Partitioner):
    """``index % shards`` — balanced counts, structure-agnostic."""

    name = "round-robin"

    def assign(self, index: int, tree: TreeNode) -> int:
        return index % self.shards


class SizeBandedPartitioner(Partitioner):
    """Groups trees of similar size: ``(|T| // band_width) % shards``.

    Trees within one size band co-locate, so a range query whose size
    bound refutes a whole band does all that refuting inside one worker —
    the other shards' filter passes stay cheap.  The modulo wraps bands
    around the shards to keep the placement total.
    """

    name = "size-banded"

    def __init__(self, shards: int, band_width: int = 8) -> None:
        super().__init__(shards)
        if band_width < 1:
            raise InvalidParameterError(
                f"band width must be >= 1, got {band_width}"
            )
        self.band_width = band_width

    def assign(self, index: int, tree: TreeNode) -> int:
        return (tree.size // self.band_width) % self.shards


class ShardAssignment:
    """Bidirectional global ↔ (shard, local) index maps, append-only."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise InvalidParameterError(f"need >= 1 shards, got {shards}")
        self.shards = shards
        #: shard → ascending global indices (local index = list position)
        self.by_shard: List[List[int]] = [[] for _ in range(shards)]
        #: global index → (shard, local index)
        self.locate: List[Tuple[int, int]] = []

    def append(self, shard: int) -> Tuple[int, int]:
        """Place the next global index on ``shard``; returns (global, local)."""
        if not 0 <= shard < self.shards:
            raise InvalidParameterError(
                f"shard {shard} out of range [0, {self.shards})"
            )
        global_index = len(self.locate)
        local_index = len(self.by_shard[shard])
        self.by_shard[shard].append(global_index)
        self.locate.append((shard, local_index))
        return global_index, local_index

    def __len__(self) -> int:
        return len(self.locate)

    def shard_sizes(self) -> List[int]:
        """Number of trees on each shard."""
        return [len(indices) for indices in self.by_shard]

    def __repr__(self) -> str:
        return (
            f"ShardAssignment({len(self)} trees over {self.shards} shards: "
            f"{self.shard_sizes()})"
        )


PARTITIONERS: Dict[str, Callable[[int], Partitioner]] = {
    RoundRobinPartitioner.name: RoundRobinPartitioner,
    SizeBandedPartitioner.name: SizeBandedPartitioner,
}


def make_partitioner(name: str, shards: int) -> Partitioner:
    """Instantiate a registered partitioner by name."""
    try:
        factory = PARTITIONERS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown partitioner {name!r} "
            f"(choose from {sorted(PARTITIONERS)})"
        ) from None
    return factory(shards)

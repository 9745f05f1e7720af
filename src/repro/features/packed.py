"""Packed sparse branch vectors: parallel int arrays instead of dicts.

A :class:`PackedVector` stores a tree's branch counts as two parallel
``array('q')`` columns — strictly ascending interned dimension ids and their
counts — plus a (normally empty) ``extra`` mapping for branches outside the
shared vocabulary.  Compared to the dict-of-branch-key representation of
:class:`~repro.core.vectors.BranchVector` this

* shares every branch key once corpus-wide (the vocabulary) instead of
  hashing tuple keys per tree,
* serializes to flat integer lists, and
* computes the L1 distance / overlap over *integer* dimension ids — a
  cached id → count map for typical vector widths (int hashing is several
  times cheaper than hashing branch-label tuples), switching to a numpy
  ``searchsorted`` merge once vectors grow past
  :data:`_NUMPY_THRESHOLD` dimensions.

The ``extra`` dict exists for the query side: a query tree may contain
branches the corpus vocabulary has never seen, and interning them would
mutate shared state on the (concurrent) read path.  Unknown branches are
kept by raw key; since data-side vectors never have unknown branches, the
array part and the dict part never interact and the distances stay exact.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Mapping, Optional

import numpy as np

from repro.core.vectors import BranchVector
from repro.exceptions import SignatureMismatchError
from repro.features.vocabulary import Vocabulary

__all__ = ["PackedVector", "pack_counts"]

BranchKey = Hashable

_EMPTY: Dict[BranchKey, int] = {}

#: Below this many dimensions (on the smaller vector) a cached int-keyed
#: dict merge beats numpy's per-call overhead; measured crossover is around
#: 200 dims on CPython 3.11.
_NUMPY_THRESHOLD = 256


class PackedVector:
    """A tree's branch-count vector in packed (sorted-array) form.

    Attributes
    ----------
    dims:
        Strictly ascending interned dimension ids (``array('q')``).
    counts:
        Occurrence counts parallel to ``dims`` (``array('q')``).
    extra:
        Counts of out-of-vocabulary branches by raw key (queries only).
    tree_size:
        ``|T|`` — the total count across all dimensions.
    q:
        Branch level the vector was extracted at.
    """

    __slots__ = ("dims", "counts", "extra", "tree_size", "q", "total",
                 "_np", "_map")

    def __init__(
        self,
        dims: "array[int]",
        counts: "array[int]",
        tree_size: int,
        q: int,
        extra: Optional[Mapping[BranchKey, int]] = None,
    ) -> None:
        self.dims = dims
        self.counts = counts
        self.extra: Dict[BranchKey, int] = dict(extra) if extra else _EMPTY
        self.tree_size = tree_size
        self.q = q
        self.total = sum(counts) + sum(self.extra.values())
        self._np = None
        self._map: Optional[Dict[int, int]] = None

    @property
    def dimensions(self) -> int:
        """Number of non-zero dimensions (distinct branches in the tree)."""
        return len(self.dims) + len(self.extra)

    def _views(self):
        """Cached zero-copy numpy views over the packed columns."""
        views = self._np
        if views is None:
            views = (
                np.frombuffer(self.dims, dtype=np.int64),
                np.frombuffer(self.counts, dtype=np.int64),
            )
            self._np = views
        return views

    def _dim_map(self) -> Dict[int, int]:
        """Cached dimension id → count mapping (small-vector fast path)."""
        mapping = self._map
        if mapping is None:
            mapping = self._map = dict(zip(self.dims, self.counts))
        return mapping

    def _shared(self, other: "PackedVector") -> int:
        """``Σ min(count, count')`` over dimensions present in both arrays."""
        if not self.dims or not other.dims:
            return 0
        if min(len(self.dims), len(other.dims)) < _NUMPY_THRESHOLD:
            small, large = self, other
            if len(small.dims) > len(large.dims):
                small, large = large, small
            get = large._dim_map().get
            shared = 0
            for dim, count in small._dim_map().items():
                other_count = get(dim)
                if other_count is not None:
                    shared += count if count < other_count else other_count
            return shared
        dims_a, counts_a = self._views()
        dims_b, counts_b = other._views()
        if len(dims_a) > len(dims_b):
            dims_a, counts_a, dims_b, counts_b = dims_b, counts_b, dims_a, counts_a
        positions = np.searchsorted(dims_b, dims_a)
        positions[positions == len(dims_b)] = 0  # safe: masked out below
        mask = dims_b[positions] == dims_a
        if not mask.any():
            return 0
        hits = positions[mask]
        return int(np.minimum(counts_a[mask], counts_b[hits]).sum())

    def _shared_extra(self, other: "PackedVector") -> int:
        """Overlap contributed by out-of-vocabulary branches (rare path)."""
        mine, theirs = self.extra, other.extra
        if not mine or not theirs:
            return 0
        if len(mine) > len(theirs):
            mine, theirs = theirs, mine
        return sum(
            min(count, theirs[key]) for key, count in mine.items() if key in theirs
        )

    def _check_comparable(self, other: "PackedVector") -> None:
        if self.q != other.q:
            raise SignatureMismatchError(
                f"cannot compare q={self.q} and q={other.q} packed vectors"
            )

    def overlap(self, other: "PackedVector") -> int:
        """Number of shared branches (multiset intersection size)."""
        self._check_comparable(other)
        return self._shared(other) + self._shared_extra(other)

    def l1_distance(self, other: "PackedVector") -> int:
        """``BDist`` — the L1 distance, via ``Σ(c+c') − 2·Σ min(c, c')``."""
        self._check_comparable(other)
        shared = self._shared(other) + self._shared_extra(other)
        return self.total + other.total - 2 * shared

    def to_branch_vector(self, vocabulary: Vocabulary) -> BranchVector:
        """Unpack into the legacy dict-keyed :class:`BranchVector`."""
        counts: Dict[BranchKey, int] = {
            vocabulary.key(dim): count for dim, count in zip(self.dims, self.counts)
        }
        counts.update(self.extra)
        return BranchVector(counts, self.tree_size, self.q)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedVector):
            return NotImplemented
        return (
            self.q == other.q
            and self.dims == other.dims
            and self.counts == other.counts
            and self.extra == other.extra
        )

    def __repr__(self) -> str:
        return (
            f"PackedVector(q={self.q}, dimensions={self.dimensions}, "
            f"tree_size={self.tree_size})"
        )


def pack_counts(
    counts: Mapping[BranchKey, int],
    vocabulary: Vocabulary,
    tree_size: int,
    q: int,
    grow: bool = True,
) -> PackedVector:
    """Intern a branch-count mapping into a :class:`PackedVector`.

    With ``grow=True`` (indexing path) unseen branches are interned into the
    shared vocabulary.  With ``grow=False`` (query path) the vocabulary is
    left untouched and unseen branches land in the vector's ``extra`` dict.
    """
    extra: Dict[BranchKey, int] = {}
    pairs = []
    if grow:
        intern = vocabulary.intern
        for key, count in counts.items():
            pairs.append((intern(key), count))
    else:
        lookup = vocabulary.lookup
        for key, count in counts.items():
            dim = lookup(key)
            if dim is None:
                extra[key] = count
            else:
                pairs.append((dim, count))
    pairs.sort()
    dims = array("q", (dim for dim, _ in pairs))
    packed_counts = array("q", (count for _, count in pairs))
    return PackedVector(dims, packed_counts, tree_size, q, extra=extra)

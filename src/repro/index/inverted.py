"""Extended inverted-file index over binary branch vectors (Alg. 1).

The filter stage of :func:`repro.search.range_query.range_query` scores
every database row, even vectorized, so it is Θ(corpus).  The paper's
Algorithm 1 makes candidate generation sublinear through an inverted file
on binary branches: one posting list per branch dimension, each entry a
``(row, count)`` pair.  Merging only the posting lists of the *query's*
dimensions computes the exact multiset overlap

    ``overlap(q, row) = Σ_d min(q_d, row_d)``

for every row sharing at least one branch with the query — dimensions the
query lacks contribute ``min(0, row_d) = 0``, and the query's
out-of-vocabulary branches have no postings and contribute 0 against
fully interned data rows.  With stored vector norms (``total = Σ_d
row_d``) the exact BDist follows without materializing the row:

    ``L1(q, row) = q.total + row.total − 2·overlap(q, row)``

Rows sharing **no** branch with the query never appear in the merge at
all; for them ``L1 = q.total + row.total`` exactly, so the untouched rows
inside a budget ``b`` are precisely those with ``total ≤ b − q.total`` —
a prefix of the norm-sorted row list, found by binary search.  A query
whose budget is below ``q.total`` therefore never materializes any
zero-overlap tree, which is the sublinearity claim of the extended IFI.

The index serves two operations:

* ``range_rows(vector, budget)`` — the **exact** BDist ball: every row
  with ``L1(vector, row) ≤ budget``, in ascending row order, and no row
  beyond it.  The budget is ``factor·τ`` (``factor = 4(q−1)+1``, Theorem
  3.2), so ``BDist > factor·τ ⟹ EDist > τ`` refutes every row outside the
  ball and answers match the sequential scan whatever filter runs next.
* ``sync()`` — generation-stamped catch-up with the backing
  :class:`~repro.features.store.FeatureStore`: the store is append-only,
  so syncing installs exactly the rows added since the last sync.

The structure is insertion-order independent: postings are keyed by row
id and the norm list is kept sorted, so two indexes over permuted
insertion streams answer identically (pinned by the metamorphic tests).
"""

from __future__ import annotations

import threading
from bisect import bisect_right, insort
from typing import Dict, List, Optional, Tuple

from repro.core.qlevel import qlevel_bound_factor
from repro.exceptions import InvalidParameterError
from repro.features.packed import PackedVector
from repro.features.store import FeatureStore
from repro.trees.node import TreeNode

__all__ = ["ExtendedInvertedFile"]


class ExtendedInvertedFile:
    """Posting-list candidate generation with norm bounds.

    Parameters
    ----------
    store:
        The feature plane the index is built over.  The index keeps a
        reference and reads packed vectors at level :attr:`q` from it;
        rows are identified by store position, matching database indices.
    q:
        Branch level to index (default: the store's first level).

    Attributes
    ----------
    q / factor:
        The indexed branch level and its bound factor ``4(q−1)+1``.
    last_examined:
        Rows whose vectors the most recent ``range_rows`` call actually
        touched (posting hits + norm-prefix rows) — the sublinearity
        measure the candidate-pruning benchmark records.
    """

    def __init__(self, store: FeatureStore, q: Optional[int] = None) -> None:
        self._store = store
        self.q = q if q is not None else store.q_levels[0]
        if self.q not in store.q_levels:
            raise InvalidParameterError(
                f"index q={self.q} not extracted by the store "
                f"(levels: {store.q_levels})"
            )
        self.factor = qlevel_bound_factor(self.q)
        #: dimension id → [(row, count)] in ascending row order (rows are
        #: installed in ascending order and ids never repeat)
        self._postings: Dict[int, List[Tuple[int, int]]] = {}
        #: row → vector norm (Σ counts, including nothing extra: data-side
        #: vectors are fully interned)
        self._norms: List[int] = []
        #: (norm, row), kept sorted — the prefix scan for untouched rows
        self._by_norm: List[Tuple[int, int]] = []
        #: rows installed so far (store prefix length at the last sync)
        self._built = 0
        #: the store generation the index was last synced against
        self._generation = store.generation
        self._sync_lock = threading.Lock()
        self.last_examined = 0
        self.sync()

    # ------------------------------------------------------------------
    # Store synchronisation
    # ------------------------------------------------------------------
    def stale(self) -> bool:
        """Whether the backing store has rows this index has not seen."""
        return (
            self._built != len(self._store)
            or self._generation != self._store.generation
        )

    def sync(self) -> int:
        """Install every store row added since the last sync.

        Returns the number of rows installed.  The store is append-only,
        so catching up is incremental: rows ``[built, len(store))`` get
        their postings appended and the index is re-stamped with the
        store's generation.  Thread safety: concurrent ``sync`` calls are
        serialised; callers that interleave ``sync`` with reads must hold
        their own exclusion (the service's writer lock does).
        """
        with self._sync_lock:
            installed = 0
            while self._built < len(self._store):
                self._insert_row(self._built)
                self._built += 1
                installed += 1
            self._generation = self._store.generation
            return installed

    def __len__(self) -> int:
        return self._built

    def _insert_row(self, row: int) -> None:
        vector = self._vector(row)
        for dim, count in zip(vector.dims, vector.counts):
            self._postings.setdefault(dim, []).append((row, count))
        self._norms.append(vector.total)
        insort(self._by_norm, (vector.total, row))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pack(self, query: TreeNode) -> PackedVector:
        """The query's packed branch vector at the indexed level.

        Interning is read-only (unseen branches go to the vector's
        ``extra`` map), so packing is safe on concurrent read paths.
        """
        return self._store.pack_query(query, self.q)

    def _vector(self, row: int) -> PackedVector:
        return self._store.packed_vector(row, self.q)

    def _overlaps(self, vector: PackedVector) -> Dict[int, int]:
        """``row → overlap`` for every row sharing a branch with ``vector``."""
        overlaps: Dict[int, int] = {}
        postings = self._postings
        for dim, qcount in zip(vector.dims, vector.counts):
            for row, count in postings.get(dim, ()):
                overlaps[row] = overlaps.get(row, 0) + (
                    qcount if qcount < count else count
                )
        return overlaps

    def lower_bound(self, vector: PackedVector, row: int) -> int:
        """Exact BDist to one row, computed from postings + norms only.

        This is the quantity the metamorphic suite probes: growing a row
        by a branch the query lacks adds 1 to the row's norm and 0 to the
        overlap, so the bound can only go up.
        """
        overlap = 0
        postings = self._postings
        for dim, qcount in zip(vector.dims, vector.counts):
            for entry_row, count in postings.get(dim, ()):
                if entry_row == row:
                    overlap += qcount if qcount < count else count
                    break
        return vector.total + self._norms[row] - 2 * overlap

    def range_rows(self, vector: PackedVector, budget: float) -> List[int]:
        """Rows with ``L1 ≤ budget`` without touching branch-disjoint rows."""
        overlaps = self._overlaps(vector)
        q_total = vector.total
        out = [
            row
            for row, overlap in overlaps.items()
            if q_total + self._norms[row] - 2 * overlap <= budget
        ]
        examined = len(overlaps)
        # branch-disjoint rows: L1 = q_total + norm exactly
        limit = budget - q_total
        if limit >= 0:
            prefix = bisect_right(self._by_norm, (limit, len(self._norms)))
            for norm, row in self._by_norm[:prefix]:
                if row not in overlaps:
                    out.append(row)
            examined += prefix
        self.last_examined = examined
        out.sort()
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Structure counters for the CLI / diagnostics."""
        return {
            "q": self.q,
            "rows": self._built,
            "posting_lists": len(self._postings),
            "posting_entries": sum(
                len(entries) for entries in self._postings.values()
            ),
            "max_posting_length": max(
                (len(entries) for entries in self._postings.values()),
                default=0,
            ),
            "min_norm": self._by_norm[0][0] if self._by_norm else 0,
            "max_norm": self._by_norm[-1][0] if self._by_norm else 0,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(q={self.q}, rows={self._built})"

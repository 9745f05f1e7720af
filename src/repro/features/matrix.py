"""Corpus-level matrix feature planes and the vectorized bound kernels.

The filter framework's per-candidate loop (``for data in signatures:
bound(query, data)``) pays interpreter cost per tree.  This module flips
that loop inside out: all packed per-tree vectors of one feature family
are stacked into a single contiguous ``np.int32`` count matrix — a
:class:`MatrixPlane` — and a query's lower bounds against the *entire
corpus* come out of a handful of numpy passes.  Counts are per-tree
occurrence counts, far below ``2**31``; row totals and every kernel
result stay ``int64``.

Row ``i`` of every plane is tree ``i`` of the owning
:class:`~repro.features.store.FeatureStore`; a sync appends every new
row in one batch (one capacity-doubling allocation, one scatter) and
widens by zero-padded columns when the vocabulary grows — sound because
the vocabulary is append-only, so no existing row can contain a
newly-interned dimension.

The L1 kernel is a *column gather*, not a dense ``np.abs(M - q)`` pass:
for sparse count vectors,

    ``L1(row, q) = row_total + q_total - 2 * Σ_d min(M[row, d], q[d])``

and only the query's (few) non-zero dimensions contribute to the
overlap sum, so one query costs ``O(rows × dims(q))`` instead of
``O(rows × vocabulary)``.  Query dimensions absent from the plane
(including a query vector's ``extra`` overflow) overlap nothing and
simply ride along in ``q_total`` — exactly the semantics of
:meth:`~repro.features.packed.PackedVector.l1_distance`.

Typing note: this module is the *only* place filter-side vectorization
touches numpy.  ``repro.filters`` is under the strict mypy gate, which
runs without numpy installed, so filters call the annotated helper
functions at the bottom of this module and never import numpy
themselves.
"""

from __future__ import annotations

import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
)

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.features.store import HISTOGRAM_FAMILIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.features.packed import PackedVector
    from repro.features.store import FeatureStore
    from repro.features.vocabulary import Vocabulary

__all__ = [
    "FeatureMatrices",
    "MatrixPlane",
    "as_indices",
    "branch_count_bounds",
    "branch_l1_counts",
    "branch_l1_packed",
    "ceil_div",
    "elementwise_max",
    "histogram_l1",
    "keep_at_most",
    "size_bounds",
    "stable_order",
]

#: dtype of every plane's count matrix (row totals stay int64)
_COUNT_DTYPE = np.int32


def _column(values: Any) -> "np.ndarray":
    """A 1-D int64 view (zero-copy where possible) over ``values``.

    Accepts ``array('q')`` columns, numpy arrays and plain sequences;
    ``array('q')`` columns are wrapped with :func:`np.frombuffer`, no copy.
    """
    if isinstance(values, np.ndarray):
        return values
    try:
        return np.frombuffer(values, dtype=np.int64)
    except TypeError:
        return np.asarray(values, dtype=np.int64)


def _row_index(rows: Sequence[int]) -> "np.ndarray":
    """Row selector as an index array; ``range`` avoids the O(n) iteration."""
    if isinstance(rows, range):
        return np.arange(rows.start, rows.stop, rows.step, dtype=np.intp)
    return np.asarray(rows, dtype=np.intp)


class MatrixPlane:
    """One feature family as a dense ``rows × width`` int32 count matrix.

    ``matrix[i, d]`` is tree ``i``'s count for dimension ``d``;
    ``row_totals[i]`` (int64) caches ``matrix[i].sum()`` (plus any mass
    the packed source carried outside its in-vocabulary dims) so the L1
    kernel never re-reduces full rows.  Appends amortize via capacity
    doubling in both axes.
    """

    __slots__ = ("kind", "rows", "width", "_matrix", "_totals")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.rows = 0
        self.width = 0
        self._matrix = np.zeros((0, 0), dtype=_COUNT_DTYPE)
        self._totals = np.zeros(0, dtype=np.int64)

    @property
    def matrix(self) -> "np.ndarray":
        """The logical (non-capacity) matrix, as a view."""
        return self._matrix[: self.rows, : self.width]

    @property
    def row_totals(self) -> "np.ndarray":
        return self._totals[: self.rows]

    @property
    def nbytes(self) -> int:
        """Allocated footprint (capacity, not just the logical window)."""
        return int(self._matrix.nbytes + self._totals.nbytes)

    def _ensure(self, rows: int, width: int) -> None:
        """Grow capacity to hold ``rows × width``; widen the logical width.

        Freshly exposed columns are zero — correct, because the
        append-only vocabulary guarantees no existing row has counts in
        a dimension interned after that row was packed.
        """
        cap_rows, cap_width = self._matrix.shape
        if rows > cap_rows or width > cap_width:
            new_rows, new_width = cap_rows, cap_width
            while new_rows < rows:
                new_rows = max(8, new_rows * 2)
            while new_width < width:
                new_width = max(8, new_width * 2)
            # column-major: the hot kernel gathers whole columns
            # (matrix[:, query_dims]), which Fortran order makes contiguous
            grown = np.zeros((new_rows, new_width), dtype=_COUNT_DTYPE, order="F")
            grown[: self.rows, : self.width] = self.matrix
            self._matrix = grown
            totals = np.zeros(new_rows, dtype=np.int64)
            totals[: self.rows] = self.row_totals
            self._totals = totals
        if width > self.width:
            self.width = width

    def ensure_width(self, width: int) -> None:
        """Widen so every dimension id ``< width`` is addressable."""
        self._ensure(self.rows, width)

    def extend(
        self,
        dims: Sequence[Any],
        counts: Sequence[Any],
        totals: Optional[Sequence[int]] = None,
    ) -> None:
        """Append one dense row per sparse ``(dims[i], counts[i])`` pair.

        One capacity check and one scatter for the whole batch.  Dims
        need not be sorted (histogram columns intern in feature iteration
        order).  ``totals`` overrides the per-row count sums.
        """
        added = len(dims)
        if not added:
            return
        dim_columns = [_column(column) for column in dims]
        lengths = np.fromiter(
            (len(column) for column in dim_columns), dtype=np.intp, count=added
        )
        flat_dims = np.concatenate(dim_columns)
        flat_counts = np.concatenate([_column(column) for column in counts])
        needed = int(flat_dims.max()) + 1 if len(flat_dims) else 0
        first = self.rows
        self._ensure(first + added, max(self.width, needed))
        self._matrix[
            np.repeat(np.arange(first, first + added), lengths), flat_dims
        ] = flat_counts
        if totals is None:
            sums = np.concatenate(([0], np.cumsum(flat_counts)))
            ends = np.cumsum(lengths)
            self._totals[first : first + added] = sums[ends] - sums[ends - lengths]
        else:
            self._totals[first : first + added] = totals
        self.rows = first + added

    def append(self, dims: Any, counts: Any, total: Optional[int] = None) -> None:
        """Append one tree's sparse (dims, counts) as the next dense row."""
        self.extend([dims], [counts], None if total is None else [total])

    def l1(
        self,
        dims: "np.ndarray",
        counts: "np.ndarray",
        total: int,
        rows: Optional[Sequence[int]] = None,
    ) -> "np.ndarray":
        """Column-gather L1 of a sparse query against ``rows`` (or all)."""
        if isinstance(rows, range) and rows == range(self.rows):
            rows = None  # full-corpus range: take the contiguous fast path
        if rows is None:
            totals = self.row_totals
            if not len(dims):
                return totals + total
            gathered = self.matrix[:, dims]
        else:
            row_index = _row_index(rows)
            totals = self._totals[row_index]
            if not len(dims):
                return totals + total
            gathered = self._matrix[np.ix_(row_index, dims)]
        # the overlap never exceeds the query's own total, so it sums in
        # int32 too; adding it to the int64 totals widens the result
        overlap = np.minimum(gathered, counts.astype(_COUNT_DTYPE)).sum(
            axis=1, dtype=_COUNT_DTYPE
        )
        return totals + total - 2 * overlap

    def describe(self) -> Dict[str, object]:
        """Shape/footprint summary for ``repro features stats``."""
        return {
            "rows": self.rows,
            "width": self.width,
            "dtype": str(self._matrix.dtype),
            "bytes": self.nbytes,
        }

    def __repr__(self) -> str:
        return f"MatrixPlane({self.kind!r}, {self.rows}x{self.width})"


class FeatureMatrices:
    """Lazy bundle of every :class:`MatrixPlane` derivable from one store.

    Planes are built on first use, and every built plane is re-synced
    (row appends + column widening) against the store before every
    kernel call, so incremental :meth:`FeatureStore.add` just works: only
    the new suffix of trees is packed into rows.  All sync runs under one
    lock; the service layer only queries under its read lock (adds take
    the write lock), so sync never races a mutation.
    """

    def __init__(self, store: "FeatureStore") -> None:
        self._store = store
        self._lock = threading.Lock()
        self._branch: Dict[int, MatrixPlane] = {}
        self._sizes = np.zeros(0, dtype=np.int64)
        self._histograms: Dict[str, MatrixPlane] = {}

    # ------------------------------------------------------------------
    # Plane construction / sync
    # ------------------------------------------------------------------
    def branch_plane(self, q: Optional[int] = None) -> MatrixPlane:
        """The packed-branch-count plane at level ``q``, synced to the store."""
        level = self._store._check_q(q)
        with self._lock:
            plane = self._branch.get(level)
            if plane is None:
                plane = MatrixPlane(f"branch-q{level}")
                self._branch[level] = plane
            self._sync()
            return plane

    def _sync(self) -> None:
        """Append the store's new rows to every built plane and widen it.

        Call under :attr:`_lock`.  The planes share the row axis, so they
        grow together, whichever plane a kernel asked for, and branch
        planes (the widest) go first: a histogram plane growing after them
        can reuse the memory their old matrices released.  When the
        label-first range cascade grew the label plane on its own first,
        the peak RSS of an add-heavy 2,000-record DBLP replay rose 9 %.
        """
        store = self._store
        for level, plane in self._branch.items():
            fresh = store.packed_vectors(level)[plane.rows:]
            plane.extend(
                [vector.dims for vector in fresh],
                [vector.counts for vector in fresh],
                [vector.total for vector in fresh],
            )
            plane.ensure_width(len(store.vocabulary))
        for family, plane in self._histograms.items():
            columns = [
                store.histogram_columns(family, row)
                for row in range(plane.rows, len(store))
            ]
            plane.extend(
                [dims for dims, _ in columns], [counts for _, counts in columns]
            )
            plane.ensure_width(len(store.histogram_vocabulary(family)))

    def size_column(self, rows: Optional[Sequence[int]] = None) -> "np.ndarray":
        """Tree sizes as an int64 column."""
        store = self._store
        with self._lock:
            have = len(self._sizes)
            count = len(store)
            if have < count:
                fresh = np.fromiter(
                    (store.tree_size(index) for index in range(have, count)),
                    dtype=np.int64,
                    count=count - have,
                )
                self._sizes = np.concatenate([self._sizes, fresh])
            sizes = self._sizes
        if rows is None:
            return sizes
        return sizes[_row_index(rows)]

    def histogram_plane(self, family: str) -> MatrixPlane:
        """The unfolded label/degree histogram plane, synced to the store.

        Column ``d`` is id ``d`` of ``store.histogram_vocabulary(family)``.
        """
        if family not in HISTOGRAM_FAMILIES:
            raise InvalidParameterError(
                f"no histogram matrix family {family!r} "
                f"(have: {HISTOGRAM_FAMILIES})"
            )
        with self._lock:
            plane = self._histograms.get(family)
            if plane is None:
                plane = MatrixPlane(f"histogram-{family}")
                self._histograms[family] = plane
            self._sync()
            return plane

    # ------------------------------------------------------------------
    # Query kernels
    # ------------------------------------------------------------------
    def branch_l1(
        self,
        q: Optional[int],
        counts: Mapping[Any, int],
        rows: Optional[Sequence[int]] = None,
    ) -> "np.ndarray":
        """L1 of a query branch-count mapping against every (selected) row."""
        plane = self.branch_plane(q)
        lookup = self._store.vocabulary.lookup
        dims: List[int] = []
        values: List[int] = []
        total = 0
        for key, count in counts.items():
            total += count
            dimension = lookup(key)
            if dimension is not None:
                dims.append(dimension)
                values.append(count)
        return plane.l1(
            np.asarray(dims, dtype=np.int64),
            np.asarray(values, dtype=np.int64),
            total,
            rows,
        )

    def branch_l1_packed(
        self,
        q: Optional[int],
        vector: "PackedVector",
        vocabulary: "Vocabulary",
        rows: Optional[Sequence[int]] = None,
    ) -> "np.ndarray":
        """L1 of a packed query vector (interned against ``vocabulary``).

        Fast path when the vector already speaks the store's vocabulary;
        otherwise the query is translated through its branch keys — L1
        is invariant under the (bijective) re-interning, so standalone-
        fitted filters get exactly the values of
        :meth:`PackedVector.l1_distance`.
        """
        if vocabulary is self._store.vocabulary:
            plane = self.branch_plane(q)
            return plane.l1(
                _column(vector.dims), _column(vector.counts), vector.total, rows
            )
        counts: Dict[Hashable, int] = {
            vocabulary.key(dimension): count
            for dimension, count in zip(vector.dims, vector.counts)
        }
        counts.update(vector.extra)
        return self.branch_l1(q, counts, rows)

    def histogram_l1(
        self,
        family: str,
        counts: Mapping[Any, int],
        rows: Optional[Sequence[int]] = None,
    ) -> "np.ndarray":
        """L1 between a query histogram dict and every (selected) row."""
        plane = self.histogram_plane(family)
        lookup = self._store.histogram_vocabulary(family).lookup
        dims: List[int] = []
        values: List[int] = []
        total = 0
        for key, count in counts.items():
            total += count
            dimension = lookup(key)
            if dimension is not None:
                dims.append(dimension)
                values.append(count)
        return plane.l1(
            np.asarray(dims, dtype=np.int64),
            np.asarray(values, dtype=np.int64),
            total,
            rows,
        )

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-family shape/dtype/footprint — `repro features stats` body."""
        out: Dict[str, Dict[str, object]] = {}
        for q in self._store.q_levels:
            plane = self.branch_plane(q)
            out[plane.kind] = plane.describe()
        for family in HISTOGRAM_FAMILIES:
            plane = self.histogram_plane(family)
            out[plane.kind] = plane.describe()
        sizes = self.size_column()
        out["sizes"] = {
            "rows": int(len(sizes)),
            "width": 1,
            "dtype": "int64",
            "bytes": int(sizes.nbytes),
        }
        return out

    def __repr__(self) -> str:
        return f"FeatureMatrices({len(self._store)} trees)"


# ----------------------------------------------------------------------
# Filter-facing helpers (fully annotated; no numpy types in signatures).
#
# ``repro.filters`` is strict-typed without numpy on the mypy path, so
# these are the only callables filters use; ``Sequence[int]`` /
# ``Sequence[float]`` describe the returned ndarrays accurately enough
# for every consumer (len, iteration, indexing, comparison).  The kernel
# helpers take ``matrices=None`` (no planes) and raise
# :class:`InvalidParameterError` for it, the same "use the loop" signal
# a plane without the needed family raises.
# ----------------------------------------------------------------------


def _planes(matrices: Optional["FeatureMatrices"]) -> "FeatureMatrices":
    if matrices is None:
        raise InvalidParameterError("no matrix planes: filter per candidate")
    return matrices


def branch_l1_counts(
    matrices: Optional["FeatureMatrices"],
    q: Optional[int],
    counts: Mapping[Any, int],
    rows: Optional[Sequence[int]],
) -> Sequence[int]:
    """Per-row packed-branch L1 for a query given as a count mapping."""
    return _planes(matrices).branch_l1(q, counts, rows)


def branch_l1_packed(
    matrices: Optional["FeatureMatrices"],
    q: Optional[int],
    vector: "PackedVector",
    vocabulary: "Vocabulary",
    rows: Optional[Sequence[int]],
) -> Sequence[int]:
    """Per-row packed-branch L1 for an already-packed query vector."""
    return _planes(matrices).branch_l1_packed(q, vector, vocabulary, rows)


def branch_count_bounds(
    matrices: Optional["FeatureMatrices"],
    q: Optional[int],
    vector: "PackedVector",
    vocabulary: "Vocabulary",
    factor: int,
    rows: Optional[Sequence[int]],
) -> Sequence[int]:
    """``ceil(L1 / factor)`` per row — the BranchCount lower bound."""
    return ceil_div(
        _planes(matrices).branch_l1_packed(q, vector, vocabulary, rows), factor
    )


def histogram_l1(
    matrices: Optional["FeatureMatrices"],
    family: str,
    counts: Mapping[Any, int],
    rows: Optional[Sequence[int]],
) -> Sequence[int]:
    """Per-row histogram L1 for the given (unfolded) family."""
    return _planes(matrices).histogram_l1(family, counts, rows)


def size_bounds(
    matrices: Optional["FeatureMatrices"],
    query_size: int,
    rows: Optional[Sequence[int]],
) -> Sequence[int]:
    """``| |T_i| - |Q| |`` per row — the size-difference lower bound."""
    return np.abs(_planes(matrices).size_column(rows) - query_size)


def ceil_div(values: Sequence[int], divisor: int) -> Sequence[int]:
    """Elementwise ``ceil(values / divisor)`` in exact integer arithmetic."""
    return -(-np.asarray(values) // divisor)


def keep_at_most(
    rows: Sequence[int], values: Sequence[float], limit: float
) -> Sequence[int]:
    """The subset of ``rows`` whose parallel ``values`` are ``<= limit``."""
    return _row_index(rows)[np.asarray(values) <= limit]


def elementwise_max(columns: Sequence[Sequence[float]]) -> Sequence[float]:
    """Elementwise maximum across parallel per-row bound columns."""
    return np.maximum.reduce([np.asarray(column) for column in columns])


def stable_order(values: Sequence[float]) -> List[int]:
    """Indices sorted by ``(value, index)`` — the knn frontier order."""
    return np.argsort(np.asarray(values), kind="stable").tolist()


def as_indices(rows: Sequence[int]) -> List[int]:
    """Plain python ints (ndarray rows are int64 — not JSON-serializable)."""
    return [int(row) for row in rows]

"""Shared-memory feature planes: packed columns published once, read N times.

A shard worker needs the packed branch vectors of *its* trees to fit a
store-backed filter.  Pickling every ``array('q')`` column through the
worker pipe would copy the whole feature plane per process; instead the
coordinator flattens the columns into one
:class:`multiprocessing.shared_memory.SharedMemory` segment per shard and
ships only a tiny picklable :class:`PlaneHandle` (segment name + span
table).  The worker attaches the segment and rebuilds each
:class:`~repro.features.packed.PackedVector` as two
``memoryview(...).cast('q')`` slices — zero bytes of feature data cross
the pipe, and both processes read the same physical pages.

Segment layout (all int64 words)::

    for q in q_levels:            # concatenated, coordinator-chosen order
        for tree in shard:        # ascending local index
            dims[0..n)            # strictly ascending interned dimension ids
            counts[0..n)          # parallel occurrence counts
    for family in ("labels", "degrees"):
        for tree in shard:
            dims[0..n)            # ids in the store's histogram vocabulary
            counts[0..n)          # parallel occurrence counts

The unfolded label and degree histograms ride along so a worker's
histogram matrix planes (the label half of the serving filter) build off
the segment too; their intern tables ship once per worker, next to the
branch vocabulary.

Lifecycle: the *publishing* side (coordinator) creates the segment and is
responsible for ``unlink``; every side that attached must ``close``.
:meth:`SharedFeaturePlane.close` first flips :attr:`closed` (so borrowed
vectors start raising
:class:`~repro.exceptions.SharedPlaneClosedError` instead of reading
released memory), then detaches the vectors it handed out, releases its
views and closes — and, on the owning side, unlinks — the segment.  The
coordinator additionally arms a :func:`weakref.finalize` so segments are
reclaimed even when nobody calls ``close`` (see
:class:`repro.sharding.coordinator.ShardedTreeService`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import InvalidParameterError
from repro.features.packed import PackedVector
from repro.features.store import HISTOGRAM_FAMILIES, FeatureStore
from repro.features.vocabulary import Vocabulary

__all__ = ["PlaneHandle", "SharedFeaturePlane"]


@dataclass(frozen=True)
class PlaneHandle:
    """Everything a worker needs to attach a plane: name + span table.

    Plain picklable data — this is the only plane artifact that crosses a
    process boundary.
    """

    #: shared-memory segment name (``SharedMemory(name=...)`` attaches it)
    name: str
    #: branch levels, in segment order
    q_levels: Tuple[int, ...]
    #: ``|T|`` per tree (local index order; q-independent)
    sizes: Tuple[int, ...]
    #: per q level: one ``(word offset, dimension count)`` span per tree
    spans: Dict[int, Tuple[Tuple[int, int], ...]]
    #: per histogram family: one ``(word offset, bin count)`` span per tree
    histogram_spans: Dict[str, Tuple[Tuple[int, int], ...]]
    #: total payload length in int64 words
    words: int


class SharedFeaturePlane:
    """One shard's packed feature columns in a shared-memory segment.

    Construct via :meth:`publish` (creating side) or :meth:`attach`
    (worker side); never directly.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: PlaneHandle,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.handle = handle
        self._owner = owner
        self._closed = False
        # cast over the whole mapping: segment sizes are multiples of 8
        # (we allocate words*8 bytes and the kernel rounds up to pages)
        self._view: Optional[memoryview] = memoryview(shm.buf).cast("q")
        self._vectors: List[PackedVector] = []
        #: histogram column slices handed out; released on close
        self._slices: List[memoryview] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def publish(
        cls,
        store: FeatureStore,
        indices: Optional[Sequence[int]] = None,
    ) -> "SharedFeaturePlane":
        """Copy the packed columns of ``indices`` (default: all trees of
        ``store``) into a fresh shared-memory segment.

        This is the single copy of the whole scheme — every subsequent
        reader is zero-copy.  Only data-side vectors can be published;
        vectors with out-of-vocabulary ``extra`` entries (query-side) are
        rejected because the layout has no slot for raw branch keys.  The
        label and degree histograms are interned against the store's
        histogram vocabularies, which readers need to attach them (see
        :meth:`store`).
        """
        if indices is None:
            indices = range(len(store))
        q_levels = store.q_levels
        sizes = tuple(store.tree_size(index) for index in indices)
        spans: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        offset = 0
        columns: List[Tuple[Sequence[int], Sequence[int]]] = []
        for q in q_levels:
            q_spans = []
            for index in indices:
                vector = store.packed_vector(index, q)
                if vector.extra:
                    raise InvalidParameterError(
                        f"tree {index} has {len(vector.extra)} "
                        "out-of-vocabulary branches; only data-side "
                        "vectors can be published to a shared plane"
                    )
                q_spans.append((offset, len(vector.dims)))
                offset += 2 * len(vector.dims)
                columns.append((vector.dims, vector.counts))
            spans[q] = tuple(q_spans)
        histogram_spans: Dict[str, Tuple[Tuple[int, int], ...]] = {}
        for family in HISTOGRAM_FAMILIES:
            family_spans = []
            for index in indices:
                dims, counts = store.histogram_columns(family, index)
                family_spans.append((offset, len(dims)))
                offset += 2 * len(dims)
                columns.append((dims, counts))
            histogram_spans[family] = tuple(family_spans)
        handle_words = offset
        shm = shared_memory.SharedMemory(
            create=True, size=max(8, handle_words * 8)
        )
        handle = PlaneHandle(
            name=shm.name,
            q_levels=q_levels,
            sizes=sizes,
            spans=spans,
            histogram_spans=histogram_spans,
            words=handle_words,
        )
        view = memoryview(shm.buf).cast("q")
        position = 0
        for dims, counts in columns:
            n = len(dims)
            view[position : position + n] = array("q", dims)
            view[position + n : position + 2 * n] = array("q", counts)
            position += 2 * n
        view.release()
        return cls(shm, handle, owner=True)

    @classmethod
    def attach(cls, handle: PlaneHandle) -> "SharedFeaturePlane":
        """Map an already published segment (worker side; zero-copy)."""
        shm = shared_memory.SharedMemory(name=handle.name)
        return cls(shm, handle, owner=False)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Liveness flag the borrowed vectors key their guard off."""
        return self._closed

    @property
    def owner(self) -> bool:
        """Whether this side created (and must unlink) the segment."""
        return self._owner

    def __len__(self) -> int:
        return len(self.handle.sizes)

    def vectors(self, q: int) -> List[PackedVector]:
        """Borrowed packed vectors at level ``q``, one per shard tree.

        The columns are ``memoryview`` slices over the shared segment —
        no copy — and each vector carries this plane as its ``owner`` so
        use-after-close raises instead of reading released memory.
        """
        if self._closed or self._view is None:
            raise InvalidParameterError("plane is closed")
        if q not in self.handle.spans:
            raise InvalidParameterError(
                f"plane has no q={q} column (levels: {self.handle.q_levels})"
            )
        view = self._view
        built: List[PackedVector] = []
        for local, (offset, n) in enumerate(self.handle.spans[q]):
            vector = PackedVector(
                view[offset : offset + n],
                view[offset + n : offset + 2 * n],
                self.handle.sizes[local],
                q,
                owner=self,
            )
            built.append(vector)
        self._vectors.extend(built)
        return built

    def histogram_columns(self, family: str) -> List[Tuple[memoryview, memoryview]]:
        """Borrowed ``(dims, counts)`` histogram columns, one per shard tree.

        Zero-copy ``memoryview`` slices like :meth:`vectors`; :meth:`close`
        releases them, so a read after close raises ``ValueError``.
        """
        if self._closed or self._view is None:
            raise InvalidParameterError("plane is closed")
        view = self._view
        columns = [
            (view[offset : offset + n], view[offset + n : offset + 2 * n])
            for offset, n in self.handle.histogram_spans[family]
        ]
        for dims, counts in columns:
            self._slices.extend((dims, counts))
        return columns

    def store(
        self,
        vocabulary: Vocabulary,
        histogram_vocabularies: Optional[Mapping[str, Vocabulary]] = None,
    ) -> FeatureStore:
        """A packed-only :class:`FeatureStore` over this plane.

        ``vocabulary`` is the coordinator's interning table (shipped once
        per worker); the resulting store serves every store-backed filter
        that runs on packed vectors without re-extracting a single tree.
        With ``histogram_vocabularies`` (the publishing store's
        :meth:`~FeatureStore.histogram_vocabulary` tables) it also serves
        the label and degree histogram planes.
        """
        packed = {q: self.vectors(q) for q in self.handle.q_levels}
        histograms = {
            family: (table, self.histogram_columns(family))
            for family, table in (histogram_vocabularies or {}).items()
        }
        return FeatureStore.from_packed(
            vocabulary, packed, self.handle.q_levels, histograms
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the mapping; the owning side also unlinks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for vector in self._vectors:
            vector.detach()
        self._vectors.clear()
        for borrowed in self._slices:
            borrowed.release()
        self._slices.clear()
        if self._view is not None:
            self._view.release()
            self._view = None
        try:
            self._shm.close()
        except BufferError:
            # an external holder still exports a slice; the mapping stays
            # until process exit, but the name must not outlive us
            pass
        if self._owner:
            self._shm.unlink()

    def __enter__(self) -> "SharedFeaturePlane":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"SharedFeaturePlane({self.handle.name!r}, {len(self)} trees, "
            f"q_levels={self.handle.q_levels}, {state})"
        )

"""Sublinear candidate generation: metric + inverted-file indexes.

Two index structures over the corpus's BDist vectors, both exposing the
:class:`~repro.index.base.CandidateIndex` contract (exact range balls,
lazy ascending streams, generation-stamped sync against the feature
store):

* :class:`~repro.index.vptree.VPTreeIndex` — a vantage-point tree that
  prunes whole subtrees via the triangle inequality; wins on tightly
  clustered corpora and very selective thresholds.
* :class:`~repro.index.inverted.ExtendedInvertedFile` — the paper's
  Algorithm 1: posting lists per branch dimension plus stored vector
  norms, so trees sharing no branch with the query are never touched;
  wins when queries share few branches with most of the corpus.

They plug into :func:`~repro.search.range_query.range_query`,
:func:`~repro.search.knn.knn_query`,
:func:`~repro.search.tiered_knn.tiered_knn_query` and the serving layer
as ``candidate_source`` values (``vptree`` / ``ifi``), next to
``vectorized``; see ``docs/INDEXING.md``.
"""

from __future__ import annotations

import typing

from repro.index.base import CandidateIndex
from repro.index.inverted import ExtendedInvertedFile
from repro.index.io import (
    index_sidecar_path,
    load_index_sidecar,
    save_index_sidecar,
)
from repro.index.ordering import OrderedBoundStream
from repro.index.vptree import LEAF_CAPACITY, VPTreeIndex

if typing.TYPE_CHECKING:
    from repro.features.store import FeatureStore

__all__ = [
    "CANDIDATE_SOURCES",
    "INDEX_KINDS",
    "CandidateIndex",
    "ExtendedInvertedFile",
    "LEAF_CAPACITY",
    "OrderedBoundStream",
    "VPTreeIndex",
    "build_candidate_index",
    "index_sidecar_path",
    "load_index_sidecar",
    "save_index_sidecar",
]

#: The index-backed candidate sources.
INDEX_KINDS = ("vptree", "ifi")

#: Every pluggable ``candidate_source`` value the serving layer accepts.
CANDIDATE_SOURCES = ("auto", "vectorized") + INDEX_KINDS


def build_candidate_index(
    kind: str, store: FeatureStore, q: typing.Optional[int] = None
) -> CandidateIndex:
    """Construct the candidate index named ``kind`` over ``store``."""
    from repro.exceptions import InvalidParameterError

    if kind == "vptree":
        return VPTreeIndex(store, q)
    if kind == "ifi":
        return ExtendedInvertedFile(store, q)
    raise InvalidParameterError(
        f"unknown candidate index kind {kind!r} (expected one of {INDEX_KINDS})"
    )

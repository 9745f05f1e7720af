"""Sublinear candidate generation: the extended inverted file.

:class:`~repro.index.inverted.ExtendedInvertedFile` is the paper's
Algorithm 1 over the corpus's BDist vectors: posting lists per branch
dimension plus stored vector norms, so trees sharing no branch with the
query are never touched.  It answers exact range balls, streams rows in
ascending BDist for k-NN (:class:`~repro.index.ordering.OrderedBoundStream`)
and syncs against the feature store by generation.

It plugs into :func:`~repro.search.range_query.range_query`,
:func:`~repro.search.knn.knn_query` and the serving layer as the ``ifi``
``candidate_source``, next to ``vectorized``; see ``docs/INDEXING.md``.
"""

from __future__ import annotations

from repro.index.inverted import ExtendedInvertedFile
from repro.index.ordering import OrderedBoundStream

__all__ = ["CANDIDATE_SOURCES", "ExtendedInvertedFile", "OrderedBoundStream"]

#: Every pluggable ``candidate_source`` value the serving layer accepts.
CANDIDATE_SOURCES = ("auto", "vectorized", "ifi")

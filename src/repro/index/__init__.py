"""Sublinear candidate generation: the extended inverted file.

:class:`~repro.index.inverted.ExtendedInvertedFile` is the paper's
Algorithm 1 over the corpus's BDist vectors: posting lists per branch
dimension plus stored vector norms, so trees sharing no branch with the
query are never touched.  It answers exact range balls and syncs against
the feature store by generation.

It plugs into :func:`~repro.search.range_query.range_query` (``index=``)
and :meth:`~repro.search.database.TreeDatabase.indexed_range_query`, and
backs the Alg. 1 ablations; the serving layer does not use it.  See
``docs/INDEXING.md``.
"""

from __future__ import annotations

from repro.index.inverted import ExtendedInvertedFile

__all__ = ["ExtendedInvertedFile"]
